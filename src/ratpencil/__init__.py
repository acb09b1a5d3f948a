"""Exact linear matrix pencil realizations over Q and prime fields.

The library constructs pencils A(z) = A0 + z1 A1 + ... + zn An whose Schur
complement with respect to the (2,2) block equals a given multivariate
rational matrix function, verifies such claims symbolically, and decides
when symmetric and homogeneous realizations exist — including the full
characteristic-2 obstruction theory with parity certificates and the
quotient-ring reduction machinery behind it.
"""

from .errors import (
    BadIndices,
    BlockSizeMismatch,
    DegreeTooLarge,
    DescriptorMismatch,
    DimensionMismatch,
    DivisionByZero,
    DivisionByZeroPolynomial,
    FieldLiteralError,
    NotARealizer,
    NotCleaned,
    NotHomogeneousDegreeOne,
    NotInvertible,
    NotInvertibleDiagonal,
    NotLinearEntries,
    NotRealizableChar2,
    NotSymmetric,
    ParseError,
    PencilTooLarge,
    RatPencilError,
    RingTooLarge,
    SingularBlock,
    SingularMatrix,
    SingularSchurComplement,
    SingularX,
    TooFewVariables,
    TooManyVariables,
    WrongCharacteristic,
    ZeroScalar,
)
from .fields import (
    FieldDescriptor,
    FieldElement,
    characteristic,
    field_arith,
    parse_field,
    prime_field,
    rationals,
)
from .poly import Polynomial, RationalFunction, poly_arith, ratfun_arith
from .matrices import RationalMatrix, mat_arith, mat_det, mat_inv
from .pencil import LinearPencil, RealizationKind, schur_complement
from .combinators import (
    op_add,
    op_homogenize,
    op_inverse,
    op_kron_identity,
    op_product,
    op_sandwich,
    op_scale,
    op_shrink,
    op_symmetrize,
)
from .realize import (
    Char2Certificate,
    Decision,
    RealizationResult,
    decide_and_realize_hsbr,
    decide_hsbr,
    decide_sbr,
    decide_sbr_scalar_char2,
    realize_br,
    realize_hbr,
    realize_hsbr,
    realize_sbr,
)
from .quotring import (
    QuotContext,
    QuotElement,
    QuotMatrix,
    add_transform,
    clean,
    det_involution_sum,
    is_ring_realizer,
    isolate,
    lift,
    mult_normal_form,
    project,
    qe_abs,
    qe_inv,
    reduce_realizer,
)
from .verify import VerificationReport, check_realization, cross_validate_det
from .expr import parse_expression

__version__ = "0.1.0"
