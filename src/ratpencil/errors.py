"""Exception types shared across the library."""

from __future__ import annotations


class RatPencilError(Exception):
    """Base class for all library errors."""


class DescriptorMismatch(RatPencilError):
    """Operands live over different fields (or variable counts)."""


class DivisionByZero(RatPencilError, ZeroDivisionError):
    """Division by the zero element of a field or function field."""


class DegreeTooLarge(RatPencilError, OverflowError):
    """A monomial's total degree is past ``poly.MAX_DEGREE``, the most that
    its packed form holds."""


class DimensionMismatch(RatPencilError):
    """Matrix dimensions are not conformable for the requested operation."""


class SingularMatrix(RatPencilError):
    """A matrix required to be invertible has zero determinant."""


class SingularBlock(SingularMatrix):
    """The (2,2) block of a pencil is singular as a polynomial matrix."""


class SingularSchurComplement(SingularMatrix):
    """The Schur complement is singular, so it cannot be inverted."""


class SingularX(SingularMatrix):
    """The middle factor of a pencil product is singular."""


class PencilTooLarge(RatPencilError):
    """A pencil would be, or claims to be, larger than
    ``pencil.MAX_PENCIL_SIZE``."""


class RingTooLarge(RatPencilError):
    """A quotient-ring matrix is larger than ``quotring.MAX_RING_SIZE``, or
    its involution sum meets more than ``quotring.MAX_INVOLUTION_SETS``
    index sets."""


class TooManyVariables(RatPencilError):
    """A polynomial would have more than ``poly.MAX_VARIABLES`` variables."""


class BlockSizeMismatch(DimensionMismatch):
    """Two pencils disagree on the size of the (1,1) block."""


class ZeroScalar(RatPencilError):
    """A nonzero scalar was required."""


class NotHomogeneousDegreeOne(RatPencilError):
    """Input is not a matrix of homogeneous degree-one rational functions."""


class NotSymmetric(RatPencilError):
    """Input matrix is not symmetric."""


class NotRealizableChar2(RatPencilError):
    """No symmetric realization exists over a characteristic-2 field.

    Carries the parity certificate of the first failing diagonal entry.
    """

    def __init__(self, certificate, diagonal=None):
        self.certificate = certificate
        self.diagonal = diagonal
        where = "" if diagonal is None else f" (diagonal entry {diagonal})"
        super().__init__(f"no symmetric realization in characteristic 2{where}")


class WrongCharacteristic(RatPencilError):
    """Operation requires a field of a specific characteristic."""


class TooFewVariables(RatPencilError):
    """The characteristic-2 decision procedure needs at least two variables."""


class NotInvertible(RatPencilError):
    """Quotient-ring element with zero absolute value cannot be inverted."""


class BadIndices(RatPencilError):
    """Row/column indices out of range or coincident where forbidden."""


class NotInvertibleDiagonal(RatPencilError):
    """ISOLATE pivot diagonal entry is not invertible in the quotient ring."""


class NotCleaned(RatPencilError):
    """Matrix has non-constant off-diagonal entries where CLEAN output is required."""


class NotLinearEntries(RatPencilError):
    """Quotient-ring matrix entries must be linear (total degree <= 1)."""


class NotARealizer(RatPencilError):
    """Matrix does not realize the claimed quotient-ring element."""


class ParseError(RatPencilError):
    """Expression syntax error, with the offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class DivisionByZeroPolynomial(RatPencilError):
    """An expression divides by a rational function that is identically zero."""


class FieldLiteralError(RatPencilError):
    """A constant subexpression is not a valid field element (e.g. 1/2 over GF(2))."""
