"""Constructive realization of rational matrix functions as pencil Schur
complements: plain, homogeneous, symmetric, and homogeneous-symmetric, with
the characteristic-2 decision procedures.

Everything is assembled from the combinators; precondition checks are
deferred during assembly (the outputs are verified independently by the
:mod:`ratpencil.verify` module and the test suite).  The builders make no
attempt to minimize pencil sizes — correctness of the Schur complement is
the only contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinators import (
    op_add,
    op_homogenize,
    op_inverse,
    op_kron_identity,
    op_product,
    op_sandwich,
    op_scale,
    op_symmetrize,
)
from .errors import (
    DimensionMismatch,
    NotHomogeneousDegreeOne,
    NotRealizableChar2,
    NotSymmetric,
    TooFewVariables,
    WrongCharacteristic,
)
from .matrices import RationalMatrix
from .pencil import LinearPencil, RealizationKind
from .poly import Polynomial, RationalFunction, grlex_key


@dataclass(frozen=True)
class RealizationResult:
    pencil: LinearPencil
    kind: RealizationKind
    target: RationalMatrix


@dataclass(frozen=True)
class Char2Certificate:
    """Outcome of the characteristic-2 parity test on h = num * den.

    ``realizable`` verdicts carry the decomposition ``h = sum_beta z^beta
    g_beta`` over beta in {0, e_1, ..., e_n} with every ``g_beta`` supported
    on even exponent vectors; ``not_realizable`` verdicts name a monomial of
    h whose exponent parity vector has weight >= 2.
    """

    verdict: str  # "realizable" | "not_realizable"
    decomposition: dict[tuple[int, ...], Polynomial] | None = None
    offending_monomial: tuple[int, ...] | None = None

    @property
    def realizable(self) -> bool:
        return self.verdict == "realizable"


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def _atom_var(descriptor, n_vars, index) -> LinearPencil:
    one = descriptor.one
    coeffs = [dict() for _ in range(n_vars + 1)]
    coeffs[0][(1, 1)] = one
    coeffs[index + 1][(0, 0)] = one
    return LinearPencil(descriptor, n_vars, 2, 1, coeffs)


def _const_matrix_pencil(descriptor, n_vars, values) -> LinearPencil:
    """Realizes a constant k x k matrix B as [[B, 0], [0, 1]] with split k
    (the zero matrix and the 1x1 one included)."""
    k = len(values)
    c0 = {(i, j): value for i, row in enumerate(values)
          for j, value in enumerate(row)}
    c0[(k, k)] = descriptor.one
    return LinearPencil(
        descriptor, n_vars, k + 1, k, [c0] + [{} for _ in range(n_vars)]
    )


def _identity_rows(descriptor, k):
    return [
        [descriptor.one if i == j else descriptor.zero for j in range(k)]
        for i in range(k)
    ]


def _basis_column(descriptor, k, i):
    return [[descriptor.one] if t == i else [descriptor.zero] for t in range(k)]


def _basis_row(descriptor, k, i):
    return [
        [descriptor.one if t == i else descriptor.zero for t in range(k)]
    ]


def _sorted_terms(p: Polynomial):
    return sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)


def _scaled(p: LinearPencil, value) -> LinearPencil:
    return p if value == p.descriptor.one else op_scale(p, value, check=False)


def _sum(parts, descriptor, n_vars, k) -> LinearPencil:
    """Pencil for the sum of the parts' Schur complements, left to right;
    the k x k zero pencil when there are no parts."""
    if not parts:
        zero = [[descriptor.zero] * k for _ in range(k)]
        return _const_matrix_pencil(descriptor, n_vars, zero)
    acc = parts[0]
    for term in parts[1:]:
        acc = op_add(acc, term, check=False)
    return acc


# ---------------------------------------------------------------------------
# plain realizations
# ---------------------------------------------------------------------------


def _br_monomial(descriptor, n_vars, exps) -> LinearPencil:
    factors = [v for v in range(n_vars) for _ in range(exps[v])]
    if not factors:
        return _const_matrix_pencil(descriptor, n_vars, [[descriptor.one]])
    pencil = _atom_var(descriptor, n_vars, factors[0])
    for v in factors[1:]:
        pencil = op_product(pencil, None, _atom_var(descriptor, n_vars, v),
                            check=False)
    return pencil


def _br_poly_scalar(p: Polynomial) -> LinearPencil:
    d, n = p.descriptor, p.n_vars
    parts = [_scaled(_br_monomial(d, n, exps), value)
             for exps, value in _sorted_terms(p)]
    return _sum(parts, d, n, 1)


def _br_poly_matrix(grid: list[list[Polynomial]]) -> LinearPencil:
    """BR of a k x k polynomial matrix written as sum_alpha z^alpha C_alpha."""
    k = len(grid)
    d, n = grid[0][0].descriptor, grid[0][0].n_vars
    if k == 1:
        return _br_poly_scalar(grid[0][0])
    support: dict[tuple[int, ...], list[list]] = {}
    for i in range(k):
        for j in range(k):
            for exps, value in grid[i][j].terms.items():
                coeff = support.setdefault(
                    exps, [[d.zero] * k for _ in range(k)]
                )
                coeff[i][j] = value
    parts = []
    identity = _identity_rows(d, k)
    for exps in sorted(support, key=grlex_key, reverse=True):
        const = support[exps]
        if not any(e for e in exps):
            parts.append(_const_matrix_pencil(d, n, const))
        else:
            base = op_kron_identity(_br_monomial(d, n, exps), k, check=False)
            parts.append(op_sandwich(identity, base, const, check=False))
    return _sum(parts, d, n, k)


def realize_br(f: RationalMatrix) -> RealizationResult:
    """Bessmertnyi realization of an arbitrary square rational matrix.

    Pipeline: monomials as product chains of the atomic variable pencils,
    polynomials as scaled sums, matrix polynomials through Kronecker and
    sandwich steps, and F = (1/q) P via an inverted denominator pencil.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    d, n, k = f.descriptor, f.n_vars, f.rows
    one = Polynomial.one(d, n)
    dens = []
    for row in f.entries:
        for entry in row:
            if entry.den != one and all(entry.den != q for q in dens):
                dens.append(entry.den)
    if not dens:
        grid = [[entry.num for entry in row] for row in f.entries]
        pencil = _br_poly_matrix(grid)
    else:
        q = one
        for den in dens:
            q = q * den
        grid = []
        for row in f.entries:
            cleared = []
            for entry in row:
                scaled = entry.num
                for den in dens:
                    if den != entry.den:
                        scaled = scaled * den
                cleared.append(scaled)
            grid.append(cleared)
        p_pencil = _br_poly_matrix(grid)
        inv_q = op_inverse(_br_poly_scalar(q), check=False)
        pencil = op_product(
            op_kron_identity(inv_q, k, check=False), None, p_pencil, check=False
        )
    return RealizationResult(pencil, RealizationKind.BR, f)


def _homogeneous_pairs(f: RationalMatrix):
    pairs = []
    for row in f.entries:
        out_row = []
        for entry in row:
            pair = entry.homogeneous_pair(1)
            if pair is None:
                raise NotHomogeneousDegreeOne(
                    f"entry {entry} is not homogeneous of degree 1"
                )
            out_row.append(pair)
        pairs.append(out_row)
    return pairs


def _hbr_single_var(f: RationalMatrix, pairs) -> LinearPencil:
    d, k = f.descriptor, f.rows
    c0: dict = {}
    c1: dict = {}
    for i in range(k):
        for j in range(k):
            num, den = pairs[i][j]
            if num.is_zero():
                continue
            value = d.div(num.evaluate([d.one]), den.evaluate([d.one]))
            if value:
                c1[(i, j)] = value
    c1[(k, k)] = d.one
    return LinearPencil(d, 1, k + 1, k, [c0, c1])


def _dehomogenize(pairs) -> RationalMatrix:
    """The matrix of homogeneous pairs with the last variable set to 1."""
    return RationalMatrix(
        [
            [
                RationalFunction(num.dehomogenize_last(), den.dehomogenize_last())
                for num, den in row
            ]
            for row in pairs
        ]
    )


def _realize_homogeneous(f: RationalMatrix, realize,
                         kind: RealizationKind) -> RealizationResult:
    """The path of :func:`realize_hbr`, with ``realize`` building the
    realization of the dehomogenization."""
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    if f.n_vars < 1:
        raise NotHomogeneousDegreeOne("need at least one variable")
    pairs = _homogeneous_pairs(f)
    if f.n_vars == 1:
        pencil = _hbr_single_var(f, pairs)
    else:
        pencil = op_homogenize(realize(_dehomogenize(pairs)).pencil, check=False)
    return RealizationResult(pencil, kind, f)


def realize_hbr(f: RationalMatrix) -> RealizationResult:
    """Homogeneous realization of a matrix of degree-1 homogeneous entries.

    One variable: the pencil z1*A1 directly, padded with a z1 block.  More:
    the :func:`realize_br` realization of the dehomogenization at the last
    variable, homogenized back.
    """
    return _realize_homogeneous(f, realize_br, RealizationKind.HBR)


# ---------------------------------------------------------------------------
# characteristic-2 decision procedure
# ---------------------------------------------------------------------------


def decide_sbr_scalar_char2(f: RationalFunction) -> Char2Certificate:
    """Parity test for a symmetric realization of f = p/q in characteristic 2.

    The product h = p*q must have every monomial's exponent parity vector of
    Hamming weight at most one; the certificate carries the grouping of h by
    parity class (realizable) or the first offending monomial (grlex order).
    """
    if f.descriptor.characteristic != 2:
        raise WrongCharacteristic("decision procedure needs characteristic 2")
    if f.n_vars < 2:
        raise TooFewVariables(
            "one variable is unconditionally realizable; nothing to decide"
        )
    h = f.num * f.den
    for exps in sorted(h.terms, key=grlex_key, reverse=True):
        parity = tuple(e % 2 for e in exps)
        if sum(parity) >= 2:
            return Char2Certificate("not_realizable", offending_monomial=exps)
    buckets: dict[tuple[int, ...], dict] = {}
    for exps, value in h.terms.items():
        parity = tuple(e % 2 for e in exps)
        reduced = tuple(e - b for e, b in zip(exps, parity))
        buckets.setdefault(parity, {})[reduced] = value
    decomposition = {
        beta: Polynomial(f.descriptor, f.n_vars, terms)
        for beta, terms in buckets.items()
    }
    return Char2Certificate("realizable", decomposition=decomposition)


def _diagonal_certificates(f: RationalMatrix) -> list[Char2Certificate]:
    """The parity certificate of every diagonal entry, each computed once.

    Raises :class:`NotRealizableChar2` naming the first failing diagonal.
    """
    certs = []
    for i in range(f.rows):
        cert = decide_sbr_scalar_char2(f.entries[i][i])
        if not cert.realizable:
            raise NotRealizableChar2(cert, diagonal=i)
        certs.append(cert)
    return certs


def _sym_square(p: LinearPencil, x=None) -> LinearPencil:
    """Symmetric pencil for (schur P) * X^{-1} * (schur P)^T."""
    return op_product(p, x, p.transpose(), check=False)


def _sbr_power_one_var(descriptor, n_vars, e: int) -> LinearPencil:
    """Symmetric pencil realizing z1^e over n_vars <= 1 variables."""
    if e == 0:
        return _const_matrix_pencil(descriptor, n_vars, [[descriptor.one]])
    if e == 1:
        return _atom_var(descriptor, 1, 0)
    half = e // 2
    base = _br_monomial(descriptor, 1, (half,))
    if e % 2 == 0:
        return _sym_square(base)
    z1 = RationalMatrix.scalar(RationalFunction.variable(descriptor, 1, 0))
    inv = op_inverse(base, check=False)
    return op_inverse(_sym_square(inv, z1), check=False)


def _sbr_poly_one_var(p: Polynomial) -> LinearPencil:
    """Symmetric pencil for a polynomial in at most one variable."""
    d, n = p.descriptor, p.n_vars
    parts = [_scaled(_sbr_power_one_var(d, n, sum(exps)), value)
             for exps, value in _sorted_terms(p)]
    return _sum(parts, d, n, 1)


def _sbr_square_over(x: Polynomial, base: LinearPencil) -> LinearPencil:
    """Symmetric pencil realizing x^2 * s^{-1} from a symmetric realizer of s.

    Route: with A the symmetric pencil realizing s, the (1,1) entry of
    A^{-1} is s^{-1}, so x^2 s^{-1} = e1^T (x E11) A^{-1} (x E11)^T e1 —
    a congruence by the rank-one x E11, built by sandwiching and a pencil
    product with middle factor A.
    """
    d = base.descriptor
    size = base.m
    col = _basis_column(d, size, 0)
    row = _basis_row(d, size, 0)
    wrapped = op_sandwich(col, _br_poly_scalar(x), row, check=False)
    return op_sandwich(row, _sym_square(wrapped, base), col, check=False)


def _sbr_from_certificate(cert: Char2Certificate, descriptor, n_vars) -> LinearPencil:
    """Symmetric pencil realizing h = sum_beta z^beta g_beta in char 2.

    Even classes become sums of scaled norms m * m^T; the z_i classes use the
    congruence (m z_i) z_i^{-1} (m z_i)^T = z_i m^2.
    """
    parts = []
    for beta in sorted(cert.decomposition, key=grlex_key, reverse=True):
        g = cert.decomposition[beta]
        index = next((t for t, b in enumerate(beta) if b), None)
        for exps, value in _sorted_terms(g):
            half = tuple(e // 2 for e in exps)
            if index is None:
                term = _sym_square(_br_monomial(descriptor, n_vars, half))
            else:
                shifted = tuple(
                    h + (1 if t == index else 0) for t, h in enumerate(half)
                )
                x = RationalMatrix.scalar(
                    RationalFunction.variable(descriptor, n_vars, index)
                )
                term = _sym_square(
                    _br_monomial(descriptor, n_vars, shifted), x
                )
            parts.append(_scaled(term, value))
    return _sum(parts, descriptor, n_vars, 1)


def _sbr_scalar(f: RationalFunction, h_pencil: LinearPencil) -> LinearPencil:
    """Symmetric pencil for f = p/q from a symmetric pencil realizing h = p*q.

    ``h_pencil`` comes from the one-variable power construction or from the
    characteristic-2 parity certificate of h.
    """
    if f.den == Polynomial.one(f.descriptor, f.n_vars):
        return h_pencil  # h = p * 1 is f itself
    return _sbr_square_over(f.num, h_pencil)  # p^2 / (p q) = p / q


def _strict_upper(f: RationalMatrix) -> RationalMatrix:
    zero = RationalFunction.zero(f.descriptor, f.n_vars)
    return RationalMatrix(
        [
            [f.entries[i][j] if j > i else zero for j in range(f.cols)]
            for i in range(f.rows)
        ]
    )


def _sbr_by_diagonal(f: RationalMatrix, diagonal) -> LinearPencil:
    """F = F_upp + F_upp^T + diag F with symmetric pieces summed, given the
    symmetric pencils of the diagonal entries (a 1x1 F is its entry's)."""
    d, n, k = f.descriptor, f.n_vars, f.rows
    if k == 1:
        return diagonal[0]
    parts = []
    upper = _strict_upper(f)
    if any(not e.is_zero() for row in upper.entries for e in row):
        parts.append(op_symmetrize(realize_br(upper).pencil, check=False))
    for i, scalar in enumerate(diagonal):
        parts.append(
            op_sandwich(
                _basis_column(d, k, i), scalar, _basis_row(d, k, i), check=False
            )
        )
    return _sum(parts, d, n, k)


def realize_sbr(f: RationalMatrix) -> RealizationResult:
    """Symmetric realization of a symmetric rational matrix.

    Away from characteristic 2 with n >= 2 the whole matrix is realized as
    (1/2)(F + F^T).  Otherwise the strict upper triangle becomes
    F_upp + F_upp^T, and each diagonal entry f = p/q comes from a symmetric
    pencil for h = p*q as p^2 / (p q).  With n <= 1 that pencil is built
    from even/odd powers of z1.  In characteristic 2 with n >= 2 every
    diagonal entry must first pass the parity test, whose certificate
    builds the pencil; the first failure raises :class:`NotRealizableChar2`.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    if not f.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    d, n = f.descriptor, f.n_vars
    if n >= 2 and d.characteristic != 2:
        half = d.inv(d.add(d.one, d.one))
        pencil = op_scale(
            op_symmetrize(realize_br(f).pencil, check=False), half, check=False
        )
    else:
        diagonal = [f.entries[i][i] for i in range(f.rows)]
        if n <= 1:
            hs = [_sbr_poly_one_var(g.num * g.den) for g in diagonal]
        else:
            hs = [_sbr_from_certificate(cert, d, n)
                  for cert in _diagonal_certificates(f)]
        pencil = _sbr_by_diagonal(
            f, [_sbr_scalar(g, h) for g, h in zip(diagonal, hs)]
        )
    return RealizationResult(pencil, RealizationKind.SBR, f)


def decide_and_realize_hsbr(f: RationalMatrix):
    """Homogeneous symmetric realization, or the failing parity certificate.

    One variable: the pencil z1*A1 directly.  More: the
    :func:`realize_sbr` realization of the dehomogenization at the last
    variable, homogenized back.  In characteristic 2 with n >= 3 every
    dehomogenized diagonal entry must pass the parity test in n-1
    variables; the first failure is returned as a :class:`Char2Certificate`
    instead of a pencil.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    if not f.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    try:
        return _realize_homogeneous(f, realize_sbr, RealizationKind.HSBR)
    except NotRealizableChar2 as exc:
        return exc.certificate


# ---------------------------------------------------------------------------
# decision dispatchers (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    realizable: bool
    reason: str
    diagonal: int | None = None
    certificate: Char2Certificate | None = None


def _parity_decision(f: RationalMatrix, obstruction: str) -> Decision:
    try:
        _diagonal_certificates(f)
    except NotRealizableChar2 as exc:
        return Decision(False, obstruction, exc.diagonal, exc.certificate)
    return Decision(True, "all diagonal parity certificates pass")


def decide_sbr(f: RationalMatrix) -> Decision:
    """Does the symmetric matrix f have a symmetric realization?"""
    if not f.is_square() or not f.is_symmetric():
        return Decision(False, "matrix is not symmetric")
    if f.n_vars <= 1:
        return Decision(True, "single-variable functions always realize")
    if f.descriptor.characteristic != 2:
        return Decision(True, "characteristic is not 2")
    return _parity_decision(f, "parity obstruction")


def decide_hsbr(f: RationalMatrix) -> Decision:
    """Does f have a homogeneous symmetric realization?"""
    if not f.is_square() or not f.is_symmetric():
        return Decision(False, "matrix is not symmetric")
    try:
        pairs = _homogeneous_pairs(f)
    except NotHomogeneousDegreeOne:
        return Decision(False, "entries are not homogeneous of degree 1")
    if f.n_vars <= 2:
        return Decision(True, "at most two variables always realize")
    if f.descriptor.characteristic != 2:
        return Decision(True, "characteristic is not 2")
    return _parity_decision(
        _dehomogenize(pairs), "parity obstruction after dehomogenizing"
    )
