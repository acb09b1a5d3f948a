"""Constructive realization of rational matrix functions as pencil Schur
complements: plain, homogeneous, symmetric, and homogeneous-symmetric, with
the characteristic-2 decision procedures.

A BR pencil is written in one pass (:func:`_br_entrywise`): one
bidiagonal chain per polynomial term, and for an entry p/q the pencil of q,
negated and bordered by the chains of p.  The symmetric pencils are
assembled from BR pencils with the combinators.  Precondition checks are
deferred during assembly (the outputs are verified independently by the
:mod:`ratpencil.verify` module and the test suite).  Correctness of the
Schur complement is the only contract.  Three steps keep pencils small:

* :func:`realize_br` and :func:`realize_sbr` split the target as
  F = L + N, with L the part of degree at most 1 of every entry whose
  denominator is 1.  They build only N and add L into the A11
  coefficients, since the Schur complement is affine in A11.  For N = 0
  the pencil is [[0, 0], [0, 1]] plus L, of size k + 1.  The homogeneous
  builders realize the dehomogenization, so they split too.
* In characteristic 2, each parity class of a diagonal entry is one
  symmetric square, since (a + b)^2 = a^2 + b^2 there.
* In characteristic 2, :func:`op_shrink` removes constant pivots of A22
  by exact Schur steps from each diagonal square before it is placed,
  and from their sum.  A BR pencil has no constant pivot, so nothing else
  is shrunk.

Pencils are not minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinators import (
    op_add,
    op_homogenize,
    op_product,
    op_sandwich,
    op_scale,
    op_shrink,
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
from .fields import accumulate
from .matrices import RationalMatrix
from .pencil import LinearPencil, RealizationKind, require_size
from .poly import Polynomial, RationalFunction, grlex_key, layout


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


def _basis_column(descriptor, k, i):
    return [[descriptor.one] if t == i else [descriptor.zero] for t in range(k)]


def _basis_row(descriptor, k, i):
    return [
        [descriptor.one if t == i else descriptor.zero for t in range(k)]
    ]


def _sum(parts, descriptor, n_vars, k) -> LinearPencil:
    """Pencil for the sum of the parts' Schur complements, left to right;
    the k x k zero pencil [[0, 0], [0, 1]] when there are no parts."""
    if not parts:
        return LinearPencil(descriptor, n_vars, k + 1, k,
                            [{(k, k): descriptor.one}] + [{}] * n_vars)
    return op_add(*parts, check=False)


# ---------------------------------------------------------------------------
# the affine split F = L + N
# ---------------------------------------------------------------------------


def _split_affine(f: RationalMatrix):
    """``(N, L)`` with F = L + N.  L is the part of degree at most 1 of
    every entry whose denominator is 1, as n + 1 coefficient maps
    ``{(i, j): value}`` (the constant one first, then one per variable).
    N is the rest of F, or ``None`` when it is zero."""
    n = f.n_vars
    slot = {key: t + 1 for t, key in enumerate(layout(n).units)}
    slot[0] = 0
    affine = [{} for _ in range(n + 1)]
    rows, nonzero = [], False
    for i, row in enumerate(f.entries):
        out = []
        for j, entry in enumerate(row):
            # a denominator is monic, so a constant one is 1
            high = entry.num.above(1) if entry.is_polynomial() else entry.num
            if high is not entry.num:
                for key, value in entry.num.raw_items():
                    t = slot.get(key)
                    if t is not None:
                        affine[t][(i, j)] = value
                entry = RationalFunction(high)
            nonzero = nonzero or not entry.is_zero()
            out.append(entry)
        rows.append(out)
    return (RationalMatrix(rows) if nonzero else None), affine


def _plus_affine(p: LinearPencil, affine) -> LinearPencil:
    """``p`` with L added into its (1,1) block, one accumulate per
    coefficient: the Schur complement is affine in A11, so it gains L.  A
    symmetric L keeps a symmetric ``p`` symmetric."""
    if not any(affine):
        return p
    add = p.descriptor.add
    coeffs = [accumulate(dict(c), a.items(), add)
              for c, a in zip(p.coeffs, affine)]
    return LinearPencil(p.descriptor, p.n_vars, p.m, p.split, coeffs)


def _realize_split(f: RationalMatrix, build) -> LinearPencil:
    """The pencil of F = L + N: ``build(N)`` with L added into A11.  For
    N = 0 it is the k x k zero pencil [[0, 0], [0, 1]] plus L, of size
    k + 1, which the pencil format allows no smaller (its split is less
    than m)."""
    rest, affine = _split_affine(f)
    if rest is None:
        pencil = _sum([], f.descriptor, f.n_vars, f.rows)
    else:
        pencil = build(rest)
    return _plus_affine(pencil, affine)


# ---------------------------------------------------------------------------
# plain realizations
# ---------------------------------------------------------------------------


def _chain(coeffs, p: Polynomial, row0, col0, row, col):
    """Write the chains of p into ``coeffs``, terms in the order of
    :meth:`Polynomial.sorted_terms`, and return the next free row.  Chain
    index 0 is row ``row0`` and column ``col0``; the chain indices 1, 2,
    ... are the rows ``row``, ``row + 1``, ... and the columns ``col``,
    ``col + 1``, ....  A term c z^a of degree at most 1 goes to (0, 0).
    One of degree d >= 2, with variable indices w_1 <= ... <= w_d, takes
    the next chain indices r_1..r_(d-1): c z_(w_1) at (0, r_1), c z_(w_t)
    at (r_(t-1), r_t), -c at (r_t, r_t) and c z_(w_d) at (r_(d-1), 0).
    Its (2,2) block is -c (I - N) with N nilpotent, and the term adds
    c z^a to the Schur complement."""
    d, n = p.descriptor, p.n_vars
    shift = col - row
    for exps, c in p.sorted_terms():
        w = [v + 1 for v in range(n) for _ in range(exps[v])]
        if len(w) < 2:
            coeffs[w[0] if w else 0][(row0, col0)] = c
            continue
        neg = d.neg(c)
        coeffs[w[0]][(row0, row + shift)] = c
        for v in w[1:-1]:
            coeffs[0][(row, row + shift)] = neg
            coeffs[v][(row, row + shift + 1)] = c
            row += 1
        coeffs[0][(row, row + shift)] = neg
        coeffs[w[-1]][(row, col0)] = c
        row += 1
    return row


# Pencil sizes are predicted from the term maps before anything is built.
# Each counts the rows of the (2,2) block: a term of degree d appends
# d - 1 chain rows (none below 2), and an entry p/q with q != 1 appends
# q's chain and q's first row besides p's chain.  A pencil's m is its split
# plus these, or plus one filler row when there are none.  ``op_add`` adds
# them, ``op_sandwich`` keeps them and ``op_product`` adds both inputs' and
# the split.  The BR pencil leaves :func:`op_shrink` no pivot, so the BR
# size, and away from characteristic 2 the SBR size, is checked as
# returned.


def _chain_rows(p: Polynomial) -> int:
    """Rows that :func:`_chain` appends for p."""
    degree = layout(p.n_vars).degree
    return sum(max(degree(key) - 1, 0) for key in p.packed)


def _entry_rows(f: RationalFunction) -> int:
    """Rows that :func:`_br_entrywise` appends for the entry f = p/q."""
    rows = _chain_rows(f.num)
    if f.is_polynomial():
        return rows
    return rows + 1 + _chain_rows(f.den)


def _entrywise_size(f: RationalMatrix) -> int:
    """The m of :func:`_br_entrywise`."""
    rows = sum(_entry_rows(e) for row in f.entries for e in row
               if not e.is_zero())
    return f.rows + (rows or 1)


def _br_entrywise(f: RationalMatrix) -> LinearPencil:
    """BR of F = sum_ij e_i f_ij e_j^T with split k, written in one pass
    over the nonzero entries in row-major order, after its size is
    checked.

    * A polynomial p at (i, j) is its chains with chain index 0 at row i
      and column j (:func:`_chain`).
    * An entry p/q with q != 1 appends 1 + r_q + r_p rows for the r_p and
      r_q chain rows of p and q.  With Q the chain matrix of q (q's affine
      part in its corner) and P11, P12, P21, P22 the blocks of p's chains,
      A12 has 1 at (i, Q's first column), A22 = [[-Q, e1 P12], [0, P22]]
      and A21 = [e1 P11; P21] in column j.  The Schur complement is
      (Q^-1)_11 p = p / q.  The rows are p's chain rows, q's chain rows,
      then Q's first row; the columns Q's first column, q's chain columns,
      then p's chain columns.

    With no row appended the pencil is [[F, 0], [0, 1]].
    """
    d, n, k = f.descriptor, f.n_vars, f.rows
    m = _entrywise_size(f)
    require_size(m, "the realization")
    coeffs = [{} for _ in range(n + 1)]
    row = k
    for i, entries in enumerate(f.entries):
        for j, entry in enumerate(entries):
            if entry.is_zero():
                continue
            if entry.is_polynomial():
                row = _chain(coeffs, entry.num, i, j, row, row)
                continue
            r_p, r_q = _chain_rows(entry.num), _chain_rows(entry.den)
            first = row + r_p + r_q  # Q's first row
            coeffs[0][(i, row)] = d.one
            _chain(coeffs, -entry.den, first, row, row + r_p, row + 1)
            _chain(coeffs, entry.num, first, j, row, row + 1 + r_q)
            row = first + 1
    if row == k:
        coeffs[0][(k, k)] = d.one
    return LinearPencil(d, n, m, k, coeffs)


def realize_br(f: RationalMatrix) -> RealizationResult:
    """Bessmertnyi realization of an arbitrary square rational matrix.

    F is split as L + N (see the module docs): N is written as one pencil
    by :func:`_br_entrywise`, and L is added into A11.  A polynomial entry
    is a bidiagonal chain per term; an entry p/q is the pencil of q,
    negated and bordered by p's chains.  Its size is counted exactly from
    the term maps, and one past ``MAX_PENCIL_SIZE`` raises
    :class:`PencilTooLarge` before anything is written.  The pencil has
    no constant pivot for :func:`op_shrink`, so the size checked is the
    size returned.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    return RealizationResult(_realize_split(f, _br_entrywise),
                             RealizationKind.BR, f)


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
    pencil = realize(_dehomogenize(_homogeneous_pairs(f))).pencil
    return RealizationResult(op_homogenize(pencil, check=False), kind, f)


def realize_hbr(f: RationalMatrix) -> RealizationResult:
    """Homogeneous realization of a matrix of degree-1 homogeneous entries.

    The :func:`realize_br` realization of the dehomogenization at the last
    variable, homogenized back.  Linear forms dehomogenize to affine
    entries, so they get m = k + 1; in one variable that is
    z1 [[C, 0], [0, 1]] for the constant matrix C of the dehomogenization.
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
    return _parity_certificate(f)


def _parity_certificate(f: RationalFunction) -> Char2Certificate:
    """The parity test of :func:`decide_sbr_scalar_char2` in any number of
    variables; with at most one every monomial passes."""
    h = f.num * f.den
    terms = h.sorted_terms()
    for exps, _ in terms:
        parity = tuple(e % 2 for e in exps)
        if sum(parity) >= 2:
            return Char2Certificate("not_realizable", offending_monomial=exps)
    buckets: dict[tuple[int, ...], dict] = {}
    for exps, value in terms:
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
        cert = _parity_certificate(f.entries[i][i])
        if not cert.realizable:
            raise NotRealizableChar2(cert, diagonal=i)
        certs.append(cert)
    return certs


def _sym_square(p: LinearPencil, x=None) -> LinearPencil:
    """Symmetric pencil for (schur P) * X^{-1} * (schur P)^T."""
    return op_product(p, x, p.transpose(), check=False)


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
    x_pencil = _br_entrywise(RationalMatrix.scalar(RationalFunction(x)))
    wrapped = op_sandwich(col, x_pencil, row, check=False)
    return op_sandwich(row, _sym_square(wrapped, base), col, check=False)


def _sbr_from_certificate(cert: Char2Certificate, descriptor,
                          n_vars) -> LinearPencil:
    """Symmetric pencil realizing h = sum_beta z^beta g_beta in char 2,
    one square per parity class.

    With g_beta = sum_a c_a z^(2a) and s = sum_a c_a z^a, the Frobenius
    map gives s^2 = sum_a c_a^2 z^(2a) = g_beta, because c^2 = c over
    GF(2), the only characteristic-2 field the library has (a field
    gf:2^k would need c^(1/2) here; see ROADMAP.md, item 9).  The even
    class is s s^T on the BR pencil of s; the z_i class uses the
    congruence (z_i s) z_i^{-1} (z_i s)^T = z_i s^2, with z_i carried in
    the polynomial whose BR pencil is squared.
    """
    parts = []
    for beta in sorted(cert.decomposition, key=grlex_key, reverse=True):
        root = Polynomial(descriptor, n_vars, {
            tuple(e // 2 + b for e, b in zip(exps, beta)): value
            for exps, value in cert.decomposition[beta].sorted_terms()
        })
        index = next((t for t, b in enumerate(beta) if b), None)
        x = None if index is None else RationalMatrix.scalar(
            RationalFunction.variable(descriptor, n_vars, index)
        )
        base = _br_entrywise(RationalMatrix.scalar(RationalFunction(root)))
        parts.append(_sym_square(base, x))
    return _sum(parts, descriptor, n_vars, 1)


def _without_affine(cert: Char2Certificate) -> Char2Certificate:
    """The certificate of h less its terms of degree at most 1, which are
    z^beta times the constant term of each g_beta."""
    decomposition = {}
    for beta, g in cert.decomposition.items():
        rest = g.above(0)
        if not rest.is_zero():
            decomposition[beta] = rest
    return Char2Certificate("realizable", decomposition=decomposition)


def _sbr_scalar(f: RationalFunction, h_pencil: LinearPencil) -> LinearPencil:
    """Symmetric pencil for f = p/q from a symmetric pencil realizing h = p*q.

    ``h_pencil`` comes from the characteristic-2 parity certificate of h.
    """
    if f.is_polynomial():
        return h_pencil  # h = p * 1 is f itself
    return _sbr_square_over(f.num, h_pencil)  # p^2 / (p q) = p / q


def _symmetric_rows(h: Polynomial) -> int:
    """Block rows of h's symmetric pencil from :func:`_sbr_from_certificate`,
    where a class takes 2 max(r, 1) + 1 for the r rows the terms of its s
    append, and a term of degree e gives s a term of degree ceil(e / 2)."""
    lay = layout(h.n_vars)
    parity = sum(1 << s for s in lay.shifts)
    classes: dict[int, int] = {}
    for key in h.packed:
        rows = max((lay.degree(key) + 1) // 2 - 1, 0)
        classes[key & parity] = classes.get(key & parity, 0) + rows
    return sum(2 * max(rows, 1) + 1 for rows in classes.values()) or 1


def _sbr_scalar_rows(g: RationalFunction, h: Polynomial) -> int:
    """The block rows of :func:`_sbr_scalar` on g = p/q and h = p*q, with
    h's pencil built as :func:`_symmetric_rows` counts it: q != 1 adds
    ``2 * max(r, 1) + 1`` for the r chain rows of p."""
    rows = _symmetric_rows(h)
    if not g.is_polynomial():
        rows += 2 * max(_chain_rows(g.num), 1) + 1
    return rows


def _strict_upper(f: RationalMatrix) -> RationalMatrix:
    zero = RationalFunction.zero(f.descriptor, f.n_vars)
    return RationalMatrix(
        [
            [f.entries[i][j] if j > i else zero for j in range(f.cols)]
            for i in range(f.rows)
        ]
    )


def _doubled_upper(f: RationalMatrix) -> RationalMatrix:
    """G = 2 F_upp + diag F, so that G + G^T = 2F for a symmetric F."""
    d = f.descriptor
    two = d.add(d.one, d.one)
    zero = RationalFunction.zero(d, f.n_vars)
    return RationalMatrix(
        [
            [entry.scale(two) if j > i else entry if j == i else zero
             for j, entry in enumerate(row)]
            for i, row in enumerate(f.entries)
        ]
    )


def _sbr_by_diagonal(f: RationalMatrix, certs) -> LinearPencil:
    """N = N_upp + N_upp^T + diag N in characteristic 2, the symmetric
    pieces summed; ``certs`` are the parity certificates of F = L + N's
    diagonal.  Each diagonal entry g = p/q of N comes from a symmetric
    pencil for h = p*q as p^2 / (p q), built from its certificate less the
    degree-at-most-1 term of each class when q = 1 (a 1x1 N is its entry's
    pencil).  The diagonal's size is checked before anything is built, and
    the total before the sum."""
    d, n, k = f.descriptor, f.n_vars, f.rows
    diagonal = [f.entries[i][i] for i in range(k)]
    require_size(
        k + sum(_sbr_scalar_rows(g, g.num * g.den) for g in diagonal),
        "the diagonal of the realization",
    )
    # shrunk before they are placed, so that the total checked is that of
    # the pencil built, not of its constant pivots; the sum is shrunk too
    scalars = [
        op_shrink(_sbr_scalar(g, _sbr_from_certificate(
            _without_affine(cert) if g.is_polynomial() else cert, d, n
        )), check=False)
        for cert, g in zip(certs, diagonal)
    ]
    if k == 1:
        return scalars[0]
    parts = []
    upper = _strict_upper(f)
    if any(not e.is_zero() for row in upper.entries for e in row):
        parts.append(op_symmetrize(realize_br(upper).pencil, check=False))
    for i, scalar in enumerate(scalars):
        parts.append(op_sandwich(_basis_column(d, k, i), scalar,
                                 _basis_row(d, k, i), check=False))
    require_size(k + sum(p.m - k for p in parts), "the realization")
    return op_shrink(_sum(parts, d, n, k), check=False)


def realize_sbr(f: RationalMatrix) -> RealizationResult:
    """Symmetric realization of a symmetric rational matrix.

    F is split as L + N (see the module docs); L is symmetric, so adding it
    into A11 keeps the pencil symmetric, and only N is built.  Away from
    characteristic 2, N is realized as (1/2)(G + G^T) with
    G = 2 N_upp + diag N, whose BR pencil :func:`_br_entrywise` writes
    with each off-diagonal entry once (a 1x1 G is N); nothing is shrunk
    there.  In characteristic 2 every diagonal entry of F must first pass
    the parity test, run once on F (in one variable every entry passes);
    the first failure raises :class:`NotRealizableChar2`.  N is then built
    by :func:`_sbr_by_diagonal`, one square per parity class, and
    :func:`op_shrink` removes the constant pivots of the squares and of
    their sum.  Either path checks its size against ``MAX_PENCIL_SIZE``
    before the pencil is assembled: the symmetric pencil of G as 2 m - k
    rows for G's BR pencil of m rows, which is the size returned, and the
    diagonal path its diagonal exactly and its total before the final
    sum.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    if not f.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    d = f.descriptor
    if d.characteristic == 2:
        certs = _diagonal_certificates(f)

        def build(rest):
            return _sbr_by_diagonal(rest, certs)
    else:
        half = d.inv(d.add(d.one, d.one))

        def build(rest):
            g = _doubled_upper(rest)
            # op_symmetrize doubles G's pencil less its k outer rows
            require_size(2 * _entrywise_size(g) - f.rows, "the realization")
            return op_scale(op_symmetrize(_br_entrywise(g), check=False),
                            half, check=False)
    return RealizationResult(_realize_split(f, build),
                             RealizationKind.SBR, f)


def decide_and_realize_hsbr(f: RationalMatrix):
    """Homogeneous symmetric realization, or the failing parity certificate.

    The :func:`realize_sbr` realization of the dehomogenization at the last
    variable, homogenized back (linear forms get m = k + 1, as in
    :func:`realize_hbr`).  In characteristic 2 every dehomogenized diagonal
    entry must pass the parity test in n-1 variables, which it always does
    for n <= 2; the first failure is returned as a
    :class:`Char2Certificate` instead of a pencil.
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
