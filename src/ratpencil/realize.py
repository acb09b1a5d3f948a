"""Constructive realization of rational matrix functions as pencil Schur
complements: plain, homogeneous, symmetric, and homogeneous-symmetric, with
the characteristic-2 decision procedures.

Every pencil is written in one pass into one coefficient list
(:func:`_written`), after its size is counted exactly from prefix tries
and checked against ``MAX_PENCIL_SIZE``, a count refused as soon as it
passes the limit, so high degrees cost no time.  The writer takes one kind
of item, a polynomial cell (i, j, p): the cells of one row share one
chain row per distinct proper prefix of their variable words (the prefix
states of a recognizable series, in Berstel and Reutenauer's sense), and
their terms of degree at most 1 land at (i, j) itself, since the Schur
complement is affine in A11.  So a target with affine entries gets the
smallest pencil the format allows, [[F, 0], [0, 1]] of size k + 1.  The
builders name every row.  The symmetric pencils mirror the BR layout, which is
:func:`op_symmetrize`'s; the builders call no combinator but
:func:`op_homogenize`, and leave :func:`op_shrink` no constant pivot.
The outputs are verified independently by the :mod:`ratpencil.verify`
module and the test suite; correctness of the Schur complement is the
only contract.  Three steps keep pencils small:

* Each row's trie orders the variables by how its terms use them, and
  only then by label (:func:`_trie`), so that shared prefixes are long;
  a best order is NP-complete to find (Comer and Sethi, *The complexity
  of trie index construction*, 1977).  A trie has at most the
  sum (deg - 1) rows of one chain per term.
* An entry p/q at (i, j) is one corner row t of column u
  (:func:`_cells`), with 1 at (i, u), -q at (t, u) and p at (t, j): p
  and -q share row t's trie, and the Schur complement is p / q.
* In characteristic 2, each parity class of a diagonal entry is one
  symmetric square, since (a + b)^2 = a^2 + b^2 there, written straight
  into place (:func:`_sbr_entrywise`).

Pencils are not minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinators import op_homogenize
from .errors import (
    DimensionMismatch,
    NotHomogeneousDegreeOne,
    NotRealizableChar2,
    NotSymmetric,
    TooFewVariables,
    WrongCharacteristic,
)
from .matrices import RationalMatrix
from .pencil import LinearPencil, RealizationKind, past_size, require_size
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


# ---------------------------------------------------------------------------
# plain realizations
# ---------------------------------------------------------------------------


def _trie(polys, n: int, claim):
    """The shared chains of ``polys``, whose chain index 0 is one row, as
    ``(edges, leaves)``.

    The variables are ordered by the key (- number of the terms of degree
    at least 2 that contain z_v, - total exponent of z_v in them, v), and
    a term c z^a of degree d is the word w_1 ... w_d of its variables in
    that order.  Each distinct proper prefix w_1 ... w_t (0 < t < d) of a
    word is a node, numbered in order of first use, and ``edges[node]`` is
    (parent node, w_t), with parent -1 for t = 1.  Each term is one leaf
    (parent, w_d, c, s): the node of its prefix of length d - 1 (-1 for
    d <= 1), w_d (0 for d = 0), its coefficient, and the index s of its
    polynomial in ``polys``.  Each polynomial's terms are unpacked once,
    in the order of :meth:`Polynomial.sorted_terms`.

    A word is walked one run z_v^e at a time: the nodes that runs of z_v
    add after one node form one chain, kept under (that node, v), so a
    shared run costs one lookup.  ``claim(count)`` is called before
    ``count`` nodes are made, and may raise, so the cost is the number of
    terms times n plus the nodes claimed, however high the degrees are."""
    terms = [p.sorted_terms() for p in polys]
    key = [[0, 0, v] for v in range(n)]
    for listed in terms:
        for exps, _ in listed:
            if sum(exps) >= 2:
                for v, e in enumerate(exps):
                    if e:
                        key[v][0] -= 1
                        key[v][1] -= e
    order = [v for _, _, v in sorted(key)]
    chains, edges, leaves = {}, [], []

    def walk(parent, v, e):
        """The node of z_v^e after ``parent``, made if it is new."""
        chain = chains.setdefault((parent, v), [])
        if len(chain) < e:
            claim(e - len(chain))
            for _ in range(e - len(chain)):
                edges.append((chain[-1] if chain else parent, v))
                chain.append(len(edges) - 1)
        return chain[e - 1]

    for s, listed in enumerate(terms):
        for exps, c in listed:
            parent, last, e = -1, 0, 1
            for v in order:
                if exps[v]:
                    if last:
                        parent = walk(parent, last, e)
                    last, e = v + 1, exps[v]
            if e > 1:
                parent = walk(parent, last, e - 1)
            leaves.append((parent, last, c, s))
    return edges, leaves


def _place(coeffs, d, trie, row0, cols, row, col) -> None:
    """Write ``trie`` (:func:`_trie`) into ``coeffs``: chain index 0 is
    row ``row0``, node t is row ``row + t`` and column ``col + t``, and
    polynomial s ends in column ``cols[s]``.  Each node has -1 on its
    diagonal and 1 z_v on the edge from its parent; each term c z^a ends
    with c z_(w_d) on the edge from its last node into its column.  The
    (2,2) block is -(I - N) with N nilpotent, so the Schur complement gains
    the sum over paths, c z^a for each term."""
    edges, leaves = trie
    minus_one = d.neg(d.one)
    for t, (parent, v) in enumerate(edges):
        coeffs[0][(row + t, col + t)] = minus_one
        coeffs[v][(row0 if parent < 0 else row + parent, col + t)] = d.one
    for parent, v, c, s in leaves:
        coeffs[v][(row0 if parent < 0 else row + parent, cols[s])] = c


def _written(f: RationalMatrix, cells, corners: int = 0,
             mirrored: bool = False) -> LinearPencil:
    """The pencil of split k = ``f.rows`` over f's field and variables
    whose coefficients are the BR layout of ``cells``, written in one pass
    after its size is checked.

    A cell (i, j, p) writes the polynomial p with chain index 0 at row i
    and column j.  The cells of one row share one prefix trie
    (:func:`_trie`, :func:`_place`), so terms that begin with the same
    variables share their rows; the tries' rows come in the order in which
    the cells first use their rows.  The chain rows run from k +
    ``corners`` on, and their columns from the same index, or,
    ``mirrored``, from past the last chain row; the ``corners`` rows
    between the k outer ones and the chain rows are left to the cells to
    name (:func:`_cells`).

    The size is counted from the tries as they are built, and refused as
    soon as the rows counted so far take m past the limit, before
    anything is written.  ``mirrored`` copies every entry to (j, i) once
    it is written.  Written from the BR layout of some G, that is
    :func:`op_symmetrize`'s layout, of Schur complement G + G^T.  With no
    row past the k outer ones the pencil is [[F, 0], [0, 1]].
    """
    d, n, k = f.descriptor, f.n_vars, f.rows
    start, rows = k + corners, 0

    def claim(count):
        """Count ``count`` more chain rows, refusing once m must pass the
        limit.  The bound only grows to the m checked below, so it
        refuses no pencil that that check passes."""
        nonlocal rows
        rows += count
        bound = start + rows * (2 if mirrored else 1)
        if past_size(bound):
            require_size(bound, "the realization", at_least=True)

    groups = {}
    for i, j, p in cells:
        polys, cols = groups.setdefault(i, ([], []))
        polys.append(p)
        cols.append(j)
    tries = [(i, cols, _trie(polys, n, claim))
             for i, (polys, cols) in groups.items()]
    shift = rows if mirrored else 0
    m = max(start + rows + shift, k + 1)
    require_size(m, "the realization")
    coeffs = [{} for _ in range(n + 1)]
    row = start
    for i, cols, trie in tries:
        _place(coeffs, d, trie, i, cols, row, row + shift)
        row += len(trie[0])
    if mirrored:
        for c in coeffs:
            c.update({(j, i): value for (i, j), value in c.items()})
    if row == k:
        coeffs[0][(k, k)] = d.one
    return LinearPencil(d, n, m, k, coeffs)


def _cells(i, j, p: Polynomial, q: Polynomial, corner: int,
           mirrored: bool = False):
    """``(cells, corner)``: the cells of the entry p/q at (i, j) for
    :func:`_written`, and the first corner row past those they take.

    A polynomial (q = 1) is the one cell (i, j, p).  Otherwise the entry
    takes the corner row t = ``corner``, whose column u is t, or,
    ``mirrored``, t + 1, so that the mirror is :func:`op_symmetrize`'s
    layout: 1 at (i, u), -q at (t, u) and p at (t, j).  p and -q share
    row t's trie, and p's branches reach no leaf of -q, so eliminating
    the trie's chain rows leaves -q at (t, u) and p at (t, j), and the
    entry's Schur complement is -1 (-q)^-1 p = p / q."""
    if q.is_constant():
        return [(i, j, p)], corner
    u = corner + 1 if mirrored else corner
    one = Polynomial.one(q.descriptor, q.n_vars)
    return [(i, u, one), (corner, u, -q), (corner, j, p)], u + 1


def _br_entrywise(f: RationalMatrix) -> LinearPencil:
    """BR of F = sum_ij e_i f_ij e_j^T: the cells (:func:`_cells`) of its
    nonzero entries in row-major order, written by :func:`_written` with
    chain rows and columns from k + c, for the c corner rows."""
    cells, corner = [], f.rows
    for i, row in enumerate(f.entries):
        for j, g in enumerate(row):
            if not g.is_zero():
                new, corner = _cells(i, j, g.num, g.den, corner)
                cells += new
    return _written(f, cells, corner - f.rows)


def realize_br(f: RationalMatrix) -> RealizationResult:
    """Bessmertnyi realization of an arbitrary square rational matrix.

    F is written as one pencil by :func:`_br_entrywise`.  The polynomial
    entries of one row share one prefix trie of chains, whose terms of
    degree at most 1 land in A11; an entry p/q is a corner row whose trie
    holds p and -q.  Its size is counted exactly from the tries, and one
    past ``MAX_PENCIL_SIZE`` raises :class:`PencilTooLarge` before
    anything is written.  The pencil has no constant pivot for
    :func:`op_shrink`, so the size checked is the size returned.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    return RealizationResult(_br_entrywise(f), RealizationKind.BR, f)


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


def _class_roots(cert: Char2Certificate, keep_constant: bool):
    """``(roots, kept)``: (s, x) for each parity class of h = sum_beta
    z^beta g_beta in characteristic 2, less its terms of degree at most 1,
    so that s^2 / x = z^beta (g_beta less its constant term), and whether
    the even class kept h's constant term.

    With g_beta = sum_a c_a z^(2a) and r = sum_a c_a z^a, the Frobenius
    map gives r^2 = sum_a c_a^2 z^(2a) = g_beta, because c^2 = c over
    GF(2), the only characteristic-2 field the library has (a field
    gf:2^k would need c^(1/2) here; see ROADMAP.md, item 8).  The even
    class has s = r and x = 1, the z_i class s = z_i r and x = z_i.

    With ``keep_constant``, the even class keeps h's constant term c when
    r has a term of degree 1: s = r + c, and s^2 = r^2 + c since c^2 = c.
    s's chains put c in the cell that r's terms of degree 1 fill anyway.
    """
    roots, kept = [], False
    for beta in sorted(cert.decomposition, key=grlex_key, reverse=True):
        g = cert.decomposition[beta]
        cut = g.above(0)
        if cut.is_zero():
            continue
        d, n = g.descriptor, g.n_vars
        if (keep_constant and not any(beta) and cut is not g
                and layout(n).degree(min(cut.packed)) == 2):
            kept = True
        else:
            g = cut
        root = Polynomial(d, n, {
            tuple(e // 2 + b for e, b in zip(exps, beta)): value
            for exps, value in g.sorted_terms()
        })
        index = next((t for t, b in enumerate(beta) if b), None)
        x = (Polynomial.one(d, n) if index is None
             else Polynomial.variable(d, n, index))
        roots.append((root, x))
    return roots, kept


def _sbr_entrywise(f: RationalMatrix, certs) -> LinearPencil:
    """SBR of F = F_upp + F_upp^T + diag F, written in one pass by
    :func:`_written`, mirrored; ``certs`` are the parity certificates of
    F's diagonal in characteristic 2, and ``None`` elsewhere.

    Every cell is written with its chain rows from k + c and their columns
    from k + c + r, for the c corner rows and the r chain rows, and then
    copied to (j, i), which is :func:`op_symmetrize`'s layout.  The copy
    puts a cell (i, i) onto itself but doubles every chain.  In row-major
    order over j >= i:

    * an entry of F_upp is its cells (:func:`_cells`), an entry p/q with
      q != 1 taking the corner rows t and t + 1;
    * away from characteristic 2, an entry g of diag F is written as
      g_(<=1) + g_(>=2) / 2 for a polynomial, its parts of degree at most
      1 and at least 2, and as (p / 2) / q for p/q: the mirror doubles
      what has a chain or leaves (i, i);
    * in characteristic 2, each parity class (s, x) of the entry at (i, i)
      (:func:`_class_roots`) takes a new corner row t: s's terms in row
      i's trie, ending in column t, and -x at (t, t).  For s's BR pencil
      P = [[a, b], [c, D]] alone that is the layout
      [[0, b, 0, a], [b^T, 0, D^T, 0], [0, D, 0, c], [a, 0, c^T, -x]] of
      :func:`op_product` (P, x, P^T) without P's filler row, whose Schur
      complement is s x^-1 s = z^beta g_beta.  The roots drop the terms
      of degree at most 1, so a polynomial entry g adds g_(<=1) at (i, i);
    * in characteristic 2, an entry p/q with q != 1 is p's square around
      -H, with H the matrix of h = p q written the same way from a new
      corner row t_H, and h's terms of degree at most 1 at (t_H, t_H),
      less the constant that the even class keeps (:func:`_class_roots`).
      H's Schur complement is h, so (H^-1)_11 = 1 / h and the square's is
      p^2 / h = p / q.

    In characteristic 2, -1 = 1, so -x and -H are written as x and H.
    """
    d, k = f.descriptor, f.rows
    half = d.inv(d.add(d.one, d.one)) if certs is None else None
    cells, corner = [], k
    for i, row in enumerate(f.entries):
        for j, g in enumerate(row[i:], i):
            if g.is_zero():
                continue
            p, rational = g.num, not g.is_polynomial()
            if j == i and certs is None:
                p = p.scale(half) if rational else p - p.above(1).scale(half)
            if j > i or certs is None:
                new, corner = _cells(i, j, p, g.den, corner, mirrored=True)
                cells += new
                continue
            row0, (roots, kept) = i, _class_roots(certs[i], rational)
            if rational:
                h = p * g.den
                low = (h.above(0) if kept else h) - h.above(1)
                cells += [(i, corner, p), (corner, corner, low)]
                row0, corner = corner, corner + 1
            else:
                cells.append((i, i, p - p.above(1)))
            for s, x in roots:
                cells += [(row0, corner, s), (corner, corner, x)]
                corner += 1
    return _written(f, cells, corner - k, mirrored=True)


def realize_sbr(f: RationalMatrix) -> RealizationResult:
    """Symmetric realization of a symmetric rational matrix.

    In characteristic 2 every diagonal entry of F must first pass the
    parity test, run once on F (in one variable every entry passes); the
    first failure raises :class:`NotRealizableChar2`.  F is then written
    by :func:`_sbr_entrywise` in one pass: its off-diagonal entries
    mirrored, and its diagonal as halves of what the mirror doubles away
    from characteristic 2 and as one square per parity class in it.  The
    size is counted exactly from the tries, and one past
    ``MAX_PENCIL_SIZE`` raises :class:`PencilTooLarge` before anything is
    written.  The pencil has no constant pivot for :func:`op_shrink`, so
    the size checked is the size returned.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    if not f.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    certs = (_diagonal_certificates(f)
             if f.descriptor.characteristic == 2 else None)
    return RealizationResult(_sbr_entrywise(f, certs), RealizationKind.SBR,
                             f)


def realize_hsbr(f: RationalMatrix) -> RealizationResult:
    """Homogeneous symmetric realization of a symmetric matrix of degree-1
    homogeneous entries.

    The :func:`realize_sbr` realization of the dehomogenization at the last
    variable, homogenized back (linear forms get m = k + 1, as in
    :func:`realize_hbr`).  In characteristic 2 every dehomogenized diagonal
    entry must pass the parity test in n-1 variables, which it always does
    for n <= 2; the first failure raises :class:`NotRealizableChar2`, which
    names the diagonal, as in :func:`realize_sbr`.
    """
    if not f.is_square():
        raise DimensionMismatch("realization needs a square matrix")
    if not f.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    return _realize_homogeneous(f, realize_sbr, RealizationKind.HSBR)


def decide_and_realize_hsbr(f: RationalMatrix):
    """:func:`realize_hsbr`, or the failing parity certificate: a failure
    in characteristic 2 is returned as a bare :class:`Char2Certificate`
    instead of a pencil."""
    try:
        return realize_hsbr(f)
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
    if f.n_vars == 0:
        return Decision(True, "constant functions always realize")
    if f.n_vars == 1:
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
    if f.n_vars < 1:  # a homogeneous pencil in no variables is all zero
        return Decision(False, "need at least one variable")
    if f.n_vars <= 2:
        return Decision(True, "at most two variables always realize")
    if f.descriptor.characteristic != 2:
        return Decision(True, "characteristic is not 2")
    return _parity_decision(
        _dehomogenize(pairs), "parity obstruction after dehomogenizing"
    )
