"""Sparse exact elimination for pencil matrices.

Realization pencils are large but very sparse and block structured: about
1.5 nonzeros per row, mostly singleton rows and columns or constant entries.
The Schur elimination (:func:`schur_eliminate`, one function) runs plain
Gaussian elimination over the fraction field while keeping one shared
polynomial denominator per row: the update

    row_i  <-  row_i * piv - row_i[pc] * row_pr,      den_i <- den_i * piv

touches only rows with a nonzero entry in the pivot column, stays entirely in
polynomial arithmetic, and never divides.  After eliminating the rows and
columns of the (2,2) block, the surviving top-left entries over their row
denominators are exactly the Schur complement, and the product of pivot values
(over the pivot-row denominators, with the permutation sign) is the block
determinant.  Pivots are chosen by a Markowitz-style score to limit fill-in,
preferring short polynomials.  They come from a lazy min-heap of keys: a step
pushes fresh keys only for the rows and columns it changed, and a stale key
is dropped when it is popped.  A cheap monomial-content strip keeps rows small
when pivots are monomials.

The full determinant (:func:`sparse_determinant`) is a separate elimination,
so that the determinant identity checks one against the other: of this
module, the two share only :func:`_parity_sign`.  It runs in three stages.
It first follows the structure: it picks a singleton row or column or,
failing that, a constant, and runs one elimination step on the pivot, which
keeps every row an exact row of the current Schur complement without any
division.  A rest of at most ``_COFACTOR_ROWS`` rows, with no singleton and
no constant, is expanded by cofactors with each minor memoized on its free
columns, again without a division; a longer rest goes to fraction-free
Bareiss elimination with Markowitz pivots, one step for every pivot.
"""

from __future__ import annotations

import heapq
import math

from .errors import SingularBlock
from .poly import Polynomial, RationalFunction, from_packed, layout


def _parity_sign(order: list[int]) -> int:
    """Sign of ``order``, a permutation of consecutive integers: a cycle of
    length l is l - 1 transpositions."""
    low = min(order, default=0)
    seen = [False] * len(order)
    transpositions = 0
    for start in range(len(order)):
        if seen[start]:
            continue
        seen[start] = True
        t = order[start] - low
        while t != start:
            seen[t] = True
            t = order[t] - low
            transpositions += 1
    return -1 if transpositions % 2 else 1


def _common_monomial(polys, n_vars) -> int:
    """The key of the largest monomial that divides every term of ``polys``
    (0 when that is 1)."""
    lay = layout(n_vars)
    content = None
    for poly in polys:
        for key in poly.packed:
            exps = lay.unpack(key)
            content = exps if content is None else tuple(map(min, content, exps))
            if not any(content):
                return 0
    return lay.pack(content)


def _shift_down(p: Polynomial, key: int) -> Polynomial:
    """p divided by the monomial ``key``, which divides each of its terms."""
    return from_packed(p.descriptor, p.n_vars,
                       {k - key: v for k, v in p.packed.items()}, p.denom)


def schur_eliminate(
    rows: dict[int, dict[int, Polynomial]], m: int, split: int, descriptor,
    n_vars: int,
) -> tuple[list[list[RationalFunction]], RationalFunction]:
    """``(schur, det_block)``: the Schur complement, as split-by-split rows,
    and the (2,2)-block determinant of a sparse polynomial matrix.

    ``rows`` is the m-by-m matrix in dict-of-dicts form, left unchanged;
    ``split`` is the size of the (1,1) block.  The pivot is the candidate
    (i, j >= split) with the smallest ``(score, terms, i, j)``, where score
    is (row count - 1) * (column count - 1).  Raises :class:`SingularBlock`
    when the (2,2) block has identically zero determinant.
    """
    one = Polynomial.one(descriptor, n_vars)
    work = {i: dict(rows.get(i, {})) for i in range(m)}
    cols: dict[int, set[int]] = {}
    for i, row in work.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    dens = dict.fromkeys(work, one)
    row_order: list[int] = []
    col_order: list[int] = []
    piv_num = piv_den = one
    # (score, terms, i, j) of candidate pivots; stale keys stay until they
    # reach the top and fail the recheck
    heap: list[tuple[int, int, int, int]] = []

    def push(touched_rows, touched_cols=()):
        """Push the current keys of the candidates in the rows and the
        columns that a step changed."""
        for i in touched_rows:
            row = work[i]
            row_nnz = len(row) - 1
            for j, v in row.items():
                if j >= split:
                    heapq.heappush(
                        heap, (row_nnz * (len(cols[j]) - 1), len(v.packed), i, j)
                    )
        for j in touched_cols:
            col_nnz = len(cols[j]) - 1
            for i in cols[j]:
                if i >= split and i not in touched_rows:
                    row = work[i]
                    heapq.heappush(
                        heap, ((len(row) - 1) * col_nnz, len(row[j].packed), i, j)
                    )

    # pivot columns leave every row, so rows and columns >= split remain
    push([i for i in work if i >= split])
    while heap:
        score, terms, pr, pc = heapq.heappop(heap)
        prow = work.get(pr)
        if (prow is None or pc not in prow or len(prow[pc].packed) != terms
                or (len(prow) - 1) * (len(cols[pc]) - 1) != score):
            continue
        del work[pr]
        piv = prow.pop(pc)
        touched = cols.pop(pc)
        touched.discard(pr)
        for j in prow:
            cols[j].discard(pr)
        piv_num = piv_num * piv
        piv_den = piv_den * dens[pr]
        row_order.append(pr)
        col_order.append(pc)
        piv_const = piv.is_constant()
        piv_is_one = piv_const and piv.packed[0] == 1 and piv.denom == 1
        for i in touched:
            row = work[i]
            f = row.pop(pc)
            if not piv_is_one:
                dens[i] = dens[i] * piv
                for j, v in row.items():
                    row[j] = v.times_constant(piv) if piv_const else v * piv
            for j, w in prow.items():
                new = row[j] - f * w if j in row else -(f * w)
                if new.packed:
                    row[j] = new
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            # divide the row and its denominator by their common monomial
            den = dens[i]
            if not piv_is_one and row and 0 not in den.packed:
                key = _common_monomial([den, *row.values()], n_vars)
                if key:
                    dens[i] = _shift_down(den, key)
                    for j, v in row.items():
                        row[j] = _shift_down(v, key)
        push({i for i in touched if i >= split}, [j for j in prow if j >= split])
    if len(row_order) < m - split:
        raise SingularBlock("the (2,2) block has zero determinant")
    if _parity_sign(row_order) * _parity_sign(col_order) < 0:
        piv_num = -piv_num
    zero = RationalFunction.zero(descriptor, n_vars)
    schur = [[RationalFunction(work[i][j], dens[i]) if j in work[i] else zero
              for j in range(split)] for i in range(split)]
    return schur, RationalFunction(piv_num, piv_den)


def _times(p: Polynomial, c: Polynomial) -> Polynomial:
    """p * c, as a scaling when c is a constant."""
    return p.times_constant(c) if c.is_constant() else p * c


def _over(p: Polynomial, c: Polynomial) -> Polynomial:
    """p / c for a divisor c of p, as a scaling when c is a constant."""
    if c.is_constant():
        return p.times_constant(c, invert=True)
    return p.divide_exact(c)


# a rest of at most this many rows is expanded by cofactors, a longer one
# goes to Bareiss elimination
_COFACTOR_ROWS = 4


def _expand_cofactors(work: dict[int, dict[int, Polynomial]],
                      row_ids: list[int], col_ids: list[int],
                      one: Polynomial) -> Polynomial:
    """Determinant of ``work`` on the rows ``row_ids`` and the columns
    ``col_ids``, in that order, by cofactor expansion along the rows.

    The minor on the last rows and the columns still free is memoized on
    the bitmask of those columns, whose size fixes its first row; the sign
    of an entry is the parity of the free columns before it.  A zero minor
    is skipped without a product, and nothing is divided.
    """
    size, zero = len(row_ids), one - one
    minors = {0: one}

    def minor(mask: int) -> Polynomial:
        if mask in minors:
            return minors[mask]
        row = work[row_ids[size - mask.bit_count()]]
        total = zero
        before = 0
        for b, j in enumerate(col_ids):
            bit = 1 << b
            if not mask & bit:
                continue
            v = row.get(j)
            if v is not None:
                rest = mask ^ bit
                sub = minor(rest)
                if sub.packed:
                    term = v * sub if rest else v
                    total = total - term if before % 2 else total + term
            before += 1
        minors[mask] = total
        return total

    return minor((1 << size) - 1)


def sparse_determinant(
    rows: dict[int, dict[int, Polynomial]], m: int, descriptor, n_vars: int
) -> RationalFunction:
    """Determinant (a polynomial) of the m-by-m matrix ``rows``, left
    unchanged, in three stages.

    Stage 1 needs no fraction-free step.  It picks a pivot: the entry of a
    row or column with one nonzero, or failing that the constant c with the
    smallest (row count - 1)(column count - 1), then i, then j.  One step
    then eliminates it: its row and column leave, and its value joins the
    result (constants in one field scalar, polynomials in a factor list).
    When c is a constant whose column has other rows, the pivot row is
    scaled by 1/c once and each of those rows gets
    ``row_i -= row_i[pc] * prow / c``; a polynomial pivot is a singleton, so
    its row or its column is otherwise empty.  Every row stays an exact row
    of the current Schur complement, so nothing is ever divided.  A zero row
    or column means the determinant is zero.

    Stage 2 takes a rest of at most ``_COFACTOR_ROWS`` rows: its rows and
    columns join the permutation in sorted order, and
    :func:`_expand_cofactors` expands it along the rows, with no division;
    at four rows that is at most 16 memoized minors and 32 products.

    Stage 3, for a longer rest, is Bareiss elimination with pivots anywhere,
    keyed by ((row count - 1)(column count - 1), terms, i, j).  Row i keeps
    the step s of its last update; since an untouched row only gains
    p_k / p_s, pivot p_k updates the rows it meets to
    ``(p_k row_i - row_i[pc] prow) / p_s``, exactly, and a stale pivot row is
    brought up to date first.  A pivot alone in its row subtracts nothing,
    so the rows it meets only lose column pc and keep their step.  The
    determinant is sign * scalar * factors * the last pivot, which after
    stage 2 is the expanded rest.
    """
    work = {i: {j: v for j, v in rows.get(i, {}).items() if v.packed}
            for i in range(m)}
    cols: dict[int, set[int]] = {j: set() for j in range(m)}
    for i, row in work.items():
        for j in row:
            cols[j].add(i)
    zero_det = RationalFunction.zero(descriptor, n_vars)
    scalar = Polynomial.one(descriptor, n_vars)  # a nonzero constant
    factors: list[Polynomial] = []
    row_order: list[int] = []
    col_order: list[int] = []

    # stage 1: singletons and constant pivots
    short_rows = [i for i, row in work.items() if len(row) <= 1]
    short_cols = [j for j, col in cols.items() if len(col) <= 1]
    while True:
        if short_rows:
            pr = short_rows.pop()
            row = work.get(pr)
            if row is None or len(row) > 1:
                continue
            if not row:
                return zero_det
            (pc,) = row
        elif short_cols:
            pc = short_cols.pop()
            col = cols.get(pc)
            if col is None or len(col) > 1:
                continue
            if not col:
                return zero_det
            (pr,) = col
        else:
            best = None
            for i, row in work.items():
                row_nnz = len(row) - 1
                for j, v in row.items():
                    if len(v.packed) == 1 and 0 in v.packed:
                        key = (row_nnz * (len(cols[j]) - 1), i, j)
                        if best is None or key < best:
                            best = key
            if best is None:
                break
            _, pr, pc = best
        prow = work.pop(pr)
        for j in prow:
            cols[j].discard(pr)
        c = prow.pop(pc)
        others = cols.pop(pc)
        row_order.append(pr)
        col_order.append(pc)
        if len(c.packed) == 1 and 0 in c.packed:
            scalar = scalar.times_constant(c)
            if others:
                prow = {j: v.times_constant(c, invert=True)
                        for j, v in prow.items()}
        else:
            factors.append(c)
        for i in others:
            row = work[i]
            f = row.pop(pc)
            for j, w in prow.items():
                delta = _times(w, f)
                new = row[j] - delta if j in row else -delta
                if new.packed:
                    row[j] = new
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if len(row) <= 1:
                short_rows.append(i)
        short_cols.extend(j for j in prow if len(cols[j]) <= 1)

    # stage 2: a short rest by cofactors
    pivots = [Polynomial.one(descriptor, n_vars)]
    if len(work) <= _COFACTOR_ROWS:
        row_ids, col_ids = sorted(work), sorted(cols)
        rest = _expand_cofactors(work, row_ids, col_ids, pivots[0])
        if not rest.packed:
            return zero_det
        pivots.append(rest)
        row_order += row_ids
        col_order += col_ids
        work = {}
    # stage 3: fraction-free elimination of a longer rest
    step = dict.fromkeys(work, 0)
    while work:
        _, _, pr, pc = min(
            ((len(row) - 1) * (len(cols[j]) - 1), len(v.packed), i, j)
            for i, row in work.items() for j, v in row.items()
        )
        prow, last = work.pop(pr), step.pop(pr)
        for j in prow:
            cols[j].discard(pr)
        others = cols.pop(pc)
        row_order.append(pr)
        col_order.append(pc)
        if last < len(pivots) - 1:
            prow = {j: _over(_times(v, pivots[-1]), pivots[last])
                    for j, v in prow.items()}
        piv = prow.pop(pc)
        for i in others:
            row, d = work[i], pivots[step[i]]
            f = row.pop(pc)
            if prow:  # else row i only loses pc and keeps its step
                for j, v in row.items():
                    row[j] = _times(v, piv)
                for j, w in prow.items():
                    new = row[j] - f * w if j in row else -(f * w)
                    if new.packed:
                        row[j] = new
                        cols[j].add(i)
                    else:
                        del row[j]
                        cols[j].discard(i)
                for j, v in row.items():
                    row[j] = _over(v, d)
                step[i] = len(pivots)
            if not row:
                return zero_det
        pivots.append(piv)
    if _parity_sign(row_order) * _parity_sign(col_order) < 0:
        scalar = -scalar
    det = math.prod(factors, start=pivots[-1]).times_constant(scalar)
    return RationalFunction(det)
