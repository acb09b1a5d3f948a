"""Sparse exact elimination for pencil matrices.

Realization pencils are large but very sparse and block structured: about
1.5 nonzeros per row, mostly singleton rows and columns or constant entries.
The Schur elimination (:func:`schur_eliminate`) runs plain Gaussian
elimination over the fraction field while keeping one shared polynomial
denominator per row: the update

    row_i  <-  row_i * piv - row_i[pc] * row_pr,      den_i <- den_i * piv

touches only rows with a nonzero entry in the pivot column, stays entirely in
polynomial arithmetic, and never divides.  After eliminating the rows and
columns of the (2,2) block, the surviving top-left entries over their row
denominators are exactly the Schur complement, and the product of pivot values
(over the pivot-row denominators, with the permutation sign) is the block
determinant.  Pivots are chosen by a Markowitz-style score to limit fill-in,
preferring short polynomials, and are taken from a lazy min-heap of keys that
is refreshed only where a step changed a row or a column count; a cheap
monomial-content strip keeps rows small when pivots are monomials.

The full determinant (:func:`sparse_determinant`) is a separate elimination
that shares no code with it.  It first follows the structure: it expands
along singleton rows and columns and eliminates constant pivots, which keeps
every row an exact row of the current Schur complement without any division.
What is left, with no singleton and no constant, goes to fraction-free
Bareiss elimination with Markowitz pivots.
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


class _State:
    def __init__(self, rows, m, descriptor, n_vars):
        self.descriptor = descriptor
        self.one = Polynomial.one(descriptor, n_vars)
        self.work = {i: dict(rows.get(i, {})) for i in range(m)}
        self.cols: dict[int, set[int]] = {}
        for i, row in self.work.items():
            for j in row:
                self.cols.setdefault(j, set()).add(i)
        self.dens = {i: self.one for i in range(m)}
        self.row_order: list[int] = []
        self.col_order: list[int] = []
        self.piv_num = self.one
        self.piv_den = self.one
        # (score, terms, i, j) for candidate pivots; stale keys stay until
        # they reach the top and fail the check in _choose_pivot
        self.heap: list[tuple[int, int, int, int]] = []

    def _push_keys(self, rows, columns, split):
        """Push the current keys of the candidates (i, j >= split) in
        ``rows`` and in ``columns``."""
        work, cols, heap = self.work, self.cols, self.heap
        for i in rows:
            row = work[i]
            row_nnz = len(row) - 1
            for j, v in row.items():
                if j >= split:
                    heapq.heappush(
                        heap, (row_nnz * (len(cols[j]) - 1), len(v.packed), i, j)
                    )
        for j in columns:
            col_nnz = len(cols[j]) - 1
            for i in cols[j]:
                if i >= split and i not in rows:
                    row = work[i]
                    heapq.heappush(
                        heap, ((len(row) - 1) * col_nnz, len(row[j].packed), i, j)
                    )

    def _choose_pivot(self, split):
        """The candidate with the smallest ``(score, terms, i, j)``, where
        score is (row count - 1) * (column count - 1)."""
        work, cols, heap = self.work, self.cols, self.heap
        while heap:
            score, terms, i, j = heapq.heappop(heap)
            row = work.get(i)
            if (row is not None and j in row and len(row[j].packed) == terms
                    and (len(row) - 1) * (len(cols[j]) - 1) == score):
                return i, j
        return None

    def _strip_row_content(self, i):
        row = self.work[i]
        if not row:
            return
        den = self.dens[i]
        if 0 in den.packed:
            return
        key = _common_monomial([den, *row.values()], den.n_vars)
        if not key:
            return
        self.dens[i] = _shift_down(den, key)
        for j in list(row):
            row[j] = _shift_down(row[j], key)

    def eliminate(self, split: int) -> int:
        # pivot columns leave every row, so rows and columns >= split remain
        self._push_keys([i for i in self.work if i >= split], (), split)
        while True:
            found = self._choose_pivot(split)
            if found is None:
                break
            pr, pc = found
            prow = self.work.pop(pr)
            piv = prow.pop(pc)
            self.cols[pc].discard(pr)
            for j in prow:
                self.cols[j].discard(pr)
            self.piv_num = self.piv_num * piv
            self.piv_den = self.piv_den * self.dens[pr]
            self.row_order.append(pr)
            self.col_order.append(pc)
            piv_const = piv.is_constant()
            piv_is_one = piv_const and piv.packed[0] == 1 and piv.denom == 1
            touched = sorted(self.cols.get(pc, ()))
            changed = set(prow)
            for i in touched:
                row = self.work[i]
                f = row.pop(pc)
                if not piv_is_one:
                    self.dens[i] = self.dens[i] * piv
                    if piv_const:
                        for j in list(row):
                            row[j] = row[j].times_constant(piv)
                    else:
                        for j in list(row):
                            row[j] = row[j] * piv
                for j, w in prow.items():
                    delta = f * w
                    cur = row.get(j)
                    new = -delta if cur is None else cur - delta
                    if new.is_zero():
                        if cur is not None:
                            del row[j]
                            self.cols[j].discard(i)
                    else:
                        row[j] = new
                        if cur is None:
                            self.cols[j].add(i)
                if not piv_is_one:
                    self._strip_row_content(i)
            self.cols[pc] = set()
            self._push_keys({i for i in touched if i >= split},
                            [j for j in changed if j >= split], split)
        return len(self.row_order)

    def det_fraction(self) -> RationalFunction:
        sign = _parity_sign(self.row_order) * _parity_sign(self.col_order)
        num = self.piv_num if sign > 0 else -self.piv_num
        return RationalFunction(num, self.piv_den)


def schur_eliminate(
    rows: dict[int, dict[int, Polynomial]],
    m: int,
    split: int,
    descriptor,
    n_vars: int,
) -> tuple[list[list[RationalFunction]], RationalFunction]:
    """``(schur, det_block)``: the Schur complement, as split-by-split rows,
    and the (2,2)-block determinant of a sparse polynomial matrix.

    ``rows`` is the m-by-m matrix in dict-of-dicts form, left unchanged;
    ``split`` is the size of the (1,1) block.  Raises :class:`SingularBlock`
    when the (2,2) block has identically zero determinant.
    """
    state = _State(rows, m, descriptor, n_vars)
    if state.eliminate(split) < m - split:
        raise SingularBlock("the (2,2) block has zero determinant")
    det_block = state.det_fraction()
    zero = RationalFunction.zero(descriptor, n_vars)
    work, dens = state.work, state.dens
    schur = [[RationalFunction(work[i][j], dens[i]) if j in work[i] else zero
              for j in range(split)] for i in range(split)]
    return schur, det_block


def _times(p: Polynomial, c: Polynomial) -> Polynomial:
    """p * c, as a scaling when c is a constant."""
    return p.times_constant(c) if c.is_constant() else p * c


def _over(p: Polynomial, c: Polynomial) -> Polynomial:
    """p / c for a divisor c of p, as a scaling when c is a constant."""
    if c.is_constant():
        return p.times_constant(c, invert=True)
    return p.divide_exact(c)


def sparse_determinant(
    rows: dict[int, dict[int, Polynomial]], m: int, descriptor, n_vars: int
) -> RationalFunction:
    """Determinant (a polynomial) of the m-by-m matrix ``rows``, left
    unchanged, in two phases.

    Phase 1 needs no fraction-free step.  A row or column with one nonzero
    is expanded along: its entry joins the result (constants in one field
    scalar, polynomials in a factor list) and its row and column leave.
    Failing that, a constant pivot c with the smallest
    (row count - 1)(column count - 1), then i, then j, is eliminated: the
    pivot row is scaled by 1/c once, every other row of its column gets
    ``row_i -= row_i[pc] * prow / c``, and c joins the scalar.  Every row
    stays an exact row of the current Schur complement, so nothing is ever
    divided.  A zero row or column means the determinant is zero.

    Phase 2 is Bareiss elimination with pivots anywhere on what is left,
    keyed by ((row count - 1)(column count - 1), terms, i, j).  Row i keeps
    the step s of its last update; since an untouched row only gains
    p_k / p_s, pivot p_k updates the rows it meets to
    ``(p_k row_i - row_i[pc] prow) / p_s``, exactly, and a stale pivot row is
    brought up to date first.  A pivot alone in its row or in its column
    changes no other row, so only its own value is brought up to date.  The
    determinant is sign * scalar * factors * the last pivot.
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

    # phase 1: singletons and constant pivots
    short_rows = [i for i, row in work.items() if len(row) <= 1]
    short_cols = [j for j, col in cols.items() if len(col) <= 1]
    while True:
        if short_rows or short_cols:
            if short_rows:
                pr = short_rows.pop()
                row = work.get(pr)
                if row is None or len(row) > 1:
                    continue
                if not row:
                    return zero_det
                (pc,) = row
            else:
                pc = short_cols.pop()
                col = cols.get(pc)
                if col is None or len(col) > 1:
                    continue
                if not col:
                    return zero_det
                (pr,) = col
            value = work[pr][pc]
            if len(value.packed) == 1 and 0 in value.packed:
                scalar = scalar.times_constant(value)
            else:
                factors.append(value)
            row_order.append(pr)
            col_order.append(pc)
            for j in work.pop(pr):
                col = cols[j]
                col.discard(pr)
                if len(col) <= 1 and j != pc:
                    short_cols.append(j)
            for i in cols.pop(pc):
                row = work[i]
                del row[pc]
                if len(row) <= 1:
                    short_rows.append(i)
            continue
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
        scalar = scalar.times_constant(c)
        prow = {j: v.times_constant(c, invert=True) for j, v in prow.items()}
        row_order.append(pr)
        col_order.append(pc)
        for i in cols.pop(pc):
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

    # phase 2: fraction-free elimination of the rest
    pivots = [Polynomial.one(descriptor, n_vars)]
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
        if len(prow) == 1 or not others:
            piv = prow[pc]
            if last < len(pivots) - 1:
                piv = _over(_times(piv, pivots[-1]), pivots[last])
            for i in others:
                row = work[i]
                del row[pc]
                if not row:
                    return zero_det
            pivots.append(piv)
            continue
        if last < len(pivots) - 1:
            prow = {j: _over(_times(v, pivots[-1]), pivots[last])
                    for j, v in prow.items()}
        piv = prow.pop(pc)
        for i in others:
            row, d = work[i], pivots[step[i]]
            f = row.pop(pc)
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
            if not row:
                return zero_det
            for j, v in row.items():
                row[j] = _over(v, d)
            step[i] = len(pivots)
        pivots.append(piv)
    if _parity_sign(row_order) * _parity_sign(col_order) < 0:
        scalar = -scalar
    det = math.prod(factors, start=pivots[-1]).times_constant(scalar)
    return RationalFunction(det)
