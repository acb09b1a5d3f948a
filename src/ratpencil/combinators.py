"""Pencil combinators: each builds a pencil whose Schur complement is a
stated algebraic combination of the inputs' Schur complements.

The block layouts below are load-bearing: they are what make the Schur
complement identities hold and what transfer symmetry/homogeneity from
inputs to outputs, so they are assembled verbatim and documented per
operation.

Each layout is an index relabeling: every entry ``(i, j)`` of an input
coefficient goes once to ``(rows[i], cols[j])`` (or to the transposed cell,
or negated), where ``rows`` and ``cols`` send the input's two blocks to
their offsets (:func:`_split`), and each output coefficient is one
:func:`ratpencil.fields.accumulate` over the moved entries.  Only
:func:`op_sandwich` weights entries, spreading the first block through the
constant factors U and V.

:func:`op_shrink` has no layout: it makes a pencil smaller by exact Schur
steps on constant pivots of A22.  It shares no code with
:mod:`ratpencil.elimination`, so that verifying a built pencil never runs
the builder's own elimination.

All precondition checks on block invertibility run eagerly by exact
determinant; pass ``check=False`` to defer them when composing long
pipelines that are verified once at the end.
"""

from __future__ import annotations

import heapq
from itertools import chain

from .errors import (
    BlockSizeMismatch,
    DescriptorMismatch,
    DimensionMismatch,
    SingularSchurComplement,
    SingularX,
    ZeroScalar,
)
from .fields import accumulate
from .matrices import RationalMatrix, mat_det
from .pencil import LinearPencil
from .poly import layout


def _match(p: LinearPencil, q: LinearPencil):
    if p.descriptor != q.descriptor or p.n_vars != q.n_vars:
        raise DescriptorMismatch("pencils live over different fields or variables")


def _require_block(p: LinearPencil):
    p.block_det()  # raises SingularBlock when det A22 == 0


def _split(k: int, size: int, low: int, high: int) -> list[int]:
    """Output index of each input index ``t < size``: the first block
    ``t < k`` goes to ``low + t``, the second to ``high + (t - k)``."""
    return list(range(low, low + k)) + list(range(high, high + size - k))


def _moved(c: dict, rows, cols, neg=None):
    """Entries of ``c`` sent from ``(i, j)`` to ``(rows[i], cols[j])``,
    negated by ``neg`` when it is given."""
    if neg is None:
        return (((rows[i], cols[j]), value) for (i, j), value in c.items())
    return (((rows[i], cols[j]), neg(value)) for (i, j), value in c.items())


def op_scale(p: LinearPencil, scalar, check: bool = True) -> LinearPencil:
    """Pencil for ``lambda * (A/A22)``: simply ``lambda * A``.

    Preserves every structure class.
    """
    raw = p.descriptor.coerce(scalar)
    if not raw:
        raise ZeroScalar("scaling a pencil by zero")
    if check:
        _require_block(p)
    mul = p.descriptor.mul
    coeffs = [
        {key: mul(value, raw) for key, value in c.items()} for c in p.coeffs
    ]
    return LinearPencil(p.descriptor, p.n_vars, p.m, p.split, coeffs)


def op_add(p: LinearPencil, *others: LinearPencil,
           check: bool = True) -> LinearPencil:
    """Pencil for ``A/A22 + B/B22 + ... + Z/Z22``, one part after another.

    Layout (sizes k, m_A-k, m_B-k, ..., m_Z-k):

        [ A11+B11+...+Z11  A12  B12  ...  Z12 ]
        [ A21              A22  0    ...  0   ]
        [ B21              0    B22  ...  0   ]
        [ ...                        ...      ]
        [ Z21              0    0    ...  Z22 ]

    One pass moves every part into place, so the result equals the left
    fold ``op_add(op_add(A, B), ...)``, key order included.  With no other
    part it is ``p`` itself.
    """
    k = p.split
    for q in others:
        _match(p, q)
        if q.split != k:
            raise BlockSizeMismatch(f"(1,1) blocks differ: {k} vs {q.split}")
    if check:
        _require_block(p)
        for q in others:
            _require_block(q)
    if not others:
        return p
    m = p.m
    indices = []
    for q in others:
        indices.append(_split(k, q.m, 0, m))
        m += q.m - k
    d = p.descriptor
    coeffs = [
        accumulate(dict(pc), chain.from_iterable(
            _moved(q.coeffs[t], index, index)
            for q, index in zip(others, indices)
        ), d.add)
        for t, pc in enumerate(p.coeffs)
    ]
    return LinearPencil(d, p.n_vars, m, k, coeffs)


def op_symmetrize(p: LinearPencil, check: bool = True) -> LinearPencil:
    """Pencil for ``A/A22 + (A/A22)^T``.

    Layout (sizes k, m-k, m-k):

        [ A11+A11^T  A21^T  A12  ]
        [ A21        0      A22  ]
        [ A12^T      A22^T  0    ]

    Output is symmetric for any input; homogeneous input gives hsLP.
    """
    if check:
        _require_block(p)
    k, m = p.split, p.m
    d = p.descriptor
    rows, cols = _split(k, m, 0, k), _split(k, m, 0, m)
    coeffs = [
        accumulate({}, chain(_moved(pc, rows, cols), (
            ((cols[j], rows[i]), value) for (i, j), value in pc.items()
        )), d.add)
        for pc in p.coeffs
    ]
    return LinearPencil(d, p.n_vars, 2 * m - k, k, coeffs)


def op_sandwich(u, p: LinearPencil, v, check: bool = True) -> LinearPencil:
    """Pencil for ``U * (A/A22) * V`` with constant U (l x k) and V (k x l).

    Layout (sizes l, m-k):

        [ U A11 V  U A12 ]
        [ A21 V    A22   ]

    With ``V = U^T`` symmetry is preserved; homogeneity always is.
    """
    d = p.descriptor
    k, m = p.split, p.m
    u_rows = len(u)
    u_cols = len(u[0]) if u_rows else 0
    v_rows = len(v)
    v_cols = len(v[0]) if v_rows else 0
    if u_cols != k or v_rows != k or u_rows != v_cols:
        raise DimensionMismatch(
            f"sandwich shapes {u_rows}x{u_cols} and {v_rows}x{v_cols} "
            f"do not fit block size {k}"
        )
    if check:
        _require_block(p)
    l = u_rows
    us = [[d.coerce(value) for value in row] for row in u]
    vs = [[d.coerce(value) for value in row] for row in v]
    # Row t < k of A spreads over the rows of U's column t, column t < k
    # over the columns of V's row t; index t >= k moves on with weight one.
    tail = [[(s, d.one)] for s in _split(k, m, 0, l)[k:]]
    down = [[(r, us[r][t]) for r in range(l) if us[r][t]] for t in range(k)]
    across = [[(s, vs[t][s]) for s in range(l) if vs[t][s]] for t in range(k)]
    down, across = down + tail, across + tail
    mul = d.mul
    coeffs = [
        accumulate({}, (
            ((r, s), mul(mul(x, value), y))
            for (i, j), value in pc.items()
            for r, x in down[i]
            for s, y in across[j]
        ), d.add)
        for pc in p.coeffs
    ]
    return LinearPencil(d, p.n_vars, l + m - k, l, coeffs)


def _x_coeffs(x, descriptor, n_vars, k):
    """Normalize the middle factor X to n+1 sparse constant k x k matrices."""
    if x is None:
        return [{(i, i): descriptor.one for i in range(k)}] + [
            {} for _ in range(n_vars)
        ]
    if isinstance(x, LinearPencil):
        if x.descriptor != descriptor or x.n_vars != n_vars:
            raise DescriptorMismatch("X lives over a different field or variables")
        if x.m != k:
            raise DimensionMismatch(f"X must be {k}x{k}, got {x.m}x{x.m}")
        return [dict(c) for c in x.coeffs]
    if not isinstance(x, RationalMatrix):
        raise TypeError("X must be None, a RationalMatrix, or a LinearPencil")
    if x.descriptor != descriptor or x.n_vars != n_vars:
        raise DescriptorMismatch("X lives over a different field or variables")
    if x.rows != k or x.cols != k:
        raise DimensionMismatch(f"X must be {k}x{k}, got {x.rows}x{x.cols}")
    coeffs = [dict() for _ in range(n_vars + 1)]
    units = layout(n_vars).units
    for i in range(k):
        for j in range(k):
            entry = x.entries[i][j]
            if entry.is_zero():
                continue
            poly = entry.as_polynomial()  # raises if denominator non-constant
            if poly.total_degree() > 1:
                raise ValueError("X entries must have degree at most 1")
            for key, value in poly.raw_items():
                idx = units.index(key) + 1 if key else 0
                coeffs[idx][(i, j)] = value
    return coeffs


def op_product(p: LinearPencil, x, q: LinearPencil,
               check: bool = True) -> LinearPencil:
    """Pencil for ``(A/A22) * X^{-1} * (B/B22)`` with X an invertible k x k
    linear pencil matrix (``None`` means the identity).

    Layout (row sizes k, l-k, m-k, k; column sizes k, m-k, l-k, k):

        [ 0    A12  0    A11 ]
        [ B21  0    B22  0   ]
        [ 0    A22  0    A21 ]
        [ B11  0    B12  -X  ]

    With ``B = A^T`` and symmetric X, the output is symmetric; when A, B, X
    are all homogeneous so is the output.
    """
    _match(p, q)
    k = p.split
    if q.split != k:
        raise BlockSizeMismatch(f"(1,1) blocks differ: {k} vs {q.split}")
    d = p.descriptor
    xc = _x_coeffs(x, d, p.n_vars, k)
    if check:
        _require_block(p)
        _require_block(q)
        if x is not None:
            x_mat = x.as_matrix() if isinstance(x, LinearPencil) else x
            if mat_det(x_mat).is_zero():
                raise SingularX("middle factor X has zero determinant")
    m, l = p.m, q.m
    size = m + l
    last = size - k                        # offset of the last row/column group
    a_rows, a_cols = _split(k, m, 0, l), _split(k, m, last, k)
    b_rows, b_cols = _split(k, l, last, k), _split(k, l, 0, m)
    x_index = _split(k, k, last, size)
    coeffs = [
        accumulate({}, chain(
            _moved(pc, a_rows, a_cols),
            _moved(qc, b_rows, b_cols),
            _moved(xc_t, x_index, x_index, d.neg),
        ), d.add)
        for pc, qc, xc_t in zip(p.coeffs, q.coeffs, xc)
    ]
    return LinearPencil(d, p.n_vars, size, k, coeffs)


def op_inverse(p: LinearPencil, check: bool = True) -> LinearPencil:
    """Pencil for ``(A/A22)^{-1}``.

    Layout (sizes k, k, m-k):

        [ 0  I     0    ]
        [ I  -A11  -A12 ]
        [ 0  -A21  -A22 ]

    Symmetry is preserved; homogeneity is not (the identity blocks are
    constant).
    """
    if check:
        _require_block(p)
        if mat_det(p.schur_complement()).is_zero():
            raise SingularSchurComplement("Schur complement is not invertible")
    k, m = p.split, p.m
    d = p.descriptor
    index = _split(k, m, k, 2 * k)
    identity = {}
    for t in range(k):
        identity[(t, k + t)] = identity[(k + t, t)] = d.one
    coeffs = [
        accumulate(dict(identity) if idx == 0 else {},
                   _moved(pc, index, index, d.neg), d.add)
        for idx, pc in enumerate(p.coeffs)
    ]
    return LinearPencil(d, p.n_vars, m + k, k, coeffs)


def op_kron_identity(p: LinearPencil, copies: int, check: bool = True) -> LinearPencil:
    """Pencil for ``(A/A22) tensor I``: every coefficient becomes A_j tensor I.

    Preserves every structure class.
    """
    if copies < 1:
        raise ValueError("need a positive number of identity copies")
    if check:
        _require_block(p)
    if copies == 1:
        return p
    coeffs = []
    for pc in p.coeffs:
        c = {}
        for (i, j), value in pc.items():
            for t in range(copies):
                c[(i * copies + t, j * copies + t)] = value
        coeffs.append(c)
    return LinearPencil(
        p.descriptor, p.n_vars, p.m * copies, p.split * copies, coeffs
    )


def op_homogenize(p: LinearPencil, check: bool = True) -> LinearPencil:
    """Pencil over n+1 variables for ``z_{n+1} * F(z / z_{n+1})``: the
    constant coefficient becomes the coefficient of the new variable.

    LP becomes hLP and sLP becomes hsLP.
    """
    if check:
        _require_block(p)
    coeffs = [{}] + [dict(c) for c in p.coeffs[1:]] + [dict(p.coeffs[0])]
    return LinearPencil(p.descriptor, p.n_vars + 1, p.m, p.split, coeffs)


def _loose(entry: dict) -> bool:
    """Whether an entry (coefficient index to value) is not a constant."""
    return len(entry) > 1 or 0 not in entry


class _Shrink:
    """Working state of :func:`op_shrink`: sparse rows ``{i: {j: entry}}``
    whose entries map a coefficient index (0 for the constant term) to a
    nonzero value, the row set of each column, and per row and per column
    the number of entries that are not constants."""

    def __init__(self, p: LinearPencil):
        self.d = p.descriptor
        self.split = p.split
        self.size = p.m - p.split
        self.symmetric = p.is_symmetric()
        rows: dict[int, dict[int, dict]] = {}
        for t, c in enumerate(p.coeffs):
            for (i, j), value in c.items():
                rows.setdefault(i, {}).setdefault(j, {})[t] = value
        self.rows = rows
        self.cols: dict[int, set[int]] = {}
        self.loose_rows = dict.fromkeys(rows, 0)
        self.loose_cols: dict[int, int] = {}
        for i, row in rows.items():
            for j, entry in row.items():
                self.cols.setdefault(j, set()).add(i)
                loose = _loose(entry)
                self.loose_rows[i] += loose
                self.loose_cols[j] = self.loose_cols.get(j, 0) + loose
        self.removed_rows: set[int] = set()
        self.removed_cols: set[int] = set()
        # (score, i, j) of candidate pivots; stale keys stay until they
        # reach the top and fail the check in run
        self.heap: list[tuple[int, int, int]] = []
        self._push(rows)

    def score(self, i: int, j: int):
        """Markowitz score of the pivot (i, j), or None when it is none.

        A plain pivot is a nonzero constant whose row or column holds only
        constants.  Over a symmetric pencil, a diagonal pivot needs a
        constant row, and (i, j) with i < j names the pair {i, j}: two
        constant rows whose 2x2 block is invertible.
        """
        row = self.rows.get(i)
        entry = row.get(j) if row else None
        if entry is None or _loose(entry):
            return None
        if not self.symmetric:
            if self.loose_rows[i] and self.loose_cols[j]:
                return None
            return (len(row) - 1) * (len(self.cols[j]) - 1)
        if self.loose_rows[i]:
            return None
        if i == j:
            return (len(row) - 1) ** 2
        other = self.rows[j]
        if self.loose_rows[j] or not self._pair_det(row, other, i, j):
            return None
        return (len(row.keys() | other.keys()) - 2) ** 2

    def _value(self, row: dict, j: int):
        """The constant at column j of a constant row (zero when absent)."""
        entry = row.get(j)
        return entry[0] if entry else self.d.zero

    def _pair_det(self, row_a, row_b, a, b):
        d = self.d
        ab = row_a[b][0]
        return d.sub(d.mul(self._value(row_a, a), self._value(row_b, b)),
                     d.mul(ab, ab))

    def _push(self, touched_rows, touched_cols=()):
        """Push the keys of the candidates in the rows and the columns
        whose entries or counts a step changed."""
        split, rows, cols = self.split, self.rows, self.cols
        cells = set()
        for i in touched_rows:
            if i >= split:
                cells.update((i, j) for j in rows[i] if j >= split)
        for j in touched_cols:
            if j >= split:
                cells.update((i, j) for i in cols[j] if i >= split)
        if self.symmetric:
            cells = {(min(cell), max(cell)) for cell in cells}
        for i, j in cells:
            score = self.score(i, j)
            if score is not None:
                heapq.heappush(self.heap, (score, i, j))

    def _sub(self, x: int, y: int, entry: dict, s) -> None:
        """A_xy -= s * entry, with s a nonzero constant."""
        d = self.d
        mul, sub = d.mul, d.sub
        row = self.rows[x]
        old = row.get(y)
        if old is None:
            new = {t: d.neg(mul(v, s)) for t, v in entry.items()}
            row[y] = new
            self.cols[y].add(x)
            if _loose(new):
                self.loose_rows[x] += 1
                self.loose_cols[y] += 1
            return
        was = _loose(old)
        for t, v in entry.items():
            merged = sub(old.get(t, d.zero), mul(v, s))
            if merged:
                old[t] = merged
            else:
                del old[t]
        if not old:
            del row[y]
            self.cols[y].discard(x)
            now = False
        else:
            now = _loose(old)
        if now != was:
            step = 1 if now else -1
            self.loose_rows[x] += step
            self.loose_cols[y] += step

    def _unlink(self, i: int, j: int) -> tuple[dict, set]:
        """Remove row i and column j; return row i without its entry at j,
        and the rows other than i that had an entry in column j."""
        prow = self.rows.pop(i)
        prow.pop(j, None)
        col = self.cols.pop(j)
        col.discard(i)
        for y, entry in prow.items():
            self.cols[y].discard(i)
            if _loose(entry):
                self.loose_cols[y] -= 1
        self.removed_rows.add(i)
        self.removed_cols.add(j)
        return prow, col

    def eliminate(self, i: int, j: int) -> None:
        """One Schur step on the constant pivot c = A_ij:
        A_xy -= A_xj * A_iy / c, every product with a constant factor."""
        d = self.d
        inv = d.inv(self.rows[i][j][0])
        constant_row = not self.loose_rows.pop(i)
        prow, col = self._unlink(i, j)
        for x in col:
            entry = self.rows[x].pop(j)
            if _loose(entry):
                self.loose_rows[x] -= 1
            if constant_row:
                for y, value in prow.items():
                    self._sub(x, y, entry, d.mul(value[0], inv))
            else:
                s = d.mul(entry[0], inv)
                for y, value in prow.items():
                    self._sub(x, y, value, s)
        self.size -= 1
        self._push(col, () if self.symmetric else prow)

    def eliminate_pair(self, a: int, b: int) -> None:
        """The congruence A -= X B^-1 X^T on the constant rows a and b,
        where X holds columns a and b and B = [[A_aa, A_ab], [A_ab, A_bb]]."""
        d, rows, cols = self.d, self.rows, self.cols
        mul, add, value = d.mul, d.add, self._value
        row_a, row_b = rows.pop(a), rows.pop(b)
        inv = d.inv(self._pair_det(row_a, row_b, a, b))
        b00 = mul(value(row_b, b), inv)
        b01 = mul(d.neg(row_a[b][0]), inv)
        b11 = mul(value(row_a, a), inv)
        del self.loose_rows[a], self.loose_rows[b]
        for index, row in ((a, row_a), (b, row_b)):
            row.pop(a, None)
            row.pop(b, None)
            for y in row:
                cols[y].discard(index)
        del cols[a], cols[b]
        self.removed_rows.update((a, b))
        self.removed_cols.update((a, b))
        # X_x = (A_xa, A_xb) = u_x, and the update of A_xy is w_x . u_y
        # with w_x = B^-1 u_x
        others = sorted(row_a.keys() | row_b.keys())
        u, w = {}, {}
        for x in others:
            rows[x].pop(a, None)
            rows[x].pop(b, None)
            u[x] = u0, u1 = value(row_a, x), value(row_b, x)
            w[x] = (add(mul(b00, u0), mul(b01, u1)),
                    add(mul(b01, u0), mul(b11, u1)))
        one = d.one
        for x in others:
            w0, w1 = w[x]
            for y in others:
                u0, u1 = u[y]
                delta = add(mul(w0, u0), mul(w1, u1))
                if delta:
                    self._sub(x, y, {0: delta}, one)
        self.size -= 2
        self._push(others)

    def run(self) -> None:
        heap, symmetric = self.heap, self.symmetric
        while self.size > 1 and heap:
            score, i, j = heapq.heappop(heap)
            if self.score(i, j) != score:
                continue
            if i == j or not symmetric:
                self.eliminate(i, j)
            elif self.size > 2:
                self.eliminate_pair(i, j)

    def pencil(self, p: LinearPencil) -> LinearPencil:
        """The remaining rows and columns, renumbered in their order."""
        row_index = {i: r for r, i in enumerate(
            i for i in range(p.m) if i not in self.removed_rows)}
        col_index = {j: c for c, j in enumerate(
            j for j in range(p.m) if j not in self.removed_cols)}
        coeffs = [{} for _ in p.coeffs]
        for i in sorted(self.rows):
            row = self.rows[i]
            r = row_index[i]
            for j in sorted(row):
                cell = (r, col_index[j])
                for t, value in row[j].items():
                    coeffs[t][cell] = value
        return LinearPencil(p.descriptor, p.n_vars, len(row_index), p.split,
                            coeffs)


def op_shrink(p: LinearPencil, check: bool = True) -> LinearPencil:
    """Pencil with the Schur complement of ``p``, made smaller by exact
    Schur steps on constant pivots of A22.  It keeps every structure class
    of ``p`` and may gain one: the LP-only pencil of 1/z1 from
    :func:`op_inverse` and :func:`op_product` shrinks to the symmetric
    [[0, 1], [1, -z1]].

    Each step removes one row and one column of A22 (or two of each) by
    the quotient formula (A/A22) = (A/C)/(A22/C) for a constant invertible
    block C; det A22 changes by the nonzero factor det C.  Pivots are taken
    by the smallest (Markowitz score, i, j) from a lazy heap, until none
    is left or A22 is 1x1:

    * plain: a nonzero constant A_ij whose row or column holds only
      constants, so that every product in the update has a constant factor
      and every entry stays affine-linear;
    * symmetric ``p``: a nonzero constant A_ii with a constant row, or a
      pair of constant rows {a, b} with A_ab != 0 and an invertible block
      [[A_aa, A_ab], [A_ab, A_bb]], removed by a congruence, so that the
      output stays symmetric (in characteristic 2 too).

    A homogeneous pencil has no constant entries and comes back as it is.
    """
    if check:
        _require_block(p)
    state = _Shrink(p)
    state.run()
    if not state.removed_rows:
        return p
    return state.pencil(p)
