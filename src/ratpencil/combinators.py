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

Every operation that makes a larger pencil refuses an output past
``MAX_PENCIL_SIZE`` (:func:`ratpencil.pencil.require_size`) before
assembling it, as the pencil reader does.

:func:`op_shrink` has no layout: it makes a pencil smaller by exact Schur
steps on constant pivots of A22.  No builder calls it; it shares no code
with :mod:`ratpencil.elimination`, so that checking a shrunk pencil never
runs the elimination that made it.

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
from .pencil import LinearPencil, require_size
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
    require_size(m, "the sum")
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
    require_size(2 * m - k, "the symmetrization")
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
    require_size(l + m - k, "the sandwich")
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
    require_size(size, "the product")
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
    if check:  # schur_complement raises SingularBlock when det A22 == 0
        if mat_det(p.schur_complement()).is_zero():
            raise SingularSchurComplement("Schur complement is not invertible")
    k, m = p.split, p.m
    require_size(m + k, "the inverse")
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
    require_size(p.m * copies, "the Kronecker product")
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
    d, split = p.descriptor, p.split
    symmetric = p.is_symmetric()
    # sparse rows {i: {j: entry}}, an entry mapping a coefficient index (0
    # for the constant term) to a nonzero value, and the row set of each
    # column; both keep their indices in order as steps delete them
    rows: dict[int, dict[int, dict]] = {i: {} for i in range(p.m)}
    cols: dict[int, set[int]] = {j: set() for j in range(p.m)}
    for t, c in enumerate(p.coeffs):
        for (i, j), value in c.items():
            rows[i].setdefault(j, {})[t] = value
            cols[j].add(i)

    def score(i: int, j: int):
        """Markowitz score of the pivot (i, j), or None when it is none;
        over a symmetric pencil, (i, j) with i < j names the pair {i, j}."""
        row = rows.get(i)
        entry = row.get(j) if row else None
        if entry is None or _loose(entry):
            return None
        loose_row = any(map(_loose, row.values()))
        if not symmetric:
            if loose_row and any(_loose(rows[x][j]) for x in cols[j]):
                return None
            return (len(row) - 1) * (len(cols[j]) - 1)
        if loose_row:
            return None
        if i == j:
            return (len(row) - 1) ** 2
        other, zero = rows[j], {0: d.zero}
        if any(map(_loose, other.values())) or d.mul(entry[0], entry[0]) == \
                d.mul(row.get(i, zero)[0], other.get(j, zero)[0]):
            return None
        return (len(row.keys() | other.keys()) - 2) ** 2

    # (score, i, j) of candidate pivots; stale keys stay until they reach
    # the top and fail the recheck
    heap: list[tuple[int, int, int]] = []

    def push(touched_rows, touched_cols=()):
        """Push the keys of the candidates in the rows and the columns
        that a step changed."""
        cells = {(i, j) for i in touched_rows if i >= split
                 for j in rows[i] if j >= split}
        cells.update((i, j) for j in touched_cols if j >= split
                     for i in cols[j] if i >= split)
        if symmetric:
            cells = {(min(cell), max(cell)) for cell in cells}
        for i, j in cells:
            key = score(i, j)
            if key is not None:
                heapq.heappush(heap, (key, i, j))

    def eliminate(i: int, j: int):
        """One Schur step on the constant pivot A_ij, whose row or column
        holds only constants: A_xy -= A_xj * A_iy / A_ij, scaling whichever
        factor is not a constant.  Returns row i and the rows it changed."""
        prow = rows.pop(i)
        inv = d.inv(prow.pop(j)[0])
        col = cols.pop(j)
        col.discard(i)
        for y in prow:
            cols[y].discard(i)
        constant_row = not any(map(_loose, prow.values()))
        for x in col:
            row = rows[x]
            xj = row.pop(j)
            for y, iy in prow.items():
                entry, s = (xj, iy[0]) if constant_row else (iy, xj[0])
                s = d.mul(s, inv)
                old = row.setdefault(y, {})
                if not old:
                    cols[y].add(x)
                for t, v in entry.items():
                    merged = d.sub(old.get(t, d.zero), d.mul(v, s))
                    if merged:
                        old[t] = merged
                    else:
                        del old[t]
                if not old:
                    del row[y]
                    cols[y].discard(x)
        return prow, col

    push(rows)
    size = p.m - split
    while size > 1 and heap:
        key, i, j = heapq.heappop(heap)
        if score(i, j) != key:
            continue
        if i == j or not symmetric:
            prow, col = eliminate(i, j)
            push(col, () if symmetric else prow)
            size -= 1
        elif size > 2:
            # the pair {i, j} as two plain steps: after the first, row j
            # still holds only constants and A_ji = -det / A_ij != 0
            touched = eliminate(i, j)[1]
            touched |= eliminate(j, i)[1]
            touched.discard(j)
            push(touched)
            size -= 2
    if len(rows) == p.m:
        return p
    # the remaining rows and columns, renumbered in their order
    col_index = {j: c for c, j in enumerate(cols)}
    coeffs = [{} for _ in p.coeffs]
    for r, row in enumerate(rows.values()):
        for j in sorted(row):
            for t, value in row[j].items():
                coeffs[t][(r, col_index[j])] = value
    return LinearPencil(d, p.n_vars, len(rows), split, coeffs)
