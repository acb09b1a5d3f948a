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

All precondition checks on block invertibility run eagerly by exact
determinant; pass ``check=False`` to defer them when composing long
pipelines that are verified once at the end.
"""

from __future__ import annotations

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
