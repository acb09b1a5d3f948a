"""Pencil combinators: each builds a pencil whose Schur complement is a
stated algebraic combination of the inputs' Schur complements.

The block layouts below are load-bearing: they are what make the Schur
complement identities hold and what transfer symmetry/homogeneity from
inputs to outputs, so they are assembled verbatim and documented per
operation.  All precondition checks on block invertibility run eagerly by
exact determinant; pass ``check=False`` to defer them when composing long
pipelines that are verified once at the end.
"""

from __future__ import annotations

from .errors import (
    BlockSizeMismatch,
    DescriptorMismatch,
    DimensionMismatch,
    SingularSchurComplement,
    SingularX,
    ZeroScalar,
)
from .matrices import RationalMatrix, mat_det
from .pencil import LinearPencil


def _match(p: LinearPencil, q: LinearPencil):
    if p.descriptor != q.descriptor or p.n_vars != q.n_vars:
        raise DescriptorMismatch("pencils live over different fields or variables")


def _require_block(p: LinearPencil):
    p.block_det()  # raises SingularBlock when det A22 == 0


def _paste(dst, src, row_lo, row_hi, col_lo, col_hi, row_off, col_off,
           descriptor, transpose=False, negate=False):
    """Accumulate a source block into a destination coefficient dict."""
    add, neg = descriptor.add, descriptor.neg
    for (i, j), value in src.items():
        if not (row_lo <= i < row_hi and col_lo <= j < col_hi):
            continue
        if transpose:
            key = (row_off + (j - col_lo), col_off + (i - row_lo))
        else:
            key = (row_off + (i - row_lo), col_off + (j - col_lo))
        if negate:
            value = neg(value)
        prior = dst.get(key)
        if prior is None:
            dst[key] = value
        else:
            merged = add(prior, value)
            if merged:
                dst[key] = merged
            else:
                del dst[key]


def _sparse_from_dense(grid, descriptor):
    out = {}
    for i, row in enumerate(grid):
        for j, value in enumerate(row):
            value = descriptor.coerce(value)
            if value:
                out[(i, j)] = value
    return out


def _sparse_matmul(a, b, descriptor):
    add, mul = descriptor.add, descriptor.mul
    by_row: dict[int, dict[int, object]] = {}
    for (i, t), v in a.items():
        by_row.setdefault(i, {})[t] = v
    b_rows: dict[int, dict[int, object]] = {}
    for (t, j), v in b.items():
        b_rows.setdefault(t, {})[j] = v
    out = {}
    for i, arow in by_row.items():
        for t, av in arow.items():
            brow = b_rows.get(t)
            if not brow:
                continue
            for j, bv in brow.items():
                piece = mul(av, bv)
                prior = out.get((i, j))
                if prior is None:
                    if piece:
                        out[(i, j)] = piece
                else:
                    merged = add(prior, piece)
                    if merged:
                        out[(i, j)] = merged
                    else:
                        del out[(i, j)]
    return out


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


def op_add(p: LinearPencil, q: LinearPencil, check: bool = True) -> LinearPencil:
    """Pencil for ``A/A22 + B/B22``.

    Layout (sizes k, m-k, l-k):

        [ A11+B11  A12  B12 ]
        [ A21      A22  0   ]
        [ B21      0    B22 ]
    """
    _match(p, q)
    k = p.split
    if q.split != k:
        raise BlockSizeMismatch(f"(1,1) blocks differ: {k} vs {q.split}")
    if check:
        _require_block(p)
        _require_block(q)
    m, l = p.m, q.m
    size = m + l - k
    d = p.descriptor
    coeffs = []
    for pc, qc in zip(p.coeffs, q.coeffs):
        c: dict = {}
        _paste(c, pc, 0, k, 0, k, 0, 0, d)          # A11
        _paste(c, qc, 0, k, 0, k, 0, 0, d)          # + B11
        _paste(c, pc, 0, k, k, m, 0, k, d)          # A12
        _paste(c, qc, 0, k, k, l, 0, m, d)          # B12
        _paste(c, pc, k, m, 0, k, k, 0, d)          # A21
        _paste(c, pc, k, m, k, m, k, k, d)          # A22
        _paste(c, qc, k, l, 0, k, m, 0, d)          # B21
        _paste(c, qc, k, l, k, l, m, m, d)          # B22
        coeffs.append(c)
    return LinearPencil(d, p.n_vars, size, k, coeffs)


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
    size = 2 * m - k
    d = p.descriptor
    coeffs = []
    for pc in p.coeffs:
        c: dict = {}
        _paste(c, pc, 0, k, 0, k, 0, 0, d)                      # A11
        _paste(c, pc, 0, k, 0, k, 0, 0, d, transpose=True)      # + A11^T
        _paste(c, pc, k, m, 0, k, 0, k, d, transpose=True)      # A21^T
        _paste(c, pc, 0, k, k, m, 0, m, d)                      # A12
        _paste(c, pc, k, m, 0, k, k, 0, d)                      # A21
        _paste(c, pc, k, m, k, m, k, m, d)                      # A22
        _paste(c, pc, 0, k, k, m, m, 0, d, transpose=True)      # A12^T
        _paste(c, pc, k, m, k, m, m, k, d, transpose=True)      # A22^T
        coeffs.append(c)
    return LinearPencil(d, p.n_vars, size, k, coeffs)


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
    us = _sparse_from_dense(u, d)
    vs = _sparse_from_dense(v, d)
    size = l + m - k
    coeffs = []
    for pc in p.coeffs:
        c: dict = {}
        a11 = {key: val for key, val in pc.items() if key[0] < k and key[1] < k}
        _paste(c, _sparse_matmul(_sparse_matmul(us, a11, d), vs, d),
               0, l, 0, l, 0, 0, d)                              # U A11 V
        a12 = {
            (i, j - k): val
            for (i, j), val in pc.items()
            if i < k and j >= k
        }
        _paste(c, _sparse_matmul(us, a12, d), 0, l, 0, m - k, 0, l, d)   # U A12
        a21 = {
            (i - k, j): val
            for (i, j), val in pc.items()
            if i >= k and j < k
        }
        _paste(c, _sparse_matmul(a21, vs, d), 0, m - k, 0, l, l, 0, d)   # A21 V
        _paste(c, pc, k, m, k, m, l, l, d)                               # A22
        coeffs.append(c)
    return LinearPencil(d, p.n_vars, size, l, coeffs)


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
    for i in range(k):
        for j in range(k):
            entry = x.entries[i][j]
            if entry.is_zero():
                continue
            poly = entry.as_polynomial()  # raises if denominator non-constant
            if poly.total_degree() > 1:
                raise ValueError("X entries must have degree at most 1")
            for exps, value in poly.terms.items():
                idx = 0
                for t, e in enumerate(exps):
                    if e:
                        idx = t + 1
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
    r1, r2, r3 = k, l, m + l - k           # row group offsets after group 0
    c1, c2, c3 = k, m, m + l - k           # column group offsets after group 0
    coeffs = []
    for idx in range(p.n_vars + 1):
        pc, qc = p.coeffs[idx], q.coeffs[idx]
        c: dict = {}
        _paste(c, pc, 0, k, k, m, 0, c1, d)            # A12
        _paste(c, pc, 0, k, 0, k, 0, c3, d)            # A11
        _paste(c, qc, k, l, 0, k, r1, 0, d)            # B21
        _paste(c, qc, k, l, k, l, r1, c2, d)           # B22
        _paste(c, pc, k, m, k, m, r2, c1, d)           # A22
        _paste(c, pc, k, m, 0, k, r2, c3, d)           # A21
        _paste(c, qc, 0, k, 0, k, r3, 0, d)            # B11
        _paste(c, qc, 0, k, k, l, r3, c2, d)           # B12
        for (i, j), value in xc[idx].items():          # -X
            _paste(c, {(i, j): value}, 0, k, 0, k, r3, c3, d, negate=True)
        coeffs.append(c)
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
    size = m + k
    coeffs = []
    for idx in range(p.n_vars + 1):
        pc = p.coeffs[idx]
        c: dict = {}
        if idx == 0:
            for t in range(k):
                c[(t, k + t)] = d.one
                c[(k + t, t)] = d.one
        _paste(c, pc, 0, k, 0, k, k, k, d, negate=True)        # -A11
        _paste(c, pc, 0, k, k, m, k, 2 * k, d, negate=True)    # -A12
        _paste(c, pc, k, m, 0, k, 2 * k, k, d, negate=True)    # -A21
        _paste(c, pc, k, m, k, m, 2 * k, 2 * k, d, negate=True)  # -A22
        coeffs.append(c)
    return LinearPencil(d, p.n_vars, size, k, coeffs)


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
