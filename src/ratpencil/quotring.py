"""Characteristic-2 quotient rings as sets of multilinear monomials.

A :class:`QuotContext` fixes a characteristic-2 field, a variable count, and
a constant tuple ell; all arithmetic happens modulo the ideal generated by
``z_i^2 + ell_i^2`` (the squared shift makes the absolute value total).  The
normal form replaces every ``z_i^(2a+b)`` by ``(ell_i^2)^a * z_i^b``, so
elements are multilinear polynomials.

GF(2) is the only field of characteristic 2 in :mod:`ratpencil.fields`, so
every nonzero coefficient is 1 and a normal form is exactly its set of
monomials.  A :class:`QuotElement` stores that set as a frozenset of
bitmasks, bit i meaning that z_i appears.  A sum is the symmetric
difference.  A product toggles ``x ^ y`` for each pair of monomials, except
the pairs that share a variable with ell_i = 0, whose square is zero (the
context's ``dead`` mask).  A product of k linear forms in n variables can
hold 2^n monomials, so a product of more than ``MAX_PRODUCT_PAIRS`` pairs
is refused with :class:`~ratpencil.errors.RingTooLarge` before it is
formed.  The absolute value, the normal form at ell, is the parity of the
monomials that avoid ``dead``.  Every square is that constant, r^2 = |r|
(z_i^2 = ell_i^2 = ell_i in characteristic 2), so an invertible element is
its own inverse, a power is r, 1 or 0 with no product, and the pair term
a_ij a_ji = a_ij^2 of a symmetric determinant is the parity of a_ij.  Those
two steps form no ring product, so ``MAX_PRODUCT_PAIRS`` never refuses
them.  Polynomials appear only at the boundary:
:meth:`QuotContext.project` maps one in, and the ``nf`` property builds the
normal-form polynomial back.

The arithmetic runs on the monomial sets themselves: one product kernel
``_times`` (with the sum ``^``) serves the element operators, both
determinants, and the CLEAN / ADD / ISOLATE steps.  A :class:`QuotElement`
is made only at the API boundary.  A :class:`QuotMatrix` keeps the grid of
its entries' sets in ``monomials`` and wraps them as ``entries`` on each
access, with no cache, so its slots are set once, at construction.  A
matrix built from the sets of an already-checked matrix skips the
per-entry context check and keeps the O(1) shape and split checks.

On top of the elements sit symmetric matrices with the CLEAN / ADD / ISOLATE
transformations and the constructive reduction that squeezes a ring
realizer down to its linear value.  ISOLATE works on one mutable grid: each
ADD step changes only row and column j, so only those are CLEANed.

The ring has zero divisors, so matrix determinants avoid division by
anything but units, in two phases like the first and last stages of
``elimination.sparse_determinant`` (:meth:`QuotMatrix.dets`).  Phase 1 eliminates unit pivots of the (2,2)
block: a unit is its own inverse, so a Schur step on it multiplies and adds
only.  Phase 2 runs Berkowitz's division-free walk (O(m^4) ring operations)
once on the remainder, which gives both det A and det A22; it is the only
path for a block without units.  The involution sum
:func:`det_involution_sum` is an independent second formula for symmetric
matrices; realizer checks compare the two.  It expands along the smallest
free index (fix it, or pair it with another) and memoizes the sums of the
index sets it meets, so it never lists the involutions.  It recurses once
per index and meets up to 2^m sets, so it refuses a matrix larger than
``MAX_RING_SIZE`` and stops past ``MAX_INVOLUTION_SETS`` sets, each with a
:class:`~ratpencil.errors.RingTooLarge` error.
"""

from __future__ import annotations

from .errors import (
    BadIndices,
    DescriptorMismatch,
    NotARealizer,
    NotCleaned,
    NotInvertible,
    NotInvertibleDiagonal,
    NotLinearEntries,
    NotSymmetric,
    RingTooLarge,
    WrongCharacteristic,
)
from .fields import FieldDescriptor, FieldElement, Value
from .poly import BITS, Polynomial, from_packed, layout

_EMPTY = frozenset()
_ONE = frozenset({0})
# the involution sum recurses once per index, and Berkowitz on a block
# without units costs O(m^4) ring products
MAX_RING_SIZE = 64
# index sets that one involution sum may memoize: 2^m for a dense m x m
MAX_INVOLUTION_SETS = 1 << 14
# monomial pairs that one product may toggle, |a| * |b|
MAX_PRODUCT_PAIRS = 1 << 14


def require_ring_size(m: int, what: str) -> None:
    """Raise :class:`RingTooLarge` when ``m`` is past ``MAX_RING_SIZE``."""
    if m > MAX_RING_SIZE:
        raise RingTooLarge(
            f"{what} has m = {m}, more than the limit {MAX_RING_SIZE}"
        )


class QuotContext(Value):
    """The ring of multilinear normal forms modulo z_i^2 = ell_i^2."""

    __slots__ = ("descriptor", "n_vars", "ell", "dead")

    def __init__(self, descriptor: FieldDescriptor, n_vars: int, ell):
        if descriptor.characteristic != 2:
            raise WrongCharacteristic("quotient contexts need characteristic 2")
        ell = tuple(descriptor.coerce(v) for v in ell)
        if len(ell) != n_vars:
            raise ValueError("ell must have one entry per variable")
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(
            self, "dead", sum(1 << i for i, v in enumerate(ell) if not v)
        )

    def __repr__(self):
        vals = ",".join(self.descriptor.format_value(v) for v in self.ell)
        return f"QuotContext({self.descriptor.name()}, ell=({vals}))"

    def _monomials(self, p: Polynomial) -> frozenset:
        """The normal form of ``p`` as a set of monomial bitmasks.

        An exponent of 2 or more on a dead variable kills the term, each
        exponent's parity gives its bit, and colliding terms cancel in pairs.
        """
        if p.n_vars != self.n_vars or (p.descriptor is not self.descriptor
                                       and p.descriptor != self.descriptor):
            raise DescriptorMismatch("polynomial does not match the context")
        if not p.packed:
            return _EMPTY
        dead, shifts = self.dead, layout(self.n_vars).shifts
        field = (1 << BITS) - 1
        out = set()
        for key in p.packed:  # every coefficient is 1 over GF(2)
            mask = 0
            for i, s in enumerate(shifts):
                e = key >> s & field
                if e >= 2 and dead >> i & 1:
                    break
                mask |= (e & 1) << i
            else:
                out ^= {mask}
        return frozenset(out)

    def mult_normal_form(self, p: Polynomial) -> Polynomial:
        """The multilinear normal form: z_i^(2a+b) -> (ell_i^2)^a z_i^b."""
        return _polynomial(self, self._monomials(p))

    def project(self, p: Polynomial) -> "QuotElement":
        return _element(self, self._monomials(p))

    def zero(self) -> "QuotElement":
        return _element(self, _EMPTY)

    def one(self) -> "QuotElement":
        return _element(self, _ONE)

    def constant(self, value) -> "QuotElement":
        return _element(self, _ONE if self.descriptor.coerce(value) else _EMPTY)

    def variable(self, index: int) -> "QuotElement":
        if not 0 <= index < self.n_vars:
            raise ValueError(f"variable index {index} out of range")
        return _element(self, frozenset({1 << index}))


def _polynomial(context: QuotContext, monomials) -> Polynomial:
    units = layout(context.n_vars).units
    packed = {}
    for x in monomials:
        key = 0
        while x:
            bit = x & -x
            key += units[bit.bit_length() - 1]
            x ^= bit
        packed[key] = 1
    return from_packed(context.descriptor, context.n_vars, packed)


def mult_normal_form(p: Polynomial, ctx: QuotContext) -> Polynomial:
    return ctx.mult_normal_form(p)


def project(p: Polynomial, ctx: QuotContext) -> "QuotElement":
    return ctx.project(p)


def lift(r: "QuotElement") -> Polynomial:
    return r.nf


def _times(a: frozenset, b: frozenset, dead: int) -> frozenset:
    """The product of two normal forms: ``x ^ y`` toggled for each pair of
    monomials that shares no dead variable."""
    if not a or b == _ONE:
        return a
    if not b or a == _ONE:
        return b
    if len(a) * len(b) > MAX_PRODUCT_PAIRS:
        raise RingTooLarge(
            f"a ring product of {len(a)} by {len(b)} monomials is more than "
            f"the limit of {MAX_PRODUCT_PAIRS} monomial pairs"
        )
    if len(a) > len(b):
        a, b = b, a
    out = set()
    for x in a:
        xd = x & dead
        if xd:
            out ^= {x ^ y for y in b if not xd & y}
        else:
            out ^= {x ^ y for y in b}
    return frozenset(out)


def _parity(a: frozenset, dead: int) -> int:
    """The absolute value: the parity of the monomials that avoid ``dead``."""
    return sum(1 for x in a if not x & dead) & 1


def _absolute(a: frozenset, dead: int) -> frozenset:
    """CLEAN of one off-diagonal entry: its absolute value as a constant."""
    if a <= _ONE:
        return a
    return _ONE if _parity(a, dead) else _EMPTY


class QuotElement(Value):
    """Ring element as its set of multilinear monomials (bitmasks).

    Equality is normal-form equality; ``nf`` is the normal-form polynomial.
    """

    __slots__ = ("context", "monomials")

    def __init__(self, context: QuotContext, nf: Polynomial):
        _set_context(self, context)
        _set_monomials(self, context._monomials(nf))

    @property
    def nf(self) -> Polynomial:
        return _polynomial(self.context, self.monomials)

    def __add__(self, other: "QuotElement") -> "QuotElement":
        _check(self.context, other)
        return _element(self.context, self.monomials ^ other.monomials)

    def __mul__(self, other: "QuotElement") -> "QuotElement":
        _check(self.context, other)
        return _element(self.context, _times(
            self.monomials, other.monomials, self.context.dead
        ))

    def __pow__(self, e: int) -> "QuotElement":
        """r^2 = |r| is a constant, so r^e is r for odd e and 1 for even e,
        except that it is 0 from e = 2 on when |r| = 0."""
        if e < 0:
            raise ValueError("negative power of a quotient-ring element")
        if e == 1:
            return self
        if e and not self.is_invertible():
            return _element(self.context, _EMPTY)
        return self if e & 1 else _element(self.context, _ONE)

    def is_zero(self) -> bool:
        return not self.monomials

    def is_constant(self) -> bool:
        return self.monomials <= _ONE

    def is_linear(self) -> bool:
        return all(not x & (x - 1) for x in self.monomials)

    def abs_value(self) -> FieldElement:
        """The unique field constant with r^2 = |r|^2: the normal form at ell."""
        return FieldElement(self.context.descriptor,
                            _parity(self.monomials, self.context.dead))

    def is_invertible(self) -> bool:
        return bool(_parity(self.monomials, self.context.dead))

    def inverse(self) -> "QuotElement":
        """r^{-1} = |r|^{-2} r, which is r itself since |r| = 1."""
        if not self.is_invertible():
            raise NotInvertible("element has zero absolute value")
        return self

    def __str__(self):
        return str(self.nf)

    def __repr__(self):
        return f"QuotElement({self})"


_set_context = QuotElement.context.__set__
_set_monomials = QuotElement.monomials.__set__


def _check(context: QuotContext, element) -> None:
    if not isinstance(element, QuotElement) or (
        element.context is not context and element.context != context
    ):
        raise DescriptorMismatch("elements live in different quotient rings")


def _element(context: QuotContext, monomials: frozenset) -> QuotElement:
    """Wrap a monomial set that is already a normal form."""
    out = object.__new__(QuotElement)
    _set_context(out, context)
    _set_monomials(out, monomials)
    return out


def qe_abs(r: QuotElement) -> FieldElement:
    return r.abs_value()


def qe_inv(r: QuotElement) -> QuotElement:
    return r.inverse()


class QuotMatrix(Value):
    """Matrix over a quotient ring with the 2x2 split of a realizer.

    ``monomials`` is the grid of the entries' monomial sets, on which every
    method computes; ``entries`` wraps them as :class:`QuotElement`s on
    each access.
    """

    __slots__ = ("context", "m", "split", "monomials")

    def __init__(self, context: QuotContext, split: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix must be square and non-empty")
        for row in entries:
            for e in row:
                _check(context, e)
        _init_matrix(self, context, split,
                     tuple(tuple(e.monomials for e in row) for row in entries))

    @classmethod
    def from_polynomials(cls, context, split, grid) -> "QuotMatrix":
        return cls(
            context, split, [[context.project(p) for p in row] for row in grid]
        )

    @property
    def entries(self) -> tuple:
        ctx = self.context
        return tuple(tuple(_element(ctx, a) for a in row)
                     for row in self.monomials)

    __hash__ = None

    def __getitem__(self, key):
        i, j = key
        return _element(self.context, self.monomials[i][j])

    def is_symmetric(self) -> bool:
        return self.monomials == tuple(zip(*self.monomials))

    def has_constant_off_diagonal(self) -> bool:
        return all(
            a <= _ONE
            for i, row in enumerate(self.monomials)
            for j, a in enumerate(row)
            if i != j
        )

    def has_linear_entries(self) -> bool:
        return all(
            not x & (x - 1) for row in self.monomials for a in row for x in a
        )

    def det(self) -> QuotElement:
        return self.dets()[0]

    def det22(self) -> QuotElement:
        return self.dets()[1]

    def dets(self) -> tuple[QuotElement, QuotElement]:
        """``(det A, det A22)`` from one two-phase elimination."""
        ctx = self.context
        det_all, det_block = _dets(self.monomials, self.split, ctx.dead)
        return _element(ctx, det_all), _element(ctx, det_block)

    def delete_row_col(self, index: int) -> "QuotMatrix":
        if not 0 <= index < self.m:
            raise BadIndices(f"index {index} out of range")
        if index < self.split:
            raise BadIndices("cannot delete inside the (1,1) block")
        grid = [
            row[:index] + row[index + 1:]
            for i, row in enumerate(self.monomials)
            if i != index
        ]
        return _matrix(self.context, self.split, grid)

    def __str__(self):
        rows = [", ".join(str(e) for e in row) for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"QuotMatrix({self.m}x{self.m}, split={self.split}, {self})"


def _init_matrix(matrix: QuotMatrix, context, split: int, grid: tuple) -> None:
    m = len(grid)
    if m == 0 or len(grid[0]) != m:
        raise ValueError("matrix must be square and non-empty")
    if not 1 <= split < m:
        raise ValueError("split must satisfy 1 <= split < m")
    object.__setattr__(matrix, "context", context)
    object.__setattr__(matrix, "m", m)
    object.__setattr__(matrix, "split", split)
    object.__setattr__(matrix, "monomials", grid)


def _matrix(context: QuotContext, split: int, grid) -> QuotMatrix:
    """Wrap a grid of normal forms taken from an already-checked matrix:
    the shape and split are checked, the entries are not."""
    out = object.__new__(QuotMatrix)
    _init_matrix(out, context, split, tuple(map(tuple, grid)))
    return out


def _dot(xs, ys, dead: int) -> frozenset:
    total = _EMPTY
    for x, y in zip(xs, ys):
        if x and y:
            total ^= _times(x, y, dead)
    return total


def _unit_pivot(work, rows, cols, dead: int):
    """The first unit (absolute value 1) of ``work`` in (row, column) order
    over ``rows`` x ``cols``, as ``(p, q)``; None if there is none."""
    for p in rows:
        row = work[p]
        for q in cols:
            a = row[q]
            if a and _parity(a, dead):
                return p, q
    return None


def _dets(grid, split: int, dead: int) -> tuple[frozenset, frozenset]:
    """Determinants of ``grid`` and of its trailing principal block from
    row and column ``split`` on, in two phases.

    Phase 1 eliminates unit pivots inside the block.  A unit u is its own
    inverse (u^2 = |u|^2 = 1) and characteristic 2 has no signs, so the
    Schur step a_xy += a_xq u a_py needs no division, even for a pivot off
    the diagonal; the remaining rows and columns are kept apart for that.
    The block of the Schur complement is the Schur complement of the
    block, so both determinants gain the same factor u.  Phase 2 runs one
    Berkowitz walk on the remainder, leading rows and columns first; a
    block that phase 1 empties has determinant 1 there.  The absolute value
    is a ring map onto GF(2), so phase 1 empties the block exactly when
    det A22 is a unit, as it is in every realizer.
    """
    work = [list(row) for row in grid]
    lead = list(range(split))
    rows, cols = list(range(split, len(grid))), list(range(split, len(grid)))
    units = _ONE
    while (pivot := _unit_pivot(work, rows, cols, dead)) is not None:
        p, q = pivot
        rows.remove(p)
        cols.remove(q)
        row_p = work[p]
        u = row_p[q]
        units = _times(units, u, dead)
        targets = [(y, row_p[y]) for y in lead + cols if row_p[y]]
        for x in lead + rows:
            row_x = work[x]
            a = row_x[q]
            if a:
                a = _times(a, u, dead)
                for y, b in targets:
                    row_x[y] ^= _times(a, b, dead)
    rows, cols = lead + rows, lead + cols
    det_rest, det_block = _det_berkowitz(
        [[work[x][y] for y in cols] for x in rows], split, dead
    )
    return _times(units, det_rest, dead), _times(units, det_block, dead)


def _det_berkowitz(grid, split: int, dead: int) -> tuple[frozenset, frozenset]:
    """Division-free determinants (Berkowitz 1984) in O(m^4) ring
    operations: of ``grid`` and of its trailing principal block from row and
    column ``split`` on (1 when that block is empty).

    Walking up from the bottom-right corner, ``coeffs`` holds the
    characteristic polynomial of the trailing principal block S.  Adding
    the corner a, row R and column C in front of S multiplies ``coeffs`` by
    the lower-triangular Toeplitz matrix with first column
    1, a, RC, RSC, RS^2C, ...; the last coefficient is the determinant of
    the block walked so far, read off once at ``split`` and once at the
    top.  Only products and sums occur, so zero divisors do no harm, and
    every sign of the textbook form vanishes in characteristic 2.
    """
    coeffs, block_det = [_ONE], _ONE
    for k in range(len(grid) - 1, -1, -1):
        block = [r[k + 1:] for r in grid[k + 1:]]
        row = grid[k][k + 1:]
        column = [r[k] for r in grid[k + 1:]]
        toeplitz = [grid[k][k]]
        for t in range(len(block)):
            if t:
                column = [_dot(r, column, dead) for r in block]
            toeplitz.append(_dot(row, column, dead))
        coeffs = [
            c ^ _dot(reversed(toeplitz[:i]), coeffs[:i], dead)
            for i, c in enumerate(coeffs + [_EMPTY])
        ]
        if k == split:
            block_det = coeffs[-1]
    return coeffs[-1], block_det


def det_involution_sum(matrix: QuotMatrix) -> QuotElement:
    """Symmetric determinant as a sum over involutions only.

    In characteristic 2 a permutation with a cycle longer than two cancels
    against the one with that cycle reversed, so only involutions remain.
    With i the smallest index of a set F, an involution of F either fixes i
    or swaps it with some j, which gives the expansion

        S(F) = a_ii S(F - {i}) + sum_j a_ij a_ji S(F - {i, j}),  S({}) = 1,

    and det A = S({0, ..., m-1}).  S is memoized on the sets it meets, and
    a zero factor skips the sum it multiplies.  A matrix larger than
    ``MAX_RING_SIZE``, and a sum that meets more than
    ``MAX_INVOLUTION_SETS`` sets, raise :class:`RingTooLarge`.
    """
    if not matrix.is_symmetric():
        raise NotSymmetric("involution-sum determinant needs a symmetric matrix")
    require_ring_size(matrix.m, "the involution-sum matrix")
    grid, dead = matrix.monomials, matrix.context.dead
    memo = {(): _ONE}

    def involution_sum(free):
        total = memo.get(free)
        if total is None:
            i, rest = free[0], free[1:]
            row = grid[i]
            total = _EMPTY
            if row[i]:
                total = _times(row[i], involution_sum(rest), dead)
            for t, j in enumerate(rest):
                # a_ij a_ji = a_ij^2 = |a_ij|, a constant
                if row[j] and _parity(row[j], dead):
                    total ^= involution_sum(rest[:t] + rest[t + 1:])
            memo[free] = total
            if len(memo) > MAX_INVOLUTION_SETS:
                raise RingTooLarge(
                    f"the involution sum of a {matrix.m}x{matrix.m} matrix "
                    f"meets more than {MAX_INVOLUTION_SETS} index sets"
                )
        return total

    return _element(matrix.context, involution_sum(tuple(range(matrix.m))))


def clean(matrix: QuotMatrix) -> QuotMatrix:
    """Replace off-diagonal entries by their absolute values; idempotent."""
    dead = matrix.context.dead
    grid = tuple(
        tuple(a if i == j else _absolute(a, dead) for j, a in enumerate(row))
        for i, row in enumerate(matrix.monomials)
    )
    if grid == matrix.monomials:
        return matrix
    return _matrix(matrix.context, matrix.split, grid)


def _add(grid, i: int, j: int, alpha: frozenset, dead: int) -> None:
    """Row update R_j += alpha R_i, then the column update, in place."""
    row_i, row_j = grid[i], grid[j]
    for t, a in enumerate(row_i):
        if a:
            row_j[t] ^= _times(alpha, a, dead)
    for row in grid:
        if row[i]:
            row[j] ^= _times(alpha, row[i], dead)


def add_transform(matrix: QuotMatrix, i: int, j: int,
                  alpha: QuotElement) -> QuotMatrix:
    """Row update R_j += alpha R_i, then the same column update, then CLEAN."""
    m = matrix.m
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise BadIndices(f"bad ADD indices ({i}, {j})")
    _check(matrix.context, alpha)
    grid = [list(row) for row in matrix.monomials]
    _add(grid, i, j, alpha.monomials, matrix.context.dead)
    return clean(_matrix(matrix.context, matrix.split, grid))


def _note(trace, step) -> None:
    """Append ``step()``, a (label, snapshot) pair, to ``trace`` when there
    is one.  ``step`` runs only then, so an untraced call builds no label
    and no snapshot."""
    if trace is not None:
        trace.append(step())


def isolate(matrix: QuotMatrix, i: int, trace=None) -> QuotMatrix:
    """Zero out row and column i except the diagonal via ADD steps.

    Needs an invertible diagonal entry ``a_ii`` and constant off-diagonal
    entries (a CLEANed symmetric matrix).  Over GF(2) an invertible entry
    has |a_ii| = 1, so the ADD step for column j uses alpha = a_ij.  The
    steps update one grid of monomial sets in place; the matrix stays clean
    outside row and column j, so only those are CLEANed after each step.
    """
    if not matrix.is_symmetric():
        raise NotSymmetric("ISOLATE needs a symmetric matrix")
    if not matrix.has_constant_off_diagonal():
        raise NotCleaned("ISOLATE needs constant off-diagonal entries")
    if not matrix[i, i].is_invertible():
        raise NotInvertibleDiagonal(f"diagonal entry {i} is not invertible")
    context, split, dead = matrix.context, matrix.split, matrix.context.dead
    grid = [list(row) for row in matrix.monomials]
    # the step for column j changes row i only in column j, so each a_ij
    # is still the input's when its turn comes
    for j, alpha in enumerate(matrix.monomials[i]):
        if j == i or not alpha:
            continue
        _add(grid, i, j, alpha, dead)
        row_j = grid[j]
        for t, row in enumerate(grid):
            if t != j:
                row_j[t] = _absolute(row_j[t], dead)
                row[j] = _absolute(row[j], dead)
        _note(trace, lambda: (f"add i={i + 1} j={j + 1} "
                              f"alpha={_element(context, alpha)}",
                              _matrix(context, split, grid)))
    return _matrix(context, split, grid)


def is_ring_realizer(matrix: QuotMatrix, r: QuotElement) -> bool:
    """Does det(A) = r det(A22) hold with det(A22) invertible?

    The eliminated determinant is cross-checked against the involution
    sum, an independent formula that must agree for symmetric matrices in
    characteristic 2.  The sum runs first, so its limits stop an oversized
    matrix before any elimination.
    """
    if not matrix.is_symmetric():
        raise NotSymmetric("realizers are symmetric")
    if not matrix.has_linear_entries():
        raise NotLinearEntries("realizer entries must be linear")
    det_sum = det_involution_sum(matrix)
    det_all, det_block = matrix.dets()
    if det_all != det_sum:
        raise ArithmeticError("determinant formulas disagree")
    if not det_block.is_invertible():
        return False
    return det_all == r * det_block


def reduce_realizer(matrix: QuotMatrix, r: QuotElement,
                    trace=None) -> QuotElement:
    """Shrink a realizer to the linear element it realizes.

    Repeatedly: isolate and delete an invertible (2,2) diagonal; failing
    that, augment a nonzero non-invertible diagonal into an invertible one
    and continue; when every (2,2) diagonal is zero, read off
    det(A) / det(A22) directly.  The 2x2 base case is L1 + c^2 L2^{-1}.
    Every intermediate matrix stays a clean realizer of r.
    """
    if not is_ring_realizer(matrix, r):
        raise NotARealizer("input matrix is not a realizer of r")
    dead = matrix.context.dead
    work = clean(matrix)
    if work is not matrix:
        _note(trace, lambda: ("clean", work))
    while work.m > 2:
        k = work.split
        diag = [(t, work.monomials[t][t]) for t in range(k, work.m)]
        invertible = [
            t for t, a in diag if _parity(a, dead) and not a <= _ONE
        ] or [t for t, a in diag if _parity(a, dead)]
        if invertible:
            t = invertible[0]
            work = isolate(work, t, trace=trace)
            _note(trace, lambda: (f"isolate i={t + 1}", work))
            work = work.delete_row_col(t)
            _note(trace, lambda: (f"delete i={t + 1}", work))
            continue
        nonzero = [t for t, a in diag if a]
        if nonzero:
            work = _augment(work, nonzero[0], trace)
            continue
        # all (2,2) diagonals zero: det(A22) is a constant, read off r
        det_all, det_block = work.dets()
        value = det_all * det_block.inverse()
        _note(trace, lambda: (f"read off det/det22 = {value}", work))
        return value
    l1, c, l2 = work[0, 0], work[0, 1], work[1, 1]
    value = l1 + c * c * l2.inverse()
    _note(trace, lambda: (f"base case 2x2 = {value}", work))
    return value


def _augment(matrix: QuotMatrix, index: int, trace) -> QuotMatrix:
    """Turn a nonzero non-invertible (2,2) diagonal into an invertible one.

    The chosen row/column is swapped to the first block position, a new
    row/column with a 1 diagonal hooked to it is inserted, and ISOLATE on
    the bumped entry followed by a deletion restores the size.
    """
    ctx = matrix.context
    k = matrix.split
    grid = [list(row) for row in matrix.monomials]
    if index != k:
        grid[index], grid[k] = grid[k], grid[index]
        for row in grid:
            row[index], row[k] = row[k], row[index]
        _note(trace, lambda: (f"swap i={index + 1} with i={k + 1}",
                              _matrix(ctx, k, grid)))
    # the new row and column k: a 1 on the diagonal, hooked by a 1 to the
    # bumped entry, whose diagonal gains a 1
    grid[k][k] ^= _ONE
    hook = [_EMPTY] * (len(grid) + 1)
    hook[k] = hook[k + 1] = _ONE
    for i, row in enumerate(grid):
        row.insert(k, hook[i if i < k else i + 1])
    grid.insert(k, hook)
    out = _matrix(ctx, k, grid)
    _note(trace, lambda: (f"augment i={k + 1}", out))
    out = isolate(out, k + 1, trace=trace)
    _note(trace, lambda: (f"isolate i={k + 2}", out))
    out = out.delete_row_col(k + 1)
    _note(trace, lambda: (f"delete i={k + 2}", out))
    return out
