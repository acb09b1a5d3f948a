"""Characteristic-2 quotient rings with multilinear normal forms.

A :class:`QuotContext` fixes a characteristic-2 field, a variable count, and
a constant tuple ell; all arithmetic happens modulo the ideal generated by
``z_i^2 + ell_i^2`` (the squared shift makes the absolute value total).  The
normal form replaces every ``z_i^(2a+b)`` by ``(ell_i^2)^a * z_i^b``, so
elements are multilinear polynomials.  On top of the elements sit symmetric
matrices with the CLEAN / ADD / ISOLATE transformations and the constructive
reduction that squeezes a ring realizer down to its linear value.

Normal forms are built with :func:`ratpencil.fields.accumulate` and
wrapped without re-validation, since reduced exponent tuples are clean keys.

The ring has zero divisors, so matrix determinants use Berkowitz's
division-free algorithm (O(m^4) ring operations, no size limit).  The
involution sum :func:`det_involution_sum` is an independent second formula
for symmetric matrices; realizer checks compare the two.  It expands along
the smallest free index (fix it, or pair it with another) and memoizes the
sums of the index sets it meets, so it never lists the involutions.
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
    WrongCharacteristic,
)
from .fields import FieldDescriptor, FieldElement, accumulate
from .poly import Polynomial


class QuotContext:
    """The ring of multilinear normal forms modulo z_i^2 = ell_i^2."""

    __slots__ = ("descriptor", "n_vars", "ell", "ell_sq")

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
            self, "ell_sq", tuple(descriptor.mul(v, v) for v in ell)
        )

    def __setattr__(self, name, value):
        raise AttributeError("QuotContext is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, QuotContext)
            and self.descriptor == other.descriptor
            and self.n_vars == other.n_vars
            and self.ell == other.ell
        )

    def __hash__(self):
        return hash((self.descriptor, self.n_vars, self.ell))

    def __repr__(self):
        vals = ",".join(self.descriptor.format_value(v) for v in self.ell)
        return f"QuotContext({self.descriptor.name()}, ell=({vals}))"

    def mult_normal_form(self, p: Polynomial) -> Polynomial:
        """The multilinear normal form: z_i^(2a+b) -> (ell_i^2)^a z_i^b."""
        if p.descriptor != self.descriptor or p.n_vars != self.n_vars:
            raise DescriptorMismatch("polynomial does not match the context")
        d = self.descriptor
        terms = accumulate({}, self._reduced_terms(p.terms), d.add)
        return Polynomial._wrap(d, self.n_vars, terms)

    def _reduced_terms(self, terms):
        """Each term of ``terms`` with every exponent reduced mod 2."""
        d = self.descriptor
        for exps, value in terms.items():
            if max(exps, default=0) >= 2:
                for e, lsq in zip(exps, self.ell_sq):
                    if e >= 2:
                        value = d.mul(value, d.pow(lsq, e // 2))
                exps = tuple([e % 2 for e in exps])
            yield exps, value

    def project(self, p: Polynomial) -> "QuotElement":
        return QuotElement(self, self.mult_normal_form(p))

    def zero(self) -> "QuotElement":
        return QuotElement(self, Polynomial.zero(self.descriptor, self.n_vars))

    def one(self) -> "QuotElement":
        return QuotElement(self, Polynomial.one(self.descriptor, self.n_vars))

    def constant(self, value) -> "QuotElement":
        return QuotElement(
            self, Polynomial.constant(self.descriptor, self.n_vars, value)
        )

    def variable(self, index: int) -> "QuotElement":
        return QuotElement(
            self, Polynomial.variable(self.descriptor, self.n_vars, index)
        )


def mult_normal_form(p: Polynomial, ctx: QuotContext) -> Polynomial:
    return ctx.mult_normal_form(p)


def project(p: Polynomial, ctx: QuotContext) -> "QuotElement":
    return ctx.project(p)


def lift(r: "QuotElement") -> Polynomial:
    return r.nf


class QuotElement:
    """Ring element in multilinear normal form; equality is normal-form equality."""

    __slots__ = ("context", "nf")

    def __init__(self, context: QuotContext, nf: Polynomial):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "nf", context.mult_normal_form(nf))

    def __setattr__(self, name, value):
        raise AttributeError("QuotElement is immutable")

    def _check(self, other: "QuotElement"):
        if self.context != other.context:
            raise DescriptorMismatch("elements live in different quotient rings")

    def __add__(self, other: "QuotElement") -> "QuotElement":
        self._check(other)
        return QuotElement(self.context, self.nf + other.nf)

    def __mul__(self, other: "QuotElement") -> "QuotElement":
        self._check(other)
        return QuotElement(self.context, self.nf * other.nf)

    def __pow__(self, e: int) -> "QuotElement":
        out = self.context.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, QuotElement):
            return NotImplemented
        return self.context == other.context and self.nf == other.nf

    def __hash__(self):
        return hash((self.context, self.nf))

    def is_zero(self) -> bool:
        return self.nf.is_zero()

    def is_constant(self) -> bool:
        return self.nf.is_constant()

    def is_linear(self) -> bool:
        deg = self.nf.total_degree()
        return deg <= 1  # -inf for zero compares fine

    def abs_value(self) -> FieldElement:
        """The unique field constant with r^2 = |r|^2: the normal form at ell."""
        return FieldElement(
            self.context.descriptor, self.nf.evaluate(self.context.ell)
        )

    def is_invertible(self) -> bool:
        return bool(self.nf.evaluate(self.context.ell))

    def inverse(self) -> "QuotElement":
        """r^{-1} = |r|^{-2} r; needs |r| != 0."""
        d = self.context.descriptor
        a = self.nf.evaluate(self.context.ell)
        if not a:
            raise NotInvertible("element has zero absolute value")
        scale = d.inv(d.mul(a, a))
        return QuotElement(self.context, self.nf.scale(scale))

    def __str__(self):
        return str(self.nf)

    def __repr__(self):
        return f"QuotElement({self})"


def qe_abs(r: QuotElement) -> FieldElement:
    return r.abs_value()


def qe_inv(r: QuotElement) -> QuotElement:
    return r.inverse()


class QuotMatrix:
    """Matrix over a quotient ring with the 2x2 split of a realizer."""

    __slots__ = ("context", "m", "split", "entries")

    def __init__(self, context: QuotContext, split: int, entries):
        entries = tuple(tuple(row) for row in entries)
        m = len(entries)
        if m == 0 or any(len(row) != m for row in entries):
            raise ValueError("matrix must be square and non-empty")
        if not 1 <= split < m:
            raise ValueError("split must satisfy 1 <= split < m")
        for row in entries:
            for e in row:
                if not isinstance(e, QuotElement) or e.context != context:
                    raise DescriptorMismatch("entries must share the context")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("QuotMatrix is immutable")

    @classmethod
    def from_polynomials(cls, context, split, grid) -> "QuotMatrix":
        return cls(
            context, split, [[context.project(p) for p in row] for row in grid]
        )

    def __eq__(self, other):
        if not isinstance(other, QuotMatrix):
            return NotImplemented
        return (
            self.context == other.context
            and self.split == other.split
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("QuotMatrix is compared by value; not hashable")

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.m)
            for j in range(i + 1, self.m)
        )

    def has_constant_off_diagonal(self) -> bool:
        return all(
            self.entries[i][j].is_constant()
            for i in range(self.m)
            for j in range(self.m)
            if i != j
        )

    def has_linear_entries(self) -> bool:
        return all(e.is_linear() for row in self.entries for e in row)

    def replace(self, updates) -> "QuotMatrix":
        grid = [list(row) for row in self.entries]
        for (i, j), value in updates.items():
            grid[i][j] = value
        return QuotMatrix(self.context, self.split, grid)

    def block22(self) -> list[list[QuotElement]]:
        k = self.split
        return [list(row[k:]) for row in self.entries[k:]]

    def det(self) -> QuotElement:
        return _det_berkowitz(self.context, self.entries)

    def det22(self) -> QuotElement:
        return _det_berkowitz(self.context, self.block22())

    def delete_row_col(self, index: int) -> "QuotMatrix":
        if not 0 <= index < self.m:
            raise BadIndices(f"index {index} out of range")
        if index < self.split:
            raise BadIndices("cannot delete inside the (1,1) block")
        grid = [
            [e for j, e in enumerate(row) if j != index]
            for i, row in enumerate(self.entries)
            if i != index
        ]
        return QuotMatrix(self.context, self.split, grid)

    def __str__(self):
        rows = [", ".join(str(e) for e in row) for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"QuotMatrix({self.m}x{self.m}, split={self.split}, {self})"


def _dot(zero: QuotElement, xs, ys) -> QuotElement:
    return sum(
        (x * y for x, y in zip(xs, ys) if not (x.is_zero() or y.is_zero())),
        zero,
    )


def _det_berkowitz(context: QuotContext, grid) -> QuotElement:
    """Division-free determinant (Berkowitz 1984) in O(m^4) ring operations.

    Walking up from the bottom-right corner, ``coeffs`` holds the
    characteristic polynomial of the trailing principal block S.  Adding
    the corner a, row R and column C in front of S multiplies ``coeffs`` by
    the lower-triangular Toeplitz matrix with first column
    1, a, RC, RSC, RS^2C, ...; the last coefficient is the determinant.
    Only products and sums occur, so zero divisors do no harm, and every
    sign of the textbook form vanishes in characteristic 2.
    """
    zero = context.zero()
    coeffs = [context.one()]
    for k in range(len(grid) - 1, -1, -1):
        block = [r[k + 1:] for r in grid[k + 1:]]
        row = grid[k][k + 1:]
        column = [r[k] for r in grid[k + 1:]]
        toeplitz = [grid[k][k]]
        for t in range(len(block)):
            if t:
                column = [_dot(zero, r, column) for r in block]
            toeplitz.append(_dot(zero, row, column))
        coeffs = [
            c + _dot(zero, reversed(toeplitz[:i]), coeffs[:i])
            for i, c in enumerate(coeffs + [zero])
        ]
    return coeffs[-1]


def det_involution_sum(matrix: QuotMatrix) -> QuotElement:
    """Symmetric determinant as a sum over involutions only.

    In characteristic 2 a permutation with a cycle longer than two cancels
    against the one with that cycle reversed, so only involutions remain.
    With i the smallest index of a set F, an involution of F either fixes i
    or swaps it with some j, which gives the expansion

        S(F) = a_ii S(F - {i}) + sum_j a_ij a_ji S(F - {i, j}),  S({}) = 1,

    and det A = S({0, ..., m-1}).  S is memoized on the sets it meets.
    """
    if not matrix.is_symmetric():
        raise NotSymmetric("involution-sum determinant needs a symmetric matrix")
    grid = matrix.entries
    memo = {(): matrix.context.one()}

    def involution_sum(free):
        total = memo.get(free)
        if total is None:
            i, rest = free[0], free[1:]
            total = grid[i][i] * involution_sum(rest)
            for t, j in enumerate(rest):
                if not grid[i][j].is_zero():
                    pair = grid[i][j] * grid[j][i]
                    total = total + pair * involution_sum(rest[:t] + rest[t + 1:])
            memo[free] = total
        return total

    return involution_sum(tuple(range(matrix.m)))


def clean(matrix: QuotMatrix) -> QuotMatrix:
    """Replace off-diagonal entries by their absolute values; idempotent."""
    ctx = matrix.context
    updates = {}
    for i in range(matrix.m):
        for j in range(matrix.m):
            if i != j and not matrix.entries[i][j].is_constant():
                updates[(i, j)] = ctx.constant(
                    matrix.entries[i][j].abs_value().value
                )
    return matrix.replace(updates) if updates else matrix


def add_transform(matrix: QuotMatrix, i: int, j: int,
                  alpha: QuotElement) -> QuotMatrix:
    """Row update R_j += alpha R_i, then the same column update, then CLEAN."""
    m = matrix.m
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise BadIndices(f"bad ADD indices ({i}, {j})")
    grid = [list(row) for row in matrix.entries]
    for t in range(m):
        grid[j][t] = grid[j][t] + alpha * grid[i][t]
    for t in range(m):
        grid[t][j] = grid[t][j] + alpha * grid[t][i]
    return clean(QuotMatrix(matrix.context, matrix.split, grid))


def isolate(matrix: QuotMatrix, i: int, trace=None) -> QuotMatrix:
    """Zero out row and column i except the diagonal via ADD steps.

    Needs an invertible diagonal entry ``a_ii`` and constant off-diagonal
    entries (a CLEANed symmetric matrix).
    """
    if not matrix.is_symmetric():
        raise NotSymmetric("ISOLATE needs a symmetric matrix")
    if not matrix.has_constant_off_diagonal():
        raise NotCleaned("ISOLATE needs constant off-diagonal entries")
    pivot = matrix.entries[i][i]
    if not pivot.is_invertible():
        raise NotInvertibleDiagonal(f"diagonal entry {i} is not invertible")
    inv_abs = matrix.context.descriptor.inv(pivot.abs_value().value)
    out = matrix
    for j in range(matrix.m):
        if j == i:
            continue
        alpha = out.entries[i][j] * matrix.context.constant(inv_abs)
        out = add_transform(out, i, j, alpha)
        if trace is not None and not alpha.is_zero():
            trace.append((f"add i={i + 1} j={j + 1} alpha={alpha}", out))
    return out


def is_ring_realizer(matrix: QuotMatrix, r: QuotElement) -> bool:
    """Does det(A) = r det(A22) hold with det(A22) invertible?

    The Berkowitz determinant is cross-checked against the involution sum,
    an independent formula that must agree for symmetric matrices in
    characteristic 2.
    """
    if not matrix.is_symmetric():
        raise NotSymmetric("realizers are symmetric")
    if not matrix.has_linear_entries():
        raise NotLinearEntries("realizer entries must be linear")
    det_all = matrix.det()
    if det_all != det_involution_sum(matrix):
        raise ArithmeticError("determinant formulas disagree")
    det_block = matrix.det22()
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
        raise NotARealizer("input does not realize the claimed element")
    work = clean(matrix)
    if trace is not None and work is not matrix:
        trace.append(("clean", work))
    while work.m > 2:
        k = work.split
        diag = [(t, work.entries[t][t]) for t in range(k, work.m)]
        invertible = [
            t for t, e in diag if e.is_invertible() and not e.is_constant()
        ] or [t for t, e in diag if e.is_invertible()]
        if invertible:
            t = invertible[0]
            work = isolate(work, t, trace=trace)
            if trace is not None:
                trace.append((f"isolate i={t + 1}", work))
            work = work.delete_row_col(t)
            if trace is not None:
                trace.append((f"delete i={t + 1}", work))
            continue
        nonzero = [t for t, e in diag if not e.is_zero()]
        if nonzero:
            t = nonzero[0]
            work = _augment(work, t, trace)
            continue
        # all (2,2) diagonals zero: det(A22) is a constant, read off r
        det_block = work.det22()
        value = work.det() * det_block.inverse()
        if trace is not None:
            trace.append((f"read off det/det22 = {value}", work))
        return value
    l1 = work.entries[0][0]
    c = work.entries[0][1]
    l2 = work.entries[1][1]
    value = l1 + c * c * l2.inverse()
    if trace is not None:
        trace.append((f"base case 2x2 = {value}", work))
    return value


def _augment(matrix: QuotMatrix, index: int, trace) -> QuotMatrix:
    """Turn a nonzero non-invertible (2,2) diagonal into an invertible one.

    The chosen row/column is swapped to the first block position, a new
    row/column with a 1 diagonal hooked to it is inserted, and ISOLATE on
    the bumped entry followed by a deletion restores the size.
    """
    ctx = matrix.context
    k = matrix.split
    if index != k:
        grid = [list(row) for row in matrix.entries]
        grid[index], grid[k] = grid[k], grid[index]
        for row in grid:
            row[index], row[k] = row[k], row[index]
        matrix = QuotMatrix(ctx, k, grid)
        if trace is not None:
            trace.append((f"swap i={index + 1} with i={k + 1}", matrix))
    m = matrix.m
    zero, one = ctx.zero(), ctx.one()
    grid = []
    for i in range(m + 1):
        row = []
        for j in range(m + 1):
            if i == k and j == k:
                row.append(one)
            elif i == k:
                row.append(one if j == k + 1 else zero)
            elif j == k:
                row.append(one if i == k + 1 else zero)
            else:
                si = i if i < k else i - 1
                sj = j if j < k else j - 1
                value = matrix.entries[si][sj]
                if si == k and sj == k:
                    value = value + one
                row.append(value)
        grid.append(row)
    out = QuotMatrix(ctx, k, grid)
    if trace is not None:
        trace.append((f"augment i={k + 1}", out))
    out = isolate(out, k + 1, trace=trace)
    if trace is not None:
        trace.append((f"isolate i={k + 2}", out))
    out = out.delete_row_col(k + 1)
    if trace is not None:
        trace.append((f"delete i={k + 2}", out))
    return out
