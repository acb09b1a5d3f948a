"""Matrices of rational functions: exact arithmetic, determinant, inverse.

The determinant clears denominators row by row: each row is multiplied by
the product of its distinct entry denominators, the one polynomial-matrix
determinant (the sparse elimination
:func:`~ratpencil.elimination.sparse_determinant`, which shares no code with
the Schur elimination) runs over the resulting polynomial matrix, and the
result is divided by the product of those row multipliers.  Rows that
already share one denominator, as the rows of a Schur complement do, are
cleared without any multiplication.  The inverse is adjugate over
determinant, meant for the small matrices that appear as realization
targets, Schur complements and product factors.
"""

from __future__ import annotations

import math

from .elimination import sparse_determinant
from .errors import DimensionMismatch, SingularMatrix
from .fields import FieldDescriptor
from .poly import Polynomial, RationalFunction


class RationalMatrix:
    """Immutable grid of rational functions sharing descriptor and n_vars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(entries[0])
        first = entries[0][0]
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            for e in row:
                if not isinstance(e, RationalFunction):
                    raise TypeError("entries must be RationalFunction")
                if e.descriptor != first.descriptor or e.n_vars != first.n_vars:
                    raise DimensionMismatch("entries disagree on field or variables")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.entries[0][0].descriptor

    @property
    def n_vars(self) -> int:
        return self.entries[0][0].n_vars

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    @classmethod
    def from_polynomials(cls, grid) -> "RationalMatrix":
        return cls([[RationalFunction(p) for p in row] for row in grid])

    @classmethod
    def identity(cls, descriptor, n_vars, size) -> "RationalMatrix":
        one = RationalFunction.one(descriptor, n_vars)
        zero = RationalFunction.zero(descriptor, n_vars)
        return cls(
            [[one if i == j else zero for j in range(size)] for i in range(size)]
        )

    @classmethod
    def scalar(cls, f: RationalFunction) -> "RationalMatrix":
        return cls([[f]])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        raise TypeError("RationalMatrix is compared by value; not hashable")

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("addition needs equal shapes")
        return RationalMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("subtraction needs equal shapes")
        return RationalMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-e for e in row] for row in self.entries])

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RationalFunction.zero(self.descriptor, self.n_vars)
                for t in range(self.cols):
                    left = self.entries[i][t]
                    if left.is_zero():
                        continue
                    right = other.entries[t][j]
                    if right.is_zero():
                        continue
                    acc = acc + left * right
                row.append(acc)
            out.append(row)
        return RationalMatrix(out)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [
                [self.entries[i][j] for i in range(self.rows)]
                for j in range(self.cols)
            ]
        )

    def kron_identity(self, size: int) -> "RationalMatrix":
        """Kronecker product with the identity of the given size."""
        if size < 1:
            raise ValueError("identity size must be positive")
        zero = RationalFunction.zero(self.descriptor, self.n_vars)
        out = [
            [zero for _ in range(self.cols * size)] for _ in range(self.rows * size)
        ]
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if e.is_zero():
                    continue
                for t in range(size):
                    out[i * size + t][j * size + t] = e
        return RationalMatrix(out)

    def scale(self, f: RationalFunction) -> "RationalMatrix":
        return RationalMatrix([[f * e for e in row] for row in self.entries])

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __str__(self):
        rows = [", ".join(str(e) for e in row) for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {self})"


def mat_arith(a: RationalMatrix, b, op: str):
    """Dispatch form of matrix arithmetic (``add mul transpose kron_identity``)."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "transpose":
        return a.transpose()
    if op == "kron_identity":
        return a.kron_identity(b)
    raise ValueError(f"unknown operation {op!r}")


def bareiss_det(grid: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix, by the sparse elimination
    :func:`sparse_determinant` on its nonzero cells."""
    first = grid[0][0]
    rows = {i: dict(enumerate(row)) for i, row in enumerate(grid)}
    return sparse_determinant(rows, len(grid), first.descriptor, first.n_vars).num


def mat_det(a: RationalMatrix) -> RationalFunction:
    """Exact determinant via per-row denominator clearing.

    Row i is multiplied by D_i, the product of its distinct non-constant
    entry denominators; the result is the determinant of the cleared rows
    (:func:`bareiss_det`) over D_1 * ... * D_m.
    """
    if not a.is_square():
        raise DimensionMismatch("determinant needs a square matrix")
    one = Polynomial.one(a.descriptor, a.n_vars)
    cleared = []
    den = one
    for row in a.entries:
        dens = [d for d in dict.fromkeys(e.den for e in row) if d != one]
        cleared.append(
            [math.prod((d for d in dens if d != e.den), start=e.num) for e in row]
        )
        den = math.prod(dens, start=den)
    return RationalFunction(bareiss_det(cleared), den)


def mat_minor(a: RationalMatrix, drop_row: int, drop_col: int) -> RationalMatrix:
    entries = [
        [a.entries[i][j] for j in range(a.cols) if j != drop_col]
        for i in range(a.rows)
        if i != drop_row
    ]
    return RationalMatrix(entries)


def mat_inv(a: RationalMatrix) -> RationalMatrix:
    """Exact inverse as adjugate over determinant."""
    if not a.is_square():
        raise DimensionMismatch("inverse needs a square matrix")
    det = mat_det(a)
    if det.is_zero():
        raise SingularMatrix("matrix has zero determinant")
    m = a.rows
    if m == 1:
        out = RationalMatrix([[a.entries[0][0].inverse()]])
    else:
        cof = []
        for i in range(m):
            row = []
            for j in range(m):
                minor_det = mat_det(mat_minor(a, i, j))
                if (i + j) % 2:
                    minor_det = -minor_det
                row.append(minor_det)
            cof.append(row)
        inv_det = det.inverse()
        out = RationalMatrix(
            [[cof[j][i] * inv_det for j in range(m)] for i in range(m)]
        )
    if __debug__ and m <= 4:
        ident = RationalMatrix.identity(a.descriptor, a.n_vars, m)
        assert a * out == ident, "inverse failed self-check"
    return out
