"""Linear matrix pencils A(z) = A0 + z1*A1 + ... + zn*An with a 2x2 split.

Coefficient matrices are stored sparsely (one ``{(i, j): value}`` map per
coefficient index, raw field values).  Classification predicates are always
derived from the coefficients, never cached.  The JSON file format is dense:
``field``, ``n_vars``, ``m``, ``split``, and ``coeffs`` as n+1 row-major
m-by-m arrays of field-element strings; round-trips are bit-exact.  Writer
and reader handle all-zero rows at C speed, so their Python-level work
follows the nonzeros.
"""

from __future__ import annotations

import json
from enum import Enum

from .elimination import schur_eliminate, sparse_determinant
from .errors import DimensionMismatch, PencilTooLarge, RatPencilError
from .fields import FieldDescriptor, parse_field
from .matrices import RationalMatrix, mat_det
from .poly import Polynomial, RationalFunction, from_raw, layout


# The largest m of any pencil: of a pencil file before its cells are read,
# of a construction as the builders predict it before building, and of every
# LinearPencil built.
MAX_PENCIL_SIZE = 5000


def past_size(m: int) -> bool:
    """Whether ``m`` is past the limit."""
    return m > MAX_PENCIL_SIZE


def require_size(m: int, what: str, at_least: bool = False) -> None:
    """Raise :class:`PencilTooLarge` when ``m`` is past the limit;
    ``at_least`` says that ``m`` is only a lower bound on the size."""
    if past_size(m):
        relation = ">=" if at_least else "="
        raise PencilTooLarge(
            f"{what} has m {relation} {m}, more than the limit "
            f"{MAX_PENCIL_SIZE}"
        )


class RealizationKind(Enum):
    BR = "br"
    SBR = "sbr"
    HBR = "hbr"
    HSBR = "hsbr"

    @property
    def needs_symmetric(self) -> bool:
        return self in (RealizationKind.SBR, RealizationKind.HSBR)

    @property
    def needs_homogeneous(self) -> bool:
        return self in (RealizationKind.HBR, RealizationKind.HSBR)

    def required_classes(self) -> set[str]:
        out = {"LP"}
        if self.needs_symmetric:
            out.add("sLP")
        if self.needs_homogeneous:
            out.add("hLP")
        if self.needs_symmetric and self.needs_homogeneous:
            out.add("hsLP")
        return out


class LinearPencil:
    """An m-by-m affine pencil over n variables with (1,1) block size split."""

    __slots__ = ("descriptor", "n_vars", "m", "split", "coeffs")

    def __init__(self, descriptor: FieldDescriptor, n_vars: int, m: int,
                 split: int, coeffs):
        if m < 2:
            raise ValueError("pencil size must be at least 2")
        if not 1 <= split < m:
            raise ValueError("split must satisfy 1 <= split < m")
        require_size(m, "the pencil")
        if len(coeffs) != n_vars + 1:
            raise ValueError(f"expected {n_vars + 1} coefficient matrices")
        frozen = []
        for c in coeffs:
            clean = {}
            for (i, j), value in c.items():
                if not (0 <= i < m and 0 <= j < m):
                    raise ValueError(f"entry ({i}, {j}) outside {m}x{m}")
                value = descriptor.coerce(value)
                if value:
                    clean[(i, j)] = value
            frozen.append(clean)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "coeffs", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("LinearPencil is immutable")

    @classmethod
    def from_dense(cls, descriptor, n_vars, split, matrices) -> "LinearPencil":
        """Build from n+1 dense m-by-m grids of raw values."""
        coeffs = [
            {(i, j): value for i, row in enumerate(grid)
             for j, value in enumerate(row)}
            for grid in matrices
        ]
        return cls(descriptor, n_vars, len(matrices[0]), split, coeffs)

    def __eq__(self, other):
        if not isinstance(other, LinearPencil):
            return NotImplemented
        return (
            self.descriptor == other.descriptor
            and self.n_vars == other.n_vars
            and self.m == other.m
            and self.split == other.split
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("LinearPencil is compared by value; not hashable")

    def __repr__(self):
        return (
            f"LinearPencil({self.descriptor.name()}, n={self.n_vars}, "
            f"m={self.m}, split={self.split})"
        )

    # -- structure ---------------------------------------------------------

    def is_symmetric(self) -> bool:
        return all(
            c.get((i, j)) == c.get((j, i))
            for c in self.coeffs
            for (i, j) in list(c)
        )

    def is_homogeneous(self) -> bool:
        return not self.coeffs[0]

    def classify(self) -> set[str]:
        """Structure classes: always LP; sLP/hLP/hsLP when earned."""
        out = {"LP"}
        if self.is_symmetric():
            out.add("sLP")
        if self.is_homogeneous():
            out.add("hLP")
        if "sLP" in out and "hLP" in out:
            out.add("hsLP")
        return out

    def transpose(self) -> "LinearPencil":
        coeffs = [
            {(j, i): value for (i, j), value in c.items()} for c in self.coeffs
        ]
        return LinearPencil(self.descriptor, self.n_vars, self.m, self.split, coeffs)

    def with_split(self, split: int) -> "LinearPencil":
        return LinearPencil(
            self.descriptor, self.n_vars, self.m, split,
            [dict(c) for c in self.coeffs],
        )

    # -- views ----------------------------------------------------------------

    def entry(self, i: int, j: int) -> Polynomial:
        """The (i, j) entry as a degree <= 1 polynomial."""
        zero = Polynomial.zero(self.descriptor, self.n_vars)
        return self.sparse_rows().get(i, {}).get(j, zero)

    def sparse_rows(self) -> dict[int, dict[int, Polynomial]]:
        """The nonzero entries as ``{i: {j: entry}}``, built from the
        coefficient maps (whose values are coerced and nonzero) in one pass;
        the one place that turns coefficients into entry polynomials."""
        n, d = self.n_vars, self.descriptor
        cells: dict[int, dict[int, dict]] = {}
        for key, c in zip((0, *layout(n).units), self.coeffs):
            for (i, j), value in c.items():
                cells.setdefault(i, {}).setdefault(j, {})[key] = value
        return {i: {j: from_raw(d, n, raw) for j, raw in row.items()}
                for i, row in cells.items()}

    def as_matrix(self) -> RationalMatrix:
        """Dense matrix of degree <= 1 polynomials A0 + sum z_j A_j."""
        rows = self.sparse_rows()
        zero = Polynomial.zero(self.descriptor, self.n_vars)
        return RationalMatrix([
            [RationalFunction(rows.get(i, {}).get(j, zero))
             for j in range(self.m)]
            for i in range(self.m)
        ])

    # -- Schur complement and determinants ---------------------------------------

    def schur_complement(self) -> RationalMatrix:
        """A11 - A12 * A22^{-1} * A21, exact; raises SingularBlock."""
        return self.schur_with_dets()[0]

    def schur_with_dets(self, rows=None):
        """(schur, det_block) from one elimination pass over ``rows``, the
        result of :meth:`sparse_rows` (built here when not given)."""
        schur, det_block = schur_eliminate(
            self.sparse_rows() if rows is None else rows,
            self.m, self.split, self.descriptor, self.n_vars,
        )
        return RationalMatrix(schur), det_block

    def block_det(self) -> RationalFunction:
        return self.schur_with_dets()[1]

    def det(self, rows=None) -> RationalFunction:
        """det A over ``rows``, the result of :meth:`sparse_rows` (built here
        when not given)."""
        return sparse_determinant(
            self.sparse_rows() if rows is None else rows,
            self.m, self.descriptor, self.n_vars,
        )

    def det_identity_check(self) -> bool:
        """det A = det(A22) * det(A / A22), checked exactly; the left side
        (:func:`sparse_determinant`) shares no code with the right."""
        rows = self.sparse_rows()
        schur, det_block = self.schur_with_dets(rows)
        return self.det(rows) == det_block * mat_det(schur)

    # -- file format ----------------------------------------------------------------

    def to_json(self) -> str:
        """The text of ``json.dumps(doc, indent=2, sort_keys=True)`` for the
        dense document, written directly so that the work scales with the
        nonzeros: every all-zero row is one shared string.
        """
        fmt = self.descriptor.format_value
        m = self.m

        def row_text(cells):
            return "[\n        " + ",\n        ".join(cells) + "\n      ]"

        zero_row = row_text(['"0"'] * m)
        grids = []
        for c in self.coeffs:
            patched = {}
            for (i, j), value in c.items():
                patched.setdefault(i, ['"0"'] * m)[j] = json.dumps(fmt(value))
            rows = [zero_row] * m
            for i, cells in patched.items():
                rows[i] = row_text(cells)
            grids.append("[\n      " + ",\n      ".join(rows) + "\n    ]")
        return (
            '{\n  "coeffs": [\n    ' + ",\n    ".join(grids) + "\n  ],\n"
            f'  "field": {json.dumps(self.descriptor.name())},\n'
            f'  "m": {m},\n  "n_vars": {self.n_vars},\n'
            f'  "split": {self.split}\n}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearPencil":
        """Read a pencil file in any JSON layout.

        Rows of ``"0"`` cells are skipped at C speed and single ``"0"``
        cells without parsing; every other cell goes through
        :meth:`FieldDescriptor.parse_value`.
        """
        try:
            doc = json.loads(text)
        except RecursionError:
            raise RatPencilError("pencil JSON is nested too deeply") from None
        keys = ("field", "n_vars", "m", "split", "coeffs")
        if not isinstance(doc, dict) or any(key not in doc for key in keys):
            raise RatPencilError(
                "pencil JSON must be an object with keys " + ", ".join(keys)
            )
        if not isinstance(doc["field"], str) or any(
            type(doc[key]) is not int or doc[key] < 0
            for key in ("n_vars", "m", "split")
        ):
            raise RatPencilError(
                "pencil 'field' must be a string and 'n_vars', 'm' and "
                "'split' non-negative integers"
            )
        descriptor = parse_field(doc["field"])
        n_vars, m, split = doc["n_vars"], doc["m"], doc["split"]
        require_size(m, "the pencil file")
        raw = doc["coeffs"]
        if not isinstance(raw, list) or len(raw) != n_vars + 1:
            raise DimensionMismatch("coefficient count does not match n_vars")
        parse = descriptor.parse_value
        coeffs = []
        for grid in raw:
            if not isinstance(grid, list) or len(grid) != m or any(
                not isinstance(row, list) or len(row) != m for row in grid
            ):
                raise DimensionMismatch("coefficient matrix is not m x m")
            c = {}
            for i, row in enumerate(grid):
                if row.count("0") == m:
                    continue
                for j, cell in enumerate(row):
                    if cell != "0":
                        value = parse(cell)
                        if value:
                            c[(i, j)] = value
            coeffs.append(c)
        return cls(descriptor, n_vars, m, split, coeffs)


def schur_complement(p: LinearPencil) -> RationalMatrix:
    return p.schur_complement()
