"""Independent verification of claimed realizations.

A claimed realization is accepted only when three exact checks pass: the
Schur complement equals the target entrywise (cross-multiplication), the
pencil's derived structure classes cover the claimed kind, and the block
determinant identity det A = det(A22) det(A/A22) holds with the full
determinant recomputed through a separate code path: cofactor expansion up
to 5x5, dense fraction-free elimination up to 16x16.  Above 16x16 the full
determinant is a fresh sparse elimination with pivots anywhere, which
shares ``_State.eliminate`` with the Schur elimination under test, so there
it is independent only in its pivot order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DimensionMismatch
from .matrices import RationalMatrix, mat_det, mat_minor
from .pencil import LinearPencil, RealizationKind
from .poly import RationalFunction

_COFACTOR_LIMIT = 5
_DENSE_LIMIT = 16


def det_cofactor(a: RationalMatrix) -> RationalFunction:
    """Determinant by recursive cofactor expansion (oracle for small sizes)."""
    if not a.is_square():
        raise DimensionMismatch("determinant needs a square matrix")
    if a.rows > _COFACTOR_LIMIT:
        raise ValueError(f"cofactor oracle limited to {_COFACTOR_LIMIT}x{_COFACTOR_LIMIT}")
    return _det_cofactor(a)


def _det_cofactor(a: RationalMatrix) -> RationalFunction:
    m = a.rows
    if m == 1:
        return a.entries[0][0]
    acc = RationalFunction.zero(a.descriptor, a.n_vars)
    for j in range(m):
        entry = a.entries[0][j]
        if entry.is_zero():
            continue
        piece = entry * _det_cofactor(mat_minor(a, 0, j))
        acc = acc - piece if j % 2 else acc + piece
    return acc


def _independent_det(p: LinearPencil) -> RationalFunction:
    if p.m <= _COFACTOR_LIMIT:
        return _det_cofactor(p.as_matrix())
    if p.m <= _DENSE_LIMIT:
        return mat_det(p.as_matrix())
    return p.det()


@dataclass
class VerificationReport:
    schur_ok: bool
    structure_ok: bool
    det_ok: bool
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.schur_ok and self.structure_ok and self.det_ok

    def to_json(self) -> str:
        return json.dumps(
            {
                "schur_ok": self.schur_ok,
                "structure_ok": self.structure_ok,
                "det_ok": self.det_ok,
                "mismatches": self.mismatches,
            },
            indent=2,
            sort_keys=True,
        )


def check_realization(p: LinearPencil, target: RationalMatrix,
                      kind: RealizationKind) -> VerificationReport:
    """Verify that the pencil realizes the target with the claimed structure."""
    if not target.is_square() or p.split != target.rows:
        raise DimensionMismatch(
            f"(1,1) block is {p.split}x{p.split} but target is "
            f"{target.rows}x{target.cols}"
        )
    schur, det_block = p.schur_with_dets()
    mismatches = []
    for i in range(p.split):
        for j in range(p.split):
            if schur.entries[i][j] != target.entries[i][j]:
                mismatches.append(
                    {
                        "row": i,
                        "col": j,
                        "expected": str(target.entries[i][j]),
                        "got": str(schur.entries[i][j]),
                    }
                )
    structure_ok = kind.required_classes() <= p.classify()
    det_ok = _independent_det(p) == det_block * mat_det(schur)
    return VerificationReport(not mismatches, structure_ok, det_ok, mismatches)


def cross_validate_det(p: LinearPencil) -> bool:
    """Both sides of det A = det(A22) det(A/A22), computed independently."""
    schur, det_block = p.schur_with_dets()
    rhs = det_block * mat_det(schur)
    return _independent_det(p) == rhs and p.det() == rhs
