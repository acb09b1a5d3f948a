"""Independent verification of claimed realizations.

A claimed realization is accepted only when three exact checks pass: the
Schur complement equals the target entrywise (cross-multiplication), the
pencil's derived structure classes cover the claimed kind, and the block
determinant identity det A = det(A22) det(A/A22) holds.  The left side is
the full determinant from one sparse fraction-free elimination
(:meth:`LinearPencil.det`), which shares no code with the Schur elimination
under test, at every size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DimensionMismatch
from .matrices import RationalMatrix, mat_det
from .pencil import LinearPencil, RealizationKind


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
    det_ok = p.det() == det_block * mat_det(schur)
    return VerificationReport(not mismatches, structure_ok, det_ok, mismatches)


def cross_validate_det(p: LinearPencil) -> bool:
    """Both sides of det A = det(A22) det(A/A22), computed independently."""
    return p.det_identity_check()
