"""Pinned determinants of the builder outputs.

For every pencil of ``test_schur_pinned`` (each builder's output on the
targets and fields of ``test_builders_pinned``), the full determinant
``LinearPencil.det`` and the determinant ``mat_det`` of the Schur complement
are recorded as a SHA-256 of their numerator and denominator term maps, in
their insertion order.  Both go through ``sparse_determinant``, whose pivot
order decides the term order, so a change of its steps shows here even when
every value stays equal.  The pencils reach all of its stages: singletons,
constant pivots, cofactor rests and Bareiss rests.  The table lives in
``det_digests.json``; re-record it with
``PYTHONPATH=src python tests/test_det_pinned.py > tests/det_digests.json``
only for a change that alters the determinant on purpose.
"""

import json
from pathlib import Path

from ratpencil.matrices import mat_det

from test_schur_pinned import _poly_text, outcomes

TABLE = Path(__file__).resolve().parent / "det_digests.json"


def det_text(pencil) -> str:
    dets = (pencil.det(), mat_det(pencil.schur_complement()))
    return "\n".join(_poly_text(part) for det in dets
                     for part in (det.num, det.den))


def test_determinants_match_pinned_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outcomes(det_text)
    assert got.keys() == expected.keys()
    for key, row in expected.items():
        assert got[key] == row, key


if __name__ == "__main__":
    print(json.dumps(outcomes(det_text), indent=1, sort_keys=True))
