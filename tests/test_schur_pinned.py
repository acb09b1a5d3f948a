"""Pinned Schur eliminations of the builder outputs.

For every pencil that a builder returns on the targets and fields of
``test_builders_pinned``, the output of ``schur_with_dets`` is recorded as a
SHA-256 of the Schur complement's numerator and denominator term maps, in
their insertion order, and of the block determinant.  The pivot order of the
elimination decides both the representation and the term order, so a change
of pivot rule shows here even when every value stays equal.  The table lives
in ``schur_digests.json``; re-record it with
``PYTHONPATH=src python tests/test_schur_pinned.py > tests/schur_digests.json``
only for a change that alters the elimination on purpose.
"""

import hashlib
import json
from pathlib import Path

from ratpencil.errors import RatPencilError
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field
from ratpencil.realize import RealizationResult

from test_builders_pinned import BUILDERS, FIELDS, TARGETS

TABLE = Path(__file__).resolve().parent / "schur_digests.json"


def _poly_text(p) -> str:
    fmt = p.descriptor.format_value
    return repr([(exps, fmt(v)) for exps, v in p.terms.items()])


def schur_text(pencil) -> str:
    schur, det_block = pencil.schur_with_dets()
    parts = [
        _poly_text(part)
        for row in schur.entries for entry in row
        for part in (entry.num, entry.den)
    ]
    parts += [_poly_text(det_block.num), _poly_text(det_block.den)]
    return "\n".join(parts)


def outcomes() -> dict:
    table = {}
    for expr, n_vars in TARGETS:
        for name in FIELDS:
            descriptor = parse_field(name)
            key = f"{expr} | n={n_vars} | {name}"
            try:
                target = parse_expression(expr, descriptor, n_vars)
            except RatPencilError:
                continue
            row = {}
            for builder, fn in BUILDERS.items():
                try:
                    result = fn(target)
                except RatPencilError:
                    continue
                if isinstance(result, RealizationResult):
                    text = schur_text(result.pencil)
                    row[builder] = hashlib.sha256(text.encode()).hexdigest()
            table[key] = row
    return table


def test_schur_eliminations_match_pinned_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outcomes()
    assert got.keys() == expected.keys()
    for key, row in expected.items():
        assert got[key] == row, key


if __name__ == "__main__":
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
