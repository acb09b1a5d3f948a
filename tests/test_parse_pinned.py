"""Pinned outputs of ``parse_expression``.

For every text of ``TEXTS`` over the fields q, gf2 and gf:101, each entry's
numerator and denominator are recorded as their ``packed`` items, in
insertion order, and their ``denom``, hashed with SHA-256 together with the
matrix shape and ``n_vars``.  A text that raises is recorded as its error
type and message, position included.  The evaluation order decides the term
order of every entry, so a change of how an expression is evaluated shows
here even when every value stays equal.  The table lives in
``parse_digests.json``; re-record it with
``PYTHONPATH=src python tests/test_parse_pinned.py > tests/parse_digests.json``
only for a change that alters parsing on purpose.
"""

import hashlib
import json
from pathlib import Path

from ratpencil.errors import RatPencilError
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field

TABLE = Path(__file__).resolve().parent / "parse_digests.json"

FIELDS = ("q", "gf2", "gf:101")

# (text, n_vars or None to infer)
TEXTS = [
    # benchmark-style polynomial matrices
    ("[[-z2^3*z3^2 - 4*z1*z2*z3^2 + 8*z1^3*z3 - 5*z1*z3^2 - 6*z1*z2"
     " - 8*z1 + 7]]", 3),
    ("[[3*z1^2 + 5*z2 + 4, -9*z1*z2 - 7*z2 - 3, 6*z1*z2 + 2*z2 + 1],"
     "[-z2^2 - 3*z1 + 8, 3*z2^2 - 8*z1 - 6, 3*z1*z2 + 5*z2 - 4],"
     "[-z1^2 + 3*z2 - 7, z1^2 - 9*z2 - 5, -6*z1*z2 + 9*z2 - 9]]", 2),
    ("[[41*z1*z2*z3^2*z4 + 47*z2^2*z3 + 26*z1,"
     " 84*z1*z2^2*z3*z4 + 10*z1*z2*z4 + 13*z3],"
     "[93*z1^2*z2*z3*z4 + 7*z1^2*z2 + 51*z4,"
     " 35*z1^2*z2^2*z4 + 95*z1*z3*z4 + 51*z4]]", 4),
    ("[[z1^2*z2^2*z3 + z1*z2*z3 + z1*z3 + 1, z2*z3^4 + z1*z2*z3 + z1^2 + 1],"
     "[z1^3*z2*z3 + z2^2*z3 + z2*z3 + 1, z1*z2*z3^3 + z1^2*z2 + z2*z3 + 1]]",
     3),
    ("[[-2*z6 - 7*z4 + 3*z3 - 8*z2 + z1, -3*z6 + 3*z5 + 9*z4 - 6*z3 - 6*z1],"
     "[-3*z6 + 3*z5 + 9*z4 - 6*z3 - 6*z1, -9*z6 - 6*z5 + 5*z4 - 9*z3"
     " + 2*z2]]", 6),
    ("z1 + z1 - 2*z1 + z2", None),
    ("[[0, 0],[0, 0]]", 2),
    ("7", None),
    ("0", 1),
    # division, constant divisors included
    ("z1/2", None),
    ("z1/2 + z2/3 - 1/6", None),
    ("(z1^2+z2)/(1+z1^2)", None),
    ("1/z1 + 1/z2", None),
    ("(z1+1)/(z1-1) * (z2/3)", None),
    ("3/z1 - z1/3", None),
    ("(2*z1 + 4)/(6*z2 + 2)", None),
    ("z1/(z1/z2)", None),
    ("((z1+z2)/(z1-z2)) / ((z1^2+1)/(3*z2))", None),
    ("[[z1, 1],[2, z2]] / (1+z1)", None),
    ("[[z1, 1],[2, z2]] / 3", None),
    ("[[z1/2, 1/z2],[2/(z1+z2), z2]]", None),
    ("1/2 * (z1+z2)", None),
    ("z1/(2-2)", None),
    ("1/(z1-z1)", None),
    ("z1/[[1, 2],[3, 4]]", None),
    # powers of scalars and matrices
    ("(z1+z2+1)^4", None),
    # repeated squaring would list these terms in another order
    ("(z1^2 + z1)^3", None),
    ("(-2*z1^2 + 2*z1 + 1)^4", None),
    ("(z1/(1+z2))^3", None),
    ("(-z1+2)^3", None),
    ("2^10", None),
    ("(z1+z2)^0", None),
    ("[[z1, 1],[1, z2]]^3", None),
    ("[[1/z1, 0],[z2, 1]]^2", None),
    ("[[z1, 2],[3, z2]]^0", None),
    ("[[z1, 2, 3]]^2", None),
    ("[[z1]]^3", None),
    ("(z1^500)^3", None),
    ("(1+z1+z2+z3)^1000", None),
    # unary minus
    ("-z1", None),
    ("-(z1 - z2) * -3", None),
    ("--z1^2", None),
    ("-[[z1, 1/z2],[0, -z1]]", None),
    ("-(z1/(1-z2))", None),
    # products with matrices
    ("[[z1, 1],[z2, 2]] * [[1, z2],[z1, 0]]", None),
    ("[[z1, 1, 2]] * [[1],[z2],[z1]]", None),
    ("[[z1, 1, 2]] * [[1],[z2],[z1]] + z1", None),
    ("[[1/z1, 1],[z2, 2]] * [[1, z2/(1+z1)],[z1, 0]]", None),
    ("(z1+1) * [[z1, 1],[z2, 2]]", None),
    ("[[z1, 1],[z2, 2]] * (z1/z2)", None),
    ("[[z1]] * [[1, 2],[3, 4]]", None),
    ("[[z1, 1],[z2, 2]] * [[1, 2, 3]]", None),
    ("[[z1, 1],[z2, 2]] + [[1, z1],[z2, 1/z1]] - [[z1, z1],[z1, z1]]", None),
    ("[[z1, 1],[z2, 2]] + 1", None),
    ("z1 - [[z1, 1],[z2, 2]]", None),
    ("[[ [[z1]], 2 ]]", None),
    ("[[ [[z1, 1]], 2 ]]", None),
    ("[[z1, 1],[z2]]", None),
    # parse errors and limits
    ("z1 + ", None),
    ("z3", 2),
    ("z1^1001", None),
    ("(z1^1000)^2", None),
    ("(1+z1+z2+z3)^15 * (1+z4+z5+z6)^15", None),
    ("[[(1+z1+z2+z3)^15, 0], [0, 1]] * [[(1+z4+z5+z6)^15, 0], [0, 1]]",
     None),
    ("(1+z1+z2+z3)^15/(1+z4+z5+z6)^15 + 1/(1+z4+z5+z6)^15", None),
    # term order and cancellation inside runs of + - and of *
    ("z1 + z2 - z1 + z1", None),
    ("2*z1 + z2", None),
    ("0*z1^3 + z2", None),
    ("2*-z1*z2 - -3*z2", None),
    ("z1^0*z2", None),
    ("z1 + (z2 + z3) + 1/z1 + z2", None),
    ("z1/2 + z2", None),
    ("*".join(["z1^1000"] * 524), None),
    ("*".join(["z1^1000"] * 525), None),
    ("[[z1 + z2 - z1, 3 - 2*z1*z2 + z1^2],"
     " [z2*z1 + 1 + z1*z2, -z2 + 5 + z2]]", None),
    # a parenthesized base, a chained exponent, and zero divisors with and
    # without a variable in them
    ("(z1)^3", None),
    ("((z1))^0", None),
    ("-(z1)^2", None),
    ("2^3^2", None),
    ("1/(0*z1)", None),
    ("(1-1)/(2-2)", None),
    ("z1*z2/z3*z1 - z1^2*z2/z3", None),
    ("[[z1, 1],[1, z2]]^2 * (z1+1)", None),
]


def _poly_record(p) -> list:
    return [list(p.packed.items()), p.denom]


def parse_record(matrix) -> str:
    record = [matrix.rows, matrix.cols, matrix.n_vars]
    record += [
        _poly_record(part)
        for row in matrix.entries for entry in row
        for part in (entry.num, entry.den)
    ]
    return json.dumps(record)


def outcomes() -> dict:
    table = {}
    for text, n_vars in TEXTS:
        for name in FIELDS:
            key = f"{text} | n={n_vars} | {name}"
            try:
                matrix = parse_expression(text, parse_field(name), n_vars)
            except RatPencilError as exc:
                table[key] = f"{type(exc).__name__}: {exc}"
                continue
            table[key] = hashlib.sha256(
                parse_record(matrix).encode()).hexdigest()
    return table


def test_parse_outputs_match_pinned_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outcomes()
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == value, key


if __name__ == "__main__":
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
