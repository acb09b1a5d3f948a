"""Pinned outputs of the four builders and the two decision dispatchers.

Every builder output is recorded as its size and a SHA-256 of ``to_json()``,
every raised error as its type (plus diagonal and certificate for parity
failures), and every ``Decision`` in full, over a fixed target list and the
fields q, gf2, gf:3 and gf:101.  The table lives in
``builder_digests.json``; a construction that changes a pencil on purpose
must re-record it with ``PYTHONPATH=src python tests/test_builders_pinned.py
> tests/builder_digests.json``.
"""

import hashlib
import json
from pathlib import Path

from ratpencil.errors import NotRealizableChar2, RatPencilError
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field
from ratpencil.realize import (
    Char2Certificate,
    decide_and_realize_hsbr,
    decide_hsbr,
    decide_sbr,
    realize_br,
    realize_hbr,
    realize_sbr,
)

TABLE = Path(__file__).resolve().parent / "builder_digests.json"

FIELDS = ("q", "gf2", "gf:3", "gf:101")

# (expression, n_vars or None to infer)
TARGETS = [
    ("3", None),
    ("[[1, 2],[2, 5]]", None),
    ("2", 1),
    ("[[0, 0],[0, 0]]", 2),
    ("z1^4+3*z1", None),
    ("z1^5/(1+z1^2)", None),
    ("[[z1, z1^2],[z1^2, 1/(z1+1)]]", None),
    ("[[z1, 2*z1],[2*z1, z1]]", None),
    ("z1*z2", None),
    ("z1^3+z2", None),
    ("z1/(1+z2)", None),
    ("(z1^2+z2)/(1+z1^2)", None),
    ("z1^2/(z1+z2)", None),
    # char 2: diagonal 0 passes, diagonal 1 fails
    ("[[z1, z2],[z2, z1*z2]]", None),
    ("[[z1*z2, 1],[1, z1*z3]]", None),
    ("[[z1, 1, z2],[1, z2^2, 0],[z2, 0, z1^3]]", None),
    ("[[z1, z2],[1, z1]]", None),
    ("z1*z2/z3", None),
    ("[[z1, z2],[z2, z1+z3]]", None),
    ("[[z1, z1^2/(z1+z2)],[z1^2/(z1+z2), z2]]", None),
    ("(z1^2+z3^2)/z2", None),
    # char 2 after dehomogenizing: diagonal 0 passes, diagonal 1 fails
    ("[[z1^2/z3, z2],[z2, z1*z2/z3]]", None),
]

BUILDERS = {
    "br": realize_br,
    "sbr": realize_sbr,
    "hbr": realize_hbr,
    "hsbr": decide_and_realize_hsbr,
}

DECIDERS = {"decide_sbr": decide_sbr, "decide_hsbr": decide_hsbr}


def _cert_text(cert: Char2Certificate) -> str:
    parts = [cert.verdict]
    if cert.offending_monomial is not None:
        parts.append(f"offending={cert.offending_monomial}")
    if cert.decomposition is not None:
        groups = sorted(cert.decomposition.items())
        parts.append(
            "decomposition=" + ";".join(f"{beta}:{g}" for beta, g in groups)
        )
    return " ".join(parts)


def _build_text(builder, target) -> str:
    try:
        result = builder(target)
    except NotRealizableChar2 as exc:
        return (f"raise NotRealizableChar2 diagonal={exc.diagonal} "
                + _cert_text(exc.certificate))
    except RatPencilError as exc:
        return f"raise {type(exc).__name__}"
    if isinstance(result, Char2Certificate):
        return "certificate " + _cert_text(result)
    text = result.pencil.to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{result.kind.value} m={result.pencil.m} sha256={digest}"


def _decision_text(decide, target) -> str:
    decision = decide(target)
    text = (f"{decision.realizable} {decision.reason!r} "
            f"diagonal={decision.diagonal}")
    if decision.certificate is not None:
        text += " " + _cert_text(decision.certificate)
    return text


def outcomes() -> dict:
    table = {}
    for expr, n_vars in TARGETS:
        for name in FIELDS:
            descriptor = parse_field(name)
            key = f"{expr} | n={n_vars} | {name}"
            try:
                target = parse_expression(expr, descriptor, n_vars)
            except RatPencilError as exc:
                table[key] = {"parse": f"raise {type(exc).__name__}"}
                continue
            row = {b: _build_text(fn, target) for b, fn in BUILDERS.items()}
            row.update(
                (d, _decision_text(fn, target)) for d, fn in DECIDERS.items()
            )
            table[key] = row
    return table


def test_builder_outputs_match_pinned_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outcomes()
    assert got.keys() == expected.keys()
    for key, row in expected.items():
        assert got[key] == row, key


if __name__ == "__main__":
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
