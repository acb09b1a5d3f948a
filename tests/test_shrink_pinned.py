"""Pinned outputs of ``op_shrink`` on seeded pencils.

The inputs live over the fields q, gf2, gf:3 and gf:101.  From public
combinators come the BR pencil of a seeded random target (atom product
chains, each denominator inverted and multiplied in), its symmetrization,
its symmetric square and its transpose, and two GF(2) pencils whose A22 has
no constant diagonal pivot, so that only the pair step shrinks them.
Seeded random sparse pencils, plain and symmetric, with mostly constant
entries, add pivot choices that no combinator layout makes.  Each output is
recorded as the sizes before and after and a SHA-256 of ``to_json()``.
The table lives in ``shrink_digests.json``; re-record it with
``PYTHONPATH=src python tests/test_shrink_pinned.py >
tests/shrink_digests.json`` only for a change that alters the shrink on
purpose."""

import hashlib
import json
import random
from pathlib import Path

from ratpencil.combinators import op_product, op_shrink, op_symmetrize
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field
from ratpencil.pencil import LinearPencil
from ratpencil.realize import realize_br

from conftest import random_matrix
from test_verify import _entrywise_pencil, _polynomial_pencil

TABLE = Path(__file__).resolve().parent / "shrink_digests.json"

FIELDS = ("q", "gf2", "gf:3", "gf:101")
SEEDS = range(20)


def _affine(rand, descriptor, symmetric):
    """A seeded sparse pencil in two variables, most entries constant."""
    m = rand.randint(3, 12)
    coeffs = [{}, {}, {}]
    for i in range(m):
        for j in range(i if symmetric else 0, m):
            if rand.random() < 0.3:
                t = 0 if rand.random() < 0.7 else rand.randint(1, 2)
                value = rand.randint(1, 4)
                coeffs[t][(i, j)] = value
                if symmetric:
                    coeffs[t][(j, i)] = value
    return LinearPencil(descriptor, 2, m, rand.randint(1, 2), coeffs)


def seeded_pencils(descriptor, seed):
    """The four shapes built on the BR pencil of one seeded target, and
    two random affine pencils, one of them symmetric."""
    rand = random.Random(seed)
    n = rand.randint(1, 3)
    k = rand.choice([1, 2, 3])
    base = _entrywise_pencil(
        random_matrix(rand, descriptor, n, k, max_deg=2, max_terms=2))
    return {
        "br": base,
        "symmetrize": op_symmetrize(base, check=False),
        "square": op_product(base, None, base.transpose(), check=False),
        "transpose": base.transpose(),
        "affine": _affine(rand, descriptor, False),
        "symmetric affine": _affine(rand, descriptor, True),
    }


def pair_step_pencils():
    """GF(2) pencils that only the pair step shrinks: the square of the BR
    pencil of z1 around the middle factor z2, and the symmetrization of the
    atom product chains of z1*z2 + 1."""
    g2 = parse_field("gf2")
    base = realize_br(parse_expression("z1", g2, 2)).pencil
    x = parse_expression("z2", g2, 2)
    chains = _polynomial_pencil(
        parse_expression("z1*z2 + 1", g2).entries[0][0].num)
    return {
        "gf2 | square of z1 around z2": op_product(
            base, x, base.transpose(), check=False),
        "gf2 | symmetrization of z1*z2 + 1": op_symmetrize(
            chains, check=False),
    }


def _shrink_text(pencil) -> str:
    shrunk = op_shrink(pencil, check=False)
    digest = hashlib.sha256(shrunk.to_json().encode()).hexdigest()
    return f"m={pencil.m}->{shrunk.m} sha256={digest}"


def outcomes() -> dict:
    table = {}
    for name in FIELDS:
        descriptor = parse_field(name)
        for seed in SEEDS:
            for shape, pencil in seeded_pencils(descriptor, seed).items():
                table[f"{name} | seed={seed} | {shape}"] = _shrink_text(pencil)
    for key, pencil in pair_step_pencils().items():
        table[key] = _shrink_text(pencil)
    return table


def test_shrink_outputs_match_pinned_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = outcomes()
    assert got.keys() == expected.keys()
    for key, text in expected.items():
        assert got[key] == text, key


if __name__ == "__main__":
    print(json.dumps(outcomes(), indent=1, sort_keys=True))
