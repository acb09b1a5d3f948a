"""Pinned outputs of ``ratpencil reduce``.

The cases are the ring fixtures (one of them with an r it does not
realize), a realizer in 64 variables, and seeded random realizers from
``random_realizer``: a 2x2 core padded with 0 to 6 invertible diagonals and
scrambled by ADD steps, four of them for every ell over one to three
variables, half of them scrambled further.  For each case the exit code
and stdout of ``ratpencil reduce``, once plain and once with ``--trace``,
are hashed with SHA-256.  The trace prints every intermediate matrix, so a
change of the reduction's steps shows here even when the reduced element
stays equal.  The table lives in
``reduce_digests.json``; re-record it with
``PYTHONPATH=src python tests/test_reduce_pinned.py > tests/reduce_digests.json``
only for a change that alters the reduction on purpose.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from ratpencil.cli import main
from ratpencil.fields import prime_field
from ratpencil.quotring import QuotContext, add_transform

from ratpencil_testkit import random_realizer

HERE = Path(__file__).resolve().parent
TABLE = HERE / "reduce_digests.json"
FIXTURES = HERE.parent / "fixtures"

# (label, ell, matrix document, r)
FIXTURE_CASES = [
    ("ring_3x3_ell00", "0,0", "ring_3x3_ell00.json", "0"),
    ("ring_3x3_ell11", "1,1", "ring_3x3_ell11.json", "z1"),
    ("ring_3x3_ell11 wrong r", "1,1", "ring_3x3_ell11.json", "z2"),
    ("ring_4x4_ell00", "0,0", "ring_4x4_ell00.json", "0"),
    ("ring_9x9_ell10", "1,0", "ring_9x9_ell10.json", "z1"),
]
SIXTY_FOUR = {
    "split": 1,
    "entries": [
        ["z1+z64", "1", "0", "0"],
        ["1", "z63", "1", "0"],
        ["0", "1", "z2+z33", "1"],
        ["0", "0", "1", "z40+z64+1"],
    ],
}


def _random_cases():
    """Four seeded realizers for every ell over one to three variables,
    with pads running through 0 to 6; two of the four take six more ADD
    steps with alpha = 1."""
    g2 = prime_field(2)
    ells = [ell for n in (1, 2, 3) for ell in itertools.product((0, 1), repeat=n)]
    cases = []
    for index, ell in enumerate(ells):
        ctx = QuotContext(g2, len(ell), ell)
        for k in range(4):
            pad = (index + 2 * k) % 7
            rng = random.Random(f"reduce-pinned:{index}:{k}")
            matrix, r = random_realizer(rng, ctx, pad)
            for _ in range(6 * (k // 2)):  # scramble half of them harder
                i = rng.randrange(1, matrix.m)
                j = rng.choice([t for t in range(matrix.m) if t != i])
                matrix = add_transform(matrix, i, j, ctx.one())
            doc = {
                "split": matrix.split,
                "entries": [[str(e) for e in row] for row in matrix.entries],
            }
            label = f"ell={''.join(map(str, ell))} pad={pad} k={k}"
            cases.append((label, ",".join(map(str, ell)), doc, str(r)))
    return cases


def cases():
    out = []
    for label, ell, name, r in FIXTURE_CASES:
        doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        out.append((label, ell, doc, r))
    out.append(("sixty-four variables", ",".join(["1,0"] * 32), SIXTY_FOUR,
                "1+z40+z33+z2+z1"))
    return out + _random_cases()


def _digest(argv) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{sink.getvalue()}".encode()).hexdigest()


def digests(workdir: Path) -> dict:
    table = {}
    for index, (label, ell, doc, r) in enumerate(cases()):
        path = workdir / f"matrix{index}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["reduce", "--field", "gf2", "--ell", ell, "--matrix", str(path),
                "--r", r]
        table[label] = {"plain": _digest(argv),
                        "trace": _digest(argv + ["--trace"])}
    return table


def test_reduce_outputs_match_pinned_digests(tmp_path):
    want = json.loads(TABLE.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(digests(Path(workdir)), sys.stdout, indent=1)
        sys.stdout.write("\n")
