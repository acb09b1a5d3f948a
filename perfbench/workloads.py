"""The three benchmark workloads: inputs from a seed, ops, output checks.

A workload is a fixed list of ops that the runner executes in passes, one
op at a time (a closed loop with one client).  ``setup`` builds everything
an op needs, so the timed region holds only the library call.  ``check``
compares an op's output with an oracle that shares no code with the
library; a mismatch raises :class:`oracle.WrongOutput`.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import gen
import oracle
from ratpencil import cli
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field
from ratpencil.matrices import RationalMatrix
from ratpencil.pencil import RealizationKind
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.quotring import (
    QuotContext,
    QuotMatrix,
    is_ring_realizer,
    reduce_realizer,
)
from ratpencil.realize import (
    RealizationResult,
    decide_and_realize_hsbr,
    realize_br,
    realize_hbr,
    realize_sbr,
)
from ratpencil.verify import check_realization

BUILDERS = {
    "br": realize_br,
    "sbr": realize_sbr,
    "hbr": realize_hbr,
    "hsbr": decide_and_realize_hsbr,
}


def to_matrix(target: gen.Target) -> RationalMatrix:
    """The target as a library matrix, built from its term maps."""
    d = parse_field(target.field)
    n = target.n_vars
    one = Polynomial.one(d, n)
    return RationalMatrix(
        [
            [
                RationalFunction(
                    Polynomial(d, n, num),
                    one if den is gen.ONE else Polynomial(d, n, den),
                )
                for num, den in row
            ]
            for row in target.entries
        ]
    )


def parsed_matrix(target: gen.Target) -> RationalMatrix:
    """Parse the target's text and check it against its term maps."""
    matrix = to_matrix(target)
    parsed = parse_expression(target.text(), matrix.descriptor, target.n_vars)
    if parsed != matrix:
        raise oracle.WrongOutput(f"{target.label}: text does not parse back")
    return matrix


def pencil_nnz(pencil) -> int:
    cells = set()
    for c in pencil.coeffs:
        cells.update(c)
    return len(cells)


class VerifyRational:
    """``check_realization`` on pencils built during setup."""

    name = "verify-rational"
    op_limit_s = 10.0

    def __init__(self, seed: int):
        self.seed = seed
        self.ops, self.expected, self.labels = [], [], []
        self.pencils, self.sizes = [], []
        for claim in gen.verify_claims(seed):
            if claim.built.entries:
                built = parsed_matrix(claim.built)
                claimed = parsed_matrix(claim.claimed)
            else:
                built = claimed = parse_expression(
                    claim.text, parse_field(claim.built.field),
                    claim.built.n_vars,
                )
            result = BUILDERS[claim.built.kind](built)
            if not isinstance(result, RealizationResult):
                raise oracle.WrongOutput(
                    f"{claim.built.label}: builder refused a realizable target"
                )
            pencil = result.pencil
            kind = RealizationKind(claim.claim_kind)
            self.ops.append(
                lambda p=pencil, t=claimed, k=kind: check_realization(p, t, k)
            )
            self.expected.append(claim.expected)
            self.labels.append(f"{claim.built.label}:{claim.claim_kind}:"
                               f"{'true' if claim.expected else 'false'}")
            self.pencils.append(pencil)
            self.sizes.append((pencil.m, pencil_nnz(pencil)))

    def check(self, index: int, report) -> None:
        if report.passed != self.expected[index]:
            raise oracle.WrongOutput(
                f"{self.labels[index]}: verdict {report.passed}, "
                f"expected {self.expected[index]}"
            )


class CliPolynomial:
    """``ratpencil realize --out f`` then ``ratpencil verify --pencil f``."""

    name = "cli-polynomial"
    op_limit_s = 10.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.targets = gen.cli_targets(seed)
        self.labels = [t.label for t in self.targets]
        self.paths = [workdir / f"pencil-{i}.json"
                      for i in range(len(self.targets))]
        self.ops = []
        for target, path in zip(self.targets, self.paths):
            parsed_matrix(target)
            text = target.text()
            realize = ["realize", "--field", target.field, "--kind",
                       target.kind, "--expr", text, "--out", str(path),
                       "--nvars", str(target.n_vars)]
            verify = ["verify", "--pencil", str(path), "--expr", text,
                      "--kind", target.kind]
            self.ops.append(
                lambda a=realize, b=verify: (_quiet_main(a), _quiet_main(b))
            )
        self.verified: dict[int, bytes] = {}
        self.sizes: list = [None] * len(self.targets)

    def check(self, index: int, codes) -> None:
        if codes != (0, 0):
            raise oracle.WrongOutput(
                f"{self.labels[index]}: exit codes {codes}, expected (0, 0)"
            )
        data = self.paths[index].read_bytes()
        known = self.verified.get(index)
        if known is None:
            self.sizes[index] = oracle.check_pencil_text(
                data.decode(), self.targets[index], self.seed
            )
            self.verified[index] = data
        elif data != known:
            raise oracle.WrongOutput(
                f"{self.labels[index]}: pencil file changed between passes"
            )


def _quiet_main(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class ReduceRing:
    """``is_ring_realizer`` then ``reduce_realizer`` on GF(2) realizers."""

    name = "reduce-ring"
    op_limit_s = 30.0

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = gen.ring_inputs(seed)
        self.labels = [item.label for item in self.inputs]
        d = parse_field("gf2")
        n = gen.RING_VARS
        self.ops, self.sizes = [], []
        for item in self.inputs:
            ctx = QuotContext(d, n, item.ell)
            grid = [
                [Polynomial(d, n, {e: 1 for e in cell}) for cell in row]
                for row in item.grid
            ]
            matrix = QuotMatrix.from_polynomials(ctx, 1, grid)
            r = ctx.project(Polynomial(d, n, {e: 1 for e in item.r}))
            self.ops.append(lambda a=matrix, b=r: _reduce(a, b))
            nnz = sum(1 for row in item.grid for cell in row if cell)
            self.sizes.append((item.size, nnz))

    def check(self, index: int, result) -> None:
        want = self.inputs[index].r
        if result is None:
            raise oracle.WrongOutput(f"{self.labels[index]}: not a realizer")
        terms = result.nf.terms
        if set(terms) != set(want) or any(v != 1 for v in terms.values()):
            raise oracle.WrongOutput(
                f"{self.labels[index]}: reduced to {result}, expected "
                f"{sorted(want)}"
            )


def _reduce(matrix, r):
    # the `ratpencil reduce` command without --trace
    if not is_ring_realizer(matrix, r):
        return None
    return reduce_realizer(matrix, r)


def make(name: str, seed: int, workdir: Path):
    if name == VerifyRational.name:
        return VerifyRational(seed)
    if name == CliPolynomial.name:
        return CliPolynomial(seed, workdir)
    if name == ReduceRing.name:
        return ReduceRing(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (VerifyRational.name, CliPolynomial.name, ReduceRing.name)
