"""Command-line front end.

Exit codes: 0 for success / pass / realizable, 1 for a verified failure or a
mathematically not-realizable input (certificate printed), 2 for usage and
input errors.  All outputs are deterministic functions of the inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import NotRealizableChar2, RatPencilError, TooManyVariables
from .expr import parse_expression
from .fields import parse_field
from .pencil import LinearPencil, RealizationKind
from .poly import MAX_VARIABLES, Polynomial
from .quotring import (
    QuotContext,
    QuotMatrix,
    reduce_realizer,
    require_ring_size,
)
from .realize import (
    Char2Certificate,
    decide_hsbr,
    decide_sbr,
    realize_br,
    realize_hbr,
    realize_hsbr,
    realize_sbr,
)
from .verify import check_realization


def _certificate_doc(descriptor, cert: Char2Certificate, diagonal) -> dict:
    """The document of a not-realizable certificate; its offending
    monomial names the variables it is written in."""
    exps = cert.offending_monomial
    return {
        "verdict": cert.verdict,
        "diagonal": diagonal,
        "offending_monomial": str(
            Polynomial.monomial(descriptor, len(exps), exps)
        ),
    }


def _print(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _field(args):
    """The descriptor that ``--field`` names; a bad one is an input error
    that names the option."""
    try:
        return parse_field(args.field)
    except ValueError as exc:
        raise RatPencilError(f"--field: {exc}") from None


def _nvars(args):
    """The variable count that ``--nvars`` gives, if any; a negative one,
    or one past ``poly.MAX_VARIABLES``, is an input error that names the
    option."""
    if args.nvars is not None and args.nvars < 0:
        raise RatPencilError(f"--nvars: {args.nvars} is negative")
    if args.nvars is not None and args.nvars > MAX_VARIABLES:
        raise TooManyVariables(
            f"--nvars: {args.nvars} variables is over the limit of "
            f"{MAX_VARIABLES}"
        )
    return args.nvars


def _cmd_realize(args) -> int:
    descriptor = _field(args)
    text = args.expr
    if text is None:
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    target = parse_expression(text, descriptor, _nvars(args))
    kind = RealizationKind(args.kind)
    # looked up at call time, so that a rebound module global is the one used
    builders = {"br": realize_br, "sbr": realize_sbr, "hbr": realize_hbr,
                "hsbr": realize_hsbr}
    try:
        result = builders[kind.value](target)
    except NotRealizableChar2 as exc:
        _print(_certificate_doc(descriptor, exc.certificate, exc.diagonal))
        return 1
    report = check_realization(result.pencil, target, kind)
    if not report.passed:
        print(report.to_json(), file=sys.stderr)
        print("internal error: built pencil failed verification", file=sys.stderr)
        return 1
    payload = result.pencil.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    print(
        f"realized kind={kind.value} m={result.pencil.m} "
        f"split={result.pencil.split} classes="
        + ",".join(sorted(result.pencil.classify())),
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    with open(args.pencil, "r", encoding="utf-8") as handle:
        pencil = LinearPencil.from_json(handle.read())
    target = parse_expression(args.expr, pencil.descriptor, pencil.n_vars)
    report = check_realization(pencil, target, RealizationKind(args.kind))
    print(report.to_json())
    return 0 if report.passed else 1


def _cmd_decide(args) -> int:
    descriptor = _field(args)
    target = parse_expression(args.expr, descriptor, _nvars(args))
    decide = decide_sbr if args.kind == "sbr" else decide_hsbr
    decision = decide(target)
    doc = {"realizable": decision.realizable, "reason": decision.reason}
    if decision.certificate is not None:
        doc["certificate"] = _certificate_doc(
            descriptor, decision.certificate, decision.diagonal
        )
    _print(doc)
    return 0 if decision.realizable else 1


def _polynomial_arg(text, descriptor, n_vars, what) -> Polynomial:
    """The polynomial that ``text`` denotes; a matrix literal other than
    1x1 or a fraction is an input error."""
    value = parse_expression(text, descriptor, n_vars)
    if value.rows != 1 or value.cols != 1:
        raise RatPencilError(
            f"{what} {text!r} is a {value.rows}x{value.cols} matrix, "
            "not a scalar"
        )
    entry = value.entries[0][0]
    if not entry.is_polynomial():
        raise RatPencilError(f"{what} {text!r} is not a polynomial")
    return entry.as_polynomial()


def _cmd_reduce(args) -> int:
    descriptor = _field(args)
    ell = [descriptor.parse_value(part) for part in args.ell.split(",")]
    context = QuotContext(descriptor, len(ell), ell)
    with open(args.matrix, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise RatPencilError("matrix JSON is nested too deeply") from None
    rows = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise RatPencilError(
            "matrix JSON must be an object whose 'entries' is a list of rows"
        )
    require_ring_size(len(rows), "the matrix file")
    split = doc.get("split", 1)
    if type(split) is not int or any(
        not isinstance(cell, str) for row in rows for cell in row
    ):
        raise RatPencilError(
            "matrix 'split' must be an integer and its entries strings"
        )
    grid = [
        [_polynomial_arg(cell, descriptor, context.n_vars, "matrix entry")
         for cell in row]
        for row in rows
    ]
    matrix = QuotMatrix.from_polynomials(context, split, grid)
    element = context.project(
        _polynomial_arg(args.r, descriptor, context.n_vars, "r")
    )
    trace = [] if args.trace else None
    result = reduce_realizer(matrix, element, trace=trace)
    if trace is not None:
        for label, snapshot in trace:
            print(f"step {label}")
            for row in snapshot.entries:
                print("  [" + ", ".join(str(e) for e in row) + "]")
    print(f"reduced: {result}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratpencil",
        description="Exact pencil realizations of rational matrix functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    realize = sub.add_parser("realize", help="build a realization")
    realize.add_argument("--field", required=True)
    realize.add_argument("--kind", required=True,
                         choices=["br", "sbr", "hbr", "hsbr"])
    group = realize.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr")
    group.add_argument("--in", dest="infile")
    realize.add_argument("--out")
    realize.add_argument("--nvars", type=int)
    realize.set_defaults(handler=_cmd_realize)

    verify = sub.add_parser("verify", help="verify a pencil file against an expression")
    verify.add_argument("--pencil", required=True)
    verify.add_argument("--expr", required=True)
    verify.add_argument("--kind", required=True,
                        choices=["br", "sbr", "hbr", "hsbr"])
    verify.set_defaults(handler=_cmd_verify)

    decide = sub.add_parser("decide", help="decide symmetric realizability")
    decide.add_argument("--field", required=True)
    decide.add_argument("--kind", required=True, choices=["sbr", "hsbr"])
    decide.add_argument("--expr", required=True)
    decide.add_argument("--nvars", type=int)
    decide.set_defaults(handler=_cmd_decide)

    reduce_cmd = sub.add_parser("reduce", help="reduce a quotient-ring realizer")
    reduce_cmd.add_argument("--field", required=True)
    reduce_cmd.add_argument("--ell", required=True,
                            help="comma-separated field constants")
    reduce_cmd.add_argument("--matrix", required=True)
    reduce_cmd.add_argument("--r", required=True)
    reduce_cmd.add_argument("--trace", action="store_true")
    reduce_cmd.set_defaults(handler=_cmd_reduce)
    return parser


# options whose value is an expression, which may start with "-"
_EXPRESSION_OPTIONS = ("--expr", "--r")


def _join_expression_values(argv) -> list[str]:
    """Fold ``[option, value]`` into ``option=value`` for the expression
    options, so argparse reads a value such as ``-z1`` as the value and not
    as an unknown flag.  A trailing option with no value is left alone."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _EXPRESSION_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: parsing leaves no
    state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_expression_values(argv))
    try:
        return args.handler(args)
    except (RatPencilError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
