"""Command-line front end.

Exit codes: 0 for success / pass / realizable, 1 for a verified failure or a
mathematically not-realizable input (certificate printed), 2 for usage and
input errors.  All outputs are deterministic functions of the inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NotARealizer, NotRealizableChar2, RatPencilError
from .expr import parse_expression
from .fields import parse_field
from .pencil import LinearPencil, RealizationKind
from .poly import Polynomial
from .quotring import QuotContext, QuotMatrix, reduce_realizer
from .realize import (
    Char2Certificate,
    decide_and_realize_hsbr,
    decide_hsbr,
    decide_sbr,
    realize_br,
    realize_hbr,
    realize_sbr,
)
from .verify import check_realization


def _monomial_text(descriptor, n_vars, exps) -> str:
    return str(Polynomial.monomial(descriptor, n_vars, exps))


def _certificate_doc(descriptor, n_vars, cert: Char2Certificate, diagonal=None):
    doc = {"verdict": cert.verdict, "diagonal": diagonal}
    if cert.offending_monomial is not None:
        doc["offending_monomial"] = _monomial_text(
            descriptor, n_vars, cert.offending_monomial
        )
    if cert.decomposition is not None:
        doc["decomposition"] = {
            _monomial_text(descriptor, n_vars, beta): str(g)
            for beta, g in sorted(cert.decomposition.items())
        }
    return doc


def _print(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_realize(args) -> int:
    descriptor = parse_field(args.field)
    text = args.expr
    if text is None:
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    target = parse_expression(text, descriptor, args.nvars)
    kind = RealizationKind(args.kind)
    if kind is RealizationKind.BR:
        result = realize_br(target)
    elif kind is RealizationKind.SBR:
        result = realize_sbr(target)
    elif kind is RealizationKind.HBR:
        result = realize_hbr(target)
    else:
        result = decide_and_realize_hsbr(target)
        if isinstance(result, Char2Certificate):
            _print(_certificate_doc(descriptor, target.n_vars - 1, result))
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
    descriptor = parse_field(args.field)
    target = parse_expression(args.expr, descriptor, args.nvars)
    if args.kind == "sbr":
        decision = decide_sbr(target)
        cert_vars = target.n_vars
    else:
        decision = decide_hsbr(target)
        cert_vars = target.n_vars - 1
    doc = {"realizable": decision.realizable, "reason": decision.reason}
    if decision.certificate is not None:
        doc["certificate"] = _certificate_doc(
            descriptor, cert_vars, decision.certificate, decision.diagonal
        )
    _print(doc)
    return 0 if decision.realizable else 1


def _cmd_reduce(args) -> int:
    descriptor = parse_field(args.field)
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
    split = doc.get("split", 1)
    if type(split) is not int or any(
        not isinstance(cell, str) for row in rows for cell in row
    ):
        raise RatPencilError(
            "matrix 'split' must be an integer and its entries strings"
        )
    grid = []
    for row in rows:
        out_row = []
        for cell in row:
            value = parse_expression(cell, descriptor, context.n_vars)
            entry = value.entries[0][0]
            if not entry.is_polynomial():
                raise RatPencilError(f"matrix entry {cell!r} is not a polynomial")
            out_row.append(entry.as_polynomial())
        grid.append(out_row)
    matrix = QuotMatrix.from_polynomials(context, split, grid)
    r_value = parse_expression(args.r, descriptor, context.n_vars).entries[0][0]
    if not r_value.is_polynomial():
        raise RatPencilError("r must be a polynomial")
    element = context.project(r_value.as_polynomial())
    trace = [] if args.trace else None
    try:
        result = reduce_realizer(matrix, element, trace=trace)
    except NotARealizer:
        print("input matrix is not a realizer of r", file=sys.stderr)
        return 2
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotRealizableChar2 as exc:
        cert = exc.certificate
        descriptor = parse_field(args.field) if hasattr(args, "field") else None
        doc = {"verdict": "not_realizable", "diagonal": exc.diagonal}
        if cert.offending_monomial is not None and descriptor is not None:
            doc["offending_monomial"] = _monomial_text(
                descriptor, len(cert.offending_monomial), cert.offending_monomial
            )
        _print(doc)
        return 1
    except (RatPencilError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
