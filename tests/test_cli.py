"""Command-line interface: exit codes, outputs, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ratpencil.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_counterexample(capsys):
    code, out, _ = run(
        capsys, "decide", "--field", "gf2", "--kind", "sbr", "--expr", "z1*z2"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["realizable"] is False
    assert doc["certificate"]["offending_monomial"] == "z1*z2"


def test_decide_second_counterexample(capsys):
    code, out, _ = run(
        capsys, "decide", "--field", "gf2", "--kind", "sbr",
        "--expr", "z1*z2+z3",
    )
    assert code == 1
    assert json.loads(out)["certificate"]["offending_monomial"] == "z1*z2"


def test_decide_hsbr_counterexample(capsys):
    code, out, _ = run(
        capsys, "decide", "--field", "gf2", "--kind", "hsbr",
        "--expr", "z1*z2/z3",
    )
    assert code == 1
    assert json.loads(out)["certificate"]["offending_monomial"] == "z1*z2"


def test_decide_realizable(capsys):
    code, out, _ = run(
        capsys, "decide", "--field", "gf2", "--kind", "sbr",
        "--expr", "z1^3+z2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["realizable"] is True


def test_realize_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "pencil.json"
    code, _, _ = run(
        capsys, "realize", "--field", "q", "--kind", "sbr",
        "--expr", "z1*z2", "--out", str(out_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--pencil", str(out_file),
        "--expr", "z1*z2", "--kind", "sbr",
    )
    assert code == 0
    assert json.loads(out)["schur_ok"] is True


def test_realize_not_realizable_exit_code(capsys):
    code, out, _ = run(
        capsys, "realize", "--field", "gf2", "--kind", "sbr",
        "--expr", "z1*z2",
    )
    assert code == 1
    assert out == (
        '{\n'
        '  "diagonal": 0,\n'
        '  "offending_monomial": "z1*z2",\n'
        '  "verdict": "not_realizable"\n'
        '}\n'
    )


def test_every_certificate_names_its_diagonal(capsys):
    # diagonal 1 fails the parity test: z1*z2*z3 as it is, and z1*z2
    # after dehomogenizing at z3
    expr = "[[z1^2/z3, z2],[z2, z1*z2/z3]]"

    def cert(monomial):
        return ('{\n'
                '  "diagonal": 1,\n'
                f'  "offending_monomial": "{monomial}",\n'
                '  "verdict": "not_realizable"\n'
                '}')

    for kind, monomial in (("sbr", "z1*z2*z3"), ("hsbr", "z1*z2")):
        code, out, _ = run(capsys, "realize", "--field", "gf2", "--kind",
                           kind, "--expr", expr)
        assert (code, out) == (1, cert(monomial) + "\n")
    code, out, _ = run(capsys, "decide", "--field", "gf2", "--kind", "hsbr",
                       "--expr", expr)
    assert code == 1
    assert out == (
        '{\n'
        '  "certificate": ' + cert("z1*z2").replace("\n", "\n  ") + ',\n'
        '  "realizable": false,\n'
        '  "reason": "parity obstruction after dehomogenizing"\n'
        '}\n'
    )


@pytest.mark.parametrize("kind", ["br", "sbr", "hbr", "hsbr"])
def test_realize_refuses_a_matrix_that_is_not_square(capsys, kind):
    code, out, err = run(capsys, "realize", "--field", "q", "--kind", kind,
                         "--expr", "[[z1, z2]]")
    assert (code, out) == (2, "")
    assert err == "error: realization needs a square matrix\n"


def test_realize_hbr_from_a_file(tmp_path, capsys):
    expr = "[[z1*z2/z3, z1],[z2, z1+z3]]"
    source = tmp_path / "target.txt"
    source.write_text(expr + "\n", encoding="utf-8")
    code, from_file, err = run(capsys, "realize", "--field", "q", "--kind",
                               "hbr", "--in", str(source))
    assert code == 0 and "realized kind=hbr" in err and "hLP" in err
    code, from_expr, _ = run(capsys, "realize", "--field", "q", "--kind",
                             "hbr", "--expr", expr)
    assert code == 0 and from_expr == from_file
    pencil = tmp_path / "pencil.json"
    pencil.write_text(from_file, encoding="utf-8")
    code, _, _ = run(capsys, "verify", "--pencil", str(pencil), "--expr",
                     expr, "--kind", "hbr")
    assert code == 0


def test_realize_refuses_too_many_variables(capsys):
    for args in (("--expr", "z1001"), ("--nvars", "1001", "--expr", "z1")):
        code, _, err = run(
            capsys, "realize", "--field", "q", "--kind", "br", *args
        )
        assert code == 2
        assert "1001 variables is over the limit" in err


def test_verify_shipped_fixture(capsys):
    code, _, _ = run(
        capsys, "verify", "--pencil", str(FIXTURES / "sbr_z1z2.json"),
        "--expr", "z1*z2", "--kind", "sbr",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "--pencil", str(FIXTURES / "hsbr_z1z2_over_z3.json"),
        "--expr", "z1*z2/z3", "--kind", "hsbr",
    )
    assert code == 0


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--pencil", str(FIXTURES / "sbr_z1z2.json"),
        "--expr", "z1+z2", "--kind", "sbr",
    )
    assert code == 1
    assert json.loads(out)["mismatches"]


def test_usage_errors_exit_two(capsys):
    code, _, err = run(
        capsys, "realize", "--field", "gf:6", "--kind", "br", "--expr", "z1"
    )
    assert code == 2
    code, _, err = run(
        capsys, "verify", "--pencil", "/nonexistent.json",
        "--expr", "z1", "--kind", "br",
    )
    assert code == 2
    code, _, err = run(
        capsys, "realize", "--field", "q", "--kind", "br", "--expr", "z1 + ("
    )
    assert code == 2


@pytest.mark.parametrize(
    "field", ["gf:x", "gf:1000000000000000000000000000057"]
)
def test_bad_field_modulus_exits_two_fast(capsys, field):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "decide", "--field", field, "--kind", "sbr", "--expr", "z1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: --field: ") and err.count("\n") == 1
    assert "invalid literal" not in err


@pytest.mark.parametrize("command", ["realize", "decide"])
def test_negative_nvars_names_the_option(capsys, command):
    kind = "br" if command == "realize" else "sbr"
    code, out, err = run(capsys, command, "--field", "q", "--kind", kind,
                         "--expr", "1", "--nvars", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --nvars: -1 is negative\n"


@pytest.mark.parametrize("command", ["realize", "decide"])
def test_nvars_past_the_limit_names_the_option(capsys, command):
    kind = "br" if command == "realize" else "sbr"
    code, out, err = run(capsys, command, "--field", "q", "--kind", kind,
                         "--expr", "1", "--nvars", "5000")
    assert (code, out) == (2, "")
    assert err == (
        "error: --nvars: 5000 variables is over the limit of 1000\n"
    )


def test_decide_gives_no_variables_its_own_reason(capsys):
    reasons = []
    for nvars in ("0", "1"):
        code, out, _ = run(capsys, "decide", "--field", "q", "--kind", "sbr",
                           "--expr", "1", "--nvars", nvars)
        assert code == 0
        reasons.append(json.loads(out)["reason"])
    assert reasons == ["constant functions always realize",
                       "single-variable functions always realize"]


def test_hsbr_decide_and_realize_agree_with_no_variables(capsys):
    code, out, _ = run(capsys, "decide", "--field", "q", "--kind", "hsbr",
                       "--expr", "0")
    assert code == 1
    assert json.loads(out) == {"realizable": False,
                               "reason": "need at least one variable"}
    code, out, err = run(capsys, "realize", "--field", "q", "--kind", "hsbr",
                         "--expr", "0")
    assert code == 2 and out == ""
    assert err == "error: need at least one variable\n"


def test_absurd_exponent_exits_two_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br",
        "--expr", "z1^100000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exponent" in err


def test_nested_power_exits_two_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br",
        "--expr", "(z1^1000)^1000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exponent" in err


@pytest.mark.parametrize("text", [
    "(1+z1+z2+z3)^1000",
    "(1+z1+z2+z3)^15 * (1+z4+z5+z6)^15",
])
def test_term_limit_exits_two_fast(capsys, text):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br", "--expr", text,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "terms" in err


def test_matrix_term_limit_exits_two_fast(capsys):
    text = ("[[(1+z1+z2+z3)^15, 0], [0, 1]] * "
            "[[(1+z4+z5+z6)^15, 0], [0, 1]]")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br", "--expr", text,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "terms" in err
    code, out, _ = run(
        capsys, "realize", "--field", "q", "--kind", "br",
        "--expr", "[[z1, 0], [0, 1]] * [[z2, 0], [0, 1]]",
    )
    assert code == 0 and json.loads(out)["m"] >= 2


@pytest.mark.parametrize("kind", ["br", "sbr"])
@pytest.mark.parametrize("text", [
    "(1+z1+z2+z3)^15 * (1+z4+z5+z6)^15",
    "[[(1+z1+z2+z3)^15 * (1+z4+z5+z6)^15, 0], [0, 1]]",
], ids=["scalar", "matrix"])
def test_pencil_size_limit_exits_two_fast(capsys, kind, text):
    # 1600 terms of degree 30 over GF(3) pass the term limit, but their
    # construction would have about 70400 rows
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", "gf:3", "--kind", kind, "--expr", text,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than the limit 5000" in err


@pytest.mark.parametrize("kind", ["br", "sbr"])
def test_one_variable_diagonal_size_limit_exits_two(capsys, kind):
    # in one variable the terms of an entry share one chain, of deg - 1
    # rows: z1^6000 counts 5999 of them, past the limit before any is
    # written
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", kind,
        "--expr", "*".join(["z1^1000"] * 6),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than the limit" in err


@pytest.mark.parametrize("kind", ["br", "sbr"])
@pytest.mark.parametrize("field,factor", [
    ("q", "(1+z2+z3)^40"),
    ("gf2", "(1+z2^2+z3^2+z4^2)^31"),
])
@pytest.mark.parametrize("den", ["1", "(1+z1^2)"])
def test_high_degree_terms_exit_two_fast(capsys, kind, field, factor, den):
    # about 1000 terms of degree about 10000 (in characteristic 2 the
    # symmetric path also walks h = p q): the chains are walked one run of
    # a variable at a time and refused once their rows pass the limit, so
    # the time does not grow with the degrees
    text = "*".join(["z1^1000"] * 10) + f"*{factor}/{den}"
    start = time.perf_counter()
    code, out, err = run(
        capsys, "realize", "--field", field, "--kind", kind, "--expr", text,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than the limit 5000" in err


def test_oversized_pencil_file_exits_two(tmp_path, capsys):
    path = tmp_path / "pencil.json"
    path.write_text('{"field": "q", "n_vars": 0, "m": 5001, "split": 1, '
                    '"coeffs": [[]]}', encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "--pencil", str(path), "--expr", "1", "--kind", "br",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "m = 5001" in err


def _fresh(*argv):
    """``ratpencil argv`` in a new interpreter: (exit code, stdout, stderr)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "ratpencil.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_one_parser_per_process_matches_fresh_processes(tmp_path, capsys):
    expr = "(z1+z2)/z1"
    bad = ("realize", "--field", "q", "--kind", "xx", "--expr", expr)
    with pytest.raises(SystemExit) as exc:
        main(list(bad))
    assert exc.value.code == 2
    bad_err = capsys.readouterr().err
    runs = []
    for name in ("in-process", "fresh"):
        path = tmp_path / f"{name}.json"
        calls = [
            ("realize", "--field", "q", "--kind", "br", "--expr", expr,
             "--out", str(path)),
            ("verify", "--pencil", str(path), "--expr", expr, "--kind", "br"),
            ("realize", "--field", "q", "--kind", "sbr", "--expr", expr),
        ]
        if name == "fresh":
            outputs = [_fresh(*argv) for argv in calls]
        else:
            outputs = [run(capsys, *argv) for argv in calls]
        runs.append((outputs, path.read_bytes()))
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0][0]] == [0, 0, 0]
    code, out, err = _fresh(*bad)
    assert (code, out, err) == (2, "", bad_err)


def test_zero_denominator_literals_exit_two(tmp_path, capsys):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({
        "field": "q", "n_vars": 1, "m": 2, "split": 1,
        "coeffs": [[["0", "0"], ["0", "1"]], [["1/0", "0"], ["0", "0"]]],
    }), encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "--pencil", str(path), "--expr", "z1", "--kind", "br",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "1/0" in err
    code, out, err = run(
        capsys, "reduce", "--field", "q", "--ell", "1/0",
        "--matrix", str(FIXTURES / "ring_3x3_ell00.json"), "--r", "0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "1/0" in err


def test_deeply_nested_pencil_json_exits_two(tmp_path, capsys):
    path = tmp_path / "pencil.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, _, err = run(
        capsys, "verify", "--pencil", str(path), "--expr", "z1", "--kind", "br",
    )
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text", ["(" * 5000 + "z1" + ")" * 5000, "-" * 5000 + "z1"],
    ids=["parentheses", "unary-minus"],
)
def test_deeply_nested_expression_exits_two(capsys, text):
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br", f"--expr={text}",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize("text", ["z\u0663", "\u0663*z1", "\uff11*z1", "z\u00b2"])
def test_non_ascii_digits_exit_two(capsys, text):
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br", f"--expr={text}",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_long_flat_sum_realizes(capsys):
    # 5000 summands are one run of +, not 5000 levels of nesting
    text = " + ".join(f"{i}*z{1 + i % 3}^{1 + i % 4}" for i in range(5000))
    code, out, err = run(
        capsys, "realize", "--field", "q", "--kind", "br", f"--expr={text}",
    )
    assert code == 0 and json.loads(out)["m"] == 10
    assert err == "realized kind=br m=10 split=1 classes=LP\n"


def test_deeply_nested_matrix_json_exits_two(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    code, out, err = run(
        capsys, "reduce", "--field", "gf2", "--ell", "0,0",
        "--matrix", str(path), "--r", "0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify", "{}"),
        ("verify", "[1]"),
        ("reduce", '{"split": 1}'),
        ("reduce", "[1]"),
        ("verify", '{"field": 2, "n_vars": 0, "m": 1, "split": 1, '
                   '"coeffs": [[["1"]]]}'),
        ("verify", '{"field": "q", "n_vars": 0, "m": 1, "split": 1, '
                   '"coeffs": [[[1]]]}'),
        ("verify", '{"field": "q", "n_vars": -1, "m": 1, "split": 1, '
                   '"coeffs": []}'),
        ("reduce", '{"entries": [[1]]}'),
        ("reduce", '{"entries": [["0"]], "split": [1]}'),
    ],
)
def test_malformed_json_exits_two(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    if command == "verify":
        argv = ("verify", "--pencil", str(path), "--expr", "z1",
                "--kind", "br")
    else:
        argv = ("reduce", "--field", "gf2", "--ell", "0,0",
                "--matrix", str(path), "--r", "0")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_reduce_trace_golden(capsys):
    code, out, _ = run(
        capsys, "reduce", "--field", "gf2", "--ell", "0,0",
        "--matrix", str(FIXTURES / "ring_4x4_ell00.json"),
        "--r", "0", "--trace",
    )
    assert code == 0
    assert out.endswith("reduced: 0\n")
    assert "step add i=3 j=2 alpha=1" in out
    assert "step add i=3 j=4 alpha=1" in out
    assert "[0, z1, 0, 1]" in out


def test_reduce_nine_by_nine_fixture(capsys):
    code, out, _ = run(
        capsys, "reduce", "--field", "gf2", "--ell", "1,0",
        "--matrix", str(FIXTURES / "ring_9x9_ell10.json"), "--r", "z1",
    )
    assert code == 0
    assert out == "reduced: z1\n"


def test_reduce_rejects_wrong_r(capsys):
    code, _, err = run(
        capsys, "reduce", "--field", "gf2", "--ell", "1,1",
        "--matrix", str(FIXTURES / "ring_3x3_ell11.json"), "--r", "z2",
    )
    assert code == 2
    assert "not a realizer" in err


def test_reduce_rejects_matrix_literal_cells(tmp_path, capsys):
    # the (1,1) entry of a matrix literal was once taken silently
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"split": 1, "entries": [
        ["[[z1, 1],[1, 0]]", "1"], ["1", "z2"],
    ]}), encoding="utf-8")
    code, out, err = run(
        capsys, "reduce", "--field", "gf2", "--ell", "1,1",
        "--matrix", str(path), "--r", "z1+1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2x2 matrix" in err


def test_reduce_rejects_matrix_literal_r(capsys):
    code, out, err = run(
        capsys, "reduce", "--field", "gf2", "--ell", "1,1",
        "--matrix", str(FIXTURES / "ring_3x3_ell11.json"),
        "--r", "[[z1+1, 5],[1,1]]",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2x2 matrix" in err
    # a 1x1 literal is a scalar
    code, out, _ = run(
        capsys, "reduce", "--field", "gf2", "--ell", "1,1",
        "--matrix", str(FIXTURES / "ring_3x3_ell11.json"), "--r", "[[z1]]",
    )
    assert (code, out) == (0, "reduced: z1\n")


def test_reduce_decides_realizer_once(monkeypatch, capsys):
    import ratpencil.cli as cli
    import ratpencil.quotring as quotring

    calls = []
    original = quotring.is_ring_realizer

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (quotring, cli):
        monkeypatch.setattr(module, "is_ring_realizer", counting, raising=False)
    code, out, _ = run(
        capsys, "reduce", "--field", "gf2", "--ell", "0,0",
        "--matrix", str(FIXTURES / "ring_4x4_ell00.json"), "--r", "0",
    )
    assert code == 0 and out == "reduced: 0\n"
    assert len(calls) == 1


def test_expression_values_may_start_with_minus(tmp_path, capsys):
    # `--expr -z1` once stopped at argparse ("expected one argument")
    realize = ("realize", "--field", "q", "--kind", "br")
    joined, separate = tmp_path / "joined.json", tmp_path / "separate.json"
    assert run(capsys, *realize, "--expr=-z1", "--out", str(joined))[0] == 0
    assert run(capsys, *realize, "--expr", "-z1", "--out", str(separate))[0] == 0
    assert separate.read_bytes() == joined.read_bytes()

    verify = ("verify", "--pencil", str(joined), "--kind", "br")
    assert run(capsys, *verify, "--expr", "-z1") == run(
        capsys, *verify, "--expr=-z1"
    )
    decide = ("decide", "--field", "gf2", "--kind", "sbr")
    code, out, _ = run(capsys, *decide, "--expr", "-z1*z2")
    assert code == 1
    assert (code, out) == run(capsys, *decide, "--expr=-z1*z2")[:2]

    reduce_cmd = ("reduce", "--field", "gf2", "--ell", "1,0",
                  "--matrix", str(FIXTURES / "ring_9x9_ell10.json"))
    code, out, _ = run(capsys, *reduce_cmd, "--r", "-z1")
    assert (code, out) == (0, "reduced: z1\n")
    assert run(capsys, *reduce_cmd, "--r=-z1")[:2] == (code, out)


def test_trailing_expression_option_without_value_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--field", "q", "--kind", "br", "--expr"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def _dense_ring_file(path, m):
    # diagonal z1+z2, off-diagonal entries 0/1 from a seeded generator: a
    # dense symmetric matrix whose involution sum meets about 2^m index sets
    rng = random.Random(1)
    entries = [["z1+z2" if i == j else None for j in range(m)]
               for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            entries[i][j] = entries[j][i] = str(rng.randrange(2))
    path.write_text(json.dumps({"split": 1, "entries": entries}))


def _diagonal_ring_file(path, m):
    # diagonal entries 1 + about half of z1..zm from a seeded generator: a
    # product of k of them can hold up to 2^m monomials
    rng = random.Random(1)
    entries = [["0"] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = "+".join(
            ["1"] + [f"z{v + 1}" for v in range(m) if rng.random() < 0.5]
        )
    path.write_text(json.dumps({"split": 1, "entries": entries}))


@pytest.mark.parametrize("write,m,ell,what", [
    pytest.param(_dense_ring_file, 40, "1,1", "index sets",
                 id="40-index sets"),
    pytest.param(_dense_ring_file, 65, "1,1", "m = 65", id="65-m = 65"),
    pytest.param(_diagonal_ring_file, 16, ",".join(["1"] * 16),
                 "monomial pairs", id="16-monomial pairs"),
])
def test_reduce_limits_exit_two_fast(tmp_path, capsys, write, m, ell, what):
    # the 40x40 file once ran for more than 30 s, the diagonal 16x16 one
    # for more than 20 s
    matrix = tmp_path / "matrix.json"
    write(matrix, m)
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--field", "gf2", "--ell", ell,
                         "--matrix", str(matrix), "--r", "z1")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and what in err


def test_reduce_in_sixty_four_variables(tmp_path, capsys):
    # a representation sized by 2^n (dense tables over all monomials) could
    # not finish here; the monomial sets stay as small as the entries
    ell = [1, 0] * 32
    entries = [
        ["z1+z64", "1", "0", "0"],
        ["1", "z63", "1", "0"],
        ["0", "1", "z2+z33", "1"],
        ["0", "0", "1", "z40+z64+1"],
    ]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"split": 1, "entries": entries}))
    argv = ("reduce", "--field", "gf2", "--ell", ",".join(map(str, ell)),
            "--matrix", str(matrix))
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv, "--r", "1+z40+z33+z2+z1")
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (0, "reduced: z1 + z2 + z33 + z40 + 1\n")
    assert run(capsys, *argv, "--r", "z1")[0] == 2


def test_cli_determinism(tmp_path, capsys):
    args = ("realize", "--field", "q", "--kind", "br", "--expr", "(z1+z2)/z1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args = (
        "decide", "--field", "gf2", "--kind", "sbr", "--expr", "z1*z2+z1",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


_GOOD_LITERALS = st.sampled_from(["0", "0", "0", "1", "-1", "2", "-3/5"])
_BAD_LITERALS = st.sampled_from(
    ["1/0", "-3/0", "0/0", "1/2", "-0", "0/5", " 1 ", "x", "", "1e999999999",
     "1.5", "9" * 5000]
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.floats(),
              st.text(max_size=4), _BAD_LITERALS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def _pencil_documents(draw):
    """Objects with the five pencil keys: a well-formed pencil in which at
    most one key, or one cell, is replaced by any JSON value (random types,
    nesting and sizes) or by a bad literal such as ``"1/0"``."""
    corrupt = draw(st.sampled_from(
        [None, None, "cell", "cell", "field", "n_vars", "m", "split", "coeffs"]
    ))
    n_vars = draw(st.integers(0, 2))
    m = draw(st.integers(2, 4))
    doc = {
        "field": draw(st.sampled_from(["q", "gf2", "gf:3", " Q "])),
        "n_vars": n_vars,
        "m": m,
        "split": draw(st.integers(1, m - 1)),
        "coeffs": draw(st.lists(
            st.lists(st.lists(_GOOD_LITERALS, min_size=m, max_size=m),
                     min_size=m, max_size=m),
            min_size=n_vars + 1, max_size=n_vars + 1,
        )),
    }
    if corrupt == "cell":
        row = doc["coeffs"][draw(st.integers(0, n_vars))][
            draw(st.integers(0, m - 1))]
        row[draw(st.integers(0, m - 1))] = draw(
            st.one_of(_BAD_LITERALS, _JSON)
        )
    elif corrupt is not None:
        doc[corrupt] = draw(st.one_of(
            _JSON, _BAD_LITERALS, st.sampled_from(["gf:4", "gf:x"])
        ))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(
    _pencil_documents(),
    st.sampled_from(["z1", "0", "1/z1", "z1*z2", "[[z1, 0], [0, 1]]"]),
    st.sampled_from(["br", "sbr", "hbr", "hsbr"]),
)
def test_verify_survives_generated_pencil_files(text, expr, kind):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pencil.json"
        path.write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["verify", "--pencil", str(path), "--expr", expr,
                         "--kind", kind])
    assert code in (0, 1, 2)
    if code == 2:
        assert stderr.getvalue().startswith("error: ")


_RING_CELLS = st.sampled_from(["0", "1", "z1", "z2", "z1+1", "z1+z2", "-z1"])
_BAD_CELLS = st.sampled_from(
    ["[[z1, 1],[1, 0]]", "[[z1]]", "[[z1, 1]]", "z1/z2", "1/0", "1/(z1+z1)",
     "z3", "z0", "z1^2", "z1*z2", "(z1", "", "x", "2", "z1^99999999",
     "9" * 5000, "(" * 3000 + "z1" + ")" * 3000]
)
_BAD_ELLS = st.one_of(
    st.sampled_from(["1", "", "0,1,1", "2,0", "1/0,1", ",", "x,1", "-1,1"]),
    st.text(max_size=5),
)
# `gf:` with digits, letters, signs, empty and huge values
_FIELDS = st.one_of(
    st.sampled_from(["gf:x", "gf:", "gf:-2", "gf:+2", "GF:2", " gf:2 ",
                     "gf:02", "gf:0", "gf:1", "gf:4", "gf2x", "",
                     "gf:18446744073709551557", "gf:18446744073709551629",
                     "gf:1000000000000000000000000000057",
                     "gf:" + "9" * 5000]),
    st.text(alphabet="0123456789+-x_ ", max_size=30).map("gf:".__add__),
    st.integers(0, 10**40).map("gf:{}".format),
)
# (matrix file, ell, r) of realizers, so that some inputs reduce
_RING_FIXTURES = [("ring_3x3_ell00.json", "0,0", "0"),
                  ("ring_3x3_ell11.json", "1,1", "z1"),
                  ("ring_4x4_ell00.json", "0,0", "0"),
                  ("ring_9x9_ell10.json", "1,0", "z1")]


@st.composite
def _reduce_inputs(draw):
    """``(matrix text, field, ell, r)`` for ``ratpencil reduce``.

    The matrix is a ring fixture or a symmetric grid of ring cells.  At
    most one of its cells or keys is replaced by a bad literal, a matrix
    literal or any JSON value, a row is made ragged, ``split`` is drawn out
    of range, or the whole document is replaced, deeply nested included.
    The field, ell and r are each replaced by a bad one now and then."""
    fixture = draw(st.sampled_from(_RING_FIXTURES + [None] * 2))
    if fixture is None:
        m = draw(st.integers(2, 4))
        cells = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                cells[i][j] = cells[j][i] = draw(_RING_CELLS)
        doc = {"split": draw(st.integers(1, m - 1)), "entries": cells}
        ell = draw(st.sampled_from(["0,0", "1,1", "1,0", "0,1"]))
        r = draw(_RING_CELLS)
    else:
        name, ell, r = fixture
        doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        cells, m = doc["entries"], len(doc["entries"])
    corrupt = draw(st.sampled_from(
        [None, None, None, "cell", "cell", "ragged", "split", "entries",
         "document", "deep"]
    ))
    if corrupt == "cell":
        cells[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] = draw(
            st.one_of(_BAD_CELLS, _JSON)
        )
    elif corrupt == "ragged":
        row = cells[draw(st.integers(0, m - 1))]
        row.append("0") if draw(st.booleans()) else row.pop()
    elif corrupt == "split":
        doc["split"] = draw(st.one_of(st.integers(-2, m + 2), _JSON))
    elif corrupt == "entries":
        doc["entries"] = draw(_JSON)
    elif corrupt == "document":
        doc = draw(_JSON)
    text = json.dumps(doc)
    if corrupt == "deep":
        depth = draw(st.sampled_from([50, 1500, 5000]))
        text = '{"split": 1, "entries": ' + "[" * depth + "]" * depth + "}"
    field = draw(st.one_of(st.sampled_from(["gf2"] * 6 + ["q", "gf:3"]),
                           _FIELDS))
    if draw(st.integers(0, 5)) == 0:
        ell = draw(_BAD_ELLS)
    if draw(st.integers(0, 5)) == 0:
        r = draw(st.one_of(_BAD_CELLS, st.text(max_size=6)))
    return text, field, ell, r


@settings(max_examples=200, deadline=None)
@given(_reduce_inputs(), st.booleans())
def test_reduce_survives_generated_inputs(inputs, trace):
    text, field, ell, r = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        path.write_text(text, encoding="utf-8")
        argv = ["reduce", "--field", field, f"--ell={ell}",
                "--matrix", str(path), "--r", r] + ["--trace"] * trace
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2)  # reduce has no verified-failure outcome
    if code == 0:
        assert stdout.getvalue().splitlines()[-1].startswith("reduced: ")
    else:
        assert "Traceback" not in stderr.getvalue()
        assert stderr.getvalue().startswith("error: ")
