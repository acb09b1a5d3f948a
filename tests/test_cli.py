"""Command-line interface: exit codes, outputs, determinism."""

import contextlib
import io
import json
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
    assert json.loads(out)["verdict"] == "not_realizable"


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
