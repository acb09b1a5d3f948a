"""Command-line interface: exit codes, outputs, determinism."""

import json
from pathlib import Path

import pytest

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
