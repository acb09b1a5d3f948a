"""Verification reports and determinant cross-validation."""

import json
from pathlib import Path

import pytest

from ratpencil.elimination import _State
from ratpencil.errors import DimensionMismatch
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix
from ratpencil.pencil import LinearPencil, RealizationKind
from ratpencil.poly import RationalFunction
from ratpencil.realize import (
    _br_shared,
    _shared_denominator,
    realize_br,
    realize_sbr,
)
from ratpencil.verify import check_realization, cross_validate_det

from conftest import random_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Q = rationals()


def _golden():
    return LinearPencil.from_json((FIXTURES / "sbr_z1z2.json").read_text())


def _golden_h():
    return LinearPencil.from_json(
        (FIXTURES / "hsbr_z1z2_over_z3.json").read_text()
    )


def _z(d, n, i):
    return RationalFunction.variable(d, n, i)


def test_golden_pass():
    target = RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1))
    report = check_realization(_golden(), target, RealizationKind.SBR)
    assert report.passed
    assert report.schur_ok and report.structure_ok and report.det_ok

    target_h = RationalMatrix.scalar(_z(Q, 3, 0) * _z(Q, 3, 1) / _z(Q, 3, 2))
    report_h = check_realization(_golden_h(), target_h, RealizationKind.HSBR)
    assert report_h.passed


def test_wrong_target_fails_with_mismatch():
    wrong = RationalMatrix.scalar(_z(Q, 2, 0) + _z(Q, 2, 1))
    report = check_realization(_golden(), wrong, RealizationKind.BR)
    assert not report.passed
    assert not report.schur_ok
    assert report.mismatches == [
        {"row": 0, "col": 0, "expected": "z1 + z2", "got": "z1*z2"}
    ]


def test_wrong_kind_fails_structure():
    target = RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1))
    report = check_realization(_golden(), target, RealizationKind.HSBR)
    assert report.schur_ok and not report.structure_ok and not report.passed


def test_report_json_shape():
    target = RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1))
    report = check_realization(_golden(), target, RealizationKind.SBR)
    doc = json.loads(report.to_json())
    assert set(doc) == {"schur_ok", "structure_ok", "det_ok", "mismatches"}


def test_dimension_guard():
    target = RationalMatrix.identity(Q, 2, 2)
    with pytest.raises(DimensionMismatch):
        check_realization(_golden(), target, RealizationKind.BR)


def test_cross_validate_golden_and_random(rng):
    assert cross_validate_det(_golden())
    assert cross_validate_det(_golden_h())
    for trial in range(20):
        d = [Q, prime_field(2), prime_field(3)][trial % 3]
        n = rng.randint(1, 3)
        target = random_matrix(rng, d, n, rng.choice([1, 2]), max_deg=2,
                               max_terms=2)
        assert cross_validate_det(realize_br(target).pencil)


def test_builders_always_verify(rng):
    for trial in range(15):
        d = [Q, prime_field(3)][trial % 2]
        n = rng.randint(1, 3)
        f = random_matrix(rng, d, n, 1)
        result = realize_br(f)
        assert check_realization(result.pencil, f, result.kind).passed


def _two_by_two_br():
    target = parse_expression(
        "[[z1+z2^3, z1*z2/(1+z1)],[z2, z3^2/(z1+z2)]]", Q, 3
    )
    result = realize_br(target)
    assert result.pencil.m > 16
    return result.pencil, target


def test_verification_runs_the_schur_elimination_once(monkeypatch):
    # The independent side of the determinant identity must not share the
    # sparse elimination it checks, at any size.
    calls = []
    eliminate = _State.eliminate

    def counted(self, *args):
        calls.append(self)
        return eliminate(self, *args)

    monkeypatch.setattr(_State, "eliminate", counted)
    small = parse_expression("z1/(1+z2) + z2^2", Q, 2)
    small_pencil = realize_br(small).pencil
    assert 6 <= small_pencil.m <= 16
    cases = [
        (_golden(), RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1))),
        (small_pencil, small),
        _two_by_two_br(),
    ]
    for pencil, target in cases:
        calls.clear()
        assert check_realization(pencil, target, RealizationKind.BR).passed
        assert len(calls) == 1
        calls.clear()
        assert not pencil.det().is_zero()
        assert not calls


def test_corrupted_schur_determinant_fails_the_identity(monkeypatch):
    pencil, target = _two_by_two_br()
    assert check_realization(pencil, target, RealizationKind.BR).passed
    det_fraction = _State.det_fraction
    monkeypatch.setattr(
        _State, "det_fraction", lambda self: -det_fraction(self)
    )
    report = check_realization(pencil, target, RealizationKind.BR)
    assert report.schur_ok and report.structure_ok
    assert not report.det_ok and not report.passed
    assert not cross_validate_det(pencil)


def test_three_by_three_br_with_shared_denominators_verifies():
    target = parse_expression(
        "[[z1+z2^3, z1*z2/(1+z1), z3],[z2, z3^2/(z1+z2), 1],"
        "[z1*z2*z3, 0, 1/(1+z3)]]",
        Q, 3,
    )
    # The shared-denominator construction still serves as a large-pencil
    # verification stress; realize_br takes the entry-wise one here.
    shared = _br_shared(*_shared_denominator(target))
    assert shared.m == 792
    assert check_realization(shared, target, RealizationKind.BR).passed
    result = realize_br(target)
    assert result.pencil.m <= 36
    assert check_realization(result.pencil, target, result.kind).passed
