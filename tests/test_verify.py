"""Verification reports and determinant cross-validation."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ratpencil.combinators import (
    op_add,
    op_inverse,
    op_kron_identity,
    op_product,
    op_sandwich,
    op_scale,
)
from ratpencil import elimination, pencil as pencil_module
from ratpencil.errors import DimensionMismatch, SingularBlock
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field, prime_field, rationals
from ratpencil.matrices import RationalMatrix, mat_det, mat_inv
from ratpencil.pencil import LinearPencil, RealizationKind
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.realize import realize_br, realize_hbr, realize_sbr
from ratpencil.verify import check_realization, cross_validate_det

from ratpencil_testkit import (
    random_degree_one_ratfun,
    random_matrix,
    random_symmetric_matrix,
)

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


def _constant_pencil(d, n, values):
    """[[B, 0], [0, 1]] for a constant k x k matrix B."""
    k = len(values)
    c0 = {(i, j): v for i, row in enumerate(values) for j, v in enumerate(row)}
    c0[(k, k)] = d.one
    return LinearPencil(d, n, k + 1, k, [c0] + [{} for _ in range(n)])


def _monomial_pencil(d, n, exps):
    """z^exps as a product chain of the atoms [[z_v, 0], [0, 1]]."""
    pencil = None
    for v, e in enumerate(exps):
        coeffs = [{(1, 1): d.one}] + [{(0, 0): d.one} if t == v else {}
                                      for t in range(n)]
        for _ in range(e):
            atom = LinearPencil(d, n, 2, 1, coeffs)
            pencil = atom if pencil is None else op_product(
                pencil, None, atom, check=False)
    return pencil or _constant_pencil(d, n, [[d.one]])


def _polynomial_pencil(p):
    return op_add(*(
        op_scale(_monomial_pencil(p.descriptor, p.n_vars, exps), value,
                 check=False)
        for exps, value in p.sorted_terms()
    ), check=False)


def _entry_pencil(f):
    """p/q as the pencil of p, times that of q inverted when q is not 1."""
    p = _polynomial_pencil(f.num)
    if f.den == Polynomial.one(f.descriptor, f.n_vars):
        return p
    inv_q = op_inverse(_polynomial_pencil(f.den), check=False)
    return op_product(inv_q, None, p, check=False)


def _entrywise_pencil(target):
    """F = sum_ij e_i f_ij e_j^T: the :func:`_entry_pencil` of every
    nonzero entry, placed by a sandwich with basis vectors and summed (the
    zero pencil for F = 0)."""
    d, n, k = target.descriptor, target.n_vars, target.rows
    unit = [[d.one if t == i else d.zero for t in range(k)] for i in range(k)]
    parts = [
        op_sandwich([[x] for x in unit[i]], _entry_pencil(entry), [unit[j]],
                    check=False)
        for i, row in enumerate(target.entries)
        for j, entry in enumerate(row)
        if not entry.is_zero()
    ]
    if not parts:
        return _constant_pencil(d, n, [[d.zero] * k for _ in range(k)])
    return op_add(*parts, check=False)


def _two_by_two_br():
    # every entry from atom product chains, placed by a sandwich and
    # summed; realize_br writes m = 8, and the checks below need a larger
    # pencil
    target = parse_expression(
        "[[z1+z2^3, z1*z2/(1+z1)],[z2, z3^2/(z1+z2)]]", Q, 3
    )
    pencil = _entrywise_pencil(target)
    assert pencil.m > 16
    return pencil, target


def _patch_schur_eliminate(monkeypatch, replacement):
    """Put ``replacement`` where the library defines ``schur_eliminate``
    and where ``pencil`` imports it."""
    for module in (elimination, pencil_module):
        monkeypatch.setattr(module, "schur_eliminate", replacement)


def test_verification_runs_the_schur_elimination_once(monkeypatch):
    # The independent side of the determinant identity must not share the
    # sparse elimination it checks, at any size.
    calls = []
    real = elimination.schur_eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    _patch_schur_eliminate(monkeypatch, counted)
    small = parse_expression("z1/(1+z2) + z2^2", Q, 2)
    # p/q as p's pencil times q's inverted, with their constant pivots
    small_pencil = _entry_pencil(small.entries[0][0])
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


def test_verification_builds_the_sparse_rows_once(monkeypatch):
    calls = []
    sparse_rows = LinearPencil.sparse_rows

    def counted(self):
        calls.append(self)
        return sparse_rows(self)

    monkeypatch.setattr(LinearPencil, "sparse_rows", counted)
    pencil, target = _two_by_two_br()
    assert check_realization(pencil, target, RealizationKind.BR).passed
    assert len(calls) == 1
    calls.clear()
    assert cross_validate_det(pencil)
    assert len(calls) == 1


# Schur outputs of pencils that exercise the pivot rule, recorded as the
# SHA-256 of ``test_schur_pinned.schur_text``.  The table was recorded with
# the pivot chosen by a scan over every candidate at every step, and the
# lazy heap gave the same outputs; re-record it with
# ``PYTHONPATH=src python tests/test_verify.py > tests/schur_pivot_digests.json``
# only for a change that alters the pivot rule on purpose.
PIVOT_TABLE = Path(__file__).resolve().parent / "schur_pivot_digests.json"


def _pivot_pencils():
    """Name to pencil: fixed builder outputs, ten random BR pencils, and
    ``op_inverse``/``op_product`` pencils whose A22 pivots include a
    monomial and a non-monomial polynomial, so that the monomial-content
    strip of the elimination runs."""
    rng = random.Random(20240817)
    three = parse_expression(
        "[[z1+z2^3, z1*z2/(1+z1), z3],[z2, z3^2/(z1+z2), 1],"
        "[z1*z2*z3, 0, 1/(1+z3)]]", Q, 3,
    )
    pencils = {
        "golden sbr": _golden(),
        "golden hsbr": _golden_h(),
        "2x2 entrywise": _two_by_two_br()[0],
        "3x3 br": realize_br(three).pencil,
        "3x3 sbr": realize_sbr(three + three.transpose()).pencil,
        "scalar br": realize_br(parse_expression(
            "(z1^2+z2)/(1+z1^2) + z1/(z1+z2)", Q)).pencil,
    }
    for trial in range(10):
        d = [Q, prime_field(3)][trial % 2]
        target = random_matrix(rng, d, rng.randint(1, 3), rng.choice([1, 2]),
                               max_deg=2, max_terms=2)
        pencils[f"random {trial} {d.name()}"] = realize_br(target).pencil

    def entry(text):
        return _entry_pencil(parse_expression(text, Q, 2).entries[0][0])

    pencils["product, monomial pivots"] = op_product(
        entry("z2/z1"), None, entry("1/(z1*z2)"), check=False)
    pencils["inverse, monomial pivots"] = op_inverse(
        entry("z1/(z1*z2)"), check=False)
    pencils["product, polynomial pivot"] = op_product(
        entry("z1/z2"), None, entry("1/(z1+z1*z2)"), check=False)
    return pencils


def pivot_digests() -> dict:
    from test_schur_pinned import schur_text

    return {name: hashlib.sha256(schur_text(p).encode()).hexdigest()
            for name, p in _pivot_pencils().items()}


def test_heap_pivots_match_a_full_scan():
    expected = json.loads(PIVOT_TABLE.read_text(encoding="utf-8"))
    assert pivot_digests() == expected


def _cells(rows):
    """Every cell of sparse rows, in order: its place, the entry object and
    the entry's terms."""
    return [(i, j, id(p), list(p.packed.items()), p.denom)
            for i, row in rows.items() for j, p in row.items()]


def test_eliminations_leave_the_shared_rows_unchanged(monkeypatch):
    pencils = _pivot_pencils()
    cases = [_two_by_two_br(), (pencils["product, polynomial pivot"], None),
             (pencils["3x3 sbr"], None)]
    for pencil, target in cases:
        rows = pencil.sparse_rows()
        before = _cells(rows)
        d, n, m = pencil.descriptor, pencil.n_vars, pencil.m
        elimination.schur_eliminate(rows, m, pencil.split, d, n)
        elimination.sparse_determinant(rows, m, d, n)
        assert _cells(rows) == before
        if target is None:
            target = pencil.schur_complement()
        monkeypatch.setattr(LinearPencil, "sparse_rows", lambda self: rows)
        assert check_realization(pencil, target, RealizationKind.BR).passed
        monkeypatch.undo()
        assert _cells(rows) == before


def test_corrupted_schur_determinant_fails_the_identity(monkeypatch):
    pencil, target = _two_by_two_br()
    assert check_realization(pencil, target, RealizationKind.BR).passed
    real = elimination.schur_eliminate

    def negated(*args):
        schur, det_block = real(*args)
        return schur, -det_block

    _patch_schur_eliminate(monkeypatch, negated)
    report = check_realization(pencil, target, RealizationKind.BR)
    assert report.schur_ok and report.structure_ok
    assert not report.det_ok and not report.passed
    assert not cross_validate_det(pencil)


def _mixed_pivot_rows(rng, d, n_vars, m):
    """A random sparse m x m polynomial matrix whose entries are constants
    other than +-1 (3 and 1/2 over Q, 5 over GF(7)), +-1, and polynomials,
    some of them monomials; the diagonal is mostly filled."""
    z1, z2 = (Polynomial.variable(d, n_vars, i) for i in range(2))
    one = Polynomial.one(d, n_vars)
    if d.characteristic == 0:
        constants = [Fraction(1, 2), 3, -1, 1, Fraction(-2, 3)]
    elif d.characteristic == 7:
        constants = [5, 3, 6, 1]
    else:
        constants = [1]
    values = [Polynomial.constant(d, n_vars, c) for c in constants]
    values += [z1, z2 + one, z1 * z2 + one.scale(2), z1.scale(3) + z2,
               z1 * z1, (z1 + one).scale(5)]
    values = [v for v in values if v.packed]
    rows = {}
    for i in range(m):
        for j in range(m):
            if rng.random() < (0.8 if i == j else 0.35):
                rows.setdefault(i, {})[j] = rng.choice(values)
    return rows


@pytest.mark.parametrize("name", ["q", "gf2", "gf:7"])
def test_schur_elimination_with_constant_and_polynomial_pivots(name):
    """``schur_eliminate`` against A11 - A12 A22^-1 A21 and det A22,
    computed densely, on matrices whose pivots mix constants with
    polynomials and whose rows gain denominators."""
    d = parse_field(name)
    rng = random.Random(20261021)
    n_vars, checked = 2, 0
    for _ in range(40):
        m = rng.randint(2, 5)
        split = rng.randint(1, min(2, m - 1))
        rows = _mixed_pivot_rows(rng, d, n_vars, m)
        dense = RationalMatrix([
            [RationalFunction(rows[i][j]) if j in rows.get(i, {})
             else RationalFunction.zero(d, n_vars) for j in range(m)]
            for i in range(m)
        ])

        def block(r, c):
            return RationalMatrix([[dense.entries[i][j] for j in c]
                                   for i in r])

        top, bottom = range(split), range(split, m)
        a22 = block(bottom, bottom)
        det22 = mat_det(a22)
        if det22.is_zero():
            with pytest.raises(SingularBlock):
                elimination.schur_eliminate(rows, m, split, d, n_vars)
            continue
        schur, det_block = elimination.schur_eliminate(rows, m, split, d,
                                                       n_vars)
        expected = (block(top, top)
                    - block(top, bottom) * mat_inv(a22) * block(bottom, top))
        assert RationalMatrix(schur) == expected
        assert det_block == det22
        checked += 1
    assert checked >= 25


def _shared_denominator_pencil(f):
    """BR of F = (1/q) P for a k x k F with k >= 2 and some denominator
    other than 1: q is the product of the distinct denominators other than
    1 and P = sum_alpha z^alpha C_alpha, each monomial built once through
    a Kronecker step and sandwiched by I and C_alpha; the pencil is the
    inverted pencil of q repeated k times, times that of P."""
    d, n, k = f.descriptor, f.n_vars, f.rows
    one = Polynomial.one(d, n)
    dens = []
    for row in f.entries:
        for entry in row:
            if entry.den != one and entry.den not in dens:
                dens.append(entry.den)
    q = one
    for den in dens:
        q = q * den
    support = {}
    for i, row in enumerate(f.entries):
        for j, entry in enumerate(row):
            cleared = entry.num
            for den in dens:
                if den != entry.den:
                    cleared = cleared * den
            for exps, value in cleared.sorted_terms():
                grid = support.setdefault(exps, [[d.zero] * k for _ in range(k)])
                grid[i][j] = value
    identity = [[d.one if i == j else d.zero for j in range(k)]
                for i in range(k)]
    parts = [
        op_sandwich(identity, op_kron_identity(
            _monomial_pencil(d, n, exps), k, check=False), grid, check=False)
        if any(exps) else _constant_pencil(d, n, grid)
        for exps, grid in support.items()
    ]
    inv_q = op_inverse(_polynomial_pencil(q), check=False)
    return op_product(op_kron_identity(inv_q, k, check=False), None,
                      op_add(*parts, check=False), check=False)


def test_three_by_three_br_with_shared_denominators_verifies():
    target = parse_expression(
        "[[z1+z2^3, z1*z2/(1+z1), z3],[z2, z3^2/(z1+z2), 1],"
        "[z1*z2*z3, 0, 1/(1+z3)]]",
        Q, 3,
    )
    # The shared-denominator construction serves as a large-pencil
    # verification stress; realize_br builds each entry over its own
    # denominator.
    shared = _shared_denominator_pencil(target)
    assert shared.m == 792
    assert check_realization(shared, target, RealizationKind.BR).passed
    result = realize_br(target)
    assert result.pencil.m <= 36
    assert check_realization(result.pencil, target, result.kind).passed


# see test_verification_products_stay_within_the_recorded_count
PRODUCTS_RECORDED = 469  # 792 before constant pivots stayed scalars


def _product_cases():
    """(pencil, target, kind): the two shipped pencils of the acceptance
    criteria, then builder outputs on seeded BR, SBR and HBR targets over
    Q, GF(2) and GF(5)."""
    target = RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1))
    target_h = RationalMatrix.scalar(_z(Q, 3, 0) * _z(Q, 3, 1) / _z(Q, 3, 2))
    cases = [(_golden(), target, RealizationKind.SBR),
             (_golden_h(), target_h, RealizationKind.HSBR)]
    rng = random.Random(31)
    for trial in range(12):
        d = [Q, prime_field(2), prime_field(5)][trial % 3]
        n, k = rng.randint(1, 3), rng.choice([1, 2])
        builds = [
            realize_br(random_matrix(rng, d, n, k)),
            realize_hbr(RationalMatrix.scalar(
                random_degree_one_ratfun(rng, d, n + 1))),
        ]
        if d.characteristic != 2 or n == 1:  # one variable always passes
            builds.append(realize_sbr(random_symmetric_matrix(rng, d, n, k)))
        cases += [(r.pencil, r.target, r.kind) for r in builds]
    return cases


def check_products() -> int:
    """The Polynomial products that check_realization makes on
    _product_cases(); each check must pass."""
    cases = _product_cases()
    real, count = Polynomial.__mul__, [0]

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    Polynomial.__mul__ = counting
    try:
        for pencil, target, kind in cases:
            assert check_realization(pencil, target, kind).passed
    finally:
        Polynomial.__mul__ = real
    return count[0]


def test_verification_products_stay_within_the_recorded_count():
    """check_realization makes at most PRODUCTS_RECORDED Polynomial
    products on _product_cases(), all checks together.

    The count is exact, so host speed never moves it.  A change that lowers
    it lowers PRODUCTS_RECORDED with it.  A change that needs more products
    on purpose, or changes the cases or the builders that make them,
    re-records it with
    ``PYTHONPATH=src:tests python -c "import test_verify as t; print(t.check_products())"``
    and says why in CHANGES.md.
    """
    assert check_products() <= PRODUCTS_RECORDED


if __name__ == "__main__":
    print(json.dumps(pivot_digests(), indent=1, sort_keys=True))
