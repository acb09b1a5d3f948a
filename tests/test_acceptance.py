"""Acceptance suite: the eight exit criteria, one test and one printed
pass/fail line each.  Every check is exact (zero tolerance); run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from ratpencil.cli import main as cli_main
from ratpencil.errors import NotRealizableChar2
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix, mat_det, mat_inv
from ratpencil.pencil import LinearPencil, RealizationKind
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.quotring import QuotContext, QuotMatrix, add_transform, clean, \
    det_involution_sum, is_ring_realizer, isolate, lift, reduce_realizer
from ratpencil.realize import (
    decide_sbr_scalar_char2,
    realize_br,
    realize_sbr,
)
from ratpencil.combinators import (
    op_add,
    op_homogenize,
    op_inverse,
    op_kron_identity,
    op_product,
    op_sandwich,
    op_scale,
    op_symmetrize,
)
from ratpencil.verify import check_realization

from ratpencil_testkit import (
    random_matrix,
    random_poly,
    random_ratfun,
    random_symmetric_matrix,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Q = rationals()
G2 = prime_field(2)
G3 = prime_field(3)


def _report(number, label):
    print(f"[criterion {number}] PASS  {label}")


def _z(d, n, i):
    return RationalFunction.variable(d, n, i)


def test_criterion_1_golden_symmetric_product():
    pencil = LinearPencil.from_json((FIXTURES / "sbr_z1z2.json").read_text())
    target = RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1))
    report = check_realization(pencil, target, RealizationKind.SBR)
    assert report.schur_ok, "Schur complement must equal [z1*z2] exactly"
    assert report.structure_ok and pencil.classify() >= {"sLP"}
    assert report.det_ok and pencil.det_identity_check()
    _report(1, "shipped pencil is an exact SBR of [z1*z2] over Q")


def test_criterion_2_golden_homogeneous_product():
    pencil = LinearPencil.from_json(
        (FIXTURES / "hsbr_z1z2_over_z3.json").read_text()
    )
    target = RationalMatrix.scalar(_z(Q, 3, 0) * _z(Q, 3, 1) / _z(Q, 3, 2))
    report = check_realization(pencil, target, RealizationKind.HSBR)
    assert report.passed
    assert pencil.classify() == {"LP", "sLP", "hLP", "hsLP"}
    _report(2, "shipped pencil is an exact hSBR of [z1*z2/z3] over Q")


def test_criterion_3_counterexamples(capsys):
    cases = [
        (["decide", "--field", "gf2", "--kind", "sbr", "--expr", "z1*z2"],
         "z1*z2"),
        (["decide", "--field", "gf2", "--kind", "sbr", "--expr", "z1*z2+z3"],
         "z1*z2"),
        (["decide", "--field", "gf2", "--kind", "hsbr", "--expr", "z1*z2/z3"],
         "z1*z2"),
    ]
    for argv, monomial in cases:
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 1, argv
        doc = json.loads(out)
        assert doc["realizable"] is False
        assert doc["certificate"]["offending_monomial"] == monomial
    with capsys.disabled():
        _report(3, "decide rejects z1*z2, z1*z2+z3 (sbr) and z1*z2/z3 (hsbr) "
                   "over GF(2) with offending-monomial certificates")


def _ring_matrix(name, ctx):
    doc = json.loads((FIXTURES / name).read_text())
    grid = []
    for row in doc["entries"]:
        grid.append(
            [
                parse_expression(cell, G2, ctx.n_vars)
                .entries[0][0]
                .as_polynomial()
                for cell in row
            ]
        )
    return QuotMatrix.from_polynomials(ctx, int(doc["split"]), grid)


def test_criterion_4_quotient_ring_walkthrough():
    ctx0 = QuotContext(G2, 2, [0, 0])
    b = _ring_matrix("ring_4x4_ell00.json", ctx0)
    trace = []
    result = reduce_realizer(b, ctx0.zero(), trace=trace)
    assert result.is_zero()
    rendered = [
        (label, ["[" + ", ".join(str(e) for e in row) + "]"
                 for row in snapshot.entries])
        for label, snapshot in trace
    ]
    expected = [
        ("add i=3 j=2 alpha=1",
         ["[0, 0, 0, 0]", "[0, z1, 0, 1]", "[0, 0, z1 + 1, 1]",
          "[0, 1, 1, z1]"]),
        ("add i=3 j=4 alpha=1",
         ["[0, 0, 0, 0]", "[0, z1, 0, 1]", "[0, 0, z1 + 1, 0]",
          "[0, 1, 0, 1]"]),
        ("isolate i=3",
         ["[0, 0, 0, 0]", "[0, z1, 0, 1]", "[0, 0, z1 + 1, 0]",
          "[0, 1, 0, 1]"]),
        ("delete i=3",
         ["[0, 0, 0]", "[0, z1, 1]", "[0, 1, 1]"]),
        ("add i=3 j=2 alpha=1",
         ["[0, 0, 0]", "[0, z1 + 1, 0]", "[0, 0, 1]"]),
        ("isolate i=3",
         ["[0, 0, 0]", "[0, z1 + 1, 0]", "[0, 0, 1]"]),
        ("delete i=3",
         ["[0, 0]", "[0, z1 + 1]"]),
        ("base case 2x2 = 0",
         ["[0, 0]", "[0, z1 + 1]"]),
    ]
    assert rendered == expected

    ctx1 = QuotContext(G2, 2, [1, 1])
    a = _ring_matrix("ring_3x3_ell11.json", ctx1)
    z1 = ctx1.variable(0)
    assert a.det() == z1 * a.det22()
    assert is_ring_realizer(a, z1)
    reduced = reduce_realizer(a, z1)
    assert reduced == z1 and reduced.is_linear()
    _report(4, "ISOLATE_3 pipeline reproduces every displayed matrix "
               "byte-exactly; the 3x3 case reduces to z1")


def test_criterion_5_round_trip_suite():
    rng = random.Random(50501)
    fields = [Q, G2, G3]
    total = 0
    for trial in range(510):
        d = fields[trial % 3]
        n = rng.randint(1, 3)
        k = rng.choice([1, 1, 1, 2])
        target = random_matrix(rng, d, n, k)
        result = realize_br(target)
        report = check_realization(result.pencil, target, RealizationKind.BR)
        assert report.passed, f"BR round trip failed on {target}"
        total += 1

    sym_total = 0
    for trial in range(200):
        d = [Q, G3][trial % 2]
        n = rng.randint(1, 3)
        k = rng.choice([1, 1, 2])
        target = random_symmetric_matrix(rng, d, n, k)
        result = realize_sbr(target)
        report = check_realization(result.pencil, target, RealizationKind.SBR)
        assert report.passed, f"SBR round trip failed on {target}"
        sym_total += 1

    gf2_success = gf2_reject = 0
    for trial in range(150):
        n = rng.randint(2, 3)
        k = rng.choice([1, 1, 2])
        target = random_symmetric_matrix(rng, G2, n, k)
        expected_ok = all(
            decide_sbr_scalar_char2(target.entries[i][i]).realizable
            for i in range(k)
        )
        try:
            result = realize_sbr(target)
        except NotRealizableChar2:
            assert not expected_ok, f"builder rejected decidable {target}"
            gf2_reject += 1
            continue
        assert expected_ok, f"builder accepted undecidable {target}"
        report = check_realization(result.pencil, target, RealizationKind.SBR)
        assert report.passed, f"GF(2) SBR failed verification on {target}"
        gf2_success += 1
    assert gf2_reject > 0 and gf2_success > 0
    _report(5, f"{total} BR + {sym_total} SBR round trips verified; GF(2) "
               f"SBR agreed with parity certificates "
               f"({gf2_success} built, {gf2_reject} rejected)")


def test_criterion_6_combinator_soundness():
    rng = random.Random(60601)
    fields = [Q, G2, G3, prime_field(5)]
    runs = 200

    def fresh(d, n, k=1, cls=None):
        target = random_matrix(rng, d, n, k, max_deg=2, max_terms=2,
                               polynomial_bias=0.7)
        pencil = realize_br(target).pencil
        if cls == "sym":
            pencil = op_symmetrize(pencil, check=False)
        elif cls == "hom":
            pencil = op_homogenize(pencil, check=False)
        elif cls == "homsym":
            pencil = op_homogenize(op_symmetrize(pencil, check=False),
                                   check=False)
        return pencil

    for trial in range(runs):
        d = fields[trial % 4]
        n = rng.randint(1, 3)
        p = fresh(d, n)
        q = fresh(d, n)
        sp, sq = p.schur_complement(), q.schur_complement()
        sym = fresh(d, n, cls="sym")
        hom = fresh(d, n, cls="hom")
        homsym = fresh(d, n, cls="homsym")

        lam = d.coerce(3) if d.characteristic != 3 else d.one
        scaled = op_scale(sym, lam)
        assert scaled.schur_complement() == sym.schur_complement().scale(
            RationalFunction.constant(d, n, lam)
        )
        assert "sLP" in scaled.classify()
        assert "hLP" in op_scale(hom, lam, check=False).classify()
        assert op_scale(homsym, lam, check=False).classify() >= {"hsLP"}

        added = op_add(p, q)
        assert added.schur_complement() == sp + sq
        assert added.m == p.m + q.m - p.split
        assert "sLP" in op_add(sym, op_symmetrize(p, check=False)).classify()
        assert "hLP" in op_add(hom, op_homogenize(p, check=False),
                               check=False).classify()
        assert op_add(homsym, homsym, check=False).classify() >= {"hsLP"}

        folded = op_symmetrize(p)
        assert folded.schur_complement() == sp + sp.transpose()
        assert folded.m == 2 * p.m - p.split
        assert "sLP" in folded.classify()
        assert op_homogenize(folded).classify() >= {"hsLP"}

        u = [[rng.randint(-2, 2)] for _ in range(2)]  # 2x1
        v = [[rng.randint(-2, 2), rng.randint(-2, 2)]]  # 1x2
        um = RationalMatrix(
            [[RationalFunction.constant(d, n, e) for e in row] for row in u]
        )
        vm = RationalMatrix(
            [[RationalFunction.constant(d, n, e) for e in row] for row in v]
        )
        wrapped = op_sandwich(u, p, v)
        assert wrapped.schur_complement() == um * sp * vm
        assert wrapped.m == 2 + p.m - p.split
        ut = [row[:] for row in u]
        assert "sLP" in op_sandwich(
            ut, sym, [[ut[0][0], ut[1][0]]]
        ).classify()
        assert "hLP" in op_sandwich(u, hom, v, check=False).classify()
        assert op_sandwich(
            ut, homsym, [[ut[0][0], ut[1][0]]], check=False
        ).classify() >= {"hsLP"}

        prod = op_product(p, None, q)
        assert prod.schur_complement() == sp * sq
        assert prod.m == p.m + q.m
        x = RationalMatrix.scalar(_z(d, n, rng.randrange(n)))
        ratio = op_product(p, x, q, check=False)
        assert ratio.schur_complement() == sp * mat_inv(x) * sq
        symmetric_prod = op_product(p, None, p.transpose(), check=False)
        assert "sLP" in symmetric_prod.classify()
        xh = RationalMatrix.scalar(_z(d, n + 1, rng.randrange(n + 1)))
        hom2 = op_homogenize(q, check=False)
        assert "hLP" in op_product(hom, xh, hom2, check=False).classify()
        assert op_product(
            hom, xh, hom.transpose(), check=False
        ).classify() >= {"hsLP"}

        if not mat_det(sp).is_zero():
            inv = op_inverse(p, check=False)
            assert inv.schur_complement() == mat_inv(sp)
            assert inv.m == p.m + p.split
        sym_inv = op_inverse(sym, check=False)
        if not mat_det(sym.schur_complement()).is_zero():
            assert "sLP" in sym_inv.classify()

        kron = op_kron_identity(p, 2)
        assert kron.schur_complement() == sp.kron_identity(2)
        assert kron.m == 2 * p.m and kron.split == 2 * p.split
        assert "sLP" in op_kron_identity(sym, 2, check=False).classify()
        assert "hLP" in op_kron_identity(hom, 2, check=False).classify()
        assert op_kron_identity(homsym, 2).classify() >= {"hsLP"}

        lifted = op_homogenize(p)
        assert lifted.schur_complement() == RationalMatrix(
            [[e.homogenize_new_var() for e in row] for row in sp.entries]
        )
        assert "hLP" in lifted.classify()
        assert op_homogenize(sym).classify() >= {"hsLP"}
    _report(6, f"all seven combinators plus homogenization verified on "
               f"{runs} randomized instances each (identities, structure, "
               f"sizes)")


def test_criterion_7_quotient_ring_laws():
    rng = random.Random(70701)
    runs = 200
    for _ in range(runs):
        n = rng.randint(1, 3)
        ctx = QuotContext(G2, n, [rng.randrange(2) for _ in range(n)])
        p = random_poly(rng, G2, n, max_deg=4, max_terms=3)
        q = random_poly(rng, G2, n, max_deg=4, max_terms=3)
        nf = ctx.mult_normal_form(p)
        assert ctx.mult_normal_form(nf) == nf
        assert ctx.project(nf) == ctx.project(p)
        assert lift(ctx.project(p)) == nf
        assert ctx.project(lift(ctx.project(p))) == ctx.project(p)

        r1, r2 = ctx.project(p), ctx.project(q)
        assert (r1 * r2).abs_value() == r1.abs_value() * r2.abs_value()
        assert (r1 + r2).abs_value() == r1.abs_value() + r2.abs_value()
        if r1.is_invertible():
            a = r1.abs_value()
            scale = ctx.descriptor.inv((a * a).value)
            assert r1.inverse() == ctx.project(lift(r1).scale(scale))
            assert r1 * r1.inverse() == ctx.one()

        m = rng.randint(2, 4)
        grid = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                e = ctx.project(random_poly(rng, G2, n, max_deg=2, max_terms=2))
                grid[i][j] = grid[j][i] = e
        sym_matrix = QuotMatrix(ctx, 1, grid)
        assert det_involution_sum(sym_matrix) == sym_matrix.det()

    preserved = 0
    for _ in range(runs):
        n = rng.randint(1, 3)
        ctx = QuotContext(G2, n, [rng.randrange(2) for _ in range(n)])
        linear = ctx.project(random_poly(rng, G2, n, max_deg=1, max_terms=3))
        invertible = ctx.one() + ctx.variable(rng.randrange(n))
        if not invertible.is_invertible():
            invertible = ctx.one()
        c = ctx.constant(rng.randrange(2))
        r = linear + c * c * invertible.inverse()
        zero = ctx.zero()
        matrix = QuotMatrix(
            ctx, 1,
            [[linear, c, zero], [c, invertible, zero], [zero, zero, ctx.one()]],
        )
        assert is_ring_realizer(matrix, r)
        assert is_ring_realizer(clean(matrix), r)
        i = rng.randrange(1, 3)
        j = rng.choice([t for t in range(3) if t != i])
        alpha = ctx.project(random_poly(rng, G2, n, max_deg=1, max_terms=2))
        assert is_ring_realizer(add_transform(matrix, i, j, alpha), r)
        preserved += 1
    _report(7, f"normal-form, absolute-value, inverse, determinant, and "
               f"realizer-preservation laws verified on {runs} instances")


def test_criterion_8_parity_oracle_complete_enumeration():
    from test_realize import _decomposition_oracle

    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    agreements = 0
    for mask in range(64):
        terms = {monomials[i]: 1 for i in range(6) if mask & (1 << i)}
        h = Polynomial(G2, 2, terms)
        fast = decide_sbr_scalar_char2(RationalFunction(h)).realizable
        slow = _decomposition_oracle(h)
        assert fast == slow, str(h)
        agreements += 1
    assert agreements == 64
    _report(8, "parity decision agrees with the exhaustive decomposition "
               "search on all 64 GF(2) polynomials with n=2, degree <= 2")
