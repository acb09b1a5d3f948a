"""Quotient-ring machinery: normal forms, absolute values, CLEAN/ADD/ISOLATE,
ring realizers, and the reduction pipeline."""

import itertools
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ratpencil.quotring as quotring
from ratpencil.errors import (
    NotARealizer,
    NotInvertible,
    NotInvertibleDiagonal,
    RingTooLarge,
    WrongCharacteristic,
)
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.poly import Polynomial
from ratpencil.quotring import (
    QuotContext,
    QuotMatrix,
    add_transform,
    clean,
    det_involution_sum,
    is_ring_realizer,
    isolate,
    lift,
    mult_normal_form,
    project,
    reduce_realizer,
)

from ratpencil_testkit import random_poly, random_realizer

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
G2 = prime_field(2)


def _ctx(n, ell):
    return QuotContext(G2, n, ell)


def _poly(n, text_terms):
    return Polynomial(G2, n, text_terms)


def _load_matrix(name, ctx):
    doc = json.loads((FIXTURES / name).read_text())
    grid = []
    for row in doc["entries"]:
        out = []
        for cell in row:
            value = parse_expression(cell, G2, ctx.n_vars).entries[0][0]
            out.append(value.as_polynomial())
        grid.append(out)
    return QuotMatrix.from_polynomials(ctx, int(doc["split"]), grid)


def test_context_requires_char2():
    with pytest.raises(WrongCharacteristic):
        QuotContext(rationals(), 2, [0, 0])


def test_mult_examples():
    ctx = _ctx(2, [1, 1])
    z1_cubed = _poly(2, {(3, 0): 1})
    assert mult_normal_form(z1_cubed, ctx) == _poly(2, {(1, 0): 1})
    ctx0 = _ctx(2, [0, 0])
    assert mult_normal_form(_poly(2, {(2, 0): 1}), ctx0).is_zero()
    multilinear = _poly(2, {(1, 1): 1, (0, 1): 1})
    assert mult_normal_form(multilinear, ctx) == multilinear


def test_project_lift_examples():
    ctx = _ctx(2, [1, 1])
    assert project(_poly(2, {(2, 0): 1, (0, 0): 1}), ctx).is_zero()
    p = _poly(2, {(1, 1): 1})
    assert lift(project(p, ctx)) == p
    ctx10 = _ctx(2, [1, 0])
    assert lift(project(_poly(2, {(4, 0): 1}), ctx10)) == Polynomial.one(G2, 2)


def test_mult_projection_laws(rng):
    for _ in range(200):
        n = rng.randint(1, 3)
        ell = [rng.randrange(2) for _ in range(n)]
        ctx = _ctx(n, ell)
        p = random_poly(rng, G2, n, max_deg=4, max_terms=4)
        q = random_poly(rng, G2, n, max_deg=4, max_terms=4)
        nf = ctx.mult_normal_form(p)
        assert ctx.mult_normal_form(nf) == nf
        assert ctx.project(nf) == ctx.project(p)
        assert lift(ctx.project(p)) == nf
        assert ctx.project(lift(ctx.project(p))) == ctx.project(p)
        # projection is a ring homomorphism
        assert ctx.project(p + q) == ctx.project(p) + ctx.project(q)
        assert ctx.project(p * q) == ctx.project(p) * ctx.project(q)


def _oracle_normal_form(p, ell):
    """Normal form by hand over GF(2): z_i^(2a+b) -> (ell_i^2)^a z_i^b."""
    out = {}
    for exps, value in p.terms.items():
        coeff = value
        for e, c in zip(exps, ell):
            coeff = coeff * (c * c) ** (e // 2) % 2
        key = tuple(e % 2 for e in exps)
        out[key] = (out.get(key, 0) + coeff) % 2
    return {key: v for key, v in out.items() if v}


def _oracle_at_ell(terms, ell):
    total = 0
    for exps, value in terms.items():
        for e, c in zip(exps, ell):
            value *= c**e
        total += value
    return total % 2


@st.composite
def _ring_operands(draw):
    n = draw(st.integers(1, 4))
    ell = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    monomial = st.tuples(*[st.integers(0, 4)] * n)
    poly = st.dictionaries(monomial, st.integers(0, 3), max_size=6).map(
        lambda terms: Polynomial(G2, n, terms)
    )
    return ell, draw(poly), draw(poly)


@settings(max_examples=300, deadline=None)
@given(_ring_operands())
def test_ring_operations_match_hand_reduction(operands):
    ell, p, q = operands
    ctx = _ctx(len(ell), ell)
    r, s = ctx.project(p), ctx.project(q)
    nf = _oracle_normal_form(p, ell)
    assert lift(r).terms == nf
    assert lift(r + s).terms == _oracle_normal_form(p + q, ell)
    assert lift(r * s).terms == _oracle_normal_form(p * q, ell)
    assert r.is_constant() == all(not any(exps) for exps in nf)
    assert r.is_linear() == all(sum(exps) <= 1 for exps in nf)
    value = _oracle_at_ell(nf, ell)
    assert r.abs_value().value == value
    assert r.is_invertible() == bool(value)
    if value:
        # |r|^{-2} r with |r| = 1, and r times it reduces to 1
        inverse = lift(r.inverse())
        assert inverse.terms == nf
        assert _oracle_normal_form(p * inverse, ell) == {(0,) * len(ell): 1}
    else:
        with pytest.raises(NotInvertible):
            r.inverse()


def test_abs_examples():
    ctx = _ctx(2, [1, 1])
    z1 = ctx.variable(0)
    assert z1.abs_value().value == 1
    ctx0 = _ctx(2, [0, 0])
    assert ctx0.variable(0).abs_value().value == 0
    assert ctx.constant(1).abs_value().value == 1


def test_abs_laws(rng):
    for _ in range(200):
        n = rng.randint(1, 3)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        r1 = ctx.project(random_poly(rng, G2, n, max_deg=3, max_terms=3))
        r2 = ctx.project(random_poly(rng, G2, n, max_deg=3, max_terms=3))
        assert (r1 * r2).abs_value() == r1.abs_value() * r2.abs_value()
        assert (r1 + r2).abs_value() == r1.abs_value() + r2.abs_value()
        a = r1.abs_value()
        assert r1.is_invertible() == bool(a)
        assert ctx.constant((a * a).value) == r1 * r1
        if r1.is_invertible():
            inv = r1.inverse()
            assert r1 * inv == ctx.one()
            scale = ctx.descriptor.inv((a * a).value)
            assert inv == ctx.project(lift(r1).scale(scale))


def test_inverse_examples():
    ctx = _ctx(2, [1, 1])
    z1 = ctx.variable(0)
    assert z1.inverse() == z1
    assert z1 * z1 == ctx.one()
    assert ctx.one().inverse() == ctx.one()
    ctx0 = _ctx(2, [0, 0])
    with pytest.raises(NotInvertible):
        ctx0.variable(0).inverse()


def test_pow_rejects_negative_exponents():
    # both elements square to 0, so no negative power exists; -1 once gave 1
    ctx = _ctx(2, [1, 0])
    for r in (ctx.variable(0) + ctx.one(), ctx.variable(1)):
        assert r * r == ctx.zero()
        with pytest.raises(ValueError):
            r ** -1


def test_pow_matches_product_fold(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        r = ctx.project(random_poly(rng, G2, n, max_deg=3, max_terms=4))
        fold = ctx.one()
        for e in range(9):
            assert r ** e == fold
            fold = fold * r


def test_pow_squares_instead_of_looping():
    ctx = _ctx(3, [1, 0, 1])
    r = ctx.variable(0) + ctx.variable(2) + ctx.one()
    start = time.perf_counter()
    assert r ** 10**18 == r ** 2
    assert r ** (10**18 + 1) == r ** 3
    assert time.perf_counter() - start < 1.0


def _poly_det_cofactor(grid):
    m = len(grid)
    if m == 1:
        return grid[0][0]
    acc = Polynomial.zero(grid[0][0].descriptor, grid[0][0].n_vars)
    for j in range(m):
        minor = [
            [grid[i][t] for t in range(m) if t != j] for i in range(1, m)
        ]
        piece = grid[0][j] * _poly_det_cofactor(minor)
        acc = acc + piece if j % 2 == 0 else acc - piece
    return acc


def test_projection_commutes_with_det(rng):
    for _ in range(60):
        n = rng.randint(1, 3)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        m = rng.randint(2, 6)
        grid = [
            [random_poly(rng, G2, n, max_deg=2, max_terms=2) for _ in range(m)]
            for _ in range(m)
        ]
        split = rng.randint(1, m - 1)
        projected = QuotMatrix(
            ctx, split, [[ctx.project(p) for p in row] for row in grid]
        )
        det = ctx.project(_poly_det_cofactor(grid))
        block = [row[split:] for row in grid[split:]]
        det22 = ctx.project(_poly_det_cofactor(block))
        assert projected.det() == det and projected.det22() == det22
        assert projected.dets() == (det, det22)


def _with_abs(ctx, p, value):
    """``p``, plus 1 if needed so that its absolute value is ``value``."""
    if ctx.project(p).is_invertible() != value:
        p = p + Polynomial.one(G2, ctx.n_vars)
    return p


@pytest.mark.parametrize("regime", ["no unit", "diagonal units", "mixed"])
def test_two_phase_dets_match_berkowitz_and_cofactor(rng, monkeypatch, regime):
    # "no unit": every (2,2) entry has |a| = 0, so phase 2 gets the whole
    # grid; "diagonal units": |A22| is the identity, so phase 1 empties the
    # block; "mixed": random entries
    berkowitz = quotring._det_berkowitz
    remainders = []

    def recording(grid, split, dead):
        remainders.append(len(grid))
        return berkowitz(grid, split, dead)

    monkeypatch.setattr(quotring, "_det_berkowitz", recording)
    partial = 0
    for n in (1, 2, 3):
        for ell in itertools.product((0, 1), repeat=n):
            ctx = _ctx(n, ell)
            for m in (2, 3, 4, 5):
                for split in range(1, m):
                    grid = [
                        [random_poly(rng, G2, n, max_deg=2, max_terms=2)
                         for _ in range(m)]
                        for _ in range(m)
                    ]
                    for i, j in itertools.product(range(split, m), repeat=2):
                        if regime != "mixed":
                            grid[i][j] = _with_abs(
                                ctx, grid[i][j],
                                regime == "diagonal units" and i == j,
                            )
                    matrix = QuotMatrix.from_polynomials(ctx, split, grid)
                    remainders.clear()
                    dets = matrix.dets()
                    assert tuple(d.monomials for d in dets) == berkowitz(
                        matrix.monomials, split, ctx.dead
                    )
                    block = [row[split:] for row in grid[split:]]
                    assert dets == (ctx.project(_poly_det_cofactor(grid)),
                                    ctx.project(_poly_det_cofactor(block)))
                    if regime == "no unit":
                        assert remainders == [m]
                    elif regime == "diagonal units":
                        assert remainders == [split]
                    else:
                        partial += split < remainders[0] < m
    # mixed grids also stop phase 1 part-way
    assert (partial > 0) == (regime == "mixed")


def test_dets_take_off_diagonal_unit_pivots():
    # with ell = (1, 0), z1*z2 is no unit, so the first unit of the block
    # is the 1 at (1, 2); det A22 = z1^2 z2 = z2
    ctx = _ctx(2, [1, 0])
    z1, z2, zero, one = ctx.variable(0), ctx.variable(1), ctx.zero(), ctx.one()
    matrix = QuotMatrix(
        ctx, 1, [[zero, one, zero], [zero, z1 * z2, one], [zero, zero, z1]]
    )
    assert matrix.dets() == (zero, z2)
    assert matrix.det22() == z2


def test_involution_sum_limits():
    ctx = _ctx(2, [1, 1])
    zero, one = ctx.zero(), ctx.one()

    def identity(m):
        return QuotMatrix(
            ctx, 1, [[one if i == j else zero for j in range(m)]
                     for i in range(m)]
        )

    largest = identity(quotring.MAX_RING_SIZE)
    assert det_involution_sum(largest) == one
    assert is_ring_realizer(largest, one)
    oversized = identity(quotring.MAX_RING_SIZE + 1)
    assert oversized.dets() == (one, one)
    with pytest.raises(RingTooLarge):
        det_involution_sum(oversized)
    with pytest.raises(RingTooLarge):
        is_ring_realizer(oversized, one)
    # a dense 24x24 meets about 2^23 index sets
    diagonal = ctx.variable(0) + ctx.variable(1)
    dense = QuotMatrix(
        ctx, 1, [[diagonal if i == j else one for j in range(24)]
                 for i in range(24)]
    )
    start = time.perf_counter()
    with pytest.raises(RingTooLarge, match="index sets"):
        det_involution_sum(dense)
    assert time.perf_counter() - start < 5.0


def test_clean_examples():
    ctx = _ctx(2, [1, 1])
    matrix = _load_matrix("ring_3x3_ell11.json", ctx)
    cleaned = clean(matrix)
    one, zero = ctx.one(), ctx.zero()
    z1 = ctx.variable(0)
    assert cleaned.entries == (
        (z1, one, one),
        (one, zero, one),
        (one, one, zero),
    )
    assert clean(cleaned) == cleaned

    ctx0 = _ctx(2, [0, 0])
    matrix0 = _load_matrix("ring_3x3_ell00.json", ctx0)
    cleaned0 = clean(matrix0)
    assert cleaned0.entries[0][1] == ctx0.zero()
    assert cleaned0.entries[1][2] == ctx0.one()


def test_add_transform_walkthrough():
    ctx = _ctx(2, [0, 0])
    b = _load_matrix("ring_4x4_ell00.json", ctx)
    one = ctx.one()
    step1 = add_transform(b, 2, 1, one)
    z1 = ctx.variable(0)
    zero = ctx.zero()
    assert step1.entries == (
        (zero, zero, zero, zero),
        (zero, z1, zero, one),
        (zero, zero, z1 + one, one),
        (zero, one, one, z1),
    )
    step2 = add_transform(step1, 2, 3, one)
    assert step2.entries == (
        (zero, zero, zero, zero),
        (zero, z1, zero, one),
        (zero, zero, z1 + one, zero),
        (zero, one, zero, one),
    )
    # alpha = 0 leaves a cleaned matrix unchanged
    assert add_transform(step2, 2, 0, zero) == step2


def test_isolate_walkthrough():
    ctx = _ctx(2, [0, 0])
    b = _load_matrix("ring_4x4_ell00.json", ctx)
    isolated = isolate(b, 2)
    zero, one = ctx.zero(), ctx.one()
    z1 = ctx.variable(0)
    assert isolated.entries == (
        (zero, zero, zero, zero),
        (zero, z1, zero, one),
        (zero, zero, z1 + one, zero),
        (zero, one, zero, one),
    )
    # diagonal formula: b_jj = a_jj + a_ij^2 a_ii^{-1}
    a33_inv = b.entries[2][2].inverse()
    assert a33_inv == z1 + one  # (z1+1)^{-1} = z1+1 when ell = (0,0)
    expect_b11 = b.entries[1][1] + b.entries[2][1] * b.entries[2][1] * a33_inv
    assert isolated.entries[1][1] == expect_b11 == z1


def test_isolate_untouched_when_alpha_zero():
    ctx = _ctx(2, [0, 0])
    one, zero = ctx.one(), ctx.zero()
    matrix = QuotMatrix(ctx, 1, [[zero, zero], [zero, one]])
    assert isolate(matrix, 1) == matrix
    with pytest.raises(NotInvertibleDiagonal):
        isolate(QuotMatrix(ctx, 1, [[zero, zero], [zero, ctx.variable(0)]]), 1)


def test_is_ring_realizer_examples():
    ctx = _ctx(2, [1, 1])
    a = _load_matrix("ring_3x3_ell11.json", ctx)
    assert is_ring_realizer(a, ctx.variable(0))
    assert not is_ring_realizer(a, ctx.variable(1))

    ctx0 = _ctx(2, [0, 0])
    a0 = _load_matrix("ring_3x3_ell00.json", ctx0)
    assert is_ring_realizer(a0, ctx0.zero())

    ident = QuotMatrix(
        ctx, 1, [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]
    )
    assert is_ring_realizer(ident, ctx.one())


def test_involution_sum_matches_leibniz(rng):
    for _ in range(200):
        n = rng.randint(1, 2)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        m = rng.randint(2, 8)
        grid = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                e = ctx.project(random_poly(rng, G2, n, max_deg=2, max_terms=2))
                grid[i][j] = grid[j][i] = e
        matrix = QuotMatrix(ctx, 1, grid)
        assert det_involution_sum(matrix) == matrix.det()


def test_det_multiplications_grow_polynomially(monkeypatch):
    ctx = _ctx(2, [0, 0])
    one = ctx.one()
    m = 10
    grid = [
        [ctx.variable(i % 2) + one if i == j else ctx.variable(i * j % 2)
         for j in range(m)]
        for i in range(m)
    ]
    matrix = QuotMatrix(ctx, 1, grid)
    expected = det_involution_sum(matrix)
    calls = []
    original = quotring._times

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(quotring, "_times", counting)
    assert matrix.det() == expected
    # about 2000 products here; enumerating 10! permutations needs millions
    assert 0 < len(calls) <= 10**4


def test_involution_sum_expands_instead_of_enumerating(monkeypatch):
    # 140152 involutions of 12 points; the memoized expansion over subsets
    # needs a few thousand ring products
    ctx = _ctx(2, [0, 1])
    one = ctx.one()
    m = 12
    grid = [
        [ctx.variable(i % 2) + one if i == j else ctx.variable(i * j % 2)
         for j in range(m)]
        for i in range(m)
    ]
    matrix = QuotMatrix(ctx, 1, grid)
    expected = matrix.det()
    calls = []
    original = quotring._times

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(quotring, "_times", counting)
    assert det_involution_sum(matrix) == expected
    assert 0 < len(calls) <= 10**4


def test_ring_checks_do_no_polynomial_arithmetic(monkeypatch):
    # realizers built by from_polynomials, as `ratpencil reduce` builds them
    ctx10, ctx00 = _ctx(2, [1, 0]), _ctx(2, [0, 0])
    cases = [(_load_matrix("ring_9x9_ell10.json", ctx10), ctx10.variable(0)),
             (_load_matrix("ring_4x4_ell00.json", ctx00), ctx00.zero())]
    calls = []
    for owner, name in ((Polynomial, "__mul__"), (Polynomial, "__add__"),
                        (QuotContext, "mult_normal_form")):
        def counting(*args, _name=name, _original=getattr(owner, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    for matrix, r in cases:
        assert is_ring_realizer(matrix, r)
        assert reduce_realizer(matrix, r) == r
    assert calls == []


def test_clean_and_add_preserve_realizers(rng):
    for _ in range(120):
        n = rng.randint(1, 3)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        matrix, r = random_realizer(rng, ctx, pad=rng.randint(0, 2))
        assert is_ring_realizer(matrix, r)
        cleaned = clean(matrix)
        assert is_ring_realizer(cleaned, r)
        i = rng.randrange(1, matrix.m)
        j = rng.choice([t for t in range(matrix.m) if t != i])
        alpha = ctx.project(random_poly(rng, G2, n, max_deg=1, max_terms=2))
        assert is_ring_realizer(add_transform(matrix, i, j, alpha), r)


def test_reduce_walkthrough_cases():
    ctx0 = _ctx(2, [0, 0])
    b = _load_matrix("ring_4x4_ell00.json", ctx0)
    trace = []
    result = reduce_realizer(b, ctx0.zero(), trace=trace)
    assert result.is_zero() and result.is_linear()
    labels = [label for label, _ in trace]
    assert labels == [
        "add i=3 j=2 alpha=1",
        "add i=3 j=4 alpha=1",
        "isolate i=3",
        "delete i=3",
        "add i=3 j=2 alpha=1",
        "isolate i=3",
        "delete i=3",
        "base case 2x2 = 0",
    ]

    ctx1 = _ctx(2, [1, 1])
    a = _load_matrix("ring_3x3_ell11.json", ctx1)
    result = reduce_realizer(a, ctx1.variable(0))
    assert result == ctx1.variable(0)


def test_reduce_augments_a_diagonal_swapped_to_the_split():
    # found by a seeded search over random_realizer: after two deletions no
    # (2,2) diagonal is invertible, and the first nonzero one is row 3, not
    # row 2, so AUGMENT swaps it there first
    ctx = _ctx(3, [0, 0, 1])
    cells = [["z1+z2+1", "0", "1", "1", "0"],
             ["0", "z2+1", "0", "0", "1"],
             ["1", "0", "z1+1", "1", "1"],
             ["1", "0", "1", "z1+1", "0"],
             ["0", "1", "1", "0", "z2+z3+1"]]
    grid = [[parse_expression(cell, G2, 3).entries[0][0].as_polynomial()
             for cell in row] for row in cells]
    matrix = QuotMatrix.from_polynomials(ctx, 1, grid)
    trace = []
    assert reduce_realizer(matrix, ctx.variable(1), trace=trace) == \
        ctx.variable(1)
    labels = [label for label, _ in trace]
    assert labels[labels.index("swap i=3 with i=2") + 1] == "augment i=2"


def test_reduce_base_case():
    ctx = _ctx(2, [1, 1])
    l1 = ctx.variable(0)
    l2 = ctx.variable(1)
    c = ctx.one()
    matrix = QuotMatrix(ctx, 1, [[l1, c], [c, l2]])
    r = l1 + c * c * l2.inverse()
    assert reduce_realizer(matrix, r) == r


def test_reduce_rejects_non_realizer():
    ctx = _ctx(2, [1, 1])
    a = _load_matrix("ring_3x3_ell11.json", ctx)
    with pytest.raises(NotARealizer):
        reduce_realizer(a, ctx.variable(1))


def test_reduce_randomized(rng):
    for _ in range(120):
        n = rng.randint(1, 3)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        matrix, r = random_realizer(rng, ctx, pad=rng.randint(0, 3))
        result = reduce_realizer(matrix, r)
        assert result.is_linear()
        assert result == r


@pytest.mark.parametrize("pad", [7, 8])
def test_reduce_nine_and_ten_square_realizers(rng, pad):
    ctx = _ctx(2, [1, 0])
    matrix, r = random_realizer(rng, ctx, pad=pad)
    assert matrix.m == 2 + pad
    assert is_ring_realizer(matrix, r)
    assert reduce_realizer(matrix, r) == r
