"""Quotient-ring machinery: normal forms, absolute values, CLEAN/ADD/ISOLATE,
ring realizers, and the reduction pipeline."""

import json
from pathlib import Path

import pytest

from ratpencil.errors import (
    NotARealizer,
    NotInvertible,
    NotInvertibleDiagonal,
    WrongCharacteristic,
)
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.poly import Polynomial
from ratpencil.quotring import (
    QuotContext,
    QuotElement,
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

from conftest import random_poly

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
        projected = QuotMatrix(
            ctx, 1, [[ctx.project(p) for p in row] for row in grid]
        )
        assert projected.det() == ctx.project(_poly_det_cofactor(grid))


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
    original = QuotElement.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(QuotElement, "__mul__", counting)
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
    original = QuotElement.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(QuotElement, "__mul__", counting)
    assert det_involution_sum(matrix) == expected
    assert 0 < len(calls) <= 10**4


def _random_realizer(rng, ctx, pad):
    """Build a known (realizer, r) pair: a 2x2 core padded and scrambled."""
    n = ctx.n_vars

    def random_linear(invertible=False):
        while True:
            terms = {}
            if rng.random() < 0.8:
                terms[(0,) * n] = rng.randrange(2)
            for v in range(n):
                if rng.random() < 0.6:
                    exps = tuple(1 if t == v else 0 for t in range(n))
                    terms[exps] = rng.randrange(2)
            element = ctx.project(Polynomial(G2, n, terms))
            if not invertible or element.is_invertible():
                return element

    l1 = random_linear()
    l2 = random_linear(invertible=True)
    c = ctx.constant(rng.randrange(2))
    r = l1 + c * c * l2.inverse()
    size = 2 + pad
    zero = ctx.zero()
    grid = [[zero for _ in range(size)] for _ in range(size)]
    grid[0][0] = l1
    grid[0][1] = grid[1][0] = c
    grid[1][1] = l2
    for t in range(pad):
        grid[2 + t][2 + t] = random_linear(invertible=True)
    matrix = QuotMatrix(ctx, 1, grid)
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(1, size)
        j = rng.choice([t for t in range(size) if t != i])
        alpha = ctx.constant(rng.randrange(2))
        matrix = add_transform(matrix, i, j, alpha)
    return matrix, r


def test_clean_and_add_preserve_realizers(rng):
    for _ in range(120):
        n = rng.randint(1, 3)
        ctx = _ctx(n, [rng.randrange(2) for _ in range(n)])
        matrix, r = _random_realizer(rng, ctx, pad=rng.randint(0, 2))
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
        matrix, r = _random_realizer(rng, ctx, pad=rng.randint(0, 3))
        result = reduce_realizer(matrix, r)
        assert result.is_linear()
        assert result == r


@pytest.mark.parametrize("pad", [7, 8])
def test_reduce_nine_and_ten_square_realizers(rng, pad):
    ctx = _ctx(2, [1, 0])
    matrix, r = _random_realizer(rng, ctx, pad=pad)
    assert matrix.m == 2 + pad
    assert is_ring_realizer(matrix, r)
    assert reduce_realizer(matrix, r) == r
