"""Polynomials, rational functions, degrees, and homogeneity."""

import pytest
from hypothesis import given, settings, strategies as st

from ratpencil.errors import (
    DescriptorMismatch,
    DivisionByZero,
    TooManyVariables,
)
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.poly import (
    MAX_VARIABLES,
    NEG_INFINITY,
    Polynomial,
    RationalFunction,
    poly_arith,
    ratfun_arith,
)

from ratpencil_testkit import random_poly, random_ratfun

Q = rationals()
G2 = prime_field(2)


def _vars(descriptor, n):
    return [Polynomial.variable(descriptor, n, i) for i in range(n)]


@pytest.mark.parametrize(
    "exps", [(1,), (1, 0, 0), (), (1, -1), (-2, 0)]
)
def test_constructor_rejects_bad_monomials(exps):
    with pytest.raises(ValueError):
        Polynomial(Q, 2, {exps: 1})


def test_variable_count_is_bounded():
    # a layout holds one key per variable, each BITS bits per variable
    # long, so the count is refused before the layout is built
    with pytest.raises(TooManyVariables):
        Polynomial.variable(Q, MAX_VARIABLES + 1, 0)
    with pytest.raises(TooManyVariables):
        parse_expression(f"z{MAX_VARIABLES + 1}", Q)


def test_poly_add_mul_examples():
    z1, z2 = _vars(G2, 2)
    square = poly_arith(z1 + z2, z1 + z2, "mul")
    assert square == z1 * z1 + z2 * z2  # Frobenius collapses the cross term

    w1, w2 = _vars(Q, 2)
    assert poly_arith(w1 + w2, w1 - w2, "add") == w1.scale(2)
    assert w1 * w2 + w2 * w1 == (w1 * w2).scale(2)


def test_poly_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        poly_arith(_vars(Q, 2)[0], _vars(G2, 2)[0], "add")
    with pytest.raises(DescriptorMismatch):
        poly_arith(_vars(Q, 2)[0], _vars(Q, 3)[0], "add")


def test_degrees():
    z1, z2, z3 = _vars(Q, 3)
    p = z1 * z1 * z2 + z3
    total, per_var = p.degrees()
    assert total == 3
    assert per_var == (2, 1, 1)
    assert Polynomial.constant(Q, 3, 5).degrees()[0] == 0


def test_zero_degree_is_minus_infinity():
    zero = Polynomial.zero(Q, 2)
    total, per_var = zero.degrees()
    assert total == NEG_INFINITY
    assert per_var == (NEG_INFINITY, NEG_INFINITY)
    assert not isinstance(total, int)


def test_is_homogeneous():
    z1, z2, z3 = (RationalFunction.variable(Q, 3, i) for i in range(3))
    assert (z1 * z2 / z3).is_homogeneous(1)
    assert not (z1 * z2).is_homogeneous(1)
    assert (z1 / z2).is_homogeneous(0)


def test_is_homogeneous_split_search():
    # (z1^2 + z1 z2) / (z1 + z2) = z1 as a function, certified via components
    z1, z2 = _vars(Q, 2)
    f = RationalFunction(z1 * z1 + z1 * z2, z1 + z2)
    assert f.is_homogeneous(1)
    g = RationalFunction((z1 * z1 + z1 * z2) + Polynomial.one(Q, 2), z1 + z2)
    assert not g.is_homogeneous(1)


def test_ratfun_examples():
    z1, z2, z3 = (RationalFunction.variable(Q, 3, i) for i in range(3))
    one = RationalFunction.one(Q, 3)
    assert ratfun_arith(z1 / z2, z2 / z1, "mul") == one
    assert ratfun_arith(z1 * z2 / z3, None, "inv") == z3 / (z1 * z2)
    assert ratfun_arith(one / z1, one / z2, "add") == (z1 + z2) / (z1 * z2)


def test_ratfun_zero_handling():
    with pytest.raises(DivisionByZero):
        RationalFunction(Polynomial.one(Q, 1), Polynomial.zero(Q, 1))
    zero = RationalFunction.zero(Q, 1)
    with pytest.raises(DivisionByZero):
        zero.inverse()


@pytest.mark.parametrize("d", [Q, G2, prime_field(7)],
                         ids=lambda d: d.name())
def test_ratfun_equality_with_equal_and_unequal_denominators(d):
    z1, z2 = _vars(d, 2)
    one = Polynomial.one(d, 2)
    den = z1 + z2 + one
    # equal denominators compare the numerators
    assert RationalFunction(z1 * z2, den) == RationalFunction(z2 * z1, den)
    assert RationalFunction(z1, den) != RationalFunction(z2, den)
    assert RationalFunction(z1, den) != RationalFunction(z1 + one, den)
    # unequal denominators of equal values cross-multiply
    f = RationalFunction(z1, den)
    g = RationalFunction(z1 * (z2 + one), den * (z2 + one))
    assert g.den != f.den
    assert f == g and g == f
    assert RationalFunction(z1 * z2, den) != g
    # zero has denominator 1, whatever it was built over
    zero = RationalFunction.zero(d, 2)
    assert RationalFunction(z1 - z1, den) == zero
    assert zero == RationalFunction(Polynomial.zero(d, 2), den)
    assert zero != f and f != zero
    assert RationalFunction(z1 - z1, den) - f != zero
    assert f - g == zero


def test_zero_polynomial_refuses_a_negative_variable_count():
    with pytest.raises(ValueError):
        Polynomial.zero(Q, -1)
    assert Polynomial.zero(Q, 0).is_zero()
    assert Polynomial.zero(G2, 2) == Polynomial(G2, 2)


def test_homogenize_dehomogenize():
    z1, z2, z3 = (RationalFunction.variable(Q, 3, i) for i in range(3))
    f = z1 * z2 / z3
    dropped = f.dehomogenize_last()
    w1, w2 = (RationalFunction.variable(Q, 2, i) for i in range(2))
    assert dropped == w1 * w2
    assert dropped.n_vars == 2
    assert dropped.homogenize_new_var() == f
    one = RationalFunction.one(Q, 0)
    assert one.homogenize_new_var() == RationalFunction.variable(Q, 1, 0)


def test_divide_exact():
    z1, z2 = _vars(Q, 2)
    product = (z1 + z2) * (z1 * z1 + z2)
    assert product.divide_exact(z1 + z2) == z1 * z1 + z2
    with pytest.raises(ArithmeticError):
        (z1 * z1 + Polynomial.one(Q, 2)).divide_exact(z1 + z2)


def test_canonical_text():
    z1, z2, z3 = _vars(Q, 3)
    p = z1 * z1 * z2 * Polynomial.constant(Q, 3, 3) + z3
    assert str(p) == "3*z1^2*z2 + z3"
    assert str(Polynomial.zero(Q, 3)) == "0"
    neg = -z1 + z2.scale(-2)
    assert str(neg) == "-z1 - 2*z2"


def test_eq_is_equivalence_and_scaling_invariant(rng):
    for _ in range(100):
        d = rng.choice([Q, G2, prime_field(3)])
        n = rng.randint(1, 3)
        f = random_ratfun(rng, d, n)
        g = random_ratfun(rng, d, n)
        h = random_ratfun(rng, d, n)
        assert f == f
        if f == g:
            assert g == f
        if f == g and g == h:
            assert f == h
        c = d.coerce(2) if d.characteristic != 2 else d.one
        scaled = RationalFunction(f.num.scale(c), f.den.scale(c))
        assert scaled == f


@settings(max_examples=60)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_monomial_degree_laws(a, b, n):
    z = Polynomial.variable(Q, n, 0)
    p = z**a * z**b
    assert p.total_degree() == a + b


def test_homogeneous_product_law(rng):
    # products of homogeneous functions add degrees; inverse negates
    from ratpencil_testkit import random_degree_one_ratfun

    for _ in range(60):
        d = rng.choice([Q, G2])
        n = rng.randint(1, 3)
        f = random_degree_one_ratfun(rng, d, n, nonzero=True)
        g = random_degree_one_ratfun(rng, d, n, nonzero=True)
        assert (f * g).is_homogeneous(2)
        assert f.inverse().is_homogeneous(-1)
        assert (f + g).is_homogeneous(1)
