"""The packed polynomial kernel against a naive reference.

The reference keeps exponent tuples as keys and raw field values
(``Fraction`` over Q, ints mod p) as values, and sums every operation's
terms in the order the kernel visits them: a monomial keeps the place where
it first appears, and monomials whose sum is zero are dropped at the end.
Products visit the shorter operand's terms in the outer loop (the left one
on a tie).  The kernel's ``terms`` view must show the same monomials, values,
value types and order.
"""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from ratpencil.cli import main
from ratpencil.errors import DegreeTooLarge, DescriptorMismatch
from ratpencil.fields import prime_field, rationals
from ratpencil.poly import MAX_DEGREE, NEG_INFINITY, Polynomial

FIELDS = [rationals(), prime_field(2), prime_field(101)]


# -- the reference ------------------------------------------------------------


def grlex_key(exps):
    """Graded lexicographic order on exponent tuples."""
    return (sum(exps), exps)


def ref_sum(d, pairs) -> dict:
    out = {}
    for exps, value in pairs:
        out[exps] = d.add(out.get(exps, d.zero), value)
    return {exps: value for exps, value in out.items() if value}


def _plus(e, f):
    return tuple(x + y for x, y in zip(e, f))


def ref_mul(d, a, b) -> dict:
    if len(a) > len(b):
        a, b = b, a
    return ref_sum(d, ((_plus(ea, eb), d.mul(va, vb))
                       for ea, va in a.items() for eb, vb in b.items()))


def ref_pow(d, n, a, e) -> dict:
    result, base = {(0,) * n: d.one}, a
    while e:
        if e & 1:
            result = ref_mul(d, result, base)
        if e > 1:
            base = ref_mul(d, base, base)
        e >>= 1
    return result


def ref_divide(d, a, b):
    """The quotient, largest monomial first, or None on a remainder."""
    lead = max(b, key=grlex_key)
    rem, out = dict(a), {}
    while rem:
        exps = max(rem, key=grlex_key)
        if any(x < y for x, y in zip(exps, lead)):
            return None
        q = tuple(x - y for x, y in zip(exps, lead))
        out[q] = d.div(rem[exps], b[lead])
        rem = ref_sum(d, chain(rem.items(), (
            (_plus(q, e), d.neg(d.mul(out[q], v))) for e, v in b.items())))
    return out


def ref_str(d, a) -> str:
    parts = []
    for exps in sorted(a, key=grlex_key, reverse=True):
        value = a[exps]
        negative = d.characteristic == 0 and value < 0
        mag = -value if negative else value
        factors = [f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}"
                   for i, e in enumerate(exps) if e]
        body = "*".join(([] if factors and mag == 1 else [str(mag)]) + factors)
        if parts:
            parts.append(("- " if negative else "+ ") + body)
        else:
            parts.append(("-" if negative else "") + body)
    return " ".join(parts) or "0"


# -- strategies -----------------------------------------------------------------


def _values(d):
    if d.characteristic == 0:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(0, d.characteristic - 1)


LARGE = st.one_of(st.integers(0, 2), st.integers(0, 1000))
SMALL = st.integers(0, 3)


@st.composite
def operands(draw, exponents=(LARGE, LARGE)):
    """A field, a variable count and one term map per exponent strategy;
    exponents are often small, so that monomials collide and sums cancel."""
    d = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 4))
    maps = []
    for exponent in exponents:
        term = st.tuples(st.tuples(*[exponent] * n), _values(d))
        maps.append(dict(draw(st.lists(term, max_size=6))))
    return d, n, maps


def _check(d, p: Polynomial, expected: dict):
    """p equals the reference ``expected``, term by term and in order."""
    value_type = Fraction if d.characteristic == 0 else int
    assert list(p.terms.items()) == list(expected.items())
    assert all(type(v) is value_type for v in p.terms.values())
    assert all(type(e) is tuple for e in p.terms)
    assert len(p.terms) == len(expected)
    assert p == Polynomial(d, p.n_vars, expected)
    assert hash(p) == hash(Polynomial(d, p.n_vars, expected))
    assert str(p) == ref_str(d, expected)
    total = max((sum(e) for e in expected), default=NEG_INFINITY)
    assert p.total_degree() == total
    if expected:
        assert p.leading_monomial() == max(expected, key=grlex_key)


# -- the oracle -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(operands())
def test_ring_operations_match_the_reference(data):
    d, n, (ta, tb) = data
    a_ref = ref_sum(d, ((e, d.coerce(v)) for e, v in ta.items()))
    b_ref = ref_sum(d, ((e, d.coerce(v)) for e, v in tb.items()))
    a, b = Polynomial(d, n, ta), Polynomial(d, n, tb)
    _check(d, a, a_ref)
    _check(d, a + b, ref_sum(d, chain(a_ref.items(), b_ref.items())))
    _check(d, a - b, ref_sum(d, chain(
        a_ref.items(), ((e, d.neg(v)) for e, v in b_ref.items()))))
    _check(d, -a, {e: d.neg(v) for e, v in a_ref.items()})
    _check(d, a * b, ref_mul(d, a_ref, b_ref))
    for c in (d.coerce(3), d.coerce(Fraction(-2, 3)), d.zero):
        _check(d, a.scale(c), ref_sum(
            d, ((e, d.mul(v, c)) for e, v in a_ref.items())))
    assert (a == b) == (a_ref == b_ref)


@settings(max_examples=60, deadline=None)
@given(operands(exponents=(LARGE,)), st.integers(0, 5))
def test_powers_match_the_reference(data, e):
    d, n, (ta,) = data
    ta = dict(list(ta.items())[:3])
    a = Polynomial(d, n, ta)
    a_ref = ref_sum(d, ((x, d.coerce(v)) for x, v in ta.items()))
    _check(d, a**e, ref_pow(d, n, a_ref, e))


@settings(max_examples=150, deadline=None)
@given(operands(exponents=(LARGE, LARGE, SMALL)))
def test_division_matches_the_reference(data):
    # the dividend with a remainder has small exponents: long division by
    # a divisor of high degree can take a very long time in the reference
    d, n, (ta, tb, tc) = data
    a, b = Polynomial(d, n, ta), Polynomial(d, n, tb)
    if b.is_zero():
        return
    b_ref = dict(b.terms)
    # an exact quotient
    product = a * b
    quotient = ref_divide(d, dict(product.terms), b_ref)
    assert quotient is not None
    _check(d, product.divide_exact(b), quotient)
    assert product.divide_exact(b) == a
    # any dividend: the reference decides whether a remainder is left
    c = Polynomial(d, n, tc) + product
    expected = ref_divide(d, dict(c.terms), b_ref)
    if expected is None:
        with pytest.raises(ArithmeticError):
            c.divide_exact(b)
    else:
        _check(d, c.divide_exact(b), expected)


def test_rational_contents():
    q = rationals()
    z1 = Polynomial.variable(q, 1, 0)
    half = Polynomial.constant(q, 1, Fraction(1, 2))
    assert (half * z1).terms == {(1,): Fraction(1, 2)}
    assert (z1 * half).terms == {(1,): Fraction(1, 2)}
    b = z1.scale(2) + Polynomial.one(q, 1)
    # every leading monomial divides, but 1 / 2 is not an integer step of
    # the primitive parts: z1^2 = (2 z1 + 1)(z1/2 - 1/4) + 1/4
    with pytest.raises(ArithmeticError):
        (z1 * z1).divide_exact(b)
    c = (z1 * z1 * b).scale(Fraction(3, 4))
    assert c.divide_exact(b.scale(Fraction(-5, 6))).terms == {
        (2,): Fraction(-9, 10)}


def test_a_monomial_keeps_the_place_where_it_first_appears():
    # mod 2, z1^3 cancels after two of its three contributions; it stays in
    # its first place, ahead of z1, which appears later
    d = prime_field(2)
    a = Polynomial(d, 1, {(0,): 1, (1,): 1, (3,): 1})
    b = Polynomial(d, 1, {(0,): 1, (2,): 1, (3,): 1})
    assert list((a * b).terms) == [(0,), (2,), (3,), (1,), (4,), (5,), (6,)]


# -- degree limit -------------------------------------------------------------------


@pytest.mark.parametrize("d", FIELDS, ids=lambda d: d.name())
def test_seventy_factors_give_the_exact_monomial(d):
    factor = Polynomial.monomial(d, 1, (1000,))
    acc = Polynomial.one(d, 1)
    for _ in range(70):
        acc = acc * factor
    assert acc.terms == {(70000,): d.one}
    assert acc.total_degree() == 70000


@pytest.mark.parametrize("d", FIELDS, ids=lambda d: d.name())
def test_an_exponent_past_the_limit_never_carries(d):
    z1, z2 = Polynomial.variable(d, 2, 0), Polynomial.variable(d, 2, 1)
    top = Polynomial.monomial(d, 2, (0, MAX_DEGREE))
    assert top.terms == {(0, MAX_DEGREE): d.one}
    with pytest.raises(DegreeTooLarge):
        top * z2
    with pytest.raises(DegreeTooLarge):
        top * z1
    with pytest.raises(DegreeTooLarge):
        Polynomial.monomial(d, 2, (MAX_DEGREE + 1, 0))
    with pytest.raises(DegreeTooLarge):
        z2 ** (MAX_DEGREE + 1)
    below = Polynomial.monomial(d, 2, (0, MAX_DEGREE - 1)) * z2
    assert below.terms == {(0, MAX_DEGREE): d.one}
    assert below.divide_exact(top) == Polynomial.one(d, 2)


@pytest.mark.parametrize("d", FIELDS, ids=lambda d: d.name())
def test_one_term_products(d):
    # both operands have one term: the product is one term, its key checked
    # against the degree limit and its operands against each other
    top = Polynomial.monomial(d, 2, (MAX_DEGREE, 0))
    c = Polynomial.constant(d, 2, 3)
    assert (top * c).terms == {(MAX_DEGREE, 0): d.coerce(3)}
    assert (c * top).terms == (top * c).terms
    with pytest.raises(DegreeTooLarge):
        top * Polynomial.variable(d, 2, 1)
    with pytest.raises(DegreeTooLarge):
        Polynomial.variable(d, 2, 0) * top
    for other in (Polynomial.variable(prime_field(7), 2, 0),
                  Polynomial.variable(d, 3, 0)):
        with pytest.raises(DescriptorMismatch):
            c * other
        with pytest.raises(DescriptorMismatch):
            other * c
    rational = d.characteristic == 0
    a = Polynomial.monomial(d, 2, (1, 0), Fraction(1, 2) if rational else 1)
    b = Polynomial.monomial(d, 2, (0, 2), Fraction(2, 3) if rational else 1)
    product = a * b
    assert product.terms == ref_mul(d, dict(a.terms), dict(b.terms))
    assert product == Polynomial(d, 2, dict(product.terms))


def test_degree_past_the_limit_exits_two(capsys):
    # 2^10 factors of z1^1000 in a balanced product: degree 1024000
    text = "z1^1000"
    for _ in range(10):
        text = f"({text}*{text})"
    code = main(["realize", "--field", "q", "--kind", "br", "--expr", text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "degree" in captured.err
