"""Field arithmetic: canonical forms, axioms, characteristic queries."""

import time

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from ratpencil.errors import (
    DescriptorMismatch,
    DivisionByZero,
    FieldLiteralError,
)
from ratpencil.fields import (
    MAX_MODULUS,
    FieldDescriptor,
    FieldElement,
    _is_prime,
    accumulate,
    characteristic,
    field_arith,
    parse_field,
    prime_field,
    rationals,
)


def test_descriptor_strings():
    assert parse_field("q") == rationals()
    assert parse_field("gf:5") == prime_field(5)
    assert parse_field("gf2") == prime_field(2)
    assert rationals().name() == "q"
    assert prime_field(7).name() == "gf:7"


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError):
        prime_field(1)
    prime_field(2)
    prime_field(97)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_primality_near_the_modulus_limit():
    # strong pseudoprimes to the bases 2..7 and 2..23, a Carmichael
    # number and 2^64 - 1; 2^64 - 59 is the largest prime below 2^64
    for n in (3215031751, 3825123056546413051, 561, 2**64 - 1):
        assert not _is_prime(n)
    assert _is_prime(2**64 - 59) and _is_prime(2**61 - 1)
    assert prime_field(2**64 - 59).modulus == 2**64 - 59
    with pytest.raises(ValueError, match="2\\^64"):
        prime_field(MAX_MODULUS + 13)


@pytest.mark.parametrize("text", [
    "gf:x", "gf:", "gf:-7", "gf:+7", "gf: 7", "gf:7.0", "gf:\u0663", "gf7",
    "gf:4", "gf:1", "gf:0", "gf:18446744073709551629",
    "gf:1000000000000000000000000000057", "gf:" + "9" * 5000,
])
def test_bad_field_descriptors_name_the_grammar(text):
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        parse_field(text)
    assert time.perf_counter() - start < 1.0
    message = str(info.value)
    assert any(part in message for part in ("q | gf2 | gf:p", "2^64", "prime"))
    assert len(message) < 200


def test_field_descriptor_spellings():
    assert parse_field(" GF:7 ") == prime_field(7)
    assert parse_field("gf:007") == prime_field(7)
    assert parse_field("gf:18446744073709551557") == prime_field(2**64 - 59)


def test_characteristic():
    assert characteristic(rationals()) == 0
    assert characteristic(prime_field(2)) == 2
    assert characteristic(prime_field(7)) == 7


def test_gf2_one_plus_one():
    g2 = prime_field(2)
    one = FieldElement(g2, 1)
    assert field_arith(one, one, "add") == FieldElement(g2, 0)


def test_rational_additive_inverse():
    q = rationals()
    a = FieldElement(q, Fraction(1, 4))
    b = FieldElement(q, Fraction(-1, 4))
    assert (a + b).value == 0


def test_gf7_division():
    g7 = prime_field(7)
    three = FieldElement(g7, 3)
    five = FieldElement(g7, 5)
    quotient = field_arith(three, five, "div")
    assert quotient == FieldElement(g7, 2)
    # oracle: 5 * 2 = 10 = 3 mod 7
    assert five * quotient == three


def test_division_by_zero():
    g5 = prime_field(5)
    with pytest.raises(DivisionByZero):
        FieldElement(g5, 1) / FieldElement(g5, 0)


def test_rational_inverse_of_an_int_is_exact():
    q = rationals()
    for value in (q.inv(3), q.div(1, 3), q.div(q.one, 3), q.inv(Fraction(3))):
        assert value == Fraction(1, 3)
        assert type(value) is Fraction
    assert q.div(Fraction(2, 5), -4) == Fraction(-1, 10)
    with pytest.raises(DivisionByZero):
        q.inv(0)


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        FieldElement(prime_field(2), 1) + FieldElement(prime_field(3), 1)


def test_canonical_rational_form():
    q = rationals()
    assert FieldElement(q, Fraction(2, -4)).value == Fraction(-1, 2)
    assert q.parse_value("6/4") == Fraction(3, 2)
    assert q.format_value(Fraction(-3, 4)) == "-3/4"


def test_gf_value_parsing():
    g7 = prime_field(7)
    assert g7.parse_value("10") == 3
    assert g7.parse_value("-1") == 6
    assert g7.parse_value("3/5") == 2


@pytest.mark.parametrize(
    "descriptor, text",
    [(rationals(), "1/0"), (rationals(), " -3/0 "), (prime_field(7), "1/7"),
     (prime_field(2), "1/0"), (rationals(), "1e999999999")],
)
def test_bad_literals_are_field_literal_errors(descriptor, text):
    with pytest.raises(FieldLiteralError):
        descriptor.parse_value(text)


@pytest.mark.parametrize("descriptor", [rationals(), prime_field(2),
                                        prime_field(7)])
@pytest.mark.parametrize(
    "text",
    ["1.5", "1_000", "+3", "1e5", "", "-", "/2", "1/", "1/-2", "--1", "3 /4",
     "0x10", "\u0663", "1/2/3", "inf", "nan"],
)
def test_only_the_documented_literals_parse(descriptor, text):
    with pytest.raises(FieldLiteralError):
        descriptor.parse_value(text)


@pytest.mark.parametrize(
    "text, q_value, gf7_value",
    [(" 0", 0, 0), ("-0", 0, 0), ("0/5", 0, 0), ("007", 7, 0), ("-3/6", -0.5, 3),
     ("\t12\n", 12, 5)],
)
def test_documented_literals_agree_across_fields(text, q_value, gf7_value):
    assert rationals().parse_value(text) == Fraction(q_value)
    assert prime_field(7).parse_value(text) == gf7_value


_descriptors = st.sampled_from(
    [rationals(), prime_field(2), prime_field(3), prime_field(7)]
)


def _raw_values(descriptor):
    if descriptor.characteristic == 0:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, descriptor.characteristic - 1)


@st.composite
def _accumulations(draw):
    """A field, a start map without zeros, and pairs over few keys: zero
    values, repeated keys, and pairs that cancel a key exactly."""
    descriptor = draw(_descriptors)
    values = _raw_values(descriptor)
    keys = st.sampled_from([(0, 0), (0, 1), (1, 0), (2, 2)])
    start = draw(st.dictionaries(keys, values.filter(bool)))
    pairs = draw(st.lists(st.tuples(keys, values), max_size=12))
    for key in draw(st.lists(keys, max_size=3)):
        total = start.get(key, descriptor.zero)
        for k, v in pairs:
            if k == key:
                total = descriptor.add(total, v)
        pairs.append((key, descriptor.neg(total)))
        pairs.append((key, descriptor.zero))
    return descriptor, start, pairs


@given(_accumulations())
def test_accumulate_matches_a_naive_sum(data):
    descriptor, start, pairs = data
    expected = {}
    for key in set(start) | {k for k, _ in pairs}:
        total = start.get(key, descriptor.zero)
        for k, v in pairs:
            if k == key:
                total = descriptor.add(total, v)
        if total:
            expected[key] = total
    dst = dict(start)
    assert accumulate(dst, iter(pairs), descriptor.add) is dst
    assert dst == expected
    assert all(dst.values())


@st.composite
def _triples(draw):
    descriptor = draw(_descriptors)
    values = []
    for _ in range(3):
        if descriptor.characteristic == 0:
            values.append(
                Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
            )
        else:
            values.append(draw(st.integers(0, descriptor.characteristic - 1)))
    return descriptor, [FieldElement(descriptor, v) for v in values]


@given(_triples())
def test_field_axioms(data):
    descriptor, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    zero = FieldElement(descriptor, 0)
    one = FieldElement(descriptor, 1)
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    if a != zero:
        assert a * a.inverse() == one


@given(st.integers(0, 1), st.integers(0, 1))
def test_gf2_frobenius(x, y):
    g2 = prime_field(2)
    a, b = FieldElement(g2, x), FieldElement(g2, y)
    assert (a + b) * (a + b) == a * a + b * b
