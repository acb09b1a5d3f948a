"""Expression grammar: parsing, precedence, errors, print round trips."""

import pytest

from ratpencil.errors import (
    DivisionByZeroPolynomial,
    FieldLiteralError,
    ParseError,
)
from ratpencil.expr import MAX_EXPONENT, parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix
from ratpencil.poly import RationalFunction

from conftest import random_matrix, random_ratfun

Q = rationals()
G2 = prime_field(2)


def _z(d, n, i):
    return RationalFunction.variable(d, n, i)


def test_scalar_examples():
    out = parse_expression("z1*z2/z3", Q)
    assert out == RationalMatrix.scalar(_z(Q, 3, 0) * _z(Q, 3, 1) / _z(Q, 3, 2))


def test_matrix_literal_gf2():
    out = parse_expression("[[z1, z2],[z2, z1^3]]", G2)
    z1, z2 = _z(G2, 2, 0), _z(G2, 2, 1)
    assert out == RationalMatrix([[z1, z2], [z2, z1 * z1 * z1]])
    assert out.is_symmetric()


def test_field_literal_error_over_gf2():
    with pytest.raises(FieldLiteralError):
        parse_expression("1/2 * (z1+z2)", G2)


def test_division_by_zero_polynomial():
    with pytest.raises(DivisionByZeroPolynomial):
        parse_expression("1/(z1-z1)", Q)


def test_zero_constant_divisor_is_a_literal_error():
    # the divisor names no variable, so a variable in the dividend does not
    # make this a zero-polynomial division
    with pytest.raises(FieldLiteralError):
        parse_expression("z1/(2-2)", Q)


def test_precedence():
    out = parse_expression("1+2*z1^2", Q)
    z1 = _z(Q, 1, 0)
    one = RationalFunction.one(Q, 1)
    assert out == RationalMatrix.scalar(one + (z1 * z1).scale(2))
    assert parse_expression("-z1^2", Q) == RationalMatrix.scalar(-(z1 * z1))
    assert parse_expression("2^3", Q) == RationalMatrix.scalar(
        RationalFunction.constant(Q, 0, 8)
    )


def test_parentheses_and_unary_minus():
    out = parse_expression("-(z1 - z2) * 3", Q)
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    assert out == RationalMatrix.scalar((z2 - z1).scale(3))


def test_nvars_inference_and_override():
    assert parse_expression("z2", Q).n_vars == 2
    assert parse_expression("z1", Q, n_vars=3).n_vars == 3
    with pytest.raises(ParseError):
        parse_expression("z3", Q, n_vars=2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z1 + ", Q)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_expression("z1 @ z2", Q)
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_expression("z1 ^ z2", Q)
    with pytest.raises(ParseError):
        parse_expression("[[z1],[z1, z2]]", Q)
    with pytest.raises(ParseError):
        parse_expression("[[ [[1,0],[0,1]] ]]", Q)


def test_exponent_limit():
    z1 = _z(Q, 1, 0)
    assert parse_expression(f"z1^{MAX_EXPONENT}", Q) == RationalMatrix.scalar(
        RationalFunction(z1.num ** MAX_EXPONENT)
    )
    with pytest.raises(ParseError) as info:
        parse_expression(f"(1+z1)^{MAX_EXPONENT + 1}", Q)
    assert info.value.position == 7
    with pytest.raises(ParseError):
        parse_expression("z1^" + "9" * 5000, Q)


def test_deep_nesting_is_a_parse_error():
    assert parse_expression("(" * 50 + "-" * 51 + "z1" + ")" * 50, Q) == (
        -parse_expression("z1", Q)
    )
    for text in ["(" * 5000 + "z1" + ")" * 5000, "-" * 5000 + "z1"]:
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expression(text, Q)


def test_nested_powers_obey_the_exponent_limit():
    z1 = _z(Q, 1, 0)
    assert parse_expression("(z1^10)^100", Q) == parse_expression(
        f"z1^{MAX_EXPONENT}", Q
    )
    assert parse_expression("((z1^2)^5)^100", Q) == RationalMatrix.scalar(
        RationalFunction(z1.num ** 1000)
    )
    assert parse_expression("(2^1000)^1", Q)
    for text, position in [("(z1^1000)^1000", 9), ("(z1^11)^100", 7),
                           ("(1/z1^2)^501", 8), ("[[z1^2, 0], [0, 1]]^501", 19)]:
        with pytest.raises(ParseError) as info:
            parse_expression(text, Q)
        assert info.value.position == position, text


def test_matrix_arithmetic_in_expressions():
    out = parse_expression("[[1,0],[0,1]] * [[z1, 0],[0, z2]]", Q)
    assert out == parse_expression("[[z1, 0],[0, z2]]", Q)
    doubled = parse_expression("2 * [[z1, 0],[0, z2]]", Q)
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    zero = RationalFunction.zero(Q, 2)
    assert doubled == RationalMatrix([[z1.scale(2), zero], [zero, z2.scale(2)]])


def test_print_parse_round_trip(rng):
    for trial in range(60):
        d = [Q, G2, prime_field(5)][trial % 3]
        n = rng.randint(1, 3)
        f = random_ratfun(rng, d, n)
        again = parse_expression(str(f), d, n)
        assert again == RationalMatrix.scalar(f)


def test_print_parse_round_trip_matrix(rng):
    for trial in range(10):
        d = [Q, prime_field(3)][trial % 2]
        m = random_matrix(rng, d, 2, 2, max_deg=2, max_terms=2)
        text = (
            "[["
            + "],[".join(
                ", ".join(str(e) for e in row) for row in m.entries
            )
            + "]]"
        )
        assert parse_expression(text, d, 2) == m
