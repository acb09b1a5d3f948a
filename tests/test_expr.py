"""Expression grammar: parsing, precedence, errors, print round trips."""

import pytest

from ratpencil.errors import (
    DegreeTooLarge,
    DivisionByZeroPolynomial,
    FieldLiteralError,
    ParseError,
)
from ratpencil.expr import MAX_EXPONENT, MAX_TERMS, parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix
from ratpencil.poly import Polynomial, RationalFunction

from ratpencil_testkit import random_matrix, random_ratfun

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


def test_negative_variable_count_is_refused_first():
    # no variable z0 exists, so the message must not blame one
    for text in ["1", "z1", "z1 + "]:
        with pytest.raises(ParseError, match="variable count -1 is negative"):
            parse_expression(text, Q, n_vars=-1)
    assert parse_expression("1", Q, n_vars=0).n_vars == 0


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


def test_a_matrix_entry_that_is_a_matrix_is_reported_at_its_first_token():
    for text in ["[[ [[z1, 1]] + [[1, 2]], 2 ]]", "[[ [[z1, 1],[1, 1]]^2, 2 ]]",
                 "[[ ([[z1, 1]]), 2 ]]", "[[ -[[z1, 1]], 2 ]]"]:
        with pytest.raises(ParseError, match="entries must be scalars") as info:
            parse_expression(text, Q)
        assert type(info.value.position) is int and info.value.position == 3


def test_the_first_fault_in_reading_order_is_reported():
    # an index past --nvars comes first, as the tokens are read first
    with pytest.raises(ParseError, match="uses z2") as info:
        parse_expression("z1 + ) + z2", Q, 1)
    assert info.value.position == 0
    # a value is checked as soon as it is read, before a later syntax fault
    with pytest.raises(FieldLiteralError):
        parse_expression("z1/(2-2) + )", Q)
    with pytest.raises(ParseError, match="unexpected '\\)'") as info:
        parse_expression("z1 + ) + z1/(2-2)", Q)
    assert info.value.position == 5


def test_digits_are_ascii_only():
    # other digits (Arabic-Indic, fullwidth, superscript) are unexpected
    # characters at their position, not digits and not a bare ValueError
    for text, position in [("\u0663*z1", 0), ("\uff11*z1", 0), ("5\u00b2", 1),
                           ("z1^\u00b2", 3), ("z1\u0663", 2)]:
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_expression(text, Q)
        assert info.value.position == position, text
    for text in ["z\u0663", "z\u00b2"]:
        with pytest.raises(ParseError, match="variables are z1") as info:
            parse_expression(text, Q)
        assert info.value.position == 0
    with pytest.raises(ParseError, match="too long") as info:
        parse_expression("z" + "9" * 5000, Q)
    assert info.value.position == 1


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


def _refused(text, message, position):
    """``text`` over Q is a ParseError with exactly this message and
    position."""
    with pytest.raises(ParseError) as info:
        parse_expression(text, Q)
    assert str(info.value) == f"{message} (at position {position})", text
    assert info.value.position == position, text


def _over(count):
    return f"the result could have {count} terms, over the limit of {MAX_TERMS}"


def test_term_limit():
    # C(3 + 19, 20) = 231 terms, below the limit
    assert len(parse_expression("(1+z1+z2)^20", Q).entries[0][0].num.terms) == 231
    # C(1003, 1000) terms for the power; 816 * 816 for each product
    a, b = "(1+z1+z2+z3)^15", "(1+z4+z5+z6)^15"
    for text, count, position in [("(1+z1+z2+z3)^1000", 167668501, 12),
                                  ("1/(1+z1+z2+z3)^1000", 167668501, 14),
                                  (f"{a} * {b}", 665856, 16),
                                  (f"{a} / (1/{b})", 665856, 16),
                                  (f"1/{a} - 1/{b}", 665856, 18)]:
        _refused(text, _over(count), position)


def test_a_flat_sum_meets_the_term_limit():
    monomials = [f"z1^{i // 150}*z2^{i % 150}" for i in range(MAX_TERMS + 1)]
    text = " + ".join(monomials[:MAX_TERMS])
    assert len(parse_expression(text, Q)[0, 0].num.terms) == MAX_TERMS
    with pytest.raises(ParseError, match=f"{MAX_TERMS + 1} terms, over the "
                       f"limit of {MAX_TERMS}") as info:
        parse_expression(f"{text} + {monomials[-1]}", Q)
    assert info.value.position == len(text) + 1


def test_a_sum_of_monomials_takes_no_polynomial_arithmetic(monkeypatch):
    # each monomial is one (key, coefficient) pair and the sum one term map
    calls = []
    for name in ("_plus", "__mul__"):
        method = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda self, *args, m=method:
                            calls.append(1) or m(self, *args))
    text = " - ".join(f"{i % 7 - 3}*z1^{i % 10}*z2^{i // 10}*-z3"
                      for i in range(1000))
    out = parse_expression(text, Q)[0, 0]
    assert not calls
    assert len(out.num.terms) == sum(i % 7 != 3 for i in range(1000))


def test_a_zero_factor_skips_the_degree_check():
    # as in Polynomial.__mul__, a product is 0 before its degree matters
    past = "*".join(["z1^1000"] * 525)
    assert parse_expression(f"0*{past}", Q)[0, 0].is_zero()
    assert parse_expression(f"z1*2*{past}", G2)[0, 0].is_zero()
    with pytest.raises(DegreeTooLarge, match="product degree"):
        parse_expression(f"{past}*0", Q)


def test_matrix_term_limit():
    a, b = "(1+z1+z2+z3)^15", "(1+z4+z5+z6)^15"
    big_a, big_b = f"[[{a}, 0], [0, 1]]", f"[[{b}, 0], [0, 1]]"
    for text, count, position in [
        (f"{big_a} * {big_b}", 665856, 31),
        (f"{a} * {big_b}", 665856, 16),
        (f"{big_a} * {b}", 665856, 31),
        (f"{big_a} / (1/{b})", 665856, 31),
        (f"[[1/{a}, 0], [0, 1]] - [[1/{b}, 0], [0, 1]]", 665856, 33),
        (f"{big_a}^2", 29791, 30),
        # an entry that sums two products: 816 * 816 twice, over den 1
        (f"[[{a}, {a}], [0, 1]] * [[{b}, 0], [{b}, 1]]", 1331712, 45),
    ]:
        _refused(text, _over(count), position)
    # the shapes are checked before the bound
    _refused(f"{big_a} * [[{b}, 0, 0], [0, 1, 0], [0, 0, 1]]",
             "cannot multiply 2x2 by 3x3", 31)
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    one, zero = RationalFunction.one(Q, 2), RationalFunction.zero(Q, 2)
    assert parse_expression("[[z1, 0], [0, 1]] * [[z2, 0], [0, 1]]", Q) == (
        RationalMatrix([[z1 * z2, zero], [zero, one]])
    )
    assert parse_expression("[[1+z1, z2]] + [[z2, 1]]", Q) == RationalMatrix(
        [[one + z1 + z2, z2 + one]]
    )
    assert parse_expression("[[(1+z1+z2)^20, 0], [0, 1]]^2", Q)[0, 0] == (
        parse_expression("(1+z1+z2)^40", Q)[0, 0]
    )


def test_deep_nesting_is_a_parse_error():
    assert parse_expression("(" * 50 + "-" * 51 + "z1" + ")" * 50, Q) == (
        -parse_expression("z1", Q)
    )
    for text in ["(" * 5000 + "z1" + ")" * 5000, "(" * 5000 + "z1",
                 "-" * 5000 + "z1"]:
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expression(text, Q)


def test_a_run_of_one_precedence_is_not_nesting():
    # a run of + - (or * /) is folded from the left in a loop, not nested
    n = 5000
    text = " + ".join(f"{i}*z{1 + i % 3}" for i in range(n))
    a, b, c = (sum(range(v, n, 3)) for v in range(3))
    assert parse_expression(text, Q) == parse_expression(
        f"{a}*z1 + {b}*z2 + {c}*z3", Q)
    text = " - ".join(["z1"] * n)
    assert parse_expression(text, Q) == parse_expression(f"{2 - n}*z1", Q)
    z1, z2 = Polynomial.variable(Q, 2, 0), Polynomial.variable(Q, 2, 1)
    assert parse_expression("*".join(["z1"] * n) + "/z2", Q) == (
        RationalMatrix.scalar(RationalFunction(z1 ** n, z2)))


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


def test_a_power_is_taken_by_squaring(monkeypatch):
    # z1^1000 is about 2 log2(1000) products, not 1000; a fraction raises
    # its numerator and its denominator
    calls = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    out = parse_expression("z1^1000", Q)
    assert len(calls) < 40
    monkeypatch.undo()
    z1 = Polynomial.variable(Q, 1, 0)
    assert out == RationalMatrix.scalar(RationalFunction(z1 ** 1000))
    for d in (Q, G2):
        z1, z2 = Polynomial.variable(d, 2, 0), Polynomial.variable(d, 2, 1)
        one = Polynomial.one(d, 2)
        assert parse_expression("(z1/(1+z2))^3", d) == RationalMatrix.scalar(
            RationalFunction(z1 * z1 * z1, (one + z2) * (one + z2) * (one + z2)))


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


def test_a_polynomial_matrix_literal_builds_one_matrix(monkeypatch):
    # scalars stay polynomials: only the literal itself becomes a matrix
    calls = []
    init = RationalMatrix.__init__

    def counting_init(self, entries):
        calls.append(1)
        init(self, entries)

    monkeypatch.setattr(RationalMatrix, "__init__", counting_init)
    out = parse_expression(
        "[[3*z1^2 + 5*z2 - 4, -z1*z2, 2],"
        " [z2^2 - 3*z1 + 8, -(z1 - 1)^2, 6*z1*z2],"
        " [-z1^2 + 3*z2, 7, z1 + z2]]", Q)
    assert (out.rows, out.cols) == (3, 3)
    assert len(calls) == 1
