"""Fuzz of ``parse_expression`` against a point evaluator.

Random expression trees (``+ - * / ^``, unary minus, parentheses, small
matrix literals) are printed with the fewest parentheses the grammar needs,
or with extra ones, and parsed over q, gf2 and gf:101.  The tree itself is
also evaluated at seeded points by :class:`PointEval`, which works on plain
``Fraction``s over Q and ints mod p and shares no code with the library.

Every text must either raise a ``RatPencilError`` or give a matrix whose
entries agree with the point evaluator wherever no denominator vanishes.  A
text that is ill-formed by shape (a matrix entry that is a matrix, unequal
shapes, division by a matrix, a power of a non-square matrix) must raise,
and a text that the evaluator can evaluate at some point with no zero
divisor must parse, unless a stated size limit stops it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ratpencil.errors import ParseError, RatPencilError
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field

FIELDS = {"q": None, "gf2": 2, "gf:101": 101}
N_VARS = 3


# -- trees and their text ------------------------------------------------------

def _matrix(children):
    def rows(cols):
        row = st.lists(children, min_size=cols, max_size=cols).map(tuple)
        return st.lists(row, min_size=1, max_size=2).map(tuple)
    return st.integers(1, 2).flatmap(rows).map(lambda r: ("matrix", r))


def _extend(children):
    return st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("paren"), children),
        st.tuples(st.just("pow"), children, st.integers(0, 2)),
        st.tuples(st.just("bin"), st.sampled_from("+-*/"), children, children),
        _matrix(children),
    )


LEAVES = st.one_of(
    st.tuples(st.just("int"), st.integers(0, 5)),
    st.tuples(st.just("var"), st.integers(1, N_VARS)),
)
TREES = st.recursive(LEAVES, _extend, max_leaves=10)


def text_expr(node) -> str:
    if node[0] == "bin" and node[1] in "+-":
        _, op, left, right = node
        return f"{text_expr(left)} {op} {text_term(right)}"
    return text_term(node)


def text_term(node) -> str:
    if node[0] == "bin" and node[1] in "*/":
        _, op, left, right = node
        return f"{text_term(left)}{op}{text_factor(right)}"
    return text_factor(node)


def text_factor(node) -> str:
    if node[0] == "neg":
        return "-" + text_factor(node[1])
    if node[0] == "pow":
        return f"{text_atom(node[1])}^{node[2]}"
    return text_atom(node)


def text_atom(node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "var":
        return f"z{node[1]}"
    if kind == "paren":
        return f"({text_expr(node[1])})"
    if kind == "matrix":
        return "[" + ", ".join(
            "[" + ", ".join(text_expr(e) for e in row) + "]" for row in node[1]
        ) + "]"
    return f"({text_expr(node)})"  # an operator below its precedence


# -- the point evaluator -------------------------------------------------------

class Shape(Exception):
    """The text is ill-formed by shape, whatever the point."""


class PointEval:
    """Value of a tree at one point: a scalar, or a tuple of row tuples that
    is not 1x1.  A zero divisor sets ``vanished`` and evaluation goes on, so
    that shape errors still show."""

    def __init__(self, p, point):
        self.p = p
        self.point = point
        self.vanished = False

    def reduce(self, x):
        return x % self.p if self.p else x

    def inverse(self, x):
        if x == 0:
            self.vanished = True
            return x
        return pow(x, -1, self.p) if self.p else 1 / x

    @staticmethod
    def collapse(rows):
        return rows[0][0] if len(rows) == 1 and len(rows[0]) == 1 else rows

    def scale(self, c, rows):
        return tuple(tuple(self.reduce(c * x) for x in row) for row in rows)

    def matmul(self, a, b):
        if len(a[0]) != len(b):
            raise Shape("product shapes")
        return self.collapse(tuple(
            tuple(self.reduce(sum(a[i][t] * b[t][j] for t in range(len(b))))
                  for j in range(len(b[0])))
            for i in range(len(a))))

    def __call__(self, node):
        kind = node[0]
        if kind == "int":
            return self.reduce(Fraction(node[1]) if self.p is None else node[1])
        if kind == "var":
            return self.point[node[1] - 1]
        if kind == "paren":
            return self(node[1])
        if kind == "neg":
            value = self(node[1])
            if isinstance(value, tuple):
                return self.scale(-1, value)
            return self.reduce(-value)
        if kind == "pow":
            base, e = self(node[1]), node[2]
            if not isinstance(base, tuple):
                return self.reduce(base ** e)
            if len(base) != len(base[0]):
                raise Shape("power of a non-square matrix")
            size = len(base)
            acc = tuple(tuple(self.reduce(1 if i == j else 0)
                              for j in range(size)) for i in range(size))
            for _ in range(e):
                acc = self.matmul(acc, base)
            return acc
        if kind == "matrix":
            rows = tuple(tuple(self(e) for e in row) for row in node[1])
            if any(isinstance(x, tuple) for row in rows for x in row):
                raise Shape("matrix entry")
            return self.collapse(rows)
        _, op, left, right = node
        a, b = self(left), self(right)
        ma, mb = isinstance(a, tuple), isinstance(b, tuple)
        if op == "/":
            if mb:
                raise Shape("division by a matrix")
            inv = self.inverse(b)
            return self.scale(inv, a) if ma else self.reduce(a * inv)
        if op == "*":
            if ma and mb:
                return self.matmul(a, b)
            if ma or mb:
                return self.scale(b, a) if ma else self.scale(a, b)
            return self.reduce(a * b)
        sign = 1 if op == "+" else -1
        if not ma and not mb:
            return self.reduce(a + sign * b)
        if ma != mb or len(a) != len(b) or len(a[0]) != len(b[0]):
            raise Shape("sum shapes")
        return tuple(tuple(self.reduce(x + sign * y) for x, y in zip(ra, rb))
                     for ra, rb in zip(a, b))


def _at(poly, p, point):
    """A library polynomial at a point, read through its ``terms`` view."""
    total = 0
    for exps, coeff in poly.terms.items():
        for x, e in zip(point, exps):
            coeff = coeff * x ** e
        total += coeff
    return total % p if p else total


def _points(field, text, count=3):
    p = FIELDS[field]
    rng = random.Random(f"{field}:{text}")
    if p is None:
        return [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(N_VARS)) for _ in range(count)]
    return [tuple(rng.randrange(p) for _ in range(N_VARS))
            for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(TREES, st.sampled_from(sorted(FIELDS)))
def test_parse_agrees_with_a_point_evaluator(tree, field):
    text = text_expr(tree)
    p = FIELDS[field]
    try:
        matrix = parse_expression(text, parse_field(field))
        error = None
    except RatPencilError as exc:
        matrix, error = None, exc
    if isinstance(error, ParseError):
        position = error.position
        assert type(position) is int and 0 <= position <= len(text), (
            text, error)
    for point in _points(field, text):
        evaluator = PointEval(p, point)
        try:
            value = evaluator(tree)
        except Shape:
            assert error is not None, text
            return
        if evaluator.vanished:
            continue
        if error is not None:
            # defined at this point, so only a size limit may stop it
            assert "limit" in str(error), (text, error)
            return
        rows = value if isinstance(value, tuple) else ((value,),)
        assert (matrix.rows, matrix.cols) == (len(rows), len(rows[0])), text
        for row, out_row in zip(rows, matrix.entries):
            for expected, entry in zip(row, out_row):
                num, den = _at(entry.num, p, point), _at(entry.den, p, point)
                if den == 0:
                    continue
                got = num / den if p is None else num * pow(den, -1, p) % p
                assert got == expected, (text, point)


def test_printer_covers_the_grammar():
    tree = ("bin", "-", ("neg", ("pow", ("var", 1), 2)),
            ("bin", "+", ("int", 3),
             ("bin", "/", ("matrix", ((("var", 2),),)),
              ("paren", ("bin", "*", ("var", 1), ("var", 3))))))
    text = text_expr(tree)
    assert text == "-z1^2 - (3 + [[z2]]/(z1*z3))"
    q = parse_field("q")
    assert parse_expression(text, q) == parse_expression(
        "(-(z1^2)) - (3 + (z2/(z1*z3)))", q)
