"""Expression parser for rational matrix functions.

Grammar (precedence: ``^`` over ``* /`` over ``+ -``; unary minus binds like
a factor)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' nonneg_integer)?     (at most MAX_EXPONENT)
    atom    := integer | variable | '(' expr ')' | matrix
    matrix  := '[' row (',' row)* ']'      row := '[' expr (',' expr)* ']'
    variable := 'z' digits                  (z1, z2, ...)

Everything evaluates to an exact :class:`RationalMatrix` (scalars are 1x1).
The variable count is the largest index used unless overridden upward.
An exponent above :data:`MAX_EXPONENT` is a :class:`ParseError`, and so is a
power whose exponent times the base's largest degree in one variable (over
numerators and denominators) exceeds it, as in ``(z1^1000)^1000``.
Nesting (parentheses, unary minus) deeper than the interpreter's recursion
limit allows is a :class:`ParseError` too.

Every power, product, quotient and sum, of scalars and of matrices, is
checked against :data:`MAX_TERMS` before it is expanded.  A polynomial
product a * b has at most min(t_a * t_b, prod_i (deg_i a + deg_i b + 1))
terms and a power p^e at most min(C(t + e - 1, e), prod_i (e * deg_i p + 1)),
where t counts terms and deg_i is the degree in variable i.  Each entry of
a result is a sum of products of fractions, bounded from these the way it
is computed: the products' bounds multiply across n/d + n'/d' =
(n d' + n' d) / (d d') and add up along it.  A numerator or denominator
that could go over is a :class:`ParseError`, as in ``(1+z1+z2+z3)^1000``
or ``[[(1+z1+z2+z3)^15, 0], [0, 1]] * [[(1+z4+z5+z6)^15, 0], [0, 1]]``.
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    DivisionByZeroPolynomial,
    FieldLiteralError,
    ParseError,
)
from .fields import FieldDescriptor
from .matrices import RationalMatrix
from .poly import Polynomial, RationalFunction

_SYMBOLS = "+-*/^()[],"
MAX_EXPONENT = 1000
MAX_TERMS = 20000


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            try:
                value = int(text[start:pos])
            except ValueError:  # beyond Python's integer string limit
                raise ParseError("integer literal is too long", start) from None
            tokens.append(("int", value, start))
            continue
        if ch == "z":
            start = pos
            pos += 1
            digits = ""
            while pos < len(text) and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            if not digits or int(digits) < 1:
                raise ParseError("variables are z1, z2, ...", start)
            tokens.append(("var", int(digits), start))
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, None, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = ("bin", op, node, self.term(), pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            node = ("bin", op, node, self.factor(), pos)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return ("neg", self.factor(), tok[2])
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            exp = self.advance()
            if exp[0] != "int":
                raise ParseError("exponent must be a non-negative integer", exp[2])
            if exp[1] > MAX_EXPONENT:
                raise ParseError(
                    f"exponent exceeds the limit of {MAX_EXPONENT}", exp[2]
                )
            node = ("pow", node, exp[1], pos)
        return node

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "int":
            return ("int", value, pos)
        if kind == "var":
            return ("var", value, pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "[":
            rows = [self.matrix_row()]
            while self.peek()[0] == ",":
                self.advance()
                rows.append(self.matrix_row())
            self.expect("]")
            if any(len(r) != len(rows[0]) for r in rows):
                raise ParseError("matrix rows have unequal lengths", pos)
            return ("matrix", rows, pos)
        raise ParseError(f"unexpected {kind!r}", pos)

    def matrix_row(self):
        self.expect("[")
        entries = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            entries.append(self.expr())
        self.expect("]")
        return entries


def parse_ast(text: str):
    return _Parser(tokenize(text)).parse()


def max_variable(node) -> int:
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind == "int":
        return 0
    if kind == "neg":
        return max_variable(node[1])
    if kind == "pow":
        return max_variable(node[1])
    if kind == "bin":
        return max(max_variable(node[2]), max_variable(node[3]))
    if kind == "matrix":
        return max(max_variable(e) for row in node[1] for e in row)
    raise ValueError(f"unknown node {kind!r}")


def _scalar(matrix: RationalMatrix) -> RationalFunction | None:
    if matrix.rows == 1 and matrix.cols == 1:
        return matrix.entries[0][0]
    return None


def _degrees(p: Polynomial):
    """The degree of ``p`` in each variable (none for 0)."""
    return p.degrees()[1] if p.packed else ()


def _max_variable_degree(matrix: RationalMatrix) -> int:
    """Largest exponent of one variable in any numerator or denominator."""
    return max(
        (d for row in matrix.entries for entry in row
         for poly in (entry.num, entry.den) for d in _degrees(poly)),
        default=0,
    )


def _product_terms(a: Polynomial, b: Polynomial) -> int:
    """An upper bound on the number of terms of a * b: t_a * t_b, cut down
    to the degree box when that is over the limit."""
    bound = len(a.packed) * len(b.packed)
    if bound > MAX_TERMS:
        bound = min(bound, math.prod(
            da + db + 1 for da, db in zip(_degrees(a), _degrees(b))))
    return bound


def _power_terms(p: Polynomial, exponent: int) -> int:
    """An upper bound on the number of terms of p^exponent: C(t + e - 1, e),
    cut down to the degree box when that is over the limit."""
    if not p.packed or not exponent:
        return 1
    bound = math.comb(len(p.packed) + exponent - 1, exponent)
    if bound > MAX_TERMS:
        bound = min(bound, math.prod(exponent * d + 1 for d in _degrees(p)))
    return bound


def _sum_terms(pieces) -> int:
    """An upper bound on the terms of the numerator and of the denominator
    of the sum of x * y over ``pieces``, pairs of (num, den) pairs, added
    left to right as :class:`RationalFunction` adds: n/d + n'/d' is
    (n d' + n' d) / (d d')."""
    num, den = 0, 1
    for (xn, xd), (yn, yd) in pieces:
        pn, pd = _product_terms(xn, yn), _product_terms(xd, yd)
        num, den = num * pd + pn * den, den * pd
    return max(num, den)


def _result_terms(op: str, a: RationalMatrix, b: RationalMatrix) -> int:
    """The largest :func:`_sum_terms` bound of an entry of ``a op b``, from
    the operands alone; 0 when the operation itself is an error."""
    sa, sb = _scalar(a), _scalar(b)
    parts = [[(e.num, e.den) for e in row] for row in a.entries]
    other = [[(e.num, e.den) for e in row] for row in b.entries]
    if op == "/":
        if sb is None or sb.is_zero():
            return 0
        inverse = (sb.den, sb.num)
        entries = [[(x, inverse)] for row in parts for x in row]
    elif op == "*" and (sa is None) != (sb is None):
        scalar, matrix = (parts, other) if sa is not None else (other, parts)
        entries = [[(scalar[0][0], x)] for row in matrix for x in row]
    elif op == "*":
        if a.cols != b.rows:
            return 0
        entries = [[(parts[i][t], other[t][j]) for t in range(a.cols)
                    if parts[i][t][0].packed and other[t][j][0].packed]
                   for i in range(a.rows) for j in range(b.cols)]
    else:
        if a.rows != b.rows or a.cols != b.cols:
            return 0
        one = Polynomial.one(a.descriptor, a.n_vars)
        entries = [[(x, (one, one)), (y, (one, one))]
                   for row_x, row_y in zip(parts, other)
                   for x, y in zip(row_x, row_y)]
    return max(map(_sum_terms, entries))


def _check_terms(bound: int, pos: int) -> None:
    if bound > MAX_TERMS:
        raise ParseError(
            f"the result could have {bound} terms, over the limit of "
            f"{MAX_TERMS}", pos
        )


def _evaluate(node, descriptor: FieldDescriptor, n_vars: int) -> RationalMatrix:
    kind = node[0]
    if kind == "int":
        value = RationalFunction.constant(descriptor, n_vars, node[1])
        return RationalMatrix.scalar(value)
    if kind == "var":
        value = RationalFunction.variable(descriptor, n_vars, node[1] - 1)
        return RationalMatrix.scalar(value)
    if kind == "neg":
        return -_evaluate(node[1], descriptor, n_vars)
    if kind == "pow":
        base = _evaluate(node[1], descriptor, n_vars)
        exponent = node[2]
        degree = _max_variable_degree(base)
        if exponent * degree > MAX_EXPONENT:
            raise ParseError(
                f"exponent {exponent} takes a base of degree {degree} in one "
                f"variable past the limit of {MAX_EXPONENT}", node[3]
            )
        scalar = _scalar(base)
        if scalar is not None:
            for part in (scalar.num, scalar.den):
                _check_terms(_power_terms(part, exponent), node[3])
            acc = RationalFunction.one(descriptor, n_vars)
            for _ in range(exponent):
                acc = acc * scalar
            return RationalMatrix.scalar(acc)
        if not base.is_square():
            raise ParseError("power of a non-square matrix", node[3])
        acc = RationalMatrix.identity(descriptor, n_vars, base.rows)
        for _ in range(exponent):
            _check_terms(_result_terms("*", acc, base), node[3])
            acc = acc * base
        return acc
    if kind == "matrix":
        rows = []
        for row in node[1]:
            out_row = []
            for e in row:
                scalar = _scalar(_evaluate(e, descriptor, n_vars))
                if scalar is None:
                    raise ParseError("matrix entries must be scalars", e[-1])
                out_row.append(scalar)
            rows.append(out_row)
        return RationalMatrix(rows)
    if kind == "bin":
        _, op, left, right, pos = node
        a = _evaluate(left, descriptor, n_vars)
        b = _evaluate(right, descriptor, n_vars)
        sa, sb = _scalar(a), _scalar(b)
        _check_terms(_result_terms(op, a, b), pos)
        try:
            if op == "+":
                if sa is not None and sb is not None:
                    return RationalMatrix.scalar(sa + sb)
                return a + b
            if op == "-":
                if sa is not None and sb is not None:
                    return RationalMatrix.scalar(sa - sb)
                return a - b
            if op == "*":
                if sa is not None and sb is not None:
                    return RationalMatrix.scalar(sa * sb)
                if sa is not None:
                    return b.scale(sa)
                if sb is not None:
                    return a.scale(sb)
                return a * b
            if op == "/":
                if sb is None:
                    raise ParseError("division by a matrix", pos)
                if sb.is_zero():
                    if max_variable(right) > 0:
                        raise DivisionByZeroPolynomial(
                            "divisor is identically zero"
                        )
                    raise FieldLiteralError(
                        f"constant divisor is zero in {descriptor.name()}"
                    )
                if sa is not None:
                    return RationalMatrix.scalar(sa / sb)
                return a.scale(sb.inverse())
        except DimensionMismatch as exc:
            raise ParseError(str(exc), pos) from None
    raise ValueError(f"unknown node {kind!r}")


def parse_expression(text: str, descriptor: FieldDescriptor,
                     n_vars: int | None = None) -> RationalMatrix:
    """Parse and evaluate an expression into an exact rational matrix."""
    try:
        ast = parse_ast(text)
        needed = max_variable(ast)
        if n_vars is None:
            n_vars = needed
        elif n_vars < needed:
            raise ParseError(
                f"expression uses z{needed} but only {n_vars} variables "
                "allowed", 0
            )
        return _evaluate(ast, descriptor, n_vars)
    except RecursionError:
        raise ParseError("expression is nested too deeply", 0) from None
