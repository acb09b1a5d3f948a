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
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    DivisionByZeroPolynomial,
    FieldLiteralError,
    ParseError,
)
from .fields import FieldDescriptor
from .matrices import RationalMatrix
from .poly import RationalFunction

_SYMBOLS = "+-*/^()[],"
MAX_EXPONENT = 1000


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


def _max_variable_degree(matrix: RationalMatrix) -> int:
    """Largest exponent of one variable in any numerator or denominator."""
    return max(
        (d for row in matrix.entries for entry in row
         for poly in (entry.num, entry.den) for exps in poly.terms
         for d in exps),
        default=0,
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
            acc = RationalFunction.one(descriptor, n_vars)
            for _ in range(exponent):
                acc = acc * scalar
            return RationalMatrix.scalar(acc)
        if not base.is_square():
            raise ParseError("power of a non-square matrix", node[3])
        acc = RationalMatrix.identity(descriptor, n_vars, base.rows)
        for _ in range(exponent):
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
