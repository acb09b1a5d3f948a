"""Expression parser for rational matrix functions.

Grammar (precedence: ``^`` over ``* /`` over ``+ -``; unary minus binds like
a factor)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' nonneg_integer)?     (at most MAX_EXPONENT)
    atom    := integer | variable | '(' expr ')' | matrix
    matrix  := '[' row (',' row)* ']'      row := '[' expr (',' expr)* ']'
    variable := 'z' integer                 (z1, z2, ...)
    integer  := digit digit*                (ASCII '0'-'9' only)

The result is an exact :class:`RationalMatrix` (a scalar is 1x1), but
scalars stay polynomials until a ``/``: a scalar is a :class:`Polynomial`
until a division, or an operand that already is a fraction, lifts it to a
:class:`RationalFunction`, and a fraction whose denominator turns out to be
1 drops back to its numerator.  Lifting p to p/1 changes no term, so every
result has the term order that :class:`RationalFunction` arithmetic at every
node gives.  A matrix is built only for a matrix literal (a 1x1 literal is
a scalar), for an operation with a matrix operand, and for the result.
The variable count is the largest index used unless overridden upward.
An exponent above :data:`MAX_EXPONENT` is a :class:`ParseError`, and so is a
power whose exponent times the base's largest degree in one variable (over
numerators and denominators) exceeds it, as in ``(z1^1000)^1000``.
Nesting (parentheses, unary minus) deeper than the interpreter's recursion
limit allows is a :class:`ParseError` too.  A run of ``+ -``, or of
``* /``, is not nesting: it is folded from the left in a loop, so a sum of
any number of summands parses.

The text is read twice: :func:`tokenize` scans it, which fixes the variable
count, and one recursive-descent pass of :class:`_Parser` evaluates it as
it reads, each rule returning the value of what it read; no syntax tree is
built.  So a character or literal fault, and then a variable count below an
index or over :data:`ratpencil.poly.MAX_VARIABLES`, are reported before any
other fault; after that the first fault in reading order is, since an
operation is checked as soon as its right operand has been read.

The fold builds no polynomial per atom.  A monomial (an integer, a
variable, a bare variable's power, a unary minus of one, or a ``*`` run of
them) is one (key, coefficient) pair: keys add under the degree check of
:meth:`Polynomial.__mul__` (:func:`ratpencil.poly.product_key`), and a zero
factor skips it, as there.  A ``+ -`` run keeps one term map while its
operands are pairs or polynomials over 1: each operand's terms go in, in
order, a sum that cancels deletes its key, and the bound on the terms is
checked first, all as :meth:`Polynomial._plus` does.  So the term order,
every error and its position are what arithmetic at every node gives.  Any
other operand turns the map into a polynomial, which goes on through
:meth:`_Parser.apply`, the one place that knows the shape of an operation:
two polynomials, ``/`` by a scalar, a scalar times a matrix, a product of
matrices, and ``+ -`` of equal shapes.  Each of these cases forms the
(num, den) pairs of its entries, checks their bound, and computes them; a
matrix power multiplies through it too.

Every power, product, quotient and sum, of scalars and of matrices, is
checked against :data:`MAX_TERMS` before it is expanded.  A polynomial
product a * b has at most min(t_a * t_b, prod_i (deg_i a + deg_i b + 1))
terms and a power p^e at most min(C(t + e - 1, e), prod_i (e * deg_i p + 1)),
where t counts terms and deg_i is the degree in variable i.  Each entry of
a result is a sum of products of fractions, bounded from these the way it
is computed: the products' bounds multiply across n/d + n'/d' =
(n d' + n' d) / (d d') and add up along it, with d = 1 for a polynomial.
A numerator or denominator that could go over is a :class:`ParseError`, as
in ``(1+z1+z2+z3)^1000`` or
``[[(1+z1+z2+z3)^15, 0], [0, 1]] * [[(1+z4+z5+z6)^15, 0], [0, 1]]``.
"""

from __future__ import annotations

import math
import operator

from .errors import (
    DimensionMismatch,
    DivisionByZeroPolynomial,
    FieldLiteralError,
    ParseError,
)
from .fields import FieldDescriptor, accumulate
from .matrices import RationalMatrix
from .poly import (Polynomial, RationalFunction, from_packed, layout,
                   product_key)

_SYMBOLS = "+-*/^()[],"
_DIGITS = frozenset("0123456789")
MAX_EXPONENT = 1000
MAX_TERMS = 20000
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def tokenize(text: str):
    """The (kind, value, position) tokens of ``text``, then ("end", None,
    len(text)).  Digits are ASCII only, as in ``gf:p``."""
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _DIGITS or ch == "z":
            start = pos
            if ch == "z":
                pos += 1
            digits = pos
            while pos < end and text[pos] in _DIGITS:
                pos += 1
            try:
                value = int(text[digits:pos] or "0")
            except ValueError:  # beyond Python's integer string limit
                raise ParseError("integer literal is too long", digits) from None
            if ch != "z":
                tokens.append(("int", value, start))
            elif value < 1:
                raise ParseError("variables are z1, z2, ...", start)
            else:
                tokens.append(("var", value, start))
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, None, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, end))
    return tokens


def _lift(value) -> RationalFunction:
    """A scalar as a :class:`RationalFunction`; a polynomial gets den 1."""
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    return value


def _lower(value):
    """A scalar result, a fraction over 1 (the only constant denominator a
    :class:`RationalFunction` keeps) back as its numerator."""
    if isinstance(value, RationalFunction) and value.den.is_constant():
        return value.num
    return value


def _value(matrix: RationalMatrix):
    """A matrix result, unwrapped to its scalar when it is 1x1."""
    if matrix.rows == 1 and matrix.cols == 1:
        return _lower(matrix.entries[0][0])
    return matrix


def _pairs(value, one: Polynomial) -> list:
    """The (num, den) pairs of a value's entries, a scalar as 1x1 with
    den = 1 for a polynomial."""
    if isinstance(value, RationalMatrix):
        return [[(e.num, e.den) for e in row] for row in value.entries]
    if isinstance(value, Polynomial):
        return [[(value, one)]]
    return [[(value.num, value.den)]]


def _degrees(p: Polynomial):
    """The degree of ``p`` in each variable (none for 0)."""
    return p.degrees()[1] if p.packed else ()


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
    left to right as :class:`RationalFunction` adds two denominators that
    differ: n/d + n'/d' is (n d' + n' d) / (d d').  Over one denominator
    it adds only the numerators, which the bound covers too."""
    num, den = 0, 1
    for (xn, xd), (yn, yd) in pieces:
        pn, pd = _product_terms(xn, yn), _product_terms(xd, yd)
        num, den = num * pd + pn * den, den * pd
    return max(num, den)


def _check_terms(bound: int, pos: int) -> None:
    if bound > MAX_TERMS:
        raise ParseError(
            f"the result could have {bound} terms, over the limit of "
            f"{MAX_TERMS}", pos
        )


def _check_entries(entries, pos: int) -> None:
    """Refuse a result one of whose ``entries``, lists of the pairs of
    (num, den) pairs it multiplies and adds, could pass :data:`MAX_TERMS`."""
    _check_terms(max(map(_sum_terms, entries)), pos)


def _items(value):
    """The (key, coefficient) items of a pair or of a polynomial over 1;
    None for any other value."""
    if type(value) is tuple:
        return (value,) if value[1] else ()
    if type(value) is Polynomial and value.denom == 1:
        return value.packed.items()
    return None


class _Parser:
    """One recursive-descent pass over the tokens of one expression: each
    rule returns the value of what it read, a :class:`Polynomial`, a
    :class:`RationalFunction` with a non-constant denominator, a
    :class:`RationalMatrix` that is not 1x1, or a monomial as its (key,
    coefficient) pair, the coefficient as ``packed`` holds it."""

    def __init__(self, tokens, descriptor: FieldDescriptor, n_vars: int):
        self.tokens, self.index = tokens, 0
        self.descriptor, self.n_vars = descriptor, n_vars
        self.one = Polynomial.one(descriptor, n_vars)
        self.modulus, self.units = descriptor.modulus, layout(n_vars).units

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

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        return self.polynomial(value)

    def expr(self):
        return self.run(self.term, ("+", "-"))

    def term(self):
        return self.run(self.factor, ("*", "/"))

    def run(self, operand, ops):
        """One operand, or a run ``a op b op c ...`` of operators of one
        precedence, folded from the left in a loop (see the module docs)."""
        p, n_vars = self.modulus, self.n_vars
        value, terms = operand(), None
        while self.peek()[0] in ops:
            op, _, pos = self.advance()
            start = self.index
            b = operand()
            if op == "*" and type(value) is tuple and type(b) is tuple:
                if value[1] and b[1]:  # as Polynomial.__mul__, 0 skips the check
                    value = (product_key(value[0], b[0], n_vars),
                             value[1] * b[1] % p if p else value[1] * b[1])
                else:
                    value = 0, 0
                continue
            if op in "+-" and terms is None:
                items = _items(value)
                terms = None if items is None else dict(items)
            items = None if terms is None else _items(b)
            if items is None:
                if terms is not None:
                    value = from_packed(self.descriptor, n_vars, terms)
                    terms = None
                value = self.apply(op, self.polynomial(value),
                                   self.polynomial(b), start, pos)
                continue
            _check_terms(len(terms) + len(items), pos)
            if op == "-":
                items = [(k, p - v if p else -v) for k, v in items]
            accumulate(terms, items, self.descriptor.add)
        if terms is None:
            return value
        return from_packed(self.descriptor, n_vars, terms)

    def factor(self):
        if self.peek()[0] != "-":
            return self.power()
        self.advance()
        value = self.factor()
        if type(value) is not tuple:
            return -value
        p = self.modulus
        return value[0], (-value[1] % p if p else -value[1])

    def power(self):
        kind, index, _ = self.peek()
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, pos = self.advance()
        exp = self.advance()
        if exp[0] != "int":
            raise ParseError("exponent must be a non-negative integer", exp[2])
        exponent = exp[1]
        if exponent > MAX_EXPONENT:
            raise ParseError(
                f"exponent exceeds the limit of {MAX_EXPONENT}", exp[2]
            )
        if kind == "var":
            return exponent * self.units[index - 1], 1
        base = self.polynomial(base)
        parts = [part for row in _pairs(base, self.one) for pair in row
                 for part in pair]
        degree = max((d for part in parts for d in _degrees(part)), default=0)
        if exponent * degree > MAX_EXPONENT:
            raise ParseError(
                f"exponent {exponent} takes a base of degree {degree} in one "
                f"variable past the limit of {MAX_EXPONENT}", pos
            )
        if not isinstance(base, RationalMatrix):
            for part in parts:
                _check_terms(_power_terms(part, exponent), pos)
            if isinstance(base, Polynomial):
                return base ** exponent
            return _lower(RationalFunction(base.num ** exponent,
                                           base.den ** exponent))
        if not base.is_square():
            raise ParseError("power of a non-square matrix", pos)
        acc = RationalMatrix.identity(self.descriptor, self.n_vars, base.rows)
        for _ in range(exponent):
            acc = self.apply("*", acc, base, pos, pos)
        return acc

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return 0, (value % self.modulus if self.modulus else value)
        if kind == "var":
            return self.units[value - 1], 1
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "[":
            rows = [self.matrix_row()]
            while self.peek()[0] == ",":
                self.advance()
                rows.append(self.matrix_row())
            self.expect("]")
            if any(len(r) != len(rows[0]) for r in rows):
                raise ParseError("matrix rows have unequal lengths", pos)
            if len(rows) == 1 and len(rows[0]) == 1:
                return rows[0][0]
            return RationalMatrix([[_lift(v) for v in row] for row in rows])
        raise ParseError(f"unexpected {kind!r}", pos)

    def matrix_row(self):
        self.expect("[")
        entries = []
        while True:
            pos = self.peek()[2]
            value = self.polynomial(self.expr())
            if isinstance(value, RationalMatrix):
                raise ParseError("matrix entries must be scalars", pos)
            entries.append(value)
            if self.peek()[0] != ",":
                break
            self.advance()
        self.expect("]")
        return entries

    def polynomial(self, value):
        """A value, with a (key, coefficient) pair turned into its
        polynomial."""
        if type(value) is not tuple:
            return value
        key, c = value
        return from_packed(self.descriptor, self.n_vars, {key: c} if c else {})

    def apply(self, op: str, a, b, start: int, pos: int):
        """``a op b`` for the values of two operands, the right one read
        from the tokens from ``start`` on.  Each case forms the (num, den)
        pairs that its entries multiply and add, checks their bound against
        :data:`MAX_TERMS`, and only then computes them.  An operation that
        is itself an error (a shape mismatch, a zero or matrix divisor) is
        refused with no bound."""
        if op != "/" and isinstance(a, Polynomial) and isinstance(b, Polynomial):
            # the bound of _sum_terms with den = 1 on both sides
            _check_terms(_product_terms(a, b) if op == "*"
                         else len(a.packed) + len(b.packed), pos)
            return _OPERATIONS[op](a, b)
        sa = not isinstance(a, RationalMatrix)
        sb = not isinstance(b, RationalMatrix)
        x, y = _pairs(a, self.one), _pairs(b, self.one)
        if op == "/":
            if not sb:
                raise ParseError("division by a matrix", pos)
            if b.is_zero():
                if any(tok[0] == "var"
                       for tok in self.tokens[start:self.index]):
                    raise DivisionByZeroPolynomial(
                        "divisor is identically zero")
                raise FieldLiteralError(
                    f"constant divisor is zero in {self.descriptor.name()}"
                )
            num, den = y[0][0]
            _check_entries([[(e, (den, num))] for row in x for e in row], pos)
            if sa:
                return _lower(_lift(a) / _lift(b))
            return a.scale(_lift(b).inverse())
        if op == "*" and sa != sb:
            scalar, matrix = (x, y) if sa else (y, x)
            _check_entries([[(scalar[0][0], e)] for row in matrix
                            for e in row], pos)
            return b.scale(_lift(a)) if sa else a.scale(_lift(b))
        if op == "*":
            if len(x[0]) == len(y):
                _check_entries([[(x[i][t], y[t][j]) for t in range(len(y))
                                 if x[i][t][0].packed and y[t][j][0].packed]
                                for i in range(len(x))
                                for j in range(len(y[0]))], pos)
        elif len(x) == len(y) and len(x[0]) == len(y[0]):
            one = self.one, self.one
            _check_entries([[(e, one), (f, one)] for row_x, row_y in zip(x, y)
                            for e, f in zip(row_x, row_y)], pos)
        if sa and sb:
            return _lower(_OPERATIONS[op](_lift(a), _lift(b)))
        if sa:
            a = RationalMatrix.scalar(_lift(a))
        if sb:
            b = RationalMatrix.scalar(_lift(b))
        try:
            return _value(_OPERATIONS[op](a, b))
        except DimensionMismatch as exc:
            raise ParseError(str(exc), pos) from None


def parse_expression(text: str, descriptor: FieldDescriptor,
                     n_vars: int | None = None) -> RationalMatrix:
    """Parse and evaluate an expression into an exact rational matrix."""
    if n_vars is not None and n_vars < 0:
        raise ParseError(f"variable count {n_vars} is negative", 0)
    try:
        tokens = tokenize(text)
        needed = max([value for kind, value, _ in tokens if kind == "var"],
                     default=0)
        if n_vars is None:
            n_vars = needed
        elif n_vars < needed:
            raise ParseError(
                f"expression uses z{needed} but only {n_vars} variables "
                "allowed", 0
            )
        value = _Parser(tokens, descriptor, n_vars).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply", 0) from None
    if isinstance(value, RationalMatrix):
        return value
    return RationalMatrix.scalar(_lift(value))
