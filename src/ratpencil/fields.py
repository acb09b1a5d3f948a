"""Exact scalar arithmetic over Q and prime fields GF(p), and the base of
every value type.

:class:`Value` is the one immutability policy of the library.  The value
types (descriptors, field elements, polynomials and their layouts,
rational functions and matrices, pencils, and the quotient-ring context,
elements and matrices) derive from it: setting or deleting an attribute
raises ``AttributeError``, and two values are equal when they have the
same type and equal slots, and hashed over them.  A rational function
overrides the equality (by cross-multiplication) and is unhashable, as
are the matrices and pencils (``__hash__ = None``); a polynomial keeps
its own equality and hash over its packed map.

A :class:`FieldDescriptor` names the field and implements arithmetic on raw
values; higher layers store raw values and only look at the descriptor.  Raw
values are :class:`fractions.Fraction` over Q (always canonically reduced with
positive denominator) and integers in ``[0, p)`` over GF(p).  The thin
:class:`FieldElement` wrapper gives operator syntax plus descriptor checks.
Polynomials keep their coefficients as plain ints instead (see
:mod:`ratpencil.poly`): over GF(p) the raw values themselves, over Q
numerators over one common denominator per polynomial; raw values appear
only at their boundary.

:func:`accumulate` is the sparse sum of raw values: pencil coefficient maps
keyed by cell, and polynomial terms as they enter from exponent tuples.
Callers say where each value goes (a new key); the routine adds it in and
drops the key when the sum is zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

from .errors import DescriptorMismatch, DivisionByZero, FieldLiteralError


class Value:
    """Base of the immutable value types (see the module docs).
    Constructors fill the slots with ``object.__setattr__`` or the slots'
    own descriptors."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads a value's slots in one C call: equality and hash are hot
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))


_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"


# the largest modulus GF(p) accepts: below 3.18e23 Miller-Rabin with the
# first twelve prime bases is an exact primality test
MAX_MODULUS = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n <= MAX_MODULUS``."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldDescriptor(Value):
    """Immutable descriptor of Q or GF(p), with raw-value arithmetic kernels."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise ValueError("rationals take no modulus")
        elif kind == PRIME_FIELD:
            if isinstance(modulus, int) and modulus > MAX_MODULUS:
                raise ValueError(
                    f"modulus {modulus} is larger than the limit 2^64"
                )
            if not isinstance(modulus, int) or not _is_prime(modulus):
                raise ValueError(f"modulus must be prime, got {modulus!r}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    def __repr__(self):
        return f"FieldDescriptor({self.name()!r})"

    def name(self) -> str:
        """Textual form used everywhere downstream: ``q`` or ``gf:p``."""
        if self.kind == RATIONALS:
            return "q"
        return f"gf:{self.modulus}"

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.modulus

    # -- raw-value kernels -------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.kind == RATIONALS else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == RATIONALS else 1

    def coerce(self, value):
        """Accept ints, Fractions, FieldElements, or raw values."""
        if isinstance(value, FieldElement):
            if value.descriptor != self:
                raise DescriptorMismatch(
                    f"element of {value.descriptor.name()} used over {self.name()}"
                )
            return value.value
        if self.kind == RATIONALS:
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                num = value.numerator % self.modulus
                den = value.denominator % self.modulus
                return self.div(num, den)
            value = value.numerator
        return value % self.modulus

    def add(self, a, b):
        return a + b if self.kind == RATIONALS else (a + b) % self.modulus

    def sub(self, a, b):
        return a - b if self.kind == RATIONALS else (a - b) % self.modulus

    def mul(self, a, b):
        return a * b if self.kind == RATIONALS else (a * b) % self.modulus

    def neg(self, a):
        return -a if self.kind == RATIONALS else (-a) % self.modulus

    def inv(self, a):
        if not a:
            raise DivisionByZero(f"division by zero in {self.name()}")
        if self.kind == RATIONALS:
            return 1 / Fraction(a)
        return pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if self.kind == RATIONALS:
            return a**e
        return pow(a, e, self.modulus)

    def format_value(self, a) -> str:
        return str(a)

    def parse_value(self, text: str):
        """Parse ``"3"``, ``"-2"``, or ``"3/4"``: after ``strip()``, exactly
        ``-?[0-9]+(/[0-9]+)?``.

        Anything else, and a denominator that is zero in the field, is a
        :class:`FieldLiteralError`.
        """
        try:
            text = text.strip()
        except AttributeError:
            raise FieldLiteralError(
                f"field literal {text!r} is not a string"
            ) from None
        if not _LITERAL.fullmatch(text):
            raise FieldLiteralError(
                f"field literal {text!r} is not an integer or a fraction "
                "of integers"
            )
        num, _, den = text.partition("/")
        try:
            if self.kind == RATIONALS:
                return Fraction(int(num), int(den or 1))
            if not den:
                return int(num) % self.modulus
            return self.div(int(num) % self.modulus, int(den) % self.modulus)
        except ZeroDivisionError:
            raise FieldLiteralError(
                f"field literal {text!r} has a zero denominator in {self.name()}"
            ) from None
        except ValueError:  # beyond Python's integer string limit
            raise FieldLiteralError("field literal is too long") from None


def accumulate(dst: dict, pairs, add) -> dict:
    """Add each ``(key, value)`` of ``pairs`` into ``dst`` and return it.

    ``add`` is a descriptor's raw addition.  Zero values are skipped and a
    key whose sum becomes zero is deleted, so ``dst`` never holds a zero.
    """
    for key, value in pairs:
        if not value:
            continue
        prior = dst.get(key)
        if prior is None:
            dst[key] = value
        else:
            merged = add(prior, value)
            if merged:
                dst[key] = merged
            else:
                del dst[key]
    return dst


def rationals() -> FieldDescriptor:
    return FieldDescriptor(RATIONALS)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(PRIME_FIELD, p)


def parse_field(text: str) -> FieldDescriptor:
    """Parse the descriptor strings ``q``, ``gf:p``, and the alias ``gf2``.

    ``p`` is ASCII digits naming a prime of at most ``MAX_MODULUS``; any
    other string is a ``ValueError`` that names the grammar.
    """
    text = text.strip().lower()
    if text == "q":
        return rationals()
    if text == "gf2":
        return prime_field(2)
    digits = text[3:] if text.startswith("gf:") else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(
            f"unknown field descriptor {text[:40]!r}; expected "
            "q | gf2 | gf:p with p a prime of at most 2^64"
        )
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_MODULUS)):  # before int() meets a huge string
        raise ValueError(
            f"modulus {digits[:20]}... is larger than the limit 2^64"
        )
    return prime_field(int(digits))


def characteristic(descriptor: FieldDescriptor) -> int:
    return descriptor.characteristic


class FieldElement(Value):
    """A field value paired with its descriptor; arithmetic closes over it."""

    __slots__ = ("descriptor", "value")

    def __init__(self, descriptor: FieldDescriptor, value):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "value", descriptor.coerce(value))

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            other = FieldElement(self.descriptor, other)
        elif other.descriptor != self.descriptor:
            raise DescriptorMismatch(
                f"{self.descriptor.name()} vs {other.descriptor.name()}"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.descriptor, self.descriptor.add(self.value, other.value))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.descriptor, self.descriptor.sub(self.value, other.value))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.descriptor, self.descriptor.mul(self.value, other.value))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.descriptor, self.descriptor.div(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.descriptor, self.descriptor.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.descriptor, self.descriptor.inv(self.value))

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"FieldElement({self.descriptor.name()}, {self.value})"

    def __str__(self):
        return self.descriptor.format_value(self.value)


def field_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Dispatch form of the four field operations (``add sub mul div``)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")
