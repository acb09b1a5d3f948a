"""Sparse multivariate polynomials and rational functions over an exact field.

A monomial is one int, its *key*.  The exponent vector is packed in
graded-lexicographic order: the total degree sits in the top bits, above
one ``BITS``-wide field per variable, z1 highest.  Comparing keys compares
monomials in that order (``z1^2 > z1*z2 > z2^2``), the key of a product is
the sum of the keys, and ``max()`` over keys is the leading monomial.  The
top bit of each field is a guard that exponents never reach, so a sum of
keys cannot carry into the next variable, and in ``(a | guards) - b`` a
guard bit is cleared exactly where b has the larger exponent.  Every degree
stays at most :data:`MAX_DEGREE`; a product that would pass it raises
:class:`~ratpencil.errors.DegreeTooLarge` instead of wrapping.

A :class:`Polynomial` stores ``packed``, a map from keys to nonzero int
coefficients, and ``denom``, one positive int.  Over GF(p) the ints lie in
``[0, p)`` and ``denom`` is 1; a product sums raw int products and reduces
mod p once, at the end.  Over Q the polynomial is ``packed / denom`` with
the gcd of ``denom`` and all coefficients equal to 1, so the form is
canonical; ``denom`` is 1 for integer coefficients, the common case.  The
kernels build no ``Fraction`` and no exponent tuple, and every one of them
ends in :func:`from_packed` (or :func:`from_raw`), which makes the form
canonical for both kinds of field; a kernel branches on the field only
where its arithmetic differs.

``terms`` is the boundary view for everything outside the kernels: a
read-only mapping from exponent tuples to raw field values (see
:mod:`ratpencil.fields`; ``Fraction`` over Q) in the insertion order of
``packed``.

A :class:`RationalFunction` is an unreduced fraction of two polynomials —
there is no multivariate GCD anywhere, equality is by cross-multiplication,
and the only normalization is scalar: the denominator is made monic in the
graded-lexicographic leading term.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DegreeTooLarge,
    DescriptorMismatch,
    DivisionByZero,
    TooManyVariables,
)
from .fields import FieldDescriptor, FieldElement, accumulate

NEG_INFINITY = float("-inf")
BITS = 20
_GUARD = 1 << (BITS - 1)
_FIELD = _GUARD - 1
MAX_DEGREE = _GUARD - 1
# a layout holds one key per variable, each BITS bits per variable long,
# so its size grows with the square of the variable count
MAX_VARIABLES = 1000


def grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Layout:
    """The packing of exponent vectors of ``n`` variables into keys."""

    __slots__ = ("n", "shifts", "degree_shift", "guards", "units")

    def __init__(self, n: int):
        self.n = n
        self.shifts = tuple(BITS * (n - 1 - i) for i in range(n))
        self.degree_shift = BITS * n
        self.guards = sum(_GUARD << s for s in self.shifts)
        # the key of each variable
        self.units = tuple((1 << self.degree_shift) + (1 << s)
                           for s in self.shifts)

    def pack(self, exps) -> int:
        exps = tuple(exps)
        if len(exps) != self.n or (exps and min(exps) < 0):
            raise ValueError(f"bad monomial {exps} for {self.n} variables")
        key = degree = sum(exps)
        if degree > MAX_DEGREE:
            raise DegreeTooLarge(
                f"monomial degree {degree} is over the limit of {MAX_DEGREE}"
            )
        for e in exps:
            key = key << BITS | e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple([key >> s & _FIELD for s in self.shifts])

    def degree(self, key: int) -> int:
        return key >> self.degree_shift


@lru_cache(maxsize=None)
def layout(n: int) -> Layout:
    if n > MAX_VARIABLES:
        raise TooManyVariables(
            f"{n} variables is over the limit of {MAX_VARIABLES}"
        )
    return Layout(n)


def product_key(a: int, b: int, n_vars: int) -> int:
    """The key of the product of the monomials of keys ``a`` and ``b``;
    :class:`~ratpencil.errors.DegreeTooLarge` if its degree would pass
    :data:`MAX_DEGREE`."""
    key = a + b
    if key >= _GUARD << BITS * n_vars:
        raise DegreeTooLarge(
            f"product degree is over the limit of {MAX_DEGREE}"
        )
    return key


def from_packed(descriptor, n_vars, packed, denom=1) -> "Polynomial":
    """The canonical polynomial ``packed / denom`` (see the module docs).

    ``packed`` maps keys to nonzero stored ints.  A ``denom`` other than 1,
    which only Q has, is reduced with the coefficients by their gcd.
    """
    if denom != 1:
        g = math.gcd(denom, *packed.values())
        if g != 1:
            packed = {k: v // g for k, v in packed.items()}
            denom //= g
    out = _new(Polynomial)
    _set_descriptor(out, descriptor)
    _set_n_vars(out, n_vars)
    _set_packed(out, packed)
    _set_denom(out, denom)
    return out


def from_raw(descriptor, n_vars, raw: dict) -> "Polynomial":
    """The polynomial of ``raw``, a map from keys to nonzero raw values."""
    if descriptor.modulus or not raw:
        return from_packed(descriptor, n_vars, raw)
    if len(raw) == 1:
        ((k, v),) = raw.items()
        return from_packed(descriptor, n_vars, {k: v.numerator}, v.denominator)
    denom = math.lcm(*[v.denominator for v in raw.values()])
    return from_packed(descriptor, n_vars, {
        k: v.numerator * (denom // v.denominator) for k, v in raw.items()
    }, denom)


class Polynomial:
    """Immutable sparse polynomial; see the module docs for its form."""

    __slots__ = ("descriptor", "n_vars", "packed", "denom")

    def __init__(self, descriptor: FieldDescriptor, n_vars: int, terms=None):
        """``terms`` maps exponent tuples to values that the descriptor
        coerces; zero sums are dropped."""
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        raw = {}
        if terms:
            pack, coerce = layout(n_vars).pack, descriptor.coerce
            raw = accumulate({}, ((pack(exps), coerce(value))
                                  for exps, value in terms.items()),
                             descriptor.add)
        proto = from_raw(descriptor, n_vars, raw)
        _set_descriptor(self, descriptor)
        _set_n_vars(self, n_vars)
        _set_packed(self, proto.packed)
        _set_denom(self, proto.denom)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, descriptor, n_vars) -> "Polynomial":
        return cls(descriptor, n_vars)

    @classmethod
    def constant(cls, descriptor, n_vars, value) -> "Polynomial":
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        raw = descriptor.coerce(value)
        return from_raw(descriptor, n_vars, {0: raw} if raw else {})

    @classmethod
    def one(cls, descriptor, n_vars) -> "Polynomial":
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        return from_packed(descriptor, n_vars, {0: 1})

    @classmethod
    def variable(cls, descriptor, n_vars, index) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise ValueError(f"variable index {index} out of range")
        return from_packed(descriptor, n_vars, {layout(n_vars).units[index]: 1})

    @classmethod
    def monomial(cls, descriptor, n_vars, exps, coeff=None) -> "Polynomial":
        if coeff is None:
            coeff = descriptor.one
        return cls(descriptor, n_vars, {tuple(exps): coeff})

    # -- predicates and access ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        packed = self.packed
        return not packed or (len(packed) == 1 and 0 in packed)

    def _raw(self, stored: int):
        """The raw field value of a stored coefficient."""
        if self.descriptor.modulus:
            return stored
        return Fraction(stored, self.denom)

    def raw_items(self):
        """``(key, raw value)`` pairs in insertion order."""
        if self.descriptor.modulus:
            return self.packed.items()
        denom = self.denom
        return ((k, Fraction(v, denom)) for k, v in self.packed.items())

    @property
    def terms(self) -> "TermsView":
        """Exponent tuples to raw values: the read-only boundary view."""
        return TermsView(self)

    def sorted_terms(self) -> list:
        """``(exponent tuple, raw value)`` pairs, largest monomial first."""
        unpack = layout(self.n_vars).unpack
        return [(unpack(k), v) for k, v in sorted(self.raw_items(), reverse=True)]

    def constant_value(self):
        """Raw value of a constant polynomial (zero if empty)."""
        if not self.packed:
            return self.descriptor.zero
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._raw(self.packed[0])

    def coefficient(self, exps) -> FieldElement:
        raw = self.terms.get(tuple(exps), self.descriptor.zero)
        return FieldElement(self.descriptor, raw)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        return layout(self.n_vars).unpack(max(self.packed))

    def _match(self, other: "Polynomial"):
        if self.n_vars != other.n_vars or (
            self.descriptor is not other.descriptor
            and self.descriptor != other.descriptor
        ):
            raise DescriptorMismatch(
                f"{self.descriptor.name()}[{self.n_vars} vars] vs "
                f"{other.descriptor.name()}[{other.n_vars} vars]"
            )

    # -- arithmetic ------------------------------------------------------------

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other: the terms of self in order, then the new
        ones of other; a sum that cancels leaves."""
        if self.descriptor is not other.descriptor or self.n_vars != other.n_vars:
            self._match(other)
        d, n = self.descriptor, self.n_vars
        a, b = self.packed, other.packed
        if not b:
            return self
        p = d.modulus
        denom = self.denom
        if other.denom != denom:
            denom = math.lcm(denom, other.denom)
            fa, sign = denom // self.denom, sign * (denom // other.denom)
            if fa != 1:
                a = {k: v * fa for k, v in a.items()}
        out = dict(a)
        get = out.get
        for k, v in b.items():
            s = get(k, 0) + sign * v
            if p:
                s %= p
            if s:
                out[k] = s
            else:
                del out[k]
        return from_packed(d, n, out, denom)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        p = self.descriptor.modulus
        if p:
            packed = {k: p - v for k, v in self.packed.items()}
        else:
            packed = {k: -v for k, v in self.packed.items()}
        return from_packed(self.descriptor, self.n_vars, packed, self.denom)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.descriptor is not other.descriptor or self.n_vars != other.n_vars:
            self._match(other)
        d, n = self.descriptor, self.n_vars
        short, long = (self, other) if len(self.packed) <= len(other.packed) \
            else (other, self)
        a, b = short.packed, long.packed
        if not a:
            return from_packed(d, n, {})
        p = d.modulus
        if len(a) == 1:
            # distinct keys stay distinct and nothing cancels
            ((ka, va),) = a.items()
            if not ka and va == 1 and short.denom == 1:
                return long
        product_key(max(a), max(b), n)
        if len(a) == 1:
            if p:
                out = {kb + ka: vb * va % p for kb, vb in b.items()}
            else:
                out = {kb + ka: vb * va for kb, vb in b.items()}
        else:
            out = {}
            get = out.get
            for ka, va in a.items():
                for kb, vb in b.items():
                    k = ka + kb
                    out[k] = get(k, 0) + va * vb
            if p:
                out = {k: r for k, v in out.items() if (r := v % p)}
            elif 0 in out.values():
                out = {k: v for k, v in out.items() if v}
        return from_packed(d, n, out, self.denom * other.denom)

    def _scaled(self, num: int, den: int = 1) -> "Polynomial":
        """self * num / den for ints num != 0 and den > 0 (1 over GF(p))."""
        if num == 1 and den == 1:
            return self
        p = self.descriptor.modulus
        if p:
            packed = {k: v * num % p for k, v in self.packed.items()}
        else:
            packed = {k: v * num for k, v in self.packed.items()}
        return from_packed(self.descriptor, self.n_vars, packed,
                           self.denom * den)

    def times_constant(self, c: "Polynomial", invert=False) -> "Polynomial":
        """self * c, or self / c when ``invert``, for a nonzero constant c."""
        num, den = c.packed[0], c.denom
        if invert:
            p = self.descriptor.modulus
            if p:
                num = pow(num, -1, p)
            else:
                num, den = (den, num) if num > 0 else (-den, -num)
        return self._scaled(num, den)

    def scale(self, value) -> "Polynomial":
        raw = self.descriptor.coerce(value)
        if not raw:
            return Polynomial.zero(self.descriptor, self.n_vars)
        return self._scaled(raw.numerator, raw.denominator)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.descriptor, self.n_vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises ArithmeticError on a remainder.

        Over Q the primitive parts are divided in integers: a primitive
        divisor of a primitive polynomial has an integer quotient (Gauss's
        lemma), so a step that is not an integer is a remainder.
        """
        self._match(divisor)
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        d, n = self.descriptor, self.n_vars
        if not self.packed:
            return self
        p = d.modulus
        rem, b = self.packed, divisor.packed
        if not p:
            ca, cb = math.gcd(*rem.values()), math.gcd(*b.values())
            if ca != 1:
                rem = {k: v // ca for k, v in rem.items()}
            if cb != 1:
                b = {k: v // cb for k, v in b.items()}
        rem = dict(rem)
        lead = max(b)
        lead_c = b[lead]
        rest = [(k, v) for k, v in b.items() if k != lead]
        guards = layout(n).guards
        if p:
            inv = pow(lead_c, -1, p)
        out = {}
        while rem:
            k = max(rem)
            if (k | guards) - lead & guards != guards:
                raise ArithmeticError("inexact polynomial division")
            q_key = k - lead
            c = rem.pop(k)
            if p:
                t = c * inv % p
            else:
                t, r = divmod(c, lead_c)
                if r:
                    raise ArithmeticError("inexact polynomial division")
            out[q_key] = t
            get = rem.get
            for kb, vb in rest:
                key = q_key + kb
                v = get(key, 0) - t * vb
                if p:
                    v %= p
                if v:
                    rem[key] = v
                else:
                    del rem[key]
        if p:
            return from_packed(d, n, out)
        # self / divisor = (ca / denom_a) / (cb / denom_b) * out
        num, den = ca * divisor.denom, cb * self.denom
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if num != 1:
            out = {k: v * num for k, v in out.items()}
        return from_packed(d, n, out, den)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.denom == other.denom
            and self.packed == other.packed
            and (self.descriptor is other.descriptor
                 or self.descriptor == other.descriptor)
        )

    def __hash__(self):
        return hash((self.descriptor, self.n_vars, self.denom,
                     frozenset(self.packed.items())))

    # -- degree and homogeneity -------------------------------------------------

    def total_degree(self):
        """Total degree; the zero polynomial reports minus infinity."""
        if not self.packed:
            return NEG_INFINITY
        return max(self.packed) >> BITS * self.n_vars

    def degree_in(self, index: int):
        if not self.packed:
            return NEG_INFINITY
        shift = layout(self.n_vars).shifts[index]
        return max(k >> shift & _FIELD for k in self.packed)

    def degrees(self):
        """``(total_degree, per_variable_degrees)`` with -inf sentinels for 0."""
        if not self.packed:
            return NEG_INFINITY, (NEG_INFINITY,) * self.n_vars
        return self.total_degree(), tuple(
            self.degree_in(i) for i in range(self.n_vars)
        )

    def homogeneous_degree(self):
        """Degree if homogeneous (0 counts for every degree: returns None)."""
        if not self.packed:
            return None
        shift = BITS * self.n_vars
        degs = {k >> shift for k in self.packed}
        return degs.pop() if len(degs) == 1 else None

    def above(self, degree: int) -> "Polynomial":
        """The terms of total degree more than ``degree``, in their order."""
        cut = (degree + 1) << BITS * self.n_vars
        packed = {k: v for k, v in self.packed.items() if k >= cut}
        if len(packed) == len(self.packed):
            return self
        return from_packed(self.descriptor, self.n_vars, packed, self.denom)

    def graded_components(self) -> dict[int, "Polynomial"]:
        shift = BITS * self.n_vars
        buckets: dict[int, dict] = {}
        for k, v in self.packed.items():
            buckets.setdefault(k >> shift, {})[k] = v
        d, n = self.descriptor, self.n_vars
        return {deg: from_packed(d, n, t, self.denom)
                for deg, t in buckets.items()}

    # -- substitution --------------------------------------------------------------

    def dehomogenize_last(self) -> "Polynomial":
        """Substitute 1 for the last variable and drop it."""
        n = self.n_vars
        if n < 1:
            raise ValueError("no variable to drop")
        d = self.descriptor
        shift, kept = BITS * n, BITS * (n - 1)
        rest = (1 << kept) - 1
        pairs = ((((k >> shift) - (k & _FIELD)) << kept | k >> BITS & rest, v)
                 for k, v in self.packed.items())
        return from_packed(d, n - 1, accumulate({}, pairs, d.add), self.denom)

    def homogenize_new_var(self) -> "Polynomial":
        """Append a variable and pad every term up to the total degree."""
        deg = self.total_degree()
        n = self.n_vars
        if deg == NEG_INFINITY:
            return Polynomial.zero(self.descriptor, n + 1)
        shift = BITS * n
        top, low = deg << BITS * (n + 1), (1 << shift) - 1
        packed = {top | (k & low) << BITS | deg - (k >> shift): v
                  for k, v in self.packed.items()}
        return from_packed(self.descriptor, n + 1, packed, self.denom)

    def extend_vars(self, n_vars: int) -> "Polynomial":
        """Reinterpret over a larger ambient variable set."""
        n = self.n_vars
        if n_vars < n:
            raise ValueError("cannot shrink the variable set")
        shift, pad = BITS * n, BITS * (n_vars - n)
        low = (1 << shift) - 1
        packed = {(k >> shift) << BITS * n_vars | (k & low) << pad: v
                  for k, v in self.packed.items()}
        return from_packed(self.descriptor, n_vars, packed, self.denom)

    # -- printing -------------------------------------------------------------------

    def __str__(self):
        if not self.packed:
            return "0"
        d = self.descriptor
        rational = d.characteristic == 0
        parts = []
        for exps, value in self.sorted_terms():
            negative = rational and value < 0
            mag = -value if negative else value
            factors = [
                f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                body = d.format_value(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([d.format_value(mag)] + factors)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.descriptor.name()}, {self})"


# the slot setters, which bypass the immutability guard at C speed
_new = object.__new__
_set_descriptor, _set_n_vars, _set_packed, _set_denom = (
    Polynomial.__dict__[name].__set__ for name in Polynomial.__slots__
)


class TermsView(Mapping):
    """Read-only view of a polynomial's terms: exponent tuples to raw values,
    in the insertion order of its packed map."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Polynomial):
        self._poly = poly

    def __len__(self):
        return len(self._poly.packed)

    def __iter__(self):
        return map(layout(self._poly.n_vars).unpack, self._poly.packed)

    def __getitem__(self, exps):
        poly = self._poly
        try:
            stored = poly.packed[layout(poly.n_vars).pack(exps)]
        except (TypeError, ValueError, DegreeTooLarge):
            raise KeyError(exps) from None
        return poly._raw(stored)

    def __repr__(self):
        return repr(dict(self.items()))


class RationalFunction:
    """Unreduced fraction of polynomials; denominator kept monic, never zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(num.descriptor, num.n_vars)
        num._match(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial.one(num.descriptor, num.n_vars)
        else:
            # scale both by 1 / lc, where lc = lead / den.denom
            lead = den.packed[max(den.packed)]
            if lead != 1 or den.denom != 1:
                p = den.descriptor.modulus
                if p:
                    num_c, den_c = pow(lead, -1, p), 1
                elif lead > 0:
                    num_c, den_c = den.denom, lead
                else:
                    num_c, den_c = -den.denom, -lead
                num = num._scaled(num_c, den_c)
                den = den._scaled(num_c, den_c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def descriptor(self):
        return self.num.descriptor

    @property
    def n_vars(self):
        return self.num.n_vars

    @classmethod
    def zero(cls, descriptor, n_vars) -> "RationalFunction":
        return cls(Polynomial.zero(descriptor, n_vars))

    @classmethod
    def one(cls, descriptor, n_vars) -> "RationalFunction":
        return cls(Polynomial.one(descriptor, n_vars))

    @classmethod
    def constant(cls, descriptor, n_vars, value) -> "RationalFunction":
        return cls(Polynomial.constant(descriptor, n_vars, value))

    @classmethod
    def variable(cls, descriptor, n_vars, index) -> "RationalFunction":
        return cls(Polynomial.variable(descriptor, n_vars, index))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_polynomial(self) -> Polynomial:
        """Return the numerator scaled by the constant denominator's inverse."""
        if not self.den.is_constant():
            raise ValueError("denominator is not constant")
        return self.num.times_constant(self.den, invert=True)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + -other

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def scale(self, value) -> "RationalFunction":
        return RationalFunction(self.num.scale(value), self.den)

    def __eq__(self, other):
        """Cross-multiplication equality; representation independent."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFunction equality is by value; not hashable")

    # -- homogeneity -----------------------------------------------------------

    def homogeneous_pair(self, degree: int):
        """A certified homogeneous ``(num, den)`` pair of degree difference
        ``degree`` equal to this fraction, or None.

        The direct representation is accepted when both parts are homogeneous;
        otherwise the graded components are searched for a single equivalent
        pair.  This is a conservative test (see module docs): it can reject
        exotic representations of homogeneous functions, but any fraction of
        homogeneous polynomials is handled, as is any fraction whose graded
        pieces line up.
        """
        if self.num.is_zero():
            return self.num, self.den
        dn = self.num.homogeneous_degree()
        dd = self.den.homogeneous_degree()
        if dn is not None and dd is not None:
            return (self.num, self.den) if dn - dd == degree else None
        num_parts = self.num.graded_components()
        den_parts = self.den.graded_components()
        for e, q_part in sorted(den_parts.items()):
            p_part = num_parts.get(e + degree)
            if p_part is not None and p_part * self.den == self.num * q_part:
                return p_part, q_part
        return None

    def is_homogeneous(self, degree: int) -> bool:
        return self.homogeneous_pair(degree) is not None

    def dehomogenize_last(self) -> "RationalFunction":
        num = self.num.dehomogenize_last()
        den = self.den.dehomogenize_last()
        return RationalFunction(num, den)

    def homogenize_new_var(self) -> "RationalFunction":
        """Map G to ``z_new * G(z / z_new)`` cleared to a polynomial fraction."""
        if self.num.is_zero():
            return RationalFunction.zero(self.descriptor, self.n_vars + 1)
        num_h = self.num.homogenize_new_var()
        den_h = self.den.homogenize_new_var()
        shift = 1 + self.den.total_degree() - self.num.total_degree()
        n = self.n_vars + 1
        z_new = Polynomial.variable(self.descriptor, n, n - 1)
        if shift >= 0:
            return RationalFunction(num_h * z_new**shift, den_h)
        return RationalFunction(num_h, den_h * z_new ** (-shift))

    def extend_vars(self, n_vars: int) -> "RationalFunction":
        return RationalFunction(
            self.num.extend_vars(n_vars), self.den.extend_vars(n_vars)
        )

    def __str__(self):
        if self.den == Polynomial.one(self.descriptor, self.n_vars):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.descriptor.name()}, {self})"


def poly_arith(a: Polynomial, b: Polynomial, op: str) -> Polynomial:
    """Dispatch form of polynomial arithmetic (``add mul``)."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown operation {op!r}")


def ratfun_arith(a: RationalFunction, b: RationalFunction | None, op: str):
    """Dispatch form of fraction arithmetic (``add mul inv eq``)."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inverse()
    if op == "eq":
        return a == b
    raise ValueError(f"unknown operation {op!r}")
