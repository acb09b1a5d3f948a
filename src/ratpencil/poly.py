"""Sparse multivariate polynomials and rational functions over an exact field.

Monomials are bare exponent tuples of length ``n_vars``.  A
:class:`Polynomial` maps monomials to nonzero raw field values (see
:mod:`ratpencil.fields`); the zero polynomial has an empty term map.  A
:class:`RationalFunction` is an unreduced fraction of two polynomials —
there is no multivariate GCD anywhere, equality is by cross-multiplication,
and the only normalization is scalar: the denominator is made monic in the
graded-lexicographic leading term.

The graded-lexicographic order used for canonical printing and leading terms
sorts by total degree first and then by the exponent tuple itself, so e.g.
``z1^2 > z1*z2 > z2^2``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DescriptorMismatch, DivisionByZero
from .fields import FieldDescriptor, FieldElement

NEG_INFINITY = float("-inf")


def grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps exponent tuples to raw values."""

    __slots__ = ("descriptor", "n_vars", "terms")

    def __init__(self, descriptor: FieldDescriptor, n_vars: int, terms=None):
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        clean = {}
        if terms:
            for exps, value in terms.items():
                exps = tuple(exps)
                if len(exps) != n_vars or any(e < 0 for e in exps):
                    raise ValueError(f"bad monomial {exps} for {n_vars} variables")
                value = descriptor.coerce(value)
                if value:
                    prior = clean.get(exps)
                    if prior is None:
                        clean[exps] = value
                    else:
                        merged = descriptor.add(prior, value)
                        if merged:
                            clean[exps] = merged
                        else:
                            del clean[exps]
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _wrap(cls, descriptor, n_vars, terms) -> "Polynomial":
        """Wrap a term map that is already clean: tuple keys, nonzero values."""
        out = cls.__new__(cls)
        object.__setattr__(out, "descriptor", descriptor)
        object.__setattr__(out, "n_vars", n_vars)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls, descriptor, n_vars) -> "Polynomial":
        return cls(descriptor, n_vars)

    @classmethod
    def constant(cls, descriptor, n_vars, value) -> "Polynomial":
        return cls(descriptor, n_vars, {(0,) * n_vars: value})

    @classmethod
    def one(cls, descriptor, n_vars) -> "Polynomial":
        return cls.constant(descriptor, n_vars, descriptor.one)

    @classmethod
    def variable(cls, descriptor, n_vars, index) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(descriptor, n_vars, {exps: descriptor.one})

    @classmethod
    def monomial(cls, descriptor, n_vars, exps, coeff=None) -> "Polynomial":
        if coeff is None:
            coeff = descriptor.one
        return cls(descriptor, n_vars, {tuple(exps): coeff})

    # -- predicates and access ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """Raw value of a constant polynomial (zero if empty)."""
        if not self.terms:
            return self.descriptor.zero
        ((exps, value),) = self.terms.items()
        if any(exps):
            raise ValueError("polynomial is not constant")
        return value

    def coefficient(self, exps) -> FieldElement:
        raw = self.terms.get(tuple(exps), self.descriptor.zero)
        return FieldElement(self.descriptor, raw)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    def _match(self, other: "Polynomial"):
        if self.descriptor != other.descriptor or self.n_vars != other.n_vars:
            raise DescriptorMismatch(
                f"{self.descriptor.name()}[{self.n_vars} vars] vs "
                f"{other.descriptor.name()}[{other.n_vars} vars]"
            )

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._match(other)
        add = self.descriptor.add
        terms = dict(self.terms)
        for exps, value in other.terms.items():
            prior = terms.get(exps)
            if prior is None:
                terms[exps] = value
            else:
                merged = add(prior, value)
                if merged:
                    terms[exps] = merged
                else:
                    del terms[exps]
        return Polynomial._wrap(self.descriptor, self.n_vars, terms)

    def __neg__(self) -> "Polynomial":
        neg = self.descriptor.neg
        terms = {exps: neg(value) for exps, value in self.terms.items()}
        return Polynomial._wrap(self.descriptor, self.n_vars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._match(other)
        d = self.descriptor
        mul, add = d.mul, d.add
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                piece = mul(va, vb)
                prior = terms.get(exps)
                if prior is None:
                    if piece:
                        terms[exps] = piece
                else:
                    merged = add(prior, piece)
                    if merged:
                        terms[exps] = merged
                    else:
                        del terms[exps]
        return Polynomial._wrap(d, self.n_vars, terms)

    def scale(self, value) -> "Polynomial":
        raw = self.descriptor.coerce(value)
        if not raw:
            return Polynomial.zero(self.descriptor, self.n_vars)
        mul = self.descriptor.mul
        terms = {exps: mul(v, raw) for exps, v in self.terms.items()}
        return Polynomial._wrap(self.descriptor, self.n_vars, terms)

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
        """Exact polynomial division; raises ArithmeticError on a remainder."""
        self._match(divisor)
        if divisor.is_zero():
            raise DivisionByZero("polynomial division by zero")
        d = self.descriptor
        lead = divisor.leading_monomial()
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        out: dict = {}
        while rem:
            exps = max(rem, key=grlex_key)
            if any(e < le for e, le in zip(exps, lead)):
                raise ArithmeticError("inexact polynomial division")
            q_exps = tuple(e - le for e, le in zip(exps, lead))
            q_val = d.div(rem[exps], lead_c)
            out[q_exps] = q_val
            for de, dv in divisor.terms.items():
                target = tuple(x + y for x, y in zip(q_exps, de))
                piece = d.mul(q_val, dv)
                prior = rem.get(target)
                if prior is None:
                    rem[target] = d.neg(piece)
                else:
                    merged = d.sub(prior, piece)
                    if merged:
                        rem[target] = merged
                    else:
                        del rem[target]
        return Polynomial(d, self.n_vars, out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.descriptor == other.descriptor
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.descriptor, self.n_vars, tuple(sorted(self.terms.items())))
        )

    # -- degree and homogeneity -------------------------------------------------

    def total_degree(self):
        """Total degree; the zero polynomial reports minus infinity."""
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int):
        if not self.terms:
            return NEG_INFINITY
        return max(e[index] for e in self.terms)

    def degrees(self):
        """``(total_degree, per_variable_degrees)`` with -inf sentinels for 0."""
        if not self.terms:
            return NEG_INFINITY, (NEG_INFINITY,) * self.n_vars
        return self.total_degree(), tuple(
            self.degree_in(i) for i in range(self.n_vars)
        )

    def homogeneous_degree(self):
        """Degree if homogeneous (0 counts for every degree: returns None)."""
        if not self.terms:
            return None
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def graded_components(self) -> dict[int, "Polynomial"]:
        buckets: dict[int, dict] = {}
        for exps, value in self.terms.items():
            buckets.setdefault(sum(exps), {})[exps] = value
        return {
            deg: Polynomial(self.descriptor, self.n_vars, t)
            for deg, t in buckets.items()
        }

    # -- evaluation and substitution ---------------------------------------------

    def evaluate(self, point: Iterable):
        """Evaluate at a tuple of raw field values; returns a raw value."""
        d = self.descriptor
        point = [d.coerce(v) for v in point]
        if len(point) != self.n_vars:
            raise ValueError("point has wrong length")
        acc = d.zero
        for exps, value in self.terms.items():
            term = value
            for v, e in zip(point, exps):
                if e:
                    term = d.mul(term, d.pow(v, e))
            acc = d.add(acc, term)
        return acc

    def dehomogenize_last(self) -> "Polynomial":
        """Substitute 1 for the last variable and drop it."""
        if self.n_vars < 1:
            raise ValueError("no variable to drop")
        d = self.descriptor
        terms: dict = {}
        for exps, value in self.terms.items():
            key = exps[:-1]
            prior = terms.get(key)
            if prior is None:
                terms[key] = value
            else:
                merged = d.add(prior, value)
                if merged:
                    terms[key] = merged
                else:
                    del terms[key]
        return Polynomial(d, self.n_vars - 1, terms)

    def homogenize_new_var(self) -> "Polynomial":
        """Append a variable and pad every term up to the total degree."""
        deg = self.total_degree()
        if deg == NEG_INFINITY:
            return Polynomial.zero(self.descriptor, self.n_vars + 1)
        terms = {
            exps + (deg - sum(exps),): value for exps, value in self.terms.items()
        }
        return Polynomial(self.descriptor, self.n_vars + 1, terms)

    def extend_vars(self, n_vars: int) -> "Polynomial":
        """Reinterpret over a larger ambient variable set."""
        if n_vars < self.n_vars:
            raise ValueError("cannot shrink the variable set")
        pad = (0,) * (n_vars - self.n_vars)
        terms = {exps + pad: value for exps, value in self.terms.items()}
        return Polynomial(self.descriptor, n_vars, terms)

    # -- printing -------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        d = self.descriptor
        rational = d.characteristic == 0
        parts = []
        for exps in sorted(self.terms, key=grlex_key, reverse=True):
            value = self.terms[exps]
            negative = rational and value < 0
            mag = -value if negative else value
            factors = [
                f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                body = d.format_value(mag)
            elif mag == d.one:
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
            lead = den.terms[den.leading_monomial()]
            if lead != den.descriptor.one:
                inv = den.descriptor.inv(lead)
                num = num.scale(inv)
                den = den.scale(inv)
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
        inv = self.descriptor.inv(self.den.constant_value())
        return self.num.scale(inv)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

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
