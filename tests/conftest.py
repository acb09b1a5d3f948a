"""Shared generators and independent oracles for the test suite.

The oracles here (cofactor determinant, Gauss-Jordan inverse, dense Schur
complement) are deliberately separate implementations from the library code
they check.
"""

from __future__ import annotations

import random

import pytest

from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.quotring import QuotMatrix, add_transform

ALL_FIELDS = [rationals(), prime_field(2), prime_field(3), prime_field(5)]


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_value(rng, descriptor, nonzero=False):
    if descriptor.characteristic == 0:
        v = rng.randint(-4, 4)
        if nonzero and v == 0:
            v = 1
        return descriptor.coerce(v)
    v = rng.randrange(descriptor.characteristic)
    if nonzero and v == 0:
        v = 1
    return descriptor.coerce(v)


def random_poly(rng, descriptor, n_vars, max_deg=3, max_terms=3, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = [0] * n_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n_vars)] += 1
        value = random_value(rng, descriptor)
        key = tuple(exps)
        terms[key] = descriptor.add(terms.get(key, descriptor.zero), value)
    p = Polynomial(descriptor, n_vars, terms)
    if nonzero and p.is_zero():
        return Polynomial.one(descriptor, n_vars)
    return p


def random_ratfun(rng, descriptor, n_vars, max_deg=3, max_terms=3,
                  den_deg=2, den_terms=2, polynomial_bias=0.5):
    num = random_poly(rng, descriptor, n_vars, max_deg, max_terms)
    if rng.random() < polynomial_bias:
        return RationalFunction(num)
    den = random_poly(rng, descriptor, n_vars, den_deg, den_terms, nonzero=True)
    return RationalFunction(num, den)


def random_matrix(rng, descriptor, n_vars, k, **kw):
    return RationalMatrix(
        [[random_ratfun(rng, descriptor, n_vars, **kw) for _ in range(k)]
         for _ in range(k)]
    )


def random_symmetric_matrix(rng, descriptor, n_vars, k, **kw):
    grid = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            entry = random_ratfun(rng, descriptor, n_vars, **kw)
            grid[i][j] = entry
            grid[j][i] = entry
    return RationalMatrix(grid)


def random_homogeneous_poly(rng, descriptor, n_vars, degree, max_terms=3,
                            nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = [0] * n_vars
        for _ in range(degree):
            exps[rng.randrange(n_vars)] += 1
        value = random_value(rng, descriptor)
        key = tuple(exps)
        terms[key] = descriptor.add(terms.get(key, descriptor.zero), value)
    p = Polynomial(descriptor, n_vars, terms)
    if nonzero and p.is_zero():
        return Polynomial.monomial(
            descriptor, n_vars, (degree,) + (0,) * (n_vars - 1)
        )
    return p


def random_degree_one_ratfun(rng, descriptor, n_vars, nonzero=False):
    """Homogeneous of degree 1: ratio of homogeneous parts with deg gap 1."""
    den_deg = rng.randint(0, 2)
    den = random_homogeneous_poly(rng, descriptor, n_vars, den_deg, nonzero=True)
    num = random_homogeneous_poly(
        rng, descriptor, n_vars, den_deg + 1, nonzero=nonzero
    )
    return RationalFunction(num, den)


def random_realizer(rng, ctx, pad):
    """Build a known (realizer, r) pair: a 2x2 core padded and scrambled."""
    n = ctx.n_vars

    def random_linear(invertible=False):
        while True:
            terms = {}
            if rng.random() < 0.8:
                terms[(0,) * n] = rng.randrange(2)
            for v in range(n):
                if rng.random() < 0.6:
                    exps = tuple(1 if t == v else 0 for t in range(n))
                    terms[exps] = rng.randrange(2)
            element = ctx.project(Polynomial(ctx.descriptor, n, terms))
            if not invertible or element.is_invertible():
                return element

    l1 = random_linear()
    l2 = random_linear(invertible=True)
    c = ctx.constant(rng.randrange(2))
    r = l1 + c * c * l2.inverse()
    size = 2 + pad
    zero = ctx.zero()
    grid = [[zero for _ in range(size)] for _ in range(size)]
    grid[0][0] = l1
    grid[0][1] = grid[1][0] = c
    grid[1][1] = l2
    for t in range(pad):
        grid[2 + t][2 + t] = random_linear(invertible=True)
    matrix = QuotMatrix(ctx, 1, grid)
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(1, size)
        j = rng.choice([t for t in range(size) if t != i])
        alpha = ctx.constant(rng.randrange(2))
        matrix = add_transform(matrix, i, j, alpha)
    return matrix, r


def det_cofactor_oracle(a: RationalMatrix) -> RationalFunction:
    m = a.rows
    if m == 1:
        return a.entries[0][0]
    acc = RationalFunction.zero(a.descriptor, a.n_vars)
    for j in range(m):
        entry = a.entries[0][j]
        if entry.is_zero():
            continue
        minor = RationalMatrix(
            [
                [a.entries[i][t] for t in range(m) if t != j]
                for i in range(1, m)
            ]
        )
        piece = entry * det_cofactor_oracle(minor)
        acc = acc - piece if j % 2 else acc + piece
    return acc


def gauss_jordan_inverse(a: RationalMatrix) -> RationalMatrix:
    m = a.rows
    d, n = a.descriptor, a.n_vars
    work = [list(row) for row in a.entries]
    inv = [
        [
            RationalFunction.one(d, n) if i == j else RationalFunction.zero(d, n)
            for j in range(m)
        ]
        for i in range(m)
    ]
    for col in range(m):
        pivot_row = next(
            (r for r in range(col, m) if not work[r][col].is_zero()), None
        )
        assert pivot_row is not None, "singular matrix passed to oracle"
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        scale = work[col][col].inverse()
        work[col] = [e * scale for e in work[col]]
        inv[col] = [e * scale for e in inv[col]]
        for r in range(m):
            if r == col or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [we - factor * ce for we, ce in zip(work[r], work[col])]
            inv[r] = [we - factor * ce for we, ce in zip(inv[r], inv[col])]
    return RationalMatrix(inv)


def schur_dense_oracle(pencil) -> RationalMatrix:
    """Schur complement through a dense Gauss-Jordan inverse of A22."""
    k, m = pencil.split, pencil.m
    full = pencil.as_matrix()
    a11 = RationalMatrix([[full.entries[i][j] for j in range(k)] for i in range(k)])
    a12 = RationalMatrix(
        [[full.entries[i][j] for j in range(k, m)] for i in range(k)]
    )
    a21 = RationalMatrix(
        [[full.entries[i][j] for j in range(k)] for i in range(k, m)]
    )
    a22 = RationalMatrix(
        [[full.entries[i][j] for j in range(k, m)] for i in range(k, m)]
    )
    return a11 - a12 * gauss_jordan_inverse(a22) * a21
