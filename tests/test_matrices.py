"""Rational matrix arithmetic, determinants, inverses."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ratpencil.elimination import sparse_determinant
from ratpencil.errors import DimensionMismatch, SingularMatrix
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix, mat_arith, mat_det, mat_inv
from ratpencil.poly import Polynomial, RationalFunction

from conftest import det_cofactor_oracle, random_matrix, random_poly

Q = rationals()


def _z(descriptor, n, i):
    return RationalFunction.variable(descriptor, n, i)


def test_transpose_and_identity():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    zero = RationalFunction.zero(Q, 2)
    a = RationalMatrix([[zero, z1], [z2, zero]])
    assert mat_arith(a, None, "transpose") == RationalMatrix(
        [[zero, z2], [z1, zero]]
    )
    ident = RationalMatrix.identity(Q, 2, 2)
    assert mat_arith(ident, a, "mul") == a


def test_kron_identity():
    z1 = _z(Q, 1, 0)
    a = RationalMatrix.scalar(z1)
    expect = RationalMatrix(
        [[z1, RationalFunction.zero(Q, 1)], [RationalFunction.zero(Q, 1), z1]]
    )
    assert mat_arith(a, 2, "kron_identity") == expect


def test_dimension_mismatch():
    a = RationalMatrix.identity(Q, 1, 2)
    b = RationalMatrix.identity(Q, 1, 3)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * b


def test_det_triangular():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    one = RationalFunction.one(Q, 2)
    zero = RationalFunction.zero(Q, 2)
    a = RationalMatrix([[z1, one], [zero, z2]])
    assert mat_det(a) == z1 * z2


def test_det_symmetric_two_by_two_homogeneous():
    z1, z2, z3 = (_z(Q, 3, i) for i in range(3))
    a = RationalMatrix([[z1, z2], [z2, z3]])
    det = mat_det(a)
    assert det == z1 * z3 - z2 * z2
    assert det.is_homogeneous(2)


def test_det_matches_cofactor_oracle_exhaustive_2x2():
    g2 = prime_field(2)
    pool = [
        RationalFunction.zero(g2, 1),
        RationalFunction.one(g2, 1),
        _z(g2, 1, 0),
    ]
    for picks in itertools.product(pool, repeat=4):
        a = RationalMatrix([[picks[0], picks[1]], [picks[2], picks[3]]])
        assert mat_det(a) == det_cofactor_oracle(a)


def test_det_matches_cofactor_oracle_random(rng):
    for _ in range(40):
        d = rng.choice([Q, prime_field(2), prime_field(3)])
        k = rng.randint(2, 4)
        a = random_matrix(rng, d, 2, k, max_deg=1, max_terms=2,
                          polynomial_bias=0.8, den_deg=1, den_terms=2)
        assert mat_det(a) == det_cofactor_oracle(a)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([Q, prime_field(2), prime_field(101)]),
       st.integers(1, 6),
       st.sampled_from(["dense", "sparse", "zero_row", "duplicate_row",
                        "dependent_row"]))
def test_sparse_determinant_matches_cofactor_oracle(rand, d, k, shape):
    n = rand.randint(1, 3)
    density = 0.3 if shape == "sparse" else 0.8
    zero = Polynomial.zero(d, n)
    grid = [
        [random_poly(rand, d, n, max_deg=2, max_terms=2)
         if rand.random() < density else zero for _ in range(k)]
        for _ in range(k)
    ]
    singular = shape == "zero_row" or (k > 1 and shape.endswith("_row"))
    i, j, t = rand.sample(range(k), 3) if k > 2 else (0, k - 1, k - 1)
    if shape == "zero_row":
        grid[i] = [zero] * k
    elif singular and shape == "duplicate_row":
        grid[i] = list(grid[j])
    elif singular:
        a = random_poly(rand, d, n, max_deg=1, max_terms=2)
        b = random_poly(rand, d, n, max_deg=1, max_terms=2)
        grid[i] = [a * x + b * y for x, y in zip(grid[j], grid[t])]
    matrix = RationalMatrix.from_polynomials(grid)
    expected = det_cofactor_oracle(matrix)
    rows = {r: {c: p for c, p in enumerate(row) if not p.is_zero()}
            for r, row in enumerate(grid)}
    got = sparse_determinant(rows, k, d, n)
    assert got.is_polynomial() and got == expected
    assert mat_det(matrix) == expected
    if singular:
        assert expected.is_zero()


def test_det_denominator_is_the_product_of_row_denominators():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    one = RationalFunction.one(Q, 2)
    dens = [one + z1, z1 + z2, one + z2 * z2]
    nums = [[z1, z2, one], [one, z1 * z2, z2], [z2, one, z1 + one]]
    a = RationalMatrix(
        [[num / den for num in row] for row, den in zip(nums, dens)]
    )
    det = mat_det(a)
    assert det == det_cofactor_oracle(a)
    assert det.den.total_degree() == sum(d.num.total_degree() for d in dens)


def test_inverse_examples():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    one = RationalFunction.one(Q, 2)
    zero = RationalFunction.zero(Q, 2)
    a = RationalMatrix([[z1, one], [zero, z2]])
    inv = mat_inv(a)
    ident = RationalMatrix.identity(Q, 2, 2)
    assert a * inv == ident
    assert inv.entries[0][0] == one / z1
    assert inv.entries[0][1] == -(one / (z1 * z2))
    assert mat_inv(RationalMatrix.identity(Q, 2, 3)) == RationalMatrix.identity(Q, 2, 3)
    assert mat_inv(RationalMatrix.scalar(z1)) == RationalMatrix.scalar(one / z1)


def test_inverse_random(rng):
    count = 0
    while count < 20:
        d = rng.choice([Q, prime_field(3), prime_field(5)])
        k = rng.randint(1, 3)
        a = random_matrix(rng, d, 2, k, max_deg=1, max_terms=2,
                          polynomial_bias=1.0)
        if mat_det(a).is_zero():
            continue
        assert a * mat_inv(a) == RationalMatrix.identity(d, 2, k)
        count += 1


def test_inverse_singular():
    zero = RationalFunction.zero(Q, 1)
    a = RationalMatrix([[zero, zero], [zero, zero]])
    with pytest.raises(SingularMatrix):
        mat_inv(a)


def test_det_degree_law(rng):
    # determinant of a homogeneous degree-d matrix is homogeneous of m*d
    from conftest import random_homogeneous_poly

    for _ in range(25):
        d = rng.choice([Q, prime_field(2), prime_field(3)])
        n = rng.randint(1, 3)
        m = rng.randint(2, 3)
        deg = rng.randint(1, 2)
        a = RationalMatrix.from_polynomials(
            [
                [
                    random_homogeneous_poly(rng, d, n, deg, max_terms=2)
                    for _ in range(m)
                ]
                for _ in range(m)
            ]
        )
        det = mat_det(a)
        assert det.is_zero() or det.is_homogeneous(m * deg)
