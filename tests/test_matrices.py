"""Rational matrix arithmetic, determinants, inverses."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ratpencil import elimination
from ratpencil.elimination import sparse_determinant
from ratpencil.errors import DimensionMismatch, SingularMatrix
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix, mat_arith, mat_det, mat_inv
from ratpencil.poly import Polynomial, RationalFunction

from conftest import det_cofactor_oracle, random_matrix, random_poly

Q = rationals()
FIELDS = [Q, prime_field(2), prime_field(101)]


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
       st.sampled_from(FIELDS),
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


def _sparse(grid):
    return {i: {j: p for j, p in enumerate(row) if not p.is_zero()}
            for i, row in enumerate(grid)}


def _shuffled(rand, grid):
    rows, cols = list(range(len(grid))), list(range(len(grid)))
    rand.shuffle(rows)
    rand.shuffle(cols)
    return [[grid[i][j] for j in cols] for i in rows]


def _nonconstant(rand, d, n):
    p = random_poly(rand, d, n, max_deg=2, max_terms=2)
    return p if p.total_degree() > 0 else Polynomial.variable(
        d, n, rand.randrange(n))


def _structured_grid(rand, d, n, k, shape):
    """A k-by-k polynomial grid with the structure a pencil has."""
    zero, one = Polynomial.zero(d, n), Polynomial.one(d, n)

    def const(nonzero=False):
        p = Polynomial.constant(d, n, rand.randrange(-4, 5))
        return one if nonzero and p.is_zero() else p

    def poly():
        return random_poly(rand, d, n, max_deg=2, max_terms=2)

    if shape == "triangular":
        grid = [[poly() if j > i else zero for j in range(k)]
                for i in range(k)]
        for i in range(k):
            grid[i][i] = const(True) if rand.random() < 0.5 else (
                random_poly(rand, d, n, max_deg=1, max_terms=2, nonzero=True))
    elif shape == "z_identity_block":
        # the variables on the diagonal of s rows, a dense block on the rest,
        # constants coupling the two, as in an HBR pencil
        s = rand.randint(max(1, k - 4), k - 1) if k > 1 else 1
        grid = [[zero] * k for _ in range(k)]
        for t in range(s):
            grid[t][t] = Polynomial.variable(d, n, rand.randrange(n))
        for i in range(s, k):
            for j in range(s, k):
                grid[i][j] = poly()
        for _ in range(k):
            i, j = rand.randrange(k), rand.randrange(k)
            if (i < s) != (j < s):
                grid[i][j] = const()
    elif shape == "constants":
        grid = [[const() if rand.random() < 0.6 else zero for _ in range(k)]
                for _ in range(k)]
    elif shape == "late_zero_row":
        # row 1 is c * row 0, and row 0 has a constant entry: the elimination
        # of a constant pivot leaves a zero row
        grid = [[poly() if rand.random() < 0.7 else zero for _ in range(k)]
                for _ in range(k)]
        grid[0][rand.randrange(k)] = const(True)
        if k > 1:
            c = const(True).constant_value()
            grid[1] = [p.scale(c) for p in grid[0]]
    elif shape == "no_constants":
        # nothing for the structural phase
        grid = [[_nonconstant(rand, d, n) if rand.random() < 0.6 else zero
                 for _ in range(k)] for _ in range(k)]
    else:  # zero_column
        grid = [[poly() if rand.random() < 0.7 else zero for _ in range(k)]
                for _ in range(k)]
        j = rand.randrange(k)
        for row in grid:
            row[j] = zero
    return _shuffled(rand, grid)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(FIELDS),
       st.integers(1, 8),
       st.sampled_from(["triangular", "z_identity_block", "constants",
                        "late_zero_row", "zero_column", "no_constants"]))
def test_sparse_determinant_on_pencil_structures(rand, d, k, shape):
    n = rand.randint(1, 3)
    grid = _structured_grid(rand, d, n, k, shape)
    rows = _sparse(grid)
    copy = {r: dict(row) for r, row in rows.items()}
    got = sparse_determinant(rows, k, d, n)
    assert rows == copy
    expected = det_cofactor_oracle(RationalMatrix.from_polynomials(grid))
    assert got.is_polynomial() and got == expected
    if shape == "zero_column" or (shape == "late_zero_row" and k > 1):
        assert expected.is_zero()


def test_sparse_determinant_brings_lone_pivots_up_to_date():
    # after the singleton row 1, the four rows left are expanded by cofactors
    a = parse_expression(
        "[[z1-z2, z2, 0, z2-1, 0], [0, 0, 0, z1+z2, 0],"
        " [0, 0, z1+1, 2*z1, z2-1], [0, 2*z1, z1*z2, z1, 0],"
        " [z1-z2, z2, z1+z2, z1*z2, z2-1]]", Q,
    )
    rows = {i: {j: e.num for j, e in enumerate(row) if not e.is_zero()}
            for i, row in enumerate(a.entries)}
    det = sparse_determinant(rows, 5, Q, 2)
    assert not det.is_zero() and det == det_cofactor_oracle(a)


def test_bareiss_brings_lone_pivots_up_to_date(monkeypatch):
    # after the singleton row 1, five rows go to Bareiss: it takes a pivot
    # alone in its row and then, from a row that missed that update, a
    # pivot alone in its column
    def no_expansion(*args):
        raise AssertionError("a five-row rest was expanded by cofactors")

    monkeypatch.setattr(elimination, "_expand_cofactors", no_expansion)
    a = parse_expression(
        "[[0, 4*z2+4, 2*z2+2, 0, 2*z1-4*z2, 0], [0, -2*z2, 0, 0, 0, 0],"
        " [0, 0, 0, -3*z2, 0, -z2], [4*z2, 0, 0, 3*z1, 0, z1],"
        " [-2*z2, z1-1, 4*z2, 0, z2+2, 0], [0, 0, 0, 0, -3*z1, z1+1]]", Q,
    )
    grid = [[e.num for e in row] for row in a.entries]
    det = sparse_determinant(_sparse(grid), 6, Q, 2)
    assert not det.is_zero() and det == det_cofactor_oracle(a)


@pytest.mark.parametrize("d", FIELDS)
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_cofactor_expansion_in_any_row_and_column_order(d, size):
    rand = random.Random(size)
    zero, one = Polynomial.zero(d, 2), Polynomial.one(d, 2)
    for _ in range(10):
        grid = [[_nonconstant(rand, d, 2) if rand.random() < 0.7 else zero
                 for _ in range(size)] for _ in range(size)]
        row_ids = rand.sample(range(10), size)
        col_ids = rand.sample(range(10), size)
        work = {i: {j: grid[a][b] for b, j in enumerate(col_ids)
                    if not grid[a][b].is_zero()}
                for a, i in enumerate(row_ids)}
        got = elimination._expand_cofactors(work, row_ids, col_ids, one)
        assert RationalFunction(got) == det_cofactor_oracle(
            RationalMatrix.from_polynomials(grid))


@pytest.mark.parametrize("d", FIELDS)
@pytest.mark.parametrize("size", [2, 3, 4])
def test_sparse_determinant_expands_permuted_rests(d, size):
    # no constant and no singleton: the whole matrix is the rest
    rand = random.Random(10 + size)
    for _ in range(10):
        grid = [[_nonconstant(rand, d, 2) for _ in range(size)]
                for _ in range(size)]
        grid = _shuffled(rand, grid)
        expected = det_cofactor_oracle(RationalMatrix.from_polynomials(grid))
        assert sparse_determinant(_sparse(grid), size, d, 2) == expected


@pytest.mark.parametrize("d", FIELDS)
def test_cofactor_expansion_spends_no_product_on_a_zero_minor(d, monkeypatch):
    # the rest is rows 0, 2, 3 on columns 0, 1, 2 (row 1 is a singleton);
    # the minor of rows 2, 3 on columns 1, 2 is z1 * z1*z2 - z2 * z1^2 = 0
    a = parse_expression(
        "[[z1+z2, z2, z1, z2], [0, 0, 0, 3], [z1, z1, z2, z1],"
        " [z2, z1^2, z1*z2, 0]]", d,
    )
    grid = [[e.num for e in row] for row in a.entries]
    products = []
    times = Polynomial.__mul__

    def counted(p, q):
        products.append(1)
        return times(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    det = sparse_determinant(_sparse(grid), 4, d, 2)
    monkeypatch.undo()
    assert not det.is_zero()
    assert det == det_cofactor_oracle(RationalMatrix.from_polynomials(grid))
    # two for each of the three 2x2 minors, and one for each of the two
    # nonzero ones in row 0: the zero minor costs no product
    assert len(products) == 8


@pytest.mark.parametrize("d", FIELDS)
@pytest.mark.parametrize("size", [2, 3, 4])
def test_cofactor_expansion_cancels_to_zero(d, size):
    # the last row is z1 * row 0 + z2 * row 1 (z1 * row 0 for two rows), so
    # the determinant is zero although no row or column is
    rand = random.Random(20 + size)
    z1, z2 = Polynomial.variable(d, 2, 0), Polynomial.variable(d, 2, 1)
    for _ in range(5):
        grid = [[_nonconstant(rand, d, 2) for _ in range(size)]
                for _ in range(size - 1)]
        last = [z1 * p for p in grid[0]]
        if size > 2:
            last = [p + z2 * q for p, q in zip(last, grid[1])]
        grid.append(last)
        grid = _shuffled(rand, grid)
        matrix = RationalMatrix.from_polynomials(grid)
        assert det_cofactor_oracle(matrix).is_zero()
        assert sparse_determinant(_sparse(grid), size, d, 2).is_zero()


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
