"""The seven pencil combinators: Schur identities, structure transfer, sizes."""

from pathlib import Path

import pytest

from ratpencil import pencil as pencil_module
from ratpencil.combinators import (
    op_add,
    op_homogenize,
    op_inverse,
    op_kron_identity,
    op_product,
    op_sandwich,
    op_scale,
    op_symmetrize,
)
from ratpencil.errors import (
    BlockSizeMismatch,
    DescriptorMismatch,
    DimensionMismatch,
    PencilTooLarge,
    SingularBlock,
    SingularSchurComplement,
    SingularX,
    ZeroScalar,
)
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix, mat_det, mat_inv
from ratpencil.pencil import MAX_PENCIL_SIZE, LinearPencil
from ratpencil.poly import RationalFunction
from ratpencil.realize import realize_br, realize_sbr

from ratpencil_testkit import random_matrix, random_symmetric_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Q = rationals()
FIELDS = [Q, prime_field(2), prime_field(3), prime_field(5)]


def _scalar_br(descriptor, n, text_vars):
    return realize_br(RationalMatrix.scalar(text_vars)).pencil


def _z(descriptor, n, i):
    return RationalFunction.variable(descriptor, n, i)


def _golden():
    return LinearPencil.from_json((FIXTURES / "sbr_z1z2.json").read_text())


def _random_pencil(rng, descriptor, n, k=1):
    target = random_matrix(rng, descriptor, n, k, max_deg=2, max_terms=2,
                           polynomial_bias=0.7)
    return realize_br(target).pencil


def test_scale_examples():
    golden = _golden()
    doubled = op_scale(golden, 2)
    z1z2 = _z(Q, 2, 0) * _z(Q, 2, 1)
    assert doubled.schur_complement() == RationalMatrix.scalar(z1z2.scale(2))
    assert op_scale(golden, 1) == golden
    assert "sLP" in doubled.classify()
    with pytest.raises(ZeroScalar):
        op_scale(golden, 0)


def test_add_examples():
    p = _scalar_br(Q, 2, _z(Q, 2, 0))
    q = _scalar_br(Q, 2, _z(Q, 2, 1))
    total = op_add(p, q)
    assert total.schur_complement() == RationalMatrix.scalar(
        _z(Q, 2, 0) + _z(Q, 2, 1)
    )
    assert total.m == p.m + q.m - 1
    zero = _scalar_br(Q, 2, RationalFunction.zero(Q, 2))
    assert op_add(p, zero).schur_complement() == p.schur_complement()
    golden = _golden()
    both = op_add(golden, golden)
    assert "sLP" in both.classify()
    with pytest.raises(BlockSizeMismatch):
        op_add(p, golden.with_split(2) if golden.split != 2 else golden)


def _layout(pencil):
    """Everything a pencil is made of, key order included."""
    return (pencil.descriptor, pencil.n_vars, pencil.m, pencil.split,
            [list(c.items()) for c in pencil.coeffs])


def _fold(parts):
    acc = parts[0]
    for part in parts[1:]:
        acc = op_add(acc, part, check=False)
    return acc


def test_add_of_many_parts_is_the_left_fold(rng):
    for trial in range(24):
        d = FIELDS[trial % len(FIELDS)]
        n = rng.randint(1, 3)
        k = 1 + trial % 2
        parts = [_random_pencil(rng, d, n, k) for _ in range(rng.randint(2, 4))]
        # p then -p cancels the (1,1) block; the next part brings it back
        negated = op_scale(parts[0], -1, check=False)
        at = 0 if trial % 2 else rng.randrange(len(parts) + 1)
        parts[at:at] = [parts[0], negated]
        total = op_add(*parts)
        assert _layout(total) == _layout(_fold(parts))
        assert total.m == sum(part.m for part in parts) - (len(parts) - 1) * k
        expected = parts[0].schur_complement()
        for part in parts[1:]:
            expected = expected + part.schur_complement()
        assert total.schur_complement() == expected
    p = _random_pencil(rng, Q, 2)
    assert op_add(p) is p
    # a (1,1) entry that cancels leaves and comes back at the end
    p = LinearPencil(Q, 0, 2, 1, [{(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}])
    total = op_add(p, op_scale(p, -1), p)
    assert list(total.coeffs[0]) == [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0),
                                     (2, 2), (0, 0), (0, 3), (3, 0), (3, 3)]


def test_add_rejects_a_bad_part_at_any_position(rng):
    n = 2
    good = [_random_pencil(rng, Q, n) for _ in range(3)]
    bad_parts = [
        (BlockSizeMismatch, _random_pencil(rng, Q, n, 2)),
        (DescriptorMismatch, _random_pencil(rng, prime_field(3), n)),
        (DescriptorMismatch, _random_pencil(rng, Q, n + 1)),
    ]
    for error, bad in bad_parts:
        for at in range(len(good) + 1):
            parts = good[:at] + [bad] + good[at:]
            with pytest.raises(error):
                op_add(*parts)
            with pytest.raises(error):
                op_add(*parts, check=False)


def test_add_checks_every_block(rng):
    for d in FIELDS:
        n = 2
        good = [_random_pencil(rng, d, n) for _ in range(3)]
        # A22 = [0]: singular in every field
        singular = LinearPencil(d, n, 2, 1, [{(0, 0): 1, (0, 1): 1}, {}, {}])
        for at in range(len(good) + 1):
            parts = good[:at] + [singular] + good[at:]
            with pytest.raises(SingularBlock):
                op_add(*parts)
            assert op_add(*parts, check=False).m == sum(
                part.m for part in parts) - len(good)


def test_symmetrize_examples():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    zero = RationalFunction.zero(Q, 2)
    upper = RationalMatrix([[zero, z1 * z2], [zero, zero]])
    p = realize_br(upper).pencil
    sym = op_symmetrize(p)
    assert sym.schur_complement() == RationalMatrix(
        [[zero, z1 * z2], [z1 * z2, zero]]
    )
    assert sym.m == 2 * p.m - p.split
    assert "sLP" in sym.classify()
    golden = _golden()
    doubled = op_symmetrize(golden)
    assert doubled.schur_complement() == RationalMatrix.scalar(
        (z1 * z2).scale(2)
    )


def test_symmetrize_char2_doubles_to_zero():
    g2 = prime_field(2)
    p = _scalar_br(g2, 2, _z(g2, 2, 0) * _z(g2, 2, 1))
    sym = op_symmetrize(p)
    assert sym.schur_complement() == RationalMatrix.scalar(
        RationalFunction.zero(g2, 2)
    )


def test_sandwich_examples():
    p = _scalar_br(Q, 1, _z(Q, 1, 0))
    same = op_sandwich([[1]], p, [[1]])
    assert same.schur_complement() == p.schur_complement()
    scaled = op_sandwich([[2]], p, [[3]])
    assert scaled.schur_complement() == RationalMatrix.scalar(
        _z(Q, 1, 0).scale(6)
    )
    # picking out the (1,1) entry of a 2x2 target
    target = RationalMatrix(
        [
            [_z(Q, 2, 0), _z(Q, 2, 1)],
            [RationalFunction.zero(Q, 2), RationalFunction.one(Q, 2)],
        ]
    )
    p2 = realize_br(target).pencil
    picked = op_sandwich([[1, 0]], p2, [[1], [0]])
    assert picked.schur_complement() == RationalMatrix.scalar(_z(Q, 2, 0))
    assert picked.m == 1 + p2.m - p2.split


def test_product_examples():
    p = _scalar_br(Q, 2, _z(Q, 2, 0))
    q = _scalar_br(Q, 2, _z(Q, 2, 1))
    prod = op_product(p, None, q)
    assert prod.schur_complement() == RationalMatrix.scalar(
        _z(Q, 2, 0) * _z(Q, 2, 1)
    )
    assert prod.m == p.m + q.m
    one = _scalar_br(Q, 2, RationalFunction.one(Q, 2))
    assert op_product(p, None, one).schur_complement() == p.schur_complement()

    p3 = _scalar_br(Q, 3, _z(Q, 3, 0))
    q3 = _scalar_br(Q, 3, _z(Q, 3, 1))
    x = RationalMatrix.scalar(_z(Q, 3, 2))
    ratio = op_product(p3, x, q3)
    assert ratio.schur_complement() == RationalMatrix.scalar(
        _z(Q, 3, 0) * _z(Q, 3, 1) / _z(Q, 3, 2)
    )


def test_inverse_examples():
    p = _scalar_br(Q, 1, _z(Q, 1, 0))
    inv = op_inverse(p)
    one = RationalFunction.one(Q, 1)
    assert inv.schur_complement() == RationalMatrix.scalar(one / _z(Q, 1, 0))
    assert inv.m == p.m + p.split
    again = op_inverse(inv)
    assert again.schur_complement() == p.schur_complement()

    s = realize_sbr(RationalMatrix.scalar(_z(Q, 2, 0) + _z(Q, 2, 1))).pencil
    s_inv = op_inverse(s)
    assert "sLP" in s_inv.classify()
    assert s_inv.schur_complement() == RationalMatrix.scalar(
        one.extend_vars(2) / (_z(Q, 2, 0) + _z(Q, 2, 1))
    )
    zero = _scalar_br(Q, 1, RationalFunction.zero(Q, 1))
    with pytest.raises(SingularSchurComplement):
        op_inverse(zero)


def test_inverse_eliminates_once(monkeypatch):
    calls = []
    schur_eliminate = pencil_module.schur_eliminate

    def counted(*args):
        calls.append(args)
        return schur_eliminate(*args)

    monkeypatch.setattr(pencil_module, "schur_eliminate", counted)
    op_inverse(_scalar_br(Q, 1, _z(Q, 1, 0)))
    assert len(calls) == 1
    # A22 = [0]: the Schur complement itself refuses the singular block
    singular = LinearPencil(Q, 2, 2, 1, [{(0, 0): 1, (0, 1): 1}, {}, {}])
    with pytest.raises(SingularBlock) as info:
        op_inverse(singular)
    assert str(info.value) == "the (2,2) block has zero determinant"


def test_kron_examples():
    p = _scalar_br(Q, 1, _z(Q, 1, 0))
    assert op_kron_identity(p, 1) == p
    doubled = op_kron_identity(p, 2)
    z1 = _z(Q, 1, 0)
    zero = RationalFunction.zero(Q, 1)
    assert doubled.schur_complement() == RationalMatrix(
        [[z1, zero], [zero, z1]]
    )
    assert doubled.m == 2 * p.m and doubled.split == 2 * p.split
    golden_h = LinearPencil.from_json(
        (FIXTURES / "hsbr_z1z2_over_z3.json").read_text()
    )
    tripled = op_kron_identity(golden_h, 3)
    assert tripled.classify() == {"LP", "sLP", "hLP", "hsLP"}


def test_homogenize_golden_pencils_match():
    golden = _golden()
    lifted = op_homogenize(golden)
    expected = LinearPencil.from_json(
        (FIXTURES / "hsbr_z1z2_over_z3.json").read_text()
    )
    assert lifted == expected
    assert lifted.schur_complement() == RationalMatrix.scalar(
        _z(Q, 3, 0) * _z(Q, 3, 1) / _z(Q, 3, 2)
    )


def test_homogenize_already_homogeneous():
    golden_h = LinearPencil.from_json(
        (FIXTURES / "hsbr_z1z2_over_z3.json").read_text()
    )
    lifted = op_homogenize(golden_h)
    assert lifted.n_vars == 4
    assert not lifted.coeffs[4]  # nothing moved into the new variable
    assert lifted.schur_complement() == RationalMatrix.scalar(
        _z(Q, 4, 0) * _z(Q, 4, 1) / _z(Q, 4, 2)
    )


def test_homogenize_structure():
    golden = _golden()
    assert op_homogenize(golden).classify() >= {"hLP", "sLP", "hsLP"}


# ---------------------------------------------------------------------------
# randomized soundness, structure transfer, and size bookkeeping
# ---------------------------------------------------------------------------


def test_randomized_soundness(rng):
    for trial in range(40):
        d = FIELDS[trial % len(FIELDS)]
        n = rng.randint(1, 3)
        p = _random_pencil(rng, d, n)
        q = _random_pencil(rng, d, n)
        sp = p.schur_complement()
        sq = q.schur_complement()

        lam = d.coerce(2) if d.characteristic != 2 else d.one
        assert op_scale(p, lam).schur_complement() == sp.scale(
            RationalFunction.constant(d, n, lam)
        )

        added = op_add(p, q)
        assert added.schur_complement() == sp + sq
        assert added.m == p.m + q.m - p.split

        sym = op_symmetrize(p)
        assert sym.schur_complement() == sp + sp.transpose()
        assert sym.m == 2 * p.m - p.split
        assert "sLP" in sym.classify()

        u = [[rng.randint(-2, 2) for _ in range(p.split)] for _ in range(2)]
        v = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(p.split)]
        um = RationalMatrix(
            [[RationalFunction.constant(d, n, e) for e in row] for row in u]
        )
        vm = RationalMatrix(
            [[RationalFunction.constant(d, n, e) for e in row] for row in v]
        )
        wrapped = op_sandwich(u, p, v)
        assert wrapped.schur_complement() == um * sp * vm
        assert wrapped.m == 2 + p.m - p.split

        prod = op_product(p, None, q)
        assert prod.schur_complement() == sp * sq
        assert prod.m == p.m + q.m

        if not mat_det(sp).is_zero():
            inv = op_inverse(p, check=False)
            assert inv.schur_complement() == mat_inv(sp)
            assert inv.m == p.m + p.split

        kron = op_kron_identity(p, 2)
        assert kron.schur_complement() == sp.kron_identity(2)
        assert kron.m == 2 * p.m

        lifted = op_homogenize(p)
        assert lifted.schur_complement() == RationalMatrix(
            [[e.homogenize_new_var() for e in row] for row in sp.entries]
        )


def test_product_with_nontrivial_x(rng):
    for trial in range(12):
        d = FIELDS[trial % len(FIELDS)]
        n = rng.randint(2, 3)
        p = _random_pencil(rng, d, n)
        q = _random_pencil(rng, d, n)
        x = RationalMatrix.scalar(
            RationalFunction.variable(d, n, rng.randrange(n))
        )
        prod = op_product(p, x, q)
        assert prod.schur_complement() == (
            p.schur_complement() * mat_inv(x) * q.schur_complement()
        )


def _random_x_pencil(rng, d, n):
    """A 2x2 pencil whose matrix X is invertible."""
    while True:
        x = LinearPencil(d, n, 2, 1, [
            {(i, j): rng.randrange(-2, 3) for i in range(2) for j in range(2)}
            for _ in range(n + 1)
        ])
        if not mat_det(x.as_matrix()).is_zero():
            return x


def test_product_with_pencil_x(rng):
    for trial in range(8):
        d = FIELDS[trial % len(FIELDS)]
        n = rng.randint(1, 2)
        p = _random_pencil(rng, d, n, k=2)
        q = _random_pencil(rng, d, n, k=2)
        x = _random_x_pencil(rng, d, n)
        prod = op_product(p, x, q)
        assert prod.schur_complement() == (
            p.schur_complement() * mat_inv(x.as_matrix())
            * q.schur_complement()
        )


def test_product_refuses_bad_x():
    z1 = _z(Q, 1, 0)
    p = _scalar_br(Q, 1, z1)
    p2 = realize_br(RationalMatrix([[z1, z1], [z1, z1 + z1]])).pencil
    x2 = LinearPencil(Q, 1, 2, 1, [{(0, 0): 1, (1, 1): 1}, {}])
    with pytest.raises(DescriptorMismatch):
        op_product(p2, LinearPencil(Q, 2, 2, 1, [{(0, 0): 1}, {}, {}]), p2)
    with pytest.raises(DimensionMismatch):
        op_product(p, x2, p)
    with pytest.raises(TypeError):
        op_product(p, [[1]], p)
    with pytest.raises(DescriptorMismatch):
        op_product(p, RationalMatrix.scalar(_z(prime_field(2), 1, 0)), p)
    with pytest.raises(DimensionMismatch):
        op_product(p, RationalMatrix.identity(Q, 1, 2), p)
    with pytest.raises(ValueError, match="degree at most 1"):
        op_product(p, RationalMatrix.scalar(z1 * z1), p)
    singular = LinearPencil(Q, 1, 2, 1, [{}, {(i, j): 1 for i in range(2)
                                             for j in range(2)}])
    with pytest.raises(SingularX):
        op_product(p2, singular, p2)


def test_structure_transfer(rng):
    for trial in range(12):
        d = FIELDS[trial % len(FIELDS)]
        n = rng.randint(1, 3)
        plain = _random_pencil(rng, d, n)
        sym = op_symmetrize(plain, check=False)
        hom = op_homogenize(plain, check=False)
        hom_sym = op_homogenize(sym, check=False)

        assert "sLP" in op_scale(sym, 1).classify()
        assert op_homogenize(sym).classify() >= {"hLP", "sLP", "hsLP"}
        assert op_add(sym, op_symmetrize(plain)).classify() >= {"sLP"}
        assert op_add(hom, op_homogenize(plain)).classify() >= {"hLP"}
        assert "sLP" in op_sandwich(
            [[1], [0]], sym, [[1, 0]]
        ).classify()  # V = U^T
        assert "hLP" in op_kron_identity(hom, 2).classify()
        assert op_kron_identity(hom_sym, 2).classify() >= {"hLP", "sLP", "hsLP"}
        assert "sLP" in op_inverse(sym, check=False).classify()

        prod = op_product(plain, None, plain.transpose(), check=False)
        assert "sLP" in prod.classify()
        x = RationalMatrix.scalar(RationalFunction.variable(d, n + 1, 0))
        hom_prod = op_product(hom, x, hom.transpose(), check=False)
        assert hom_prod.classify() >= {"hLP", "sLP", "hsLP"}


def _diagonal_pencil(m):
    """diag(z1, 1, ..., 1): an m-row pencil of z1 with split 1."""
    return LinearPencil(Q, 1, m, 1, [
        {(i, i): 1 for i in range(1, m)}, {(0, 0): 1}
    ])


def test_combinators_refuse_outputs_past_the_size_limit():
    # each output is one row past MAX_PENCIL_SIZE, a pencil that
    # LinearPencil.from_json would refuse to read back
    limit = MAX_PENCIL_SIZE
    two, half = _diagonal_pencil(2), _diagonal_pencil(limit // 2 + 1)
    full = _diagonal_pencil(limit)
    outputs = {
        "the sum": lambda: op_add(*[two] * limit, check=False),
        "the symmetrization": lambda: op_symmetrize(half, check=False),
        "the sandwich": lambda: op_sandwich([[1], [1]], full, [[1, 1]],
                                            check=False),
        "the product": lambda: op_product(half, None, half, check=False),
        "the inverse": lambda: op_inverse(full, check=False),
        "the Kronecker product": lambda: op_kron_identity(
            two, limit // 2 + 1, check=False),
    }
    for what, make in outputs.items():
        with pytest.raises(PencilTooLarge, match=what):
            make()
    assert op_kron_identity(two, limit // 2, check=False).m == limit
    assert op_add(*[two] * (limit - 1), check=False).m == limit


def test_combinators_refuse_mismatched_shapes():
    z1 = _z(Q, 1, 0)
    p = _scalar_br(Q, 1, z1)
    p2 = realize_br(RationalMatrix([[z1, z1], [z1, z1 + z1]])).pencil
    with pytest.raises(DimensionMismatch, match="sandwich shapes"):
        op_sandwich([[1, 0]], p, [[1]])
    with pytest.raises(BlockSizeMismatch):
        op_product(p, None, p2)
    with pytest.raises(ValueError, match="positive number"):
        op_kron_identity(p, 0)
