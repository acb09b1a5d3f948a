"""The shrink combinator: exact, structure-keeping, idempotent, smaller.

Its inputs are pencils with constant pivots, built from public
combinators: BR pencils whose entries are atom product chains, each
denominator inverted and multiplied in, their symmetrizations and their
symmetric squares.  Besides, symmetric pencils whose A22 needs the pair
step (a zero diagonal, as in characteristic 2), and the builders, which
write every pencil with no constant pivot, so that nothing is left to
shrink.
"""

import importlib.util
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ratpencil.combinators import (
    op_homogenize,
    op_product,
    op_shrink,
    op_symmetrize,
)
from ratpencil.expr import parse_expression
from ratpencil.fields import parse_field, prime_field, rationals
from ratpencil.pencil import MAX_PENCIL_SIZE, RealizationKind
from ratpencil.realize import (
    RealizationResult,
    decide_and_realize_hsbr,
    realize_br,
    realize_hbr,
    realize_sbr,
)
from ratpencil.verify import check_realization

from ratpencil_testkit import random_matrix, schur_dense_oracle
from test_verify import _entrywise_pencil, _polynomial_pencil

Q = rationals()
G2 = prime_field(2)
G101 = prime_field(101)
ROOT = Path(__file__).resolve().parent.parent


def _unshrunk(rand, d, shape):
    """A pencil with constant pivots: BR of a random target from atom
    product chains, its symmetrization, or its symmetric square."""
    n = rand.randint(1, 3)
    k = rand.choice([1, 2])
    target = random_matrix(rand, d, n, k, max_deg=2, max_terms=2)
    base = _entrywise_pencil(target)
    if shape == "br":
        return base
    if shape == "symmetrize":
        return op_symmetrize(base, check=False)
    return op_product(base, None, base.transpose(), check=False)


def _schur(pencil):
    if pencil.m <= 12:
        return schur_dense_oracle(pencil)
    return pencil.schur_complement()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.sampled_from(["br", "symmetrize", "square"]))
def test_shrink_keeps_the_schur_complement_and_classes(rand, d, shape):
    p = _unshrunk(rand, d, shape)
    s = op_shrink(p)
    assert p.split + 1 <= s.m <= p.m
    assert s.split == p.split and s.n_vars == p.n_vars
    assert p.classify() <= s.classify()
    assert not s.block_det().is_zero()
    assert _schur(s) == _schur(p)
    assert op_shrink(s) is s


def test_shrink_can_gain_symmetry():
    # the BR pencil of 1/z1 from op_inverse and op_product is LP only; its
    # constant pivots go, and what is left is the symmetric [[0, 1], [1, -z1]]
    for d in (Q, G2):
        target = parse_expression("1/z1", d)
        p = _entrywise_pencil(target)
        s = op_shrink(p)
        assert p.classify() == {"LP"}
        assert s.classify() == {"LP", "sLP"}
        assert s.as_matrix() == parse_expression("[[0, 1],[1, -z1]]", d)
        assert _schur(s) == _schur(p) == target


def _constant_diagonal(pencil):
    """The indices i of A22 whose A_ii is a nonzero constant: the pivots
    of a diagonal step."""
    return [i for i in range(pencil.split, pencil.m)
            if pencil.coeffs[0].get((i, i))
            and not any(c.get((i, i)) for c in pencil.coeffs[1:])]


def test_gf2_sbr_takes_the_pair_step():
    # the square op_product(P, x, P^T) of a BR pencil P = [[z1, 0], [0, 1]]
    # is the layout that realize_sbr writes for a parity class in
    # characteristic 2, there without P's filler row; here the filler's
    # rows give A22 the constant block [[0, 1], [1, 0]], which only the
    # pair step removes
    base = realize_br(parse_expression("z1", G2, 2)).pencil
    x = parse_expression("z2", G2, 2)
    square = op_product(base, x, base.transpose(), check=False)
    assert square.is_symmetric() and not _constant_diagonal(square)
    shrunk = op_shrink(square)
    assert shrunk.m == square.m - 2
    assert shrunk.is_symmetric()
    assert schur_dense_oracle(shrunk) == schur_dense_oracle(square)
    assert shrunk.schur_complement() == parse_expression("z1^2/z2", G2, 2)


def test_pair_step_on_a_zero_diagonal():
    # atom product chains, whose A22 has the constant pivots that the
    # direct chains of the builders leave out
    p = parse_expression("z1*z2 + 1", G2).entries[0][0].num
    base = _polynomial_pencil(p)
    # over GF(2) the symmetrization has A22 = [[0, B], [B^T, 0]]: no
    # diagonal pivot at all, while {i, m - k + i} pairs are invertible
    sym = op_symmetrize(base, check=False)
    assert sym.is_symmetric() and not _constant_diagonal(sym)
    shrunk = op_shrink(sym)
    assert shrunk.m < sym.m
    assert shrunk.is_symmetric()
    assert schur_dense_oracle(shrunk) == schur_dense_oracle(sym)


def test_homogeneous_pencils_pass_through():
    p = realize_br(parse_expression("z1 + z2^2", Q)).pencil
    h = op_homogenize(p)
    assert op_shrink(h) is h


def test_builders_return_shrunk_pencils():
    for text, field in [("z1^4+3*z1", "q"), ("(z1^2+z2)/(1+z1^2)", "gf2"),
                        ("[[z1, z2],[z2, z1*z2]]", "gf:101")]:
        target = parse_expression(text, parse_field(field))
        for build in (realize_br, realize_sbr):
            pencil = build(target).pencil
            assert op_shrink(pencil) is pencil
    homogeneous = parse_expression("[[z1, z2],[z2, z3]]", Q)
    for build in (realize_hbr, decide_and_realize_hsbr):
        result = build(homogeneous)
        assert check_realization(result.pencil, homogeneous, result.kind).passed
        assert "hLP" in result.pencil.classify()


def _load_gen():
    path = ROOT / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_targets_build_under_the_size_limit():
    gen = _load_gen()
    builders = {"br": realize_br, "sbr": realize_sbr, "hbr": realize_hbr,
                "hsbr": decide_and_realize_hsbr}
    texts = [(t.text(), t.field, t.n_vars, t.kind) for t in gen.cli_targets(1)]
    for claim in gen.verify_claims(1):
        built = claim.built
        text = built.text() if built.entries else claim.text
        texts.append((text, built.field, built.n_vars, built.kind))
    for text, field, n_vars, kind in texts:
        target = parse_expression(text, parse_field(field), n_vars)
        result = builders[kind](target)
        assert isinstance(result, RealizationResult)
        assert result.pencil.m <= MAX_PENCIL_SIZE
        assert result.kind == RealizationKind(kind)
