"""Realization builders and the characteristic-2 decision procedure."""

import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import ratpencil.pencil as pencil_module
import ratpencil.realize as realize_module
from ratpencil.combinators import op_shrink
from ratpencil.errors import (
    DimensionMismatch,
    NotHomogeneousDegreeOne,
    NotRealizableChar2,
    NotSymmetric,
    PencilTooLarge,
    TooFewVariables,
    WrongCharacteristic,
)
from ratpencil.expr import parse_expression
from ratpencil.fields import prime_field, rationals
from ratpencil.matrices import RationalMatrix
from ratpencil.pencil import require_size
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.realize import (
    Char2Certificate,
    decide_and_realize_hsbr,
    decide_hsbr,
    decide_sbr,
    decide_sbr_scalar_char2,
    realize_br,
    realize_hbr,
    realize_hsbr,
    realize_sbr,
)
from ratpencil.verify import check_realization

from ratpencil_testkit import (
    random_degree_one_ratfun,
    random_homogeneous_poly,
    random_matrix,
    random_poly,
    random_ratfun,
    random_symmetric_matrix,
)

Q = rationals()
G2 = prime_field(2)
G3 = prime_field(3)
G101 = prime_field(101)


def _z(d, n, i):
    return RationalFunction.variable(d, n, i)


def _check(result):
    report = check_realization(result.pencil, result.target, result.kind)
    assert report.passed, report.to_json()
    return result


def _at_checked_size(build, *args):
    """``build(*args)``, asserting that the one exact size it checked
    against the pencil-size limit is the m of the pencil it returned, that
    each lower bound it checked on the way is at most that m, and that
    :func:`op_shrink` finds no constant pivot to remove."""
    with mock.patch.object(realize_module, "require_size",
                           wraps=require_size) as spy:
        pencil = build(*args)
    sizes = [(call.args[0], call.kwargs.get("at_least", False))
             for call in spy.call_args_list]
    assert [m for m, at_least in sizes if not at_least] == [pencil.m]
    assert all(m <= pencil.m for m, _ in sizes)
    assert op_shrink(pencil) is pencil
    return pencil


# ---------------------------------------------------------------------------
# realize_br
# ---------------------------------------------------------------------------


def test_br_atomic_monomial():
    result = realize_br(RationalMatrix.scalar(_z(Q, 1, 0)))
    pencil = result.pencil
    assert pencil.m == 2 and pencil.split == 1
    z1 = Polynomial.variable(Q, 1, 0)
    assert pencil.entry(0, 0) == z1
    assert pencil.entry(1, 1) == Polynomial.one(Q, 1)
    assert pencil.entry(0, 1).is_zero() and pencil.entry(1, 0).is_zero()
    _check(result)


def test_br_gf2_product():
    _check(realize_br(RationalMatrix.scalar(_z(G2, 2, 0) * _z(G2, 2, 1))))


def test_br_rational_matrix():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    one = RationalFunction.one(Q, 2)
    zero = RationalFunction.zero(Q, 2)
    _check(realize_br(RationalMatrix([[z1, one], [one / z2, zero]])))


def test_br_round_trip_randomized(rng):
    for trial in range(40):
        d = [Q, G2, G3][trial % 3]
        n = rng.randint(1, 3)
        k = rng.choice([1, 1, 2])
        _check(realize_br(random_matrix(rng, d, n, k)))


def _grid(k, entry):
    return RationalMatrix([[entry() for _ in range(k)] for _ in range(k)])


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.sampled_from([2, 3]), st.booleans())
def test_br_builds_each_entry_at_its_predicted_size(rand, d, k, shared):
    n = rand.randint(1, 3)
    common = random_poly(rand, d, n, max_deg=2, max_terms=2, nonzero=True)

    def entry():
        f = random_ratfun(rand, d, n, max_deg=2, max_terms=2)
        return RationalFunction(f.num, common) if shared else f

    target = _grid(k, entry)
    # the size checked is the size written, and nothing shrinks it
    built = _at_checked_size(realize_module._br_entrywise, target)
    assert _check(realize_br(target)).pencil == built

    if d.characteristic != 2:
        mirrored = RationalMatrix(
            [[target.entries[min(i, j)][max(i, j)] for j in range(k)]
             for i in range(k)]
        )
        assert _check(realize_sbr(mirrored)).pencil.is_symmetric()

    n_h = rand.randint(2, 3)
    den_deg = rand.randint(0, 1)
    den = random_homogeneous_poly(rand, d, n_h, den_deg, nonzero=True)

    def homogeneous_entry():
        if shared:
            num = random_homogeneous_poly(rand, d, n_h, den_deg + 1)
            return RationalFunction(num, den)
        return random_degree_one_ratfun(rand, d, n_h)

    assert _check(realize_hbr(_grid(k, homogeneous_entry))).pencil.is_homogeneous()


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.integers(1, 3))
def test_polynomial_chains_leave_nothing_to_shrink(rand, d, n):
    # one prefix trie of p's terms, and for p/q one corner row whose trie
    # holds p and -q: A22 has no constant pivot, so the pencil is as small
    # as op_shrink can make it and its size is the prediction
    p = random_poly(rand, d, n, max_deg=4, max_terms=4)
    q = random_poly(rand, d, n, max_deg=3, max_terms=3, nonzero=True)
    for f in (RationalFunction(p), RationalFunction(p, q)):
        target = RationalMatrix.scalar(f)
        pencil = _at_checked_size(realize_module._br_entrywise, target)
        assert pencil.schur_complement() == target


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.integers(1, 3))
def test_a_fraction_is_one_corner_row_with_one_trie(rand, d, n):
    # p/q takes one corner row t, whose trie holds -q and p: m = k + 1 + r
    # for the r rows of that trie, and twice the corner and the trie when
    # mirrored (away from characteristic 2, where the diagonal is p/2 over
    # q).  Sharing saves the rows of common prefixes, but one variable
    # order serves both, so r is not bounded by the rows of p's and q's
    # own tries.
    p = random_poly(rand, d, n, max_deg=4, max_terms=4, nonzero=True)
    q = random_poly(rand, d, n, max_deg=3, max_terms=3, nonzero=True)
    assume(not q.is_constant())
    f = RationalFunction(p, q)
    target = RationalMatrix.scalar(f)
    edges, _ = realize_module._trie([-f.den, f.num], n, lambda count: None)
    rows = len(edges)
    assert _check(realize_br(target)).pencil.m == 2 + rows
    if d.characteristic != 2:
        assert _check(realize_sbr(target)).pencil.m == 3 + 2 * rows


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.sampled_from([1, 2, 3]))
def test_sbr_is_checked_at_the_size_returned(rand, d, k):
    # every SBR pencil is written in one pass, in characteristic 2 too: the
    # one size checked against the limit is the m returned, and op_shrink
    # finds nothing to remove.  A diagonal x s^2 / t^2 with x in
    # {1, z_1, ..., z_n} passes the characteristic-2 parity test.
    n = rand.randint(1, 3)
    grid = [[None] * k for _ in range(k)]
    for i in range(k):
        s = random_poly(rand, d, n, max_deg=2, max_terms=3)
        t = random_poly(rand, d, n, max_deg=2, max_terms=2, nonzero=True)
        x = rand.choice([Polynomial.one(d, n)] + [
            Polynomial.variable(d, n, v) for v in range(n)])
        grid[i][i] = RationalFunction(x * s * s, t * t)
        for j in range(i + 1, k):
            grid[i][j] = grid[j][i] = random_ratfun(rand, d, n, max_deg=3)
    target = RationalMatrix(grid)
    pencil = _at_checked_size(lambda: _check(realize_sbr(target)).pencil)
    assert pencil.is_symmetric()


def test_a_sum_over_one_denominator_keeps_it():
    # the numerators of fractions over one denominator are added over it,
    # so the denominator does not grow with the number of summands
    target = parse_expression(" + ".join(["1/(1+z1)"] * 50), Q)
    z1, one = Polynomial.variable(Q, 1, 0), Polynomial.one(Q, 1)
    assert target.entries[0][0].den == one + z1
    assert target == RationalMatrix.scalar(
        RationalFunction(one.scale(50), one + z1))
    assert _check(realize_br(target)).pencil.m == 2


def test_polynomial_targets_are_checked_at_the_size_returned(monkeypatch):
    # the first target's rows share their chain prefixes (six rows, where
    # one chain per term takes ten); the next have rational entries: each
    # p/q is a corner row whose one trie holds p and -q, with no constant
    # pivot to shrink; the gf2 targets are written as one square per
    # parity class, p/q as p's square around the pencil of p q
    for text, field, br_m, sbr_m in (
        ("[[z1^3*z2+z2^2, z1^2*z2],[z1^2*z2, z2^3]]", Q, 8, 12),
        ("[[z1^2/(1+z1), z2^2],[z2^2, z1*z2/(z1+z2)]]", Q, 8, 12),
        ("z1^5/(1+z1^2)", Q, 6, 11),
        ("(z1^2+z2)/(1+z1^2)", Q, 3, 5),
        ("z1^2+z2^2", G2, 3, 2),
        ("z1^2/(1+z2)", G2, 3, 8),
    ):
        target = parse_expression(text, field, 2)
        for build, m in ((realize_br, br_m), (realize_sbr, sbr_m)):
            monkeypatch.setattr(pencil_module, "MAX_PENCIL_SIZE", m)
            assert _check(build(target)).pencil.m == m
            monkeypatch.setattr(pencil_module, "MAX_PENCIL_SIZE", m - 1)
            with pytest.raises(PencilTooLarge, match="more than the limit"):
                build(target)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.sampled_from([1, 2, 3]), st.booleans())
def test_polynomial_pencils_meet_the_size_lower_bound(rand, d, k, affine):
    # for an entry p of total degree d, the minor of A that gives p det A22
    # has size m - k + 1, so m >= k - 1 + d; the format needs m >= k + 1.
    # An affine target, written wholly into A11, reaches the bound k + 1.
    n = rand.randint(1, 3)
    grid = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            p = random_poly(rand, d, n, max_deg=1 if affine else 4)
            grid[i][j] = grid[j][i] = RationalFunction(p)
    target = RationalMatrix(grid)
    degree = max(max(e.num.total_degree(), 0)
                 for row in target.entries for e in row)
    for build in (realize_br, realize_sbr):
        try:
            pencil = _check(build(target)).pencil
        except NotRealizableChar2:
            assert d.characteristic == 2 and n >= 2 and not affine
            continue
        if affine:
            assert pencil.m == k + 1
        else:
            assert pencil.m >= max(k + 1, k - 1 + degree)

    n_h = rand.randint(1, 3)
    forms = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            p = random_homogeneous_poly(rand, d, n_h, 1)
            forms[i][j] = forms[j][i] = RationalFunction(p)
    for build in (realize_hbr, decide_and_realize_hsbr):
        assert _check(build(RationalMatrix(forms))).pencil.m == k + 1


def _polynomial_grid(rand, d, n, k):
    return RationalMatrix([
        [RationalFunction(random_poly(rand, d, n, max_deg=4, max_terms=4))
         for _ in range(k)] for _ in range(k)])


def _nnz(pencil):
    return len(set().union(*pencil.coeffs))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.integers(1, 3), st.integers(1, 3))
def test_shared_prefixes_never_pass_one_chain_per_term(rand, d, n, k):
    # the terms that leave one row share the rows of their common prefixes,
    # so the pencil has at most the k + sum (deg - 1) rows of one separate
    # chain per term (and the format's k + 1)
    target = _polynomial_grid(rand, d, n, k)
    chains = sum(max(sum(exps) - 1, 0) for row in target.entries
                 for g in row for exps in g.num.terms)
    pencil = _check(realize_br(target)).pencil
    assert pencil.m <= max(k + chains, k + 1)


def _order_keys(target):
    """Per row, the order key (-terms, -exponent) of each variable over the
    row's terms of degree at least 2, for the variables they contain."""
    keys = []
    for row in target.entries:
        key = {}
        for g in row:
            for exps in g.num.terms:
                if sum(exps) < 2:
                    continue
                for v, e in enumerate(exps):
                    if e:
                        terms, total = key.get(v, (0, 0))
                        key[v] = (terms - 1, total - e)
        keys.append(key)
    return keys


def _relabeled(target, perm):
    """The target with z_(v+1) renamed to z_(perm[v]+1)."""
    def rename(p):
        return Polynomial(p.descriptor, p.n_vars, {
            tuple(exps[perm.index(v)] for v in range(p.n_vars)): c
            for exps, c in p.terms.items()})
    return RationalMatrix([[RationalFunction(rename(g.num)) for g in row]
                           for row in target.entries])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, G2, G101]),
       st.integers(2, 3), st.integers(1, 2))
def test_relabeling_distinctly_keyed_variables_keeps_the_size(rand, d, n, k):
    # each row orders its variables by counts alone when their keys are
    # pairwise distinct, so renaming the variables moves no row or cell
    target = _polynomial_grid(rand, d, n, k)
    assume(all(len(set(key.values())) == len(key)
               for key in _order_keys(target)))
    pencil = realize_br(target).pencil
    for perm in itertools.permutations(range(n)):
        relabeled = _check(realize_br(_relabeled(target, perm))).pencil
        assert (relabeled.m, _nnz(relabeled)) == (pencil.m, _nnz(pencil))


def test_char2_even_root_keeps_the_constant_of_h():
    # h = p q = z1^2 z2^2 + z1^2 + z2^2 + 1 has one parity class, of root
    # z1 z2 + z1 + z2: the root takes h's constant into the cell that its
    # terms of degree 1 fill, and H's corner stays empty
    target = parse_expression("(z2^2+1)/(z1^2+1)", G2)
    pencil = _check(realize_sbr(target)).pencil
    assert (pencil.m, _nnz(pencil)) == (7, 17)


# ---------------------------------------------------------------------------
# realize_hbr
# ---------------------------------------------------------------------------


def test_hbr_examples():
    z1, z2, z3 = (_z(Q, 3, i) for i in range(3))
    result = _check(realize_hbr(RationalMatrix.scalar(z1 * z2 / z3)))
    assert result.pencil.is_homogeneous()

    single = _check(realize_hbr(RationalMatrix.scalar(_z(Q, 1, 0))))
    assert single.pencil.is_homogeneous()

    with pytest.raises(NotHomogeneousDegreeOne):
        realize_hbr(RationalMatrix.scalar(_z(Q, 2, 0) * _z(Q, 2, 1)))


@pytest.mark.parametrize("d", [Q, G2, G101], ids=lambda d: d.name())
def test_a_fraction_of_inhomogeneous_parts_is_paired_by_degree(d):
    # (z1^2*z2 + z1*z2)/(z1*z2 + z2) is z1: neither part is homogeneous,
    # but the graded components z1*z2 and z2 form an equal pair
    target = parse_expression("(z1^2*z2 + z1*z2)/(z1*z2 + z2)", d)
    entry = target.entries[0][0]
    assert entry.num.homogeneous_degree() is None
    assert entry.is_homogeneous(1)
    for build in (realize_hbr, realize_hsbr):
        assert _check(build(target)).pencil.m == 2


def test_hbr_randomized(rng):
    for trial in range(25):
        d = [Q, G2, G3][trial % 3]
        n = rng.randint(1, 3)
        k = rng.choice([1, 2])
        target = RationalMatrix(
            [
                [random_degree_one_ratfun(rng, d, n) for _ in range(k)]
                for _ in range(k)
            ]
        )
        result = _check(realize_hbr(target))
        assert result.pencil.is_homogeneous()


# ---------------------------------------------------------------------------
# decide_sbr_scalar_char2
# ---------------------------------------------------------------------------


def test_decide_counterexamples():
    z1, z2 = _z(G2, 2, 0), _z(G2, 2, 1)
    cert = decide_sbr_scalar_char2(z1 * z2)
    assert not cert.realizable
    assert cert.offending_monomial == (1, 1)

    w1, w2, w3 = (_z(G2, 3, i) for i in range(3))
    cert = decide_sbr_scalar_char2(w1 * w2 + w3)
    assert not cert.realizable
    assert cert.offending_monomial == (1, 1, 0)


def test_decide_realizable_decomposition():
    z1, z2 = _z(G2, 2, 0), _z(G2, 2, 1)
    cert = decide_sbr_scalar_char2(z1 * z1 * z1 + z2)
    assert cert.realizable
    assert cert.decomposition == {
        (1, 0): Polynomial.monomial(G2, 2, (2, 0)),
        (0, 1): Polynomial.one(G2, 2),
    }
    # reassembly reproduces h
    h = Polynomial.monomial(G2, 2, (3, 0)) + Polynomial.monomial(G2, 2, (0, 1))
    rebuilt = Polynomial.zero(G2, 2)
    for beta, g in cert.decomposition.items():
        rebuilt = rebuilt + Polynomial.monomial(G2, 2, beta) * g
    assert rebuilt == h


def test_decide_preconditions():
    with pytest.raises(WrongCharacteristic):
        decide_sbr_scalar_char2(_z(Q, 2, 0))
    with pytest.raises(TooFewVariables):
        decide_sbr_scalar_char2(_z(G2, 1, 0))


def _decomposition_oracle(h: Polynomial) -> bool:
    """Exhaustive search for h = g0 + z1 g1 + z2 g2 with even-supported g_i.

    Enumerates every candidate decomposition within the degree bound of h;
    n = 2 and small degrees only.
    """
    assert h.n_vars == 2
    deg = h.total_degree()
    if deg == float("-inf"):
        return True
    bound = int(deg)
    even = [
        (a, b)
        for a in range(0, bound + 1, 2)
        for b in range(0, bound + 1 - a, 2)
    ]

    def subsets(exps_list):
        for size in range(len(exps_list) + 1):
            yield from itertools.combinations(exps_list, size)

    shifts = [(0, 0), (1, 0), (0, 1)]
    candidates = []
    for shift in shifts:
        candidates.append(
            [
                (e[0] + shift[0], e[1] + shift[1])
                for e in even
                if sum(e) + sum(shift) <= bound
            ]
        )
    for pick0 in subsets(candidates[0]):
        p0 = Polynomial(G2, 2, {e: 1 for e in pick0})
        for pick1 in subsets(candidates[1]):
            p1 = Polynomial(G2, 2, {e: 1 for e in pick1})
            partial = p0 + p1
            for pick2 in subsets(candidates[2]):
                p2 = Polynomial(G2, 2, {e: 1 for e in pick2})
                if partial + p2 == h:
                    return True
    return False


def test_decide_matches_exhaustive_oracle():
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for mask in range(64):
        terms = {
            monomials[i]: 1 for i in range(6) if mask & (1 << i)
        }
        h = Polynomial(G2, 2, terms)
        verdict = decide_sbr_scalar_char2(RationalFunction(h)).realizable
        assert verdict == _decomposition_oracle(h), str(h)


def test_decide_square_multiple_invariance(rng):
    for _ in range(60):
        n = rng.randint(2, 3)
        f = random_ratfun(rng, G2, n)
        q = random_poly(rng, G2, n, max_deg=2, max_terms=2, nonzero=True)
        scaled = RationalFunction(f.num * q * q, f.den)
        a = decide_sbr_scalar_char2(f).realizable
        b = decide_sbr_scalar_char2(scaled).realizable
        assert a == b


# ---------------------------------------------------------------------------
# realize_sbr
# ---------------------------------------------------------------------------


def test_sbr_examples():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    result = _check(realize_sbr(RationalMatrix.scalar(z1 * z2)))
    assert result.pencil.is_symmetric()

    g1, g2 = _z(G2, 2, 0), _z(G2, 2, 1)
    with pytest.raises(NotRealizableChar2) as err:
        realize_sbr(RationalMatrix.scalar(g1 * g2))
    assert err.value.certificate.offending_monomial == (1, 1)

    target = RationalMatrix([[g1, g2], [g2, g1 * g1 * g1]])
    result = _check(realize_sbr(target))
    assert result.pencil.is_symmetric()


def test_sbr_not_symmetric():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    zero = RationalFunction.zero(Q, 2)
    with pytest.raises(NotSymmetric):
        realize_sbr(RationalMatrix([[zero, z1], [z2, zero]]))


@pytest.mark.parametrize("build", [realize_br, realize_sbr, realize_hbr,
                                   decide_and_realize_hsbr])
def test_builders_refuse_a_matrix_that_is_not_square(build):
    with pytest.raises(DimensionMismatch,
                       match="realization needs a square matrix"):
        build(parse_expression("[[z1, z2]]", Q))


def test_sbr_mixed_verdict_reports_first_diagonal():
    g1, g2 = _z(G2, 2, 0), _z(G2, 2, 1)
    target = RationalMatrix([[g1, g2], [g2, g1 * g2]])
    with pytest.raises(NotRealizableChar2) as err:
        realize_sbr(target)
    assert err.value.diagonal == 1


def test_parity_test_runs_once_per_diagonal(monkeypatch):
    calls = []
    original = realize_module._parity_classes

    def counted(h):
        calls.append(h)
        return original(h)

    monkeypatch.setattr(realize_module, "_parity_classes", counted)
    g1, g2 = _z(G2, 2, 0), _z(G2, 2, 1)
    _check(realize_sbr(RationalMatrix([[g1, g2], [g2, g1 * g1 + g2]])))
    assert len(calls) == 2
    calls.clear()
    h1, h2, h3 = (_z(G2, 3, i) for i in range(3))
    target = RationalMatrix([[h1, h2], [h2, h1 * h1 / h3 + h2]])
    _check(decide_and_realize_hsbr(target))
    assert len(calls) == 2


def test_sbr_single_variable_all_fields(rng):
    for trial in range(18):
        d = [Q, G2, G3][trial % 3]
        f = random_ratfun(rng, d, 1, max_deg=4, max_terms=3)
        result = _check(realize_sbr(RationalMatrix.scalar(f)))
        assert result.pencil.is_symmetric()


def test_sbr_randomized(rng):
    for trial in range(30):
        d = [Q, G3, G2][trial % 3]
        n = rng.randint(1, 3)
        k = rng.choice([1, 1, 2])
        target = random_symmetric_matrix(rng, d, n, k)
        if d.characteristic == 2 and n >= 2:
            ok = all(
                decide_sbr_scalar_char2(target.entries[i][i]).realizable
                for i in range(k)
            )
            if not ok:
                with pytest.raises(NotRealizableChar2):
                    realize_sbr(target)
                continue
        result = _check(realize_sbr(target))
        assert result.pencil.is_symmetric()


# ---------------------------------------------------------------------------
# decide_and_realize_hsbr
# ---------------------------------------------------------------------------


def test_hsbr_examples():
    z1, z2, z3 = (_z(Q, 3, i) for i in range(3))
    result = decide_and_realize_hsbr(RationalMatrix.scalar(z1 * z2 / z3))
    _check(result)
    assert result.pencil.classify() == {"LP", "sLP", "hLP", "hsLP"}

    g1, g2, g3 = (_z(G2, 3, i) for i in range(3))
    cert = decide_and_realize_hsbr(RationalMatrix.scalar(g1 * g2 / g3))
    assert isinstance(cert, Char2Certificate)
    assert not cert.realizable
    assert cert.offending_monomial == (1, 1)

    single = decide_and_realize_hsbr(RationalMatrix.scalar(_z(Q, 1, 0)))
    _check(single)
    assert single.pencil.classify() >= {"hsLP"}


def test_realize_hsbr_raises_with_the_failing_diagonal():
    # diagonal 0 passes; diagonal 1 is z1*z2 after dehomogenizing at z3
    g1, g2, g3 = (_z(G2, 3, i) for i in range(3))
    target = RationalMatrix([[g1 * g1 / g3, g2], [g2, g1 * g2 / g3]])
    with pytest.raises(NotRealizableChar2) as caught:
        realize_hsbr(target)
    assert caught.value.diagonal == 1
    assert caught.value.certificate == decide_and_realize_hsbr(target)
    assert caught.value.certificate.offending_monomial == (1, 1)


def test_a_paired_fraction_meets_the_obstruction_of_its_pair():
    # (z1*z2*z3 + z1*z2)/(z3^2 + z3) is z1*z2/z3, paired by graded components
    paired = parse_expression("(z1*z2*z3 + z1*z2)/(z3^2 + z3)", G2)
    for target in (paired, parse_expression("z1*z2/z3", G2)):
        decision = decide_hsbr(target)
        assert (decision.realizable, decision.diagonal) == (False, 0)
        assert decision.certificate.offending_monomial == (1, 1)
        with pytest.raises(NotRealizableChar2) as caught:
            realize_hsbr(target)
        assert caught.value.diagonal == 0
        assert caught.value.certificate.offending_monomial == (1, 1)
    _check(realize_hbr(paired))


def test_realize_hsbr_is_exported():
    from ratpencil import realize_hsbr as exported
    assert exported is realize_hsbr


def test_hsbr_two_vars_char2_always_works(rng):
    for _ in range(10):
        f = random_degree_one_ratfun(rng, G2, 2)
        result = decide_and_realize_hsbr(RationalMatrix.scalar(f))
        assert not isinstance(result, Char2Certificate)
        _check(result)


def test_hsbr_randomized(rng):
    for trial in range(25):
        d = [Q, G3, G2][trial % 3]
        n = rng.randint(1, 3)
        k = rng.choice([1, 2])
        grid = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                entry = random_degree_one_ratfun(rng, d, n)
                grid[i][j] = grid[j][i] = entry
        target = RationalMatrix(grid)
        result = decide_and_realize_hsbr(target)
        if isinstance(result, Char2Certificate):
            assert d.characteristic == 2 and n >= 3
            continue
        _check(result)
        assert result.pencil.classify() >= {"hsLP"}


def test_decision_dispatchers():
    z1, z2 = _z(Q, 2, 0), _z(Q, 2, 1)
    assert decide_sbr(RationalMatrix.scalar(z1 * z2)).realizable
    g1, g2 = _z(G2, 2, 0), _z(G2, 2, 1)
    decision = decide_sbr(RationalMatrix.scalar(g1 * g2))
    assert not decision.realizable and decision.diagonal == 0
    assert decide_sbr(RationalMatrix.scalar(_z(G2, 1, 0))).realizable
