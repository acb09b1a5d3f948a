"""Pencil type: matrix view, classification, Schur complement, file format."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ratpencil.elimination import _parity_sign
from ratpencil.errors import FieldLiteralError, PencilTooLarge, SingularBlock
from ratpencil.fields import FieldDescriptor, prime_field, rationals
from ratpencil.matrices import RationalMatrix, mat_det
from ratpencil.pencil import MAX_PENCIL_SIZE, LinearPencil, RealizationKind
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.realize import realize_br

from ratpencil_testkit import (
    det_cofactor_oracle,
    random_matrix,
    schur_dense_oracle,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Q = rationals()


@pytest.fixture(scope="module")
def golden_product():
    return LinearPencil.from_json((FIXTURES / "sbr_z1z2.json").read_text())


@pytest.fixture(scope="module")
def golden_homogeneous():
    return LinearPencil.from_json(
        (FIXTURES / "hsbr_z1z2_over_z3.json").read_text()
    )


def test_fixture_matrix_entries(golden_product):
    quarter = Fraction(1, 4)
    z1 = Polynomial.variable(Q, 2, 0)
    z2 = Polynomial.variable(Q, 2, 1)
    matrix = golden_product.as_matrix()
    assert matrix.entries[0][1] == RationalFunction((z1 + z2).scale(quarter))
    assert matrix.entries[0][2] == RationalFunction((z1 - z2).scale(-quarter))
    assert matrix.entries[1][1] == RationalFunction(
        Polynomial.constant(Q, 2, -quarter)
    )
    assert matrix.entries[2][2] == RationalFunction(
        Polynomial.constant(Q, 2, quarter)
    )


def test_zero_and_scalar_pencils():
    zero = LinearPencil.from_dense(Q, 1, 1, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    z = RationalFunction.zero(Q, 1)
    assert zero.as_matrix() == RationalMatrix([[z, z], [z, z]])
    ident = LinearPencil.from_dense(Q, 1, 1, [[[0, 0], [0, 0]], [[1, 0], [0, 1]]])
    z1 = RationalFunction.variable(Q, 1, 0)
    assert ident.as_matrix() == RationalMatrix([[z1, z], [z, z1]])


def test_classify(golden_product, golden_homogeneous):
    assert golden_product.classify() == {"LP", "sLP"}
    assert golden_homogeneous.classify() == {"LP", "sLP", "hLP", "hsLP"}
    plain = LinearPencil.from_dense(
        Q, 1, 1, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    )
    assert plain.classify() == {"LP"}


def test_schur_golden(golden_product, golden_homogeneous):
    z1 = RationalFunction.variable(Q, 2, 0)
    z2 = RationalFunction.variable(Q, 2, 1)
    assert golden_product.schur_complement() == RationalMatrix.scalar(z1 * z2)
    w1, w2, w3 = (RationalFunction.variable(Q, 3, i) for i in range(3))
    assert golden_homogeneous.schur_complement() == RationalMatrix.scalar(
        w1 * w2 / w3
    )


def test_schur_block_diagonal():
    p = LinearPencil.from_dense(
        Q, 1, 1, [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]
    )
    z1 = RationalFunction.variable(Q, 1, 0)
    assert p.schur_complement() == RationalMatrix.scalar(z1)


def test_schur_singular_block():
    p = LinearPencil.from_dense(Q, 1, 1, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(SingularBlock):
        p.schur_complement()


def test_det_identity_golden(golden_product, golden_homogeneous):
    assert golden_product.det_identity_check()
    assert golden_homogeneous.det_identity_check()
    det = golden_product.det()
    z1 = RationalFunction.variable(Q, 2, 0)
    z2 = RationalFunction.variable(Q, 2, 1)
    expected = (z1 * z2).scale(Fraction(-1, 16))
    assert det == expected
    assert det == det_cofactor_oracle(golden_product.as_matrix())


def test_schur_matches_dense_oracle(rng):
    for _ in range(25):
        d = rng.choice([Q, prime_field(2), prime_field(3)])
        n = rng.randint(1, 3)
        k = rng.choice([1, 1, 2])
        target = random_matrix(rng, d, n, k, max_deg=2, max_terms=2)
        pencil = realize_br(target).pencil
        if pencil.m <= 14:
            assert pencil.schur_complement() == schur_dense_oracle(pencil)


def test_det_identity_randomized(rng):
    for _ in range(25):
        d = rng.choice([Q, prime_field(2), prime_field(3)])
        n = rng.randint(1, 3)
        target = random_matrix(rng, d, n, rng.choice([1, 2]), max_deg=2,
                               max_terms=2)
        pencil = realize_br(target).pencil
        assert pencil.det_identity_check()


def test_parity_sign_matches_inversion_count(rng):
    for m in list(range(6)) + [rng.randint(6, 50) for _ in range(40)]:
        low = rng.choice([0, 0, 3])
        order = list(range(low, low + m))
        rng.shuffle(order)
        inversions = sum(order[s] > order[t]
                         for s in range(m) for t in range(s + 1, m))
        assert _parity_sign(order) == (-1 if inversions % 2 else 1), order


def test_symmetric_pencils_have_symmetric_schur(rng):
    from ratpencil.combinators import op_symmetrize

    for _ in range(15):
        d = rng.choice([Q, prime_field(2), prime_field(3)])
        n = rng.randint(1, 3)
        target = random_matrix(rng, d, n, rng.choice([1, 2]), max_deg=2,
                               max_terms=2)
        pencil = op_symmetrize(realize_br(target).pencil)
        assert "sLP" in pencil.classify()
        assert pencil.schur_complement().is_symmetric()


def test_homogeneous_pencils_have_degree_one_schur(rng):
    from ratpencil.combinators import op_homogenize

    for _ in range(15):
        d = rng.choice([Q, prime_field(2), prime_field(3)])
        n = rng.randint(1, 3)
        target = random_matrix(rng, d, n, rng.choice([1, 2]), max_deg=2,
                               max_terms=2)
        pencil = op_homogenize(realize_br(target).pencil)
        assert "hLP" in pencil.classify()
        schur = pencil.schur_complement()
        assert all(e.is_homogeneous(1) for row in schur.entries for e in row)


def test_json_round_trip(golden_product, golden_homogeneous, rng):
    for pencil in (golden_product, golden_homogeneous):
        text = pencil.to_json()
        again = LinearPencil.from_json(text)
        assert again == pencil
        assert again.to_json() == text
    d = prime_field(5)
    target = random_matrix(rng, d, 2, 2, max_deg=2, max_terms=2)
    pencil = realize_br(target).pencil
    assert LinearPencil.from_json(pencil.to_json()) == pencil


def test_realization_kind_requirements():
    assert RealizationKind.BR.required_classes() == {"LP"}
    assert RealizationKind.SBR.required_classes() == {"LP", "sLP"}
    assert RealizationKind.HBR.required_classes() == {"LP", "hLP"}
    assert RealizationKind.HSBR.required_classes() == {
        "LP", "sLP", "hLP", "hsLP",
    }


# -- file format ---------------------------------------------------------------


def _dense_json(pencil):
    """The dense document through ``json.dumps``: the writer's oracle."""
    fmt, zero = pencil.descriptor.format_value, pencil.descriptor.zero
    doc = {
        "field": pencil.descriptor.name(),
        "n_vars": pencil.n_vars,
        "m": pencil.m,
        "split": pencil.split,
        "coeffs": [
            [[fmt(c.get((i, j), zero)) for j in range(pencil.m)]
             for i in range(pencil.m)]
            for c in pencil.coeffs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


@st.composite
def _sparse_pencils(draw):
    descriptor = draw(st.sampled_from([Q, prime_field(2), prime_field(101)]))
    m = draw(st.integers(2, 12))
    n_vars = draw(st.integers(0, 3))
    if descriptor.characteristic == 0:
        values = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
    else:
        values = st.integers(-300, 300)
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    coeffs = [
        draw(st.one_of(st.just({}),
                       st.dictionaries(cells, values, max_size=2 * m)))
        for _ in range(n_vars + 1)
    ]
    split = draw(st.integers(1, m - 1))
    return LinearPencil(descriptor, n_vars, m, split, coeffs)


@settings(max_examples=150, deadline=None)
@given(_sparse_pencils())
def test_json_writer_matches_dense_dump_and_round_trips(pencil):
    text = pencil.to_json()
    assert text == _dense_json(pencil)
    assert LinearPencil.from_json(text) == pencil


def test_json_fixtures_round_trip_byte_for_byte():
    for name in ("sbr_z1z2.json", "hsbr_z1z2_over_z3.json"):
        text = (FIXTURES / name).read_text()
        assert LinearPencil.from_json(text).to_json() + "\n" == text


def test_json_reader_accepts_compact_reordered_layout(golden_homogeneous):
    doc = json.loads(golden_homogeneous.to_json())
    reordered = {key: doc[key] for key in reversed(sorted(doc))}
    text = json.dumps(reordered, separators=(",", ":"))
    assert text.startswith('{"split":1,')
    assert LinearPencil.from_json(text) == golden_homogeneous


@pytest.mark.parametrize("descriptor", [Q, prime_field(7)])
def test_json_reader_drops_every_spelling_of_zero(descriptor):
    doc = {
        "field": descriptor.name(), "n_vars": 1, "m": 2, "split": 1,
        "coeffs": [[["-0", "0/5"], [" 0", "2"]], [["0", " 0 "], ["0", "0"]]],
    }
    pencil = LinearPencil.from_json(json.dumps(doc))
    assert pencil.coeffs == ({(1, 1): descriptor.coerce(2)}, {})


@pytest.mark.parametrize("cell", [0, None, ["0"], 1.0])
def test_json_reader_rejects_a_non_string_cell_in_a_zero_row(cell):
    doc = {
        "field": "q", "n_vars": 0, "m": 3, "split": 1,
        "coeffs": [[["0", "0", "0"], ["0", cell, "0"], ["0", "0", "1"]]],
    }
    with pytest.raises(FieldLiteralError):
        LinearPencil.from_json(json.dumps(doc))


def _count_calls(monkeypatch, name):
    """Count calls of the ``FieldDescriptor`` method ``name``."""
    calls = []
    original = getattr(FieldDescriptor, name)

    def counting(self, value):
        calls.append(value)
        return original(self, value)

    monkeypatch.setattr(FieldDescriptor, name, counting)
    return calls


@pytest.fixture
def wide_sparse_pencil():
    """m = 150 with 300 nonzeros: 45000 dense cells."""
    m = 150
    coeffs = [
        {(i, i): Fraction(i + 1, 3) for i in range(m)},
        {(i, (i + 1) % m): -i - 1 for i in range(m)},
    ]
    return LinearPencil(Q, 1, m, 1, coeffs)


def test_json_writer_formats_only_the_nonzeros(monkeypatch, wide_sparse_pencil):
    nnz = sum(len(c) for c in wide_sparse_pencil.coeffs)
    assert nnz == 300
    calls = _count_calls(monkeypatch, "format_value")
    wide_sparse_pencil.to_json()
    assert len(calls) <= nnz


def test_json_reader_parses_only_the_nonzero_cells(monkeypatch,
                                                    wide_sparse_pencil):
    text = wide_sparse_pencil.to_json()
    cells = [cell for grid in json.loads(text)["coeffs"]
             for row in grid for cell in row if cell != "0"]
    assert len(cells) == 300
    calls = _count_calls(monkeypatch, "parse_value")
    assert LinearPencil.from_json(text) == wide_sparse_pencil
    assert len(calls) <= len(cells)


def test_a_pencil_past_the_size_limit_is_refused():
    # the limit from_json applies holds for every pencil built
    def diagonal(m):
        """diag(z1, 1, ..., 1) with split 1."""
        return LinearPencil(Q, 1, m, 1, [{(i, i): 1 for i in range(1, m)},
                                         {(0, 0): 1}])

    assert diagonal(MAX_PENCIL_SIZE).transpose().m == MAX_PENCIL_SIZE
    with pytest.raises(PencilTooLarge, match=f"m = {MAX_PENCIL_SIZE + 1}"):
        diagonal(MAX_PENCIL_SIZE + 1)
