"""Ground truth from small symmetric GF(2) pencils.

Every symmetric pencil over GF(2) with m = 2 and k = 1 is listed: the
affine ones A0 + z1 A1 + z2 A2 and the homogeneous ones z1 A1 + z2 A2 +
z3 A3, 2^9 pencils each, plus a seeded sample of the 2^18 affine ones with
m = 3.  With k = 1 the Schur complement of a pencil whose A22 is
nonsingular is det A / det A22.  Both determinants are computed here, by
Leibniz's formula on polynomials held as sets of exponent tuples (in
characteristic 2 every sign is +1 and a sum is a symmetric difference), so
the reference shares no code with the library's elimination, builders or
verifier.

Each such target is a symmetric Schur complement by construction, so it
must pass the parity decision, be built by the symmetric builder, and
verify.  A target that fails any of the three is named in the failure; no
target is skipped.
"""

import itertools
import random

from ratpencil.fields import prime_field
from ratpencil.matrices import RationalMatrix
from ratpencil.pencil import RealizationKind
from ratpencil.poly import Polynomial, RationalFunction
from ratpencil.realize import (
    Char2Certificate,
    decide_and_realize_hsbr,
    decide_hsbr,
    decide_sbr,
    realize_sbr,
)
from ratpencil.verify import check_realization

G2 = prime_field(2)


# -- the reference: GF(2) polynomials as sets of exponent tuples ---------------

def _times(a: frozenset, b: frozenset) -> frozenset:
    out = set()
    for x in a:
        for y in b:
            out ^= {tuple(i + j for i, j in zip(x, y))}
    return frozenset(out)


def _det(grid, n_vars: int) -> frozenset:
    """Leibniz's formula; in characteristic 2 the signs are all +1."""
    total = frozenset()
    for perm in itertools.permutations(range(len(grid))):
        term = frozenset({(0,) * n_vars})
        for i, j in enumerate(perm):
            term = _times(term, grid[i][j])
        total ^= term
    return total


def _pencil(m: int, bits: int, units) -> list:
    """The symmetric m x m pencil sum_v units[v] A_v, the upper triangles of
    the A_v read from the bits of ``bits``."""
    grid = [[frozenset()] * m for _ in range(m)]
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        entry = set()
        for unit in units:
            if bits & 1:
                entry.add(unit)
            bits >>= 1
        grid[i][j] = grid[j][i] = frozenset(entry)
    return grid


def _schur(grid, n_vars: int):
    """(det A, det A22) for k = 1, or None when A22 is singular."""
    den = _det([row[1:] for row in grid[1:]], n_vars)
    return (_det(grid, n_vars), den) if den else None


def _units(n_vars: int, affine: bool):
    """The exponent tuples of 1 (if affine) and of z1, ..., z_n."""
    units = [tuple(int(i == v) for i in range(n_vars)) for v in range(n_vars)]
    return [(0,) * n_vars] + units if affine else units


def _targets(m: int, n_vars: int, affine: bool, pencils, count=None) -> dict:
    """The distinct Schur complements (num, den) of the pencils, each with
    the bits of the first pencil that gives it; the first ``count`` of them
    if a count is given."""
    units = _units(n_vars, affine)
    found = {}
    for bits in pencils:
        schur = _schur(_pencil(m, bits, units), n_vars)
        if schur is not None:
            found.setdefault(schur, bits)
            if len(found) == count:
                break
    return found


# -- the library's verdicts on the reference ------------------------------------

def _as_matrix(num: frozenset, den: frozenset, n_vars: int) -> RationalMatrix:
    def poly(monomials):
        return Polynomial(G2, n_vars, {exps: 1 for exps in monomials})
    return RationalMatrix([[RationalFunction(poly(num), poly(den))]])


def _failures(targets: dict, n_vars: int, homogeneous: bool) -> list:
    """The targets that fail to decide, build or verify, each named with
    the pencil bits it came from."""
    kind = RealizationKind.HSBR if homogeneous else RealizationKind.SBR
    failures = []
    for (num, den), bits in targets.items():
        f = _as_matrix(num, den, n_vars)
        name = f"{f[0, 0]} (pencil bits {bits:#x})"
        decision = (decide_hsbr if homogeneous else decide_sbr)(f)
        if not decision.realizable:
            failures.append(f"{name}: {decision.reason}")
            continue
        result = (decide_and_realize_hsbr if homogeneous else realize_sbr)(f)
        if isinstance(result, Char2Certificate):
            failures.append(f"{name}: builder returned {result}")
            continue
        report = check_realization(result.pencil, f, kind)
        if not report.passed:
            failures.append(f"{name}: {report.to_json()}")
    return failures


def test_the_reference_determinant():
    # [[z1, 1], [1, z2]] has det z1 z2 + 1 over GF(2)
    one, z1, z2 = (0, 0), (1, 0), (0, 1)
    grid = [[frozenset({z1}), frozenset({one})],
            [frozenset({one}), frozenset({z2})]]
    assert _det(grid, 2) == frozenset({(1, 1), one})
    # (1 + z1)^2 = 1 + z1^2: the cross terms cancel
    square = _times(frozenset({one, z1}), frozenset({one, z1}))
    assert square == frozenset({one, (2, 0)})
    # the bits fill A0, A1, A2 of one upper-triangle entry before the next
    units = _units(2, affine=True)
    assert _pencil(2, 0b000_000_110, units) == [
        [frozenset({z1, z2}), frozenset()], [frozenset(), frozenset()]]


def test_every_affine_pencil_with_m_2():
    targets = _targets(2, 2, True, range(1 << 9))
    assert len(targets) == 224
    failures = _failures(targets, 2, homogeneous=False)
    assert not failures, failures[:5]


def test_every_homogeneous_pencil_with_m_2():
    targets = _targets(2, 3, False, range(1 << 9))
    assert len(targets) == 224
    failures = _failures(targets, 3, homogeneous=True)
    assert not failures, failures[:5]


def test_a_sample_of_affine_pencils_with_m_3():
    rng = random.Random(10)
    pencils = iter(lambda: rng.getrandbits(18), None)
    targets = _targets(3, 2, True, pencils, count=300)
    failures = _failures(targets, 2, homogeneous=False)
    assert not failures, failures[:5]
