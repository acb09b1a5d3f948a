"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python: polynomials are ``{exponent tuple: int}``
maps and matrices are lists of rows.  The library only sees the generated
inputs (expression text, or objects built from these maps by
``workloads.py``), so the generators also serve as the independent source
of truth for the output oracles.

Each workload is a fixed list of *slots* (field, kind, size, degree profile).
The seed draws the monomials, coefficients and scrambles that fill a slot,
so one seed gives byte-identical inputs, another seed gives different inputs
of the same shape, and the cost of a pass over the slots barely depends on
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Q, GFP, GF2 = "q", "gf:101", "gf2"


def modulus(field_name: str) -> int | None:
    """The prime of a ``gf:p``/``gf2`` field name; None for ``q``."""
    if field_name == Q:
        return None
    return 2 if field_name == GF2 else int(field_name.split(":")[1])


def _coefficient(rng: random.Random, field_name: str) -> int:
    p = modulus(field_name)
    if p is None:
        return rng.choice([-1, 1]) * rng.randint(1, 9)
    return rng.randint(1, p - 1)


def _monomial(rng, n_vars: int, degree: int, parity_ok: bool) -> tuple:
    """A random exponent vector of the given total degree.

    With ``parity_ok`` the vector is even except for at most one odd
    exponent: the shape the characteristic-2 parity test accepts.
    """
    exps = [0] * n_vars
    if parity_ok:
        if degree % 2:
            exps[rng.randrange(n_vars)] += 1
        for _ in range(degree // 2):
            exps[rng.randrange(n_vars)] += 2
    else:
        for _ in range(degree):
            exps[rng.randrange(n_vars)] += 1
    return tuple(exps)


def random_poly(rng, field_name, n_vars, degrees, parity_ok=False,
                even_only=False) -> dict:
    """Distinct monomials, one per entry of ``degrees``, random coefficients.

    ``even_only`` draws only even exponent vectors (odd degrees are bumped
    up by one), used for denominators in characteristic 2.
    """
    terms: dict = {}
    for degree in degrees:
        if even_only and degree % 2:
            degree += 1
        for _ in range(64):
            exps = _monomial(rng, n_vars, degree, parity_ok or even_only)
            if even_only and any(e % 2 for e in exps):
                continue
            if exps not in terms:
                terms[exps] = _coefficient(rng, field_name)
                break
    return terms


def homogenize(terms: dict, degree: int) -> dict:
    """Append a last variable padding every monomial up to ``degree``."""
    return {exps + (degree - sum(exps),): c for exps, c in terms.items()}


def poly_degree(terms: dict) -> int:
    return max((sum(e) for e in terms), default=0)


ONE = None  # marker for the constant-1 denominator


def poly_text(terms: dict) -> str:
    """Polynomial in the expression grammar, e.g. ``3*z1^2*z3 - z2 + 5``."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=lambda e: (-sum(e), e)):
        c = terms[exps]
        factors = [
            f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}"
            for i, e in enumerate(exps)
            if e
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if c < 0 else "+"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def matrix_text(entries) -> str:
    """Matrix literal ``[[a, b],[c, d]]`` of ``(num, den)`` entries.

    ``str(RationalMatrix)`` prints ``;``-separated rows, which the parser
    does not accept, so target text is produced here.
    """
    rows = []
    for row in entries:
        cells = []
        for num, den in row:
            if den is ONE:
                cells.append(poly_text(num))
            else:
                cells.append(f"({poly_text(num)})/({poly_text(den)})")
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ",".join(rows) + "]"


@dataclass
class Target:
    """A square matrix of ``(num, den)`` polynomial maps over one field."""

    field: str
    n_vars: int
    kind: str
    entries: list
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.entries)

    def text(self) -> str:
        return matrix_text(self.entries)


# -- verify-rational --------------------------------------------------------

# (field, kind, size, n_vars, num degrees, den degrees, entries with a den,
#  claim).  ``claim`` is "true", "perturb" (target changed by +1 in entry
#  (0,0)) or "kind" (a structure class the pencil cannot have).
VERIFY_SLOTS = [
    (Q, "br", 1, 2, (3, 2, 1), (1, 0), 1, "true"),
    (Q, "br", 1, 3, (3, 2, 2, 0), (2, 1, 0), 1, "true"),
    (Q, "br", 2, 2, (2, 1), (1, 0), 1, "true"),
    (Q, "br", 2, 3, (2, 1, 0), (1, 0), 2, "true"),
    (Q, "br", 2, 2, (2, 1), (1, 0), 1, "kind"),
    (Q, "br", 3, 3, (2, 1), (1, 0), 1, "true"),
    (Q, "sbr", 1, 2, (3, 1, 0), (1, 0), 1, "true"),
    (Q, "sbr", 2, 2, (2, 1), (1, 0), 1, "true"),
    (Q, "sbr", 2, 2, (2, 1), (1, 0), 1, "perturb"),
    (Q, "hbr", 1, 3, (2, 2), (1, 1), 1, "true"),
    (Q, "hbr", 2, 3, (2, 2), (1, 1), 1, "true"),
    (Q, "hsbr", 1, 3, (2, 2), (1, 1), 1, "true"),
    (Q, "hsbr", 2, 2, (2, 2), (1, 1), 1, "true"),
    (GFP, "br", 1, 3, (4, 2, 1, 0), (2, 1, 0), 1, "true"),
    (GFP, "br", 2, 3, (2, 1, 0), (1, 0), 2, "true"),
    (GFP, "br", 3, 3, (2, 1), (1, 0), 1, "true"),
    (GFP, "br", 3, 2, (2, 1), (1, 0), 1, "perturb"),
    (GFP, "sbr", 1, 3, (3, 2, 0), (1, 0), 1, "true"),
    (GFP, "sbr", 2, 3, (2, 1, 0), (1, 0), 1, "true"),
    (GFP, "br", 2, 3, (2, 1), (1, 0), 1, "kind"),
    (GFP, "hbr", 2, 3, (2, 2), (1, 1), 2, "true"),
    (GFP, "hsbr", 2, 3, (2, 2), (1, 1), 1, "true"),
    (GF2, "br", 1, 3, (3, 2, 1, 0), (2, 1, 0), 1, "true"),
    (GF2, "br", 2, 3, (2, 1, 0), (1, 0), 2, "true"),
    (GF2, "br", 3, 3, (2, 1), (1, 0), 2, "true"),
    (GF2, "sbr", 1, 2, (4, 3, 2), (2, 0), 1, "true"),
    (GF2, "sbr", 2, 3, (3, 2, 0), (2, 0), 1, "true"),
    (GF2, "sbr", 3, 3, (2, 1, 0), (2, 0), 1, "true"),
    (GF2, "sbr", 2, 2, (3, 2, 0), (2, 0), 1, "perturb"),
    (GF2, "hbr", 2, 3, (2, 2), (1, 1), 1, "true"),
    (GF2, "hsbr", 1, 3, (2, 2), (1, 1), 1, "true"),
    (GF2, "hsbr", 2, 3, (2, 2), (1, 1), 1, "true"),
    (GF2, "br", 2, 2, (2, 1, 0), (1, 0), 1, "kind"),
]

# Fixed targets from the project roadmap, kept in the set verbatim.
ROADMAP_SBR_2X2 = "[[z1/(1+z2), z2^2],[z2^2, 1/(z1-z2)]]"
ROADMAP_BR_3X3 = (
    "[[z1+z2^3, z1*z2/(1+z1), z3],[z2, z3^2/(z1+z2), 1],"
    "[z1*z2*z3, 0, 1/(1+z3)]]"
)


@dataclass
class Claim:
    """One verify-rational op: does the pencil built for ``built`` realize
    ``claimed`` with kind ``claim_kind``?  ``expected`` is known by
    construction."""

    built: Target
    claimed: Target
    claim_kind: str
    expected: bool
    text: str = ""


def _entry(rng, field_name, kind, n_vars, num_degrees, den_degrees,
           with_den, diagonal):
    char2_diag = field_name == GF2 and diagonal
    if kind in ("hbr", "hsbr"):
        # homogeneous of degree 1: deg num = deg den + 1, built in n-1
        # variables and homogenized with the last one
        inner = n_vars - 1
        if not with_den:
            num = random_poly(rng, field_name, inner, (1, 1, 0),
                              parity_ok=char2_diag)
            return homogenize(num, 1), ONE
        num = random_poly(rng, field_name, inner, num_degrees,
                          parity_ok=char2_diag)
        den = random_poly(rng, field_name, inner, den_degrees,
                          even_only=char2_diag)
        degree = max(poly_degree(num) - 1, poly_degree(den))
        return homogenize(num, degree + 1), homogenize(den, degree)
    parity = char2_diag and kind == "sbr" and n_vars >= 2
    num = random_poly(rng, field_name, n_vars, num_degrees, parity_ok=parity)
    if not with_den:
        return num, ONE
    den = random_poly(rng, field_name, n_vars, den_degrees, even_only=parity)
    if den.get((0,) * n_vars) is None:
        den[(0,) * n_vars] = _coefficient(rng, field_name)
    return num, den


def random_target(rng, field_name, kind, size, n_vars, num_degrees,
                  den_degrees, dens) -> Target:
    """A target of the given slot shape; symmetric for SBR/HSBR."""
    symmetric = kind in ("sbr", "hsbr")
    grid = [[None] * size for _ in range(size)]
    placed = 0
    for i in range(size):
        for j in range(size):
            if symmetric and j < i:
                grid[i][j] = grid[j][i]
                continue
            with_den = placed < dens
            placed += 1
            grid[i][j] = _entry(rng, field_name, kind, n_vars, num_degrees,
                                den_degrees, with_den, i == j)
    return Target(field_name, n_vars, kind, grid)


def reseed(target: Target, rng) -> Target:
    """The same shape with seed-drawn variable names and coefficients.

    Variables are permuted (all but the last for homogeneous kinds, whose
    last variable is the homogenizing one).  Over Q a coefficient keeps its
    magnitude and gets a seeded sign; over GF(p) it is drawn afresh.  Costs
    therefore barely move with the seed, while the inputs change.
    """
    n = target.n_vars
    fixed = 1 if target.kind in ("hbr", "hsbr") else 0
    perm = list(range(n - fixed))
    rng.shuffle(perm)
    perm += list(range(n - fixed, n))

    def poly(terms):
        out = {}
        for exps, c in terms.items():
            moved = [0] * n
            for i, e in enumerate(exps):
                moved[perm[i]] = e
            if target.field == Q:
                c = rng.choice([-1, 1]) * abs(c)
            else:
                c = _coefficient(rng, target.field)
            out[tuple(moved)] = c
        return out

    done: dict = {}
    entries = []
    for row in target.entries:
        out_row = []
        for entry in row:
            if id(entry) not in done:  # symmetric pairs share one entry
                num, den = entry
                done[id(entry)] = (poly(num), ONE if den is ONE else poly(den))
            out_row.append(done[id(entry)])
        entries.append(out_row)
    return Target(target.field, n, target.kind, entries, target.label)


def _break_symmetry(grid, field_name, n_vars):
    """Make polynomial entries (0,1) and (1,0) differ in their constant term,
    so the target is nonsymmetric by construction."""
    (num01, den01), (num10, den10) = grid[0][1], grid[1][0]
    if den01 is not ONE or den10 is not ONE:
        raise ValueError("nonsymmetric slots need polynomial (0,1), (1,0)")
    zero = (0,) * n_vars
    value = num01.get(zero, 0) + 1
    p = modulus(field_name)
    if p is not None:
        value %= p
    num10 = dict(num10)
    num10.pop(zero, None)
    if value:
        num10[zero] = value
    grid[1][0] = (num10, den10)


def perturbed(target: Target) -> Target:
    """The target with 1 added to entry (0, 0) (the (num, den) pair becomes
    ``(num + den, den)``), which keeps symmetry."""
    entries = [list(row) for row in target.entries]
    num, den = entries[0][0]
    p = modulus(target.field)
    zero = (0,) * target.n_vars
    den_terms = {zero: 1} if den is ONE else den
    new = dict(num)
    for exps, c in den_terms.items():
        value = new.get(exps, 0) + c
        if p is not None:
            value %= p
        if value:
            new[exps] = value
        else:
            new.pop(exps, None)
    entries[0][0] = (new, den)
    return Target(target.field, target.n_vars, target.kind, entries,
                  target.label + "+1")


def verify_claims(seed: int) -> list[Claim]:
    """The verify-rational op list for one seed (the roadmap 2x2 SBR first)."""
    shape_rng = random.Random("verify-rational:shape")
    rng = random.Random(f"verify-rational:{seed}")
    roadmap = Target(Q, 2, "sbr", [], "roadmap-sbr-q-2x2")
    claims = [Claim(roadmap, roadmap, "sbr", True, ROADMAP_SBR_2X2)]
    for slot in VERIFY_SLOTS:
        field_name, kind, size, n_vars, nd, dd, dens, claim = slot
        shape = random_target(shape_rng, field_name, kind, size, n_vars, nd,
                              dd, dens)
        target = reseed(shape, rng)
        target.label = f"{kind}-{field_name}-{size}x{size}-n{n_vars}"
        if claim == "perturb":
            claims.append(Claim(target, perturbed(target), kind, False))
        elif claim == "kind":
            # a BR pencil of a nonsymmetric target cannot be symmetric: its
            # Schur complement would be symmetric too
            _break_symmetry(target.entries, field_name, n_vars)
            claims.append(Claim(target, target, "sbr", False))
        else:
            claims.append(Claim(target, target, kind, True))
    for claim in claims[1:]:
        claim.text = claim.claimed.text()
    return claims


# -- cli-polynomial ---------------------------------------------------------

# (field, kind, size, n_vars, monomial degrees per entry).  HBR/HSBR entries
# are linear forms: the only polynomials homogeneous of degree 1.
CLI_SLOTS = [
    (Q, "br", 1, 3, (5, 4, 4, 3, 2, 1, 0)),
    (Q, "br", 2, 3, (3, 2, 1, 0)),
    (Q, "br", 3, 2, (2, 1, 0)),
    (Q, "sbr", 2, 3, (3, 2, 1, 0)),
    (Q, "hbr", 3, 6, (1, 1, 1, 1, 1)),
    (Q, "hsbr", 2, 6, (1, 1, 1, 1, 1)),
    (GFP, "br", 2, 4, (5, 3, 1)),
    (GFP, "sbr", 2, 3, (4, 3, 2, 0)),
    (GFP, "hsbr", 3, 6, (1, 1, 1, 1, 1)),
    (GFP, "br", 3, 3, (2, 1, 0)),
    (GF2, "br", 2, 3, (5, 3, 2, 0)),
    (GF2, "sbr", 2, 3, (5, 4, 2, 0)),
    (GF2, "sbr", 3, 3, (3, 2, 1)),
    (GF2, "hbr", 2, 5, (1, 1, 1, 1, 1)),
    (GF2, "hsbr", 3, 5, (1, 1, 1, 1, 1)),
]


def cli_targets(seed: int) -> list[Target]:
    """Polynomial-entry targets for cli-polynomial."""
    rng = random.Random("cli-polynomial:shape")
    seed_rng = random.Random(f"cli-polynomial:{seed}")
    targets = []
    for field_name, kind, size, n_vars, degrees in CLI_SLOTS:
        symmetric = kind in ("sbr", "hsbr")
        grid = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if symmetric and j < i:
                    grid[i][j] = grid[j][i]
                    continue
                parity = (field_name == GF2 and kind in ("sbr", "hsbr")
                          and i == j)
                if kind in ("hbr", "hsbr"):
                    num = random_poly(rng, field_name, n_vars, degrees)
                else:
                    num = random_poly(rng, field_name, n_vars, degrees,
                                      parity_ok=parity)
                grid[i][j] = (num, ONE)
        shape = Target(field_name, n_vars, kind, grid,
                       f"{kind}-{field_name}-{size}x{size}-n{n_vars}")
        targets.append(reseed(shape, seed_rng))
    return targets


# -- reduce-ring ------------------------------------------------------------

# Realizer sizes of one pass.  Leibniz determinants cost m!, so the mix
# keeps one 8x8 and one 7x7 and fills the rest with cheaper sizes.
RING_SIZES = (8, 7) + (6,) * 6 + (5,) * 18 + (4,) * 14
# Realizers this large keep their (2,2)-block order under every seed: the
# order decides how soon a Leibniz product meets a zero factor, and with it
# the cost of the op that dominates a pass (up to 20% apart between seeds).
RING_FIXED_ORDER = 7
RING_VARS = 3
RING_ADDS = 6


@dataclass
class RingInput:
    """A GF(2) quotient-ring realizer of the linear element ``r``.

    Elements are sets of multilinear monomials (bit tuples).  ``grid`` is
    the symmetric realizer, ``r`` the element it realizes, ``ell`` the
    constants of the ring ``z_i^2 = ell_i^2``.
    """

    ell: tuple
    grid: list
    r: frozenset
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.grid)


def _linear(rng, n_vars, ell, invertible):
    """A random linear element; invertible means odd absolute value."""
    while True:
        terms = set()
        if rng.random() < 0.8 and rng.randrange(2):
            terms.add((0,) * n_vars)
        for v in range(n_vars):
            if rng.random() < 0.6 and rng.randrange(2):
                terms.add(tuple(1 if t == v else 0 for t in range(n_vars)))
        if not invertible or abs_value(terms, ell):
            return frozenset(terms)


def abs_value(element, ell) -> int:
    """The ring map z_i -> ell_i to GF(2)."""
    total = 0
    for exps in element:
        total ^= all(ell[i] for i, e in enumerate(exps) if e)
    return int(total)


def ring_input(rng, size: int) -> RingInput:
    """A 2x2 core [[l1, 1], [1, l2]] padded with invertible linear diagonal
    entries, scrambled by ADD steps with alpha = 1 (each followed by CLEAN).

    Over GF(2) an invertible linear l2 has l2^2 = |l2|^2 = 1, so the core
    realizes r = l1 + l2^-1 = l1 + l2; padding and ADD/CLEAN keep r.
    """
    n = RING_VARS
    ell = tuple(rng.randrange(2) for _ in range(n))
    l1 = _linear(rng, n, ell, invertible=False)
    l2 = _linear(rng, n, ell, invertible=True)
    r = l1 ^ l2
    one = frozenset({(0,) * n})
    empty = frozenset()
    grid = [[empty] * size for _ in range(size)]
    grid[0][0], grid[0][1], grid[1][0], grid[1][1] = l1, one, one, l2
    for t in range(2, size):
        grid[t][t] = _linear(rng, n, ell, invertible=True)
    for _ in range(RING_ADDS):
        i = rng.randrange(1, size)
        j = rng.choice([t for t in range(size) if t != i])
        for t in range(size):
            grid[j][t] = grid[j][t] ^ grid[i][t]
        for t in range(size):
            grid[t][j] = grid[t][j] ^ grid[t][i]
        for a in range(size):
            for b in range(size):
                if a != b:
                    grid[a][b] = one if abs_value(grid[a][b], ell) else empty
    return RingInput(ell, grid, r, f"ring-gf2-{size}x{size}")


def permuted(item: RingInput, rng) -> RingInput:
    """The realizer with seed-drawn variable names and, below
    ``RING_FIXED_ORDER``, seed-drawn (2,2)-block order.

    A variable permutation is a ring isomorphism, and a symmetric
    permutation of the (2,2) block keeps det(A) and det(A22), so the result
    realizes the permuted r.
    """
    n, size = len(item.ell), item.size
    var = list(range(n))
    rng.shuffle(var)
    order = [0] + rng.sample(range(1, size), size - 1)
    if size >= RING_FIXED_ORDER:
        order = list(range(size))

    def move(element):
        out = set()
        for exps in element:
            moved = [0] * n
            for i, e in enumerate(exps):
                moved[var[i]] = e
            out.add(tuple(moved))
        return frozenset(out)

    ell = [0] * n
    for i, value in enumerate(item.ell):
        ell[var[i]] = value
    grid = [[move(item.grid[a][b]) for b in order] for a in order]
    return RingInput(tuple(ell), grid, move(item.r), item.label)


def ring_inputs(seed: int) -> list[RingInput]:
    shape_rng = random.Random("reduce-ring:shape")
    rng = random.Random(f"reduce-ring:{seed}")
    return [permuted(ring_input(shape_rng, size), rng) for size in RING_SIZES]
