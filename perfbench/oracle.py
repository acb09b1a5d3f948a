"""Output checks that share no code with the library under test.

A pencil file is read with the standard ``json`` module, evaluated at
seeded points over a finite field, and its Schur complement
``A11 - A12 A22^-1 A21`` is computed by the sparse Gaussian elimination
below.  The target's own term maps are evaluated at the same points.
Over Q the field is GF(P) for the large prime P = 2^61 - 1; over GF(p) it
is GF(p) itself; over GF(2), whose points are too few, it is GF(2^64).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

MERSENNE_61 = (1 << 61) - 1
# x^64 + x^4 + x^3 + x + 1, irreducible over GF(2) (checked in the tests)
GF2_64_POLY = (1 << 64) | 0b11011


class WrongOutput(Exception):
    """An output of the library disagrees with the benchmark's oracle."""


class PrimeField:
    """Arithmetic modulo a prime p on Python ints."""

    def __init__(self, p: int):
        self.p = p

    def element(self, value) -> int:
        value = Fraction(value)
        den = value.denominator % self.p
        if not den:
            raise ZeroDivisionError("coefficient denominator vanishes mod p")
        return value.numerator * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def random(self, rng):
        return rng.randrange(1, self.p)


class GF2_64:
    """GF(2^64) as GF(2)[x] modulo ``GF2_64_POLY``; elements are ints."""

    def element(self, value) -> int:
        value = Fraction(value)
        if value.denominator % 2 == 0:
            raise ZeroDivisionError("even denominator over GF(2)")
        return value.numerator & 1

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> 64:
                a ^= GF2_64_POLY
        return out

    def inv(self, a):
        # a^(2^64 - 2) by square and multiply
        if not a:
            raise ZeroDivisionError("inverse of zero")
        result, base, e = 1, a, (1 << 64) - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def random(self, rng):
        return rng.randrange(1, 1 << 64)


def field_for(field_name: str):
    if field_name == "q":
        return PrimeField(MERSENNE_61)
    p = 2 if field_name == "gf2" else int(field_name.split(":")[1])
    return GF2_64() if p == 2 else PrimeField(p)


def eval_poly(f, terms: dict, point) -> int:
    acc = 0
    for exps, coeff in terms.items():
        term = f.element(coeff)
        for x, e in zip(point, exps):
            for _ in range(e):
                term = f.mul(term, x)
        acc = f.add(acc, term)
    return acc


def read_pencil(text: str) -> dict:
    """The pencil file's fields, parsed with ``json`` only.

    ``coeffs`` becomes one ``{(i, j): Fraction}`` map of the nonzero cells
    per coefficient matrix.
    """
    doc = json.loads(text)
    coeffs = []
    for grid in doc["coeffs"]:
        cells = {}
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                if cell != "0":
                    value = Fraction(cell)
                    if value:
                        cells[(i, j)] = value
        coeffs.append(cells)
    return {
        "field": doc["field"],
        "n_vars": int(doc["n_vars"]),
        "m": int(doc["m"]),
        "split": int(doc["split"]),
        "coeffs": coeffs,
    }


def pencil_size(doc: dict) -> tuple[int, int]:
    """``(m, nnz)``: size, and cells nonzero in some coefficient matrix."""
    cells = set()
    for c in doc["coeffs"]:
        cells.update(c)
    return doc["m"], len(cells)


def schur_at(f, doc: dict, point) -> list[list[int]]:
    """Schur complement of the pencil evaluated at ``point`` over ``f``."""
    m, k = doc["m"], doc["split"]
    rows: dict[int, dict[int, int]] = {i: {} for i in range(m)}
    weights = [1] + list(point)
    for cells, w in zip(doc["coeffs"], weights):
        for (i, j), cell in cells.items():
            merged = f.add(rows[i].get(j, 0), f.mul(f.element(cell), w))
            if merged:
                rows[i][j] = merged
            else:
                rows[i].pop(j, None)
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    live_rows = set(range(k, m))
    live_cols = set(range(k, m))
    while live_cols:
        # the block column with the fewest live rows, then its shortest row
        pc = min(live_cols, key=lambda j: (len(cols.get(j, ())), j))
        candidates = [i for i in cols.get(pc, ()) if i in live_rows]
        if not candidates:
            raise ZeroDivisionError("A22 is singular at this point")
        pr = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(pr)
        live_rows.discard(pr)
        live_cols.discard(pc)
        for j in prow:
            cols[j].discard(pr)
        inv = f.inv(prow[pc])
        for i in list(cols.get(pc, ())):
            row = rows[i]
            factor = f.mul(row[pc], inv)
            for j, w in prow.items():
                value = f.sub(row.get(j, 0), f.mul(factor, w))
                if value:
                    if j not in row:
                        cols.setdefault(j, set()).add(i)
                    row[j] = value
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
    return [[rows[i].get(j, 0) for j in range(k)] for i in range(k)]


def check_pencil_text(text: str, target, seed: int,
                      points: int = 3) -> tuple[int, int]:
    """Raise ``WrongOutput`` unless the pencil file realizes ``target``
    (a ``gen.Target`` with polynomial entries) at ``points`` seeded points.
    Returns the pencil's ``(m, nnz)``."""
    doc = read_pencil(text)
    if doc["field"] != ("gf:2" if target.field == "gf2" else target.field):
        raise WrongOutput(f"pencil field {doc['field']} != {target.field}")
    if doc["split"] != target.size or doc["n_vars"] != target.n_vars:
        raise WrongOutput("pencil split or variable count is wrong")
    f = field_for(target.field)
    rng = random.Random(f"oracle:{seed}:{target.label}")
    done = tries = 0
    while done < points:
        tries += 1
        if tries > 4 * points:
            raise WrongOutput(f"{target.label}: A22 singular at every point")
        point = [f.random(rng) for _ in range(target.n_vars)]
        try:
            schur = schur_at(f, doc, point)
        except ZeroDivisionError:
            continue
        done += 1
        for i, row in enumerate(target.entries):
            for j, (num, den) in enumerate(row):
                want = eval_poly(f, num, point)
                if den is not None:
                    want = f.mul(want, f.inv(eval_poly(f, den, point)))
                if schur[i][j] != want:
                    raise WrongOutput(
                        f"{target.label}: Schur entry ({i},{j}) differs at a "
                        "seeded point"
                    )
    return pencil_size(doc)
