"""Sparse exact elimination for pencil matrices.

Realization pencils produced by the combinator pipelines are large but very
sparse and block structured, so dense fraction-free elimination (which scales
every remaining entry at every step) is the wrong tool.  This module runs
plain Gaussian elimination over the fraction field while keeping one shared
polynomial denominator per row: the update

    row_i  <-  row_i * piv - row_i[pc] * row_pr,      den_i <- den_i * piv

touches only rows with a nonzero entry in the pivot column, stays entirely in
polynomial arithmetic, and never divides.  After eliminating the rows and
columns of the (2,2) block, the surviving top-left entries over their row
denominators are exactly the Schur complement, and the product of pivot values
(over the pivot-row denominators, with the permutation sign) is the block
determinant.  Eliminating with pivots anywhere yields the full determinant
(:func:`sparse_determinant`).

Pivots are chosen by a Markowitz-style score to limit fill-in, preferring
short polynomials; a cheap monomial-content strip keeps rows small when
pivots are monomials.
"""

from __future__ import annotations

from .errors import SingularBlock
from .poly import Polynomial, RationalFunction


def _parity_sign(order: list[int]) -> int:
    inversions = 0
    for s in range(len(order)):
        for t in range(s + 1, len(order)):
            if order[s] > order[t]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _monomial_content(p: Polynomial):
    it = iter(p.terms)
    first = next(it)
    content = list(first)
    for exps in it:
        for i, e in enumerate(exps):
            if e < content[i]:
                content[i] = e
    return content


def _shift_down(p: Polynomial, shift) -> Polynomial:
    terms = {
        tuple(e - s for e, s in zip(exps, shift)): v for exps, v in p.terms.items()
    }
    out = Polynomial.__new__(Polynomial)
    object.__setattr__(out, "descriptor", p.descriptor)
    object.__setattr__(out, "n_vars", p.n_vars)
    object.__setattr__(out, "terms", terms)
    return out


class _State:
    def __init__(self, rows, m, descriptor, n_vars):
        self.m = m
        self.descriptor = descriptor
        self.n_vars = n_vars
        self.one = Polynomial.one(descriptor, n_vars)
        self.work = {i: dict(rows.get(i, {})) for i in range(m)}
        self.cols: dict[int, set[int]] = {}
        for i, row in self.work.items():
            for j in row:
                self.cols.setdefault(j, set()).add(i)
        self.dens = {i: self.one for i in range(m)}
        self.row_order: list[int] = []
        self.col_order: list[int] = []
        self.piv_num = self.one
        self.piv_den = self.one

    def _choose_pivot(self, rows_ok, cols_ok):
        best = None
        best_key = None
        for i in rows_ok:
            row = self.work[i]
            row_nnz = len(row)
            if not row_nnz:
                continue
            for j in row:
                if j not in cols_ok:
                    continue
                score = (row_nnz - 1) * (len(self.cols[j]) - 1)
                key = (score, len(row[j].terms), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        return best

    def _strip_row_content(self, i):
        row = self.work[i]
        if not row:
            return
        den = self.dens[i]
        if not den.terms:
            return
        content = _monomial_content(den)
        if not any(content):
            return
        for p in row.values():
            c = _monomial_content(p)
            for t in range(len(content)):
                if c[t] < content[t]:
                    content[t] = c[t]
            if not any(content):
                return
        self.dens[i] = _shift_down(den, content)
        for j in list(row):
            row[j] = _shift_down(row[j], content)

    def eliminate(self, rows_ok: set[int], cols_ok: set[int], steps: int) -> int:
        done = 0
        while done < steps:
            found = self._choose_pivot(rows_ok, cols_ok)
            if found is None:
                break
            pr, pc = found
            prow = self.work.pop(pr)
            piv = prow.pop(pc)
            self.cols[pc].discard(pr)
            for j in prow:
                self.cols[j].discard(pr)
            self.piv_num = self.piv_num * piv
            self.piv_den = self.piv_den * self.dens[pr]
            self.row_order.append(pr)
            self.col_order.append(pc)
            rows_ok.discard(pr)
            cols_ok.discard(pc)
            piv_const = piv.is_constant()
            piv_value = piv.constant_value() if piv_const else None
            piv_is_one = piv_const and piv_value == self.descriptor.one
            for i in sorted(self.cols.get(pc, ())):
                row = self.work[i]
                f = row.pop(pc)
                if not piv_is_one:
                    self.dens[i] = self.dens[i] * piv
                    if piv_const:
                        for j in list(row):
                            row[j] = row[j].scale(piv_value)
                    else:
                        for j in list(row):
                            row[j] = row[j] * piv
                for j, w in prow.items():
                    delta = f * w
                    cur = row.get(j)
                    new = -delta if cur is None else cur - delta
                    if new.is_zero():
                        if cur is not None:
                            del row[j]
                            self.cols[j].discard(i)
                    else:
                        row[j] = new
                        if cur is None:
                            self.cols[j].add(i)
                if not piv_is_one:
                    self._strip_row_content(i)
            self.cols[pc] = set()
            done += 1
        return done

    def det_fraction(self) -> RationalFunction:
        sign = _parity_sign(self.row_order) * _parity_sign(self.col_order)
        num = self.piv_num if sign > 0 else -self.piv_num
        return RationalFunction(num, self.piv_den)


def schur_eliminate(
    rows: dict[int, dict[int, Polynomial]],
    m: int,
    split: int,
    descriptor,
    n_vars: int,
) -> tuple[list[list[RationalFunction]], RationalFunction]:
    """``(schur, det_block)``: the Schur complement, as split-by-split rows,
    and the (2,2)-block determinant of a sparse polynomial matrix.

    ``rows`` is the m-by-m matrix in dict-of-dicts form; ``split`` is the
    size of the (1,1) block.  Raises :class:`SingularBlock` when the (2,2)
    block has identically zero determinant.
    """
    state = _State(rows, m, descriptor, n_vars)
    block = m - split
    rows_ok = set(range(split, m))
    cols_ok = set(range(split, m))
    if state.eliminate(rows_ok, cols_ok, block) < block:
        raise SingularBlock("the (2,2) block has zero determinant")
    det_block = state.det_fraction()
    zero = RationalFunction.zero(descriptor, n_vars)
    schur = []
    for i in range(split):
        den = state.dens[i]
        row = state.work[i]
        schur.append(
            [
                RationalFunction(row[j], den) if j in row else zero
                for j in range(split)
            ]
        )
    return schur, det_block


def sparse_determinant(
    rows: dict[int, dict[int, Polynomial]], m: int, descriptor, n_vars: int
) -> RationalFunction:
    """Determinant of a sparse polynomial matrix (pivots anywhere)."""
    state = _State(rows, m, descriptor, n_vars)
    if state.eliminate(set(range(m)), set(range(m)), m) < m:
        return RationalFunction.zero(descriptor, n_vars)
    return state.det_fraction()
