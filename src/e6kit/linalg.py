"""Exact rational linear algebra over sparse and dense vectors.

Vectors are dicts index -> int or Fraction (zero entries omitted); dense
matrices are lists of lists of Fraction.

SpanBasis is the one exact elimination: spans, ranks, solutions of linear
systems, inverses and kernels are all read off it.  It eliminates in
integers, and Fractions appear only in the results.  The one other algorithm,
signature_symmetric, diagonalizes by congruence, which row reduction cannot
do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Optional


def _integral(vec: dict) -> tuple[dict, int]:
    """(d vec, d) for the least d > 0 that makes every entry an int; zero entries are dropped."""
    d = math.lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (d // v.denominator) for k, v in vec.items() if v}, d


def _combine(r: int, vec: dict, c: int, row: dict) -> dict:
    """r vec - c row, sparse."""
    out = {k: r * v for k, v in vec.items()}
    for k, v in row.items():
        s = out.get(k, 0) - c * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _clear(p, vec: dict, combo: dict, row: dict, row_combo: dict) -> tuple[dict, dict, int]:
    """(a vec - b row, a combo - b row_combo, a): entry p cleared, for ints a > 0 and b."""
    g = math.gcd(row[p], vec[p])
    a, b = row[p] // g, vec[p] // g
    return _combine(a, vec, b, row), _combine(a, combo, b, row_combo), a


class SpanBasis:
    """Incremental reduced row-echelon span of sparse vectors, eliminated in integers.

    Each inserted vector is reduced against the existing rows; surviving rows
    are kept fully reduced (0 at every other pivot, positive at their own).
    Alongside each row is its combo {tag: int}: row = sum combo[tag] * the
    vector inserted under tag.  Row and combo are ints of common gcd 1, a
    positive multiple of the rational reduced row and its combo, so `express`
    and `kernel`, where Fractions first appear, give exactly the results of
    Fraction elimination.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []          # reduced int vectors
        self.combos: list[dict] = []        # row -> {tag: int}
        self.pivot_row: dict = {}           # pivot index -> row number

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, combo: dict) -> tuple[dict, dict, int]:
        """(s vec - rows, s combo - their combos, s) for an int s > 0, 0 at every pivot."""
        scale = 1
        for p in list(vec):
            n = self.pivot_row.get(p)
            if n is not None:
                vec, combo, a = _clear(p, vec, combo, self.rows[n], self.combos[n])
                scale *= a
        return vec, combo, scale

    def add(self, vec: dict, tag: Hashable) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        vec, d = _integral(vec)
        vec, combo, _ = self._reduce(vec, {tag: d})
        if not vec:
            return False
        self._insert(vec, combo)
        return True

    def _insert(self, vec: dict, combo: dict) -> None:
        """Append a reduced nonzero int vector, with its combo, as a new row."""
        pivot = min(vec.keys(), key=_pivot_key)
        vec, combo = _primitive(vec, combo, vec[pivot] < 0)
        for n, row in enumerate(self.rows):    # back-eliminate the new pivot
            if pivot in row:
                self.rows[n], self.combos[n] = _primitive(
                    *_clear(pivot, row, self.combos[n], vec, combo)[:2])
        self.pivot_row[pivot] = len(self.rows)
        self.rows.append(vec)
        self.combos.append(combo)

    def express(self, vec: dict) -> Optional[dict]:
        """Coefficients {tag: Fraction} with vec = sum coeff * original, or None."""
        vec, d = _integral(vec)
        residual, combo, scale = self._reduce(vec, {})
        if residual:
            return None
        return {t: Fraction(-c, scale * d) for t, c in combo.items() if c}

    def contains(self, vec: dict) -> bool:
        return not self._reduce(_integral(vec)[0], {})[0]


def _primitive(vec: dict, combo: dict, negate: bool = False) -> tuple[dict, dict]:
    """vec and combo divided by their common gcd, and negated if asked."""
    g = math.gcd(*vec.values(), *combo.values()) * (-1 if negate else 1)
    if g == 1:
        return vec, combo
    return {k: v // g for k, v in vec.items()}, {k: v // g for k, v in combo.items()}


def _pivot_key(k):
    # stable ordering for heterogeneous hashable pivot indices
    return (str(type(k)), repr(k))


def span_of(vectors: Iterable[dict]) -> SpanBasis:
    """The span of the vectors, each tagged by its position."""
    sb = SpanBasis()
    for n, v in enumerate(vectors):
        sb.add(v, n)
    return sb


def kernel(columns: Iterable[dict]) -> list[dict]:
    """A basis of {v : sum_i v_i columns[i] = 0}, as sparse vectors over i.

    A column in the span of the ones before it gives the kernel vector
    e_i - express(column i): the combination its reduction tracks, divided
    by its entry at i.
    """
    sb = SpanBasis()
    out = []
    for i, col in enumerate(columns):
        col, d = _integral(col)
        residual, combo, _ = sb._reduce(col, {i: d})
        if residual:
            sb._insert(residual, combo)
        else:
            out.append({t: Fraction(c, combo[i]) for t, c in combo.items()})
    return out


def signature_symmetric(mat: list[list[Fraction]]) -> tuple[int, int, int]:
    """Signature (n_neg, n_pos, n_zero) of a symmetric rational matrix.

    Lagrange diagonalization by congruence on the nonzero entries only.  A
    nonzero diagonal pivot d is eliminated by its Schur complement,
    a_ik -= a_ip a_pk / d over the pivot's neighbours.  When every diagonal
    entry left is 0, a nonzero a_ij is first folded onto it: row and column
    i += row and column j makes a_ii = 2 a_ij.  The counts are those of any
    diagonalizing congruence, by Sylvester's law.
    """
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in mat]
    neg = pos = 0
    todo = list(range(len(rows)))
    while todo:
        piv = next((i for i in todo if i in rows[i]), None)
        if piv is None:
            piv = next((i for i in todo if rows[i]), None)
            if piv is None:
                break
            # only off-diagonal entries are left, and a_piv,piv = a_jj = 0
            row = rows[piv]
            j = next(iter(row))
            for k, v in rows[j].items():
                if k != piv:
                    s = row.get(k, 0) + v
                    if s:
                        row[k] = rows[k][piv] = s
                    else:
                        del row[k], rows[k][piv]
            row[piv] = 2 * row[j]
        todo.remove(piv)
        pivot_row = rows[piv]
        d = pivot_row.pop(piv)
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i, v in pivot_row.items():
            c = v / d
            row = rows[i]
            del row[piv]
            for k, w in pivot_row.items():
                s = row.get(k, 0) - c * w
                if s:
                    row[k] = s
                else:
                    del row[k]
    return (neg, pos, len(todo))
