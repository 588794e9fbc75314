"""Exact rational linear algebra over sparse and dense vectors.

Vectors are dicts index -> Fraction (zero entries omitted); dense matrices are
lists of lists of Fraction.

SpanBasis is the one exact elimination: spans, ranks, solutions of linear
systems, inverses and kernels are all read off it.  The one other algorithm,
signature_symmetric, diagonalizes by congruence, which row reduction cannot
do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Optional


def vec_add(a: dict, b: dict, scale: Fraction = Fraction(1)) -> dict:
    """Return a + scale*b as a sparse vector."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + scale * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(a: dict, scale: Fraction) -> dict:
    if not scale:
        return {}
    return {k: scale * v for k, v in a.items()}


class SpanBasis:
    """Incremental reduced row-echelon span of sparse vectors.

    Each inserted vector is reduced against the existing rows; surviving rows
    are kept fully reduced (each row is 1 at its own pivot and 0 at every
    other pivot).  Alongside each row we track its expression in terms of the
    originally inserted vectors, so `express` can return coefficients in the
    caller's basis.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []          # reduced vectors
        self.combos: list[dict] = []        # row -> {tag: coeff}
        self.pivot_row: dict = {}           # pivot index -> row number

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, combo: dict) -> tuple[dict, dict]:
        vec = dict(vec)
        combo = dict(combo)
        for p in list(vec.keys()):
            r = self.pivot_row.get(p)
            if r is None:
                continue
            coeff = vec[p]
            vec = vec_add(vec, self.rows[r], -coeff)
            combo = vec_add(combo, self.combos[r], -coeff)
        return vec, combo

    def add(self, vec: dict, tag: Hashable) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        vec, combo = self._reduce(vec, {tag: Fraction(1)})
        if not vec:
            return False
        self._insert(vec, combo)
        return True

    def _insert(self, vec: dict, combo: dict) -> None:
        """Append a reduced nonzero vector as a new row."""
        pivot = min(vec.keys(), key=_pivot_key)
        inv = Fraction(1) / Fraction(vec[pivot])
        vec = vec_scale(vec, inv)
        combo = vec_scale(combo, inv)
        # back-eliminate the new pivot from existing rows
        for r, row in enumerate(self.rows):
            c = row.get(pivot)
            if c:
                self.rows[r] = vec_add(row, vec, -c)
                self.combos[r] = vec_add(self.combos[r], combo, -c)
        self.pivot_row[pivot] = len(self.rows)
        self.rows.append(vec)
        self.combos.append(combo)

    def express(self, vec: dict) -> Optional[dict]:
        """Coefficients {tag: Fraction} with vec = sum coeff * original, or None."""
        residual, combo = self._reduce(vec, {})
        if residual:
            return None
        return {t: -c for t, c in combo.items() if c}

    def contains(self, vec: dict) -> bool:
        return self.express(vec) is not None


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
    e_i - express(column i): the combination its reduction tracks.
    """
    sb = SpanBasis()
    out = []
    for i, col in enumerate(columns):
        residual, combo = sb._reduce(col, {i: Fraction(1)})
        if residual:
            sb._insert(residual, combo)
        else:
            out.append(combo)
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
