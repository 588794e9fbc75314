"""Exact linear algebra: the integer span against Fraction elimination, the sparse
signature against the dense one."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from e6kit.algebra import killing_matrix
from e6kit.linalg import kernel, signature_symmetric, span_of


def _vec_add(a, b, scale):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + scale * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class _FractionSpan:
    """The reference: reduced row echelon form in Fractions, each row 1 at its pivot."""

    def __init__(self):
        self.rows, self.combos, self.pivot_row = [], [], {}

    def reduce(self, vec, combo):
        for p in list(vec):
            r = self.pivot_row.get(p)
            if r is not None:
                coeff = vec[p]
                vec = _vec_add(vec, self.rows[r], -coeff)
                combo = _vec_add(combo, self.combos[r], -coeff)
        return vec, combo

    def insert(self, vec, combo):
        pivot = min(vec, key=lambda k: (str(type(k)), repr(k)))
        inv = 1 / Fraction(vec[pivot])
        vec = {k: inv * v for k, v in vec.items()}
        combo = {k: inv * v for k, v in combo.items()}
        for r, row in enumerate(self.rows):
            c = row.get(pivot)
            if c:
                self.rows[r] = _vec_add(row, vec, -c)
                self.combos[r] = _vec_add(self.combos[r], combo, -c)
        self.pivot_row[pivot] = len(self.rows)
        self.rows.append(vec)
        self.combos.append(combo)

    def add(self, vec, tag):
        vec, combo = self.reduce(vec, {tag: Fraction(1)})
        if vec:
            self.insert(vec, combo)

    def express(self, vec):
        residual, combo = self.reduce(vec, {})
        return None if residual else {t: -c for t, c in combo.items() if c}

    def kernel(self, columns):
        out = []
        for i, col in enumerate(columns):
            residual, combo = self.reduce(col, {i: Fraction(1)})
            if residual:
                self.insert(residual, combo)
            else:
                out.append(combo)
        return out


_entry = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6)).filter(bool)
# keys up to 11, so that the pivot order (by repr) puts 10 before 2
_sparse = st.dictionaries(st.integers(0, 11), _entry, max_size=5)


def _combination(x, a, y, b):
    out = {}
    for k in set(a) | set(b):
        v = x * a.get(k, 0) + y * b.get(k, 0)
        if v:
            out[k] = v
    return out


@st.composite
def _vectors(draw):
    """Sparse int and Fraction vectors, with zero, repeated and dependent ones among them."""
    out = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat", "dependent"]))
        if kind == "zero":
            out.append({})
        elif kind == "new" or not out:
            out.append(draw(_sparse))
        elif kind == "repeat":
            out.append(dict(draw(st.sampled_from(out))))
        else:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(_combination(draw(_entry), a, draw(_entry), b))
    return out


@given(_vectors(), st.lists(_sparse, max_size=3))
@settings(max_examples=300, deadline=None)
def test_integer_span_matches_fraction_elimination(vectors, probes):
    span, ref = span_of(vectors), _FractionSpan()
    for n, v in enumerate(vectors):
        ref.add(v, n)
    assert span.rank == len(ref.rows)
    assert span.pivot_row == ref.pivot_row
    for row, combo, ref_row, ref_combo in zip(span.rows, span.combos, ref.rows, ref.combos):
        pivot = min(row, key=lambda k: (str(type(k)), repr(k)))
        assert row[pivot] > 0 and all(type(v) is int for v in [*row.values(), *combo.values()])
        assert math.gcd(*row.values(), *combo.values()) == 1
        assert {k: Fraction(v, row[pivot]) for k, v in row.items()} == ref_row
        assert {k: Fraction(v, row[pivot]) for k, v in combo.items()} == ref_combo
    sums = [_combination(1, a, 2, b) for a, b in zip(vectors, vectors[1:])]
    for probe in vectors + sums + probes:
        assert span.express(probe) == ref.express(probe)
        assert span.contains(probe) == (ref.express(probe) is not None)
    assert kernel(vectors) == _FractionSpan().kernel(vectors)


def _dense_signature(mat):
    """Lagrange diagonalization on the full matrix, every entry eliminated."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    neg = pos = zero = 0
    todo = list(range(n))
    while todo:
        piv = next((i for i in todo if a[i][i]), None)
        if piv is None:
            found = next(((i, j) for i in todo for j in todo if j != i and a[i][j]), None)
            if found is None:
                zero += len(todo)
                break
            i, j = found
            # row/col i += row/col j (a congruence) makes a[i][i] = 2a[i][j] != 0
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        todo.remove(piv)
        for i in todo:
            c = a[i][piv] / d
            if c:
                for k in range(n):
                    a[i][k] -= c * a[piv][k]
                for k in range(n):
                    a[k][i] -= c * a[k][piv]
    return (neg, pos, zero)


@st.composite
def symmetric_matrices(draw):
    """Sparse symmetric rational matrices; about half have an all-zero diagonal."""
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=3))
    hollow = draw(st.booleans())
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if not (hollow and i == j):
                a[i][j] = a[j][i] = draw(entry)
    return a


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_signature_matches_dense(mat):
    assert signature_symmetric(mat) == _dense_signature(mat)


def test_hollow_and_integer_matrices():
    # [[0, 1], [1, 0]] has signature (1, 1); ints are read as Fractions
    assert signature_symmetric([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature_symmetric([[0, 2, 0], [2, 0, 3], [0, 3, 0]]) == (1, 1, 1)
    assert signature_symmetric([]) == (0, 0, 0)


def test_killing_signature_matches_dense():
    km = killing_matrix()
    assert signature_symmetric(km) == _dense_signature(km) == (52, 26, 0)
