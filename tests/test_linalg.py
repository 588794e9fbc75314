"""Exact linear algebra: the sparse signature against the dense elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from e6kit.algebra import killing_matrix
from e6kit.linalg import signature_symmetric


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
