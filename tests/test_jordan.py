"""Exceptional Jordan algebra: determinant, trace forms, elements as values."""

import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from e6kit import jordan
from e6kit.jordan import det, from_coords, to_coords
from reference import (Octonion, basis_element, det_trace_form, from_matrix, jordan_product,
                       matmul, sigma, to_matrix, trace, two_product_det, type_cycle)

rational = st.fractions(min_value=-6, max_value=6, max_denominator=4)
coord_lists = st.lists(rational, min_size=27, max_size=27)


def test_identity_invariants():
    e = from_coords([1, 1, 1] + [0] * 24)
    assert trace(e) == 3
    assert sigma(e) == 3
    assert det(e) == 1


def test_diag_det():
    x = from_coords([Fraction(2), Fraction(3), Fraction(5)] + [0] * 24)
    assert det(x) == 30
    assert trace(x) == 10
    assert sigma(x) == 2 * 3 + 3 * 5 + 5 * 2


@given(coord_lists)
@settings(max_examples=40, deadline=None)
def test_coords_roundtrip(coords):
    x = from_coords(coords)
    assert to_coords(x) == coords and x.coords == tuple(coords)


@pytest.mark.parametrize("n", [0, 26, 28])
def test_from_coords_needs_27_entries(n):
    with pytest.raises(ValueError, match="Coord27 needs 27 entries"):
        from_coords([0] * n)


@given(coord_lists)
@settings(max_examples=40, deadline=None)
def test_matrix_roundtrip(coords):
    x = from_coords(coords)
    assert to_coords(from_matrix(to_matrix(x))) == coords


@given(coord_lists, coord_lists)
@settings(max_examples=30, deadline=None)
def test_jordan_product_commutative(c1, c2):
    x, y = from_coords(c1), from_coords(c2)
    assert to_coords(jordan_product(x, y)) == to_coords(jordan_product(y, x))


@given(coord_lists)
@settings(max_examples=25, deadline=None)
@example([1, 2, 3] + [1] * 24)  # int coordinates: the trace form stays exact
def test_det_agrees_with_trace_form(coords):
    x = from_coords(coords)
    assert det(x) == det_trace_form(x)
    assert not isinstance(det_trace_form(x), float)


@given(coord_lists)
@settings(max_examples=25, deadline=None)
def test_det_cyclic_under_type_permutation(coords):
    x = from_coords(coords)
    assert det(type_cycle(x)) == det(x)


def test_basis_elements():
    for k in range(27):
        coords = to_coords(basis_element(k))
        assert coords[k] == 1
        assert all(v == 0 for i, v in enumerate(coords) if i != k)


def test_elements_are_values_and_not_tuples():
    chi = basis_element(4)
    twin = from_coords(to_coords(chi))
    assert chi == twin and hash(chi) == hash(twin) and chi != basis_element(5)
    assert chi != chi.coords and {chi: "found"}[twin] == "found"
    assert repr(chi) == "JordanElement(coords=(0, 0, 0, 0, 1" + ", 0" * 22 + "))"
    with pytest.raises(TypeError):
        2 * chi
    with pytest.raises(TypeError):
        chi * 2
    with pytest.raises(TypeError):
        chi + chi


def _reference_matmul(xm, ym):
    """The product with every sum started from Fraction(0), as the seed computed it."""
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = Octonion((Fraction(0),) * 8)
            for k in range(3):
                if xm[i][k].is_zero() or ym[k][j].is_zero():
                    continue
                acc = acc + xm[i][k] * ym[k][j]
            row.append(acc)
        out.append(row)
    return out


_SCALARS = {
    int: st.integers(-3, 3),
    Fraction: rational,
    float: st.one_of(st.just(0.0), st.just(-0.0),
                     st.floats(-4, 4, allow_nan=False, allow_infinity=False)),
}


@st.composite
def matrix_pairs(draw):
    kind = draw(st.sampled_from(sorted(_SCALARS, key=str)))
    scalars = st.one_of(st.just(kind(0)), _SCALARS[kind])
    entry = st.one_of(st.just(Octonion((kind(0),) * 8)),
                      st.builds(Octonion, st.lists(scalars, min_size=8, max_size=8)))
    mats = st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3)
    return kind, draw(mats), draw(mats)


def _bits(x):
    return struct.pack("<d", x)


def _sparse(entry):
    zero = Octonion((0.0,) * 8)
    return [[entry, zero, zero], [zero] * 3, [zero] * 3]


@given(matrix_pairs())
@example((float, _sparse(Octonion((-1.0,) + (0.0,) * 7)),    # (-1) * i has -0.0 parts,
          _sparse(Octonion((0.0, 1.0) + (0.0,) * 6))))      # which 0 + x turns into 0.0
@settings(max_examples=40, deadline=None)
def test_matmul_keeps_scalar_type_and_float_bits(pair):
    kind, xm, ym = pair
    got, want = matmul(xm, ym), _reference_matmul(xm, ym)
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert g.coeffs == w.coeffs
            for gc, wc in zip(g.coeffs, w.coeffs):
                if kind is int:
                    assert type(gc) is int
                if isinstance(wc, float):
                    assert isinstance(gc, float) and _bits(gc) == _bits(wc)


_HALVES = [k / 2 for k in range(-8, 9)] + [-0.0]
# mostly zeros, so that real and empty octonion factors come up often
_SPARSE_HALVES = [0.0, -0.0] * 4 + [-1.5, 0.5, 2.0, -4.0]


@given(st.one_of(*(st.lists(values, min_size=27, max_size=27)
                   for values in (st.sampled_from(_HALVES), st.sampled_from(_SPARSE_HALVES),
                                  st.floats(-4, 4, allow_nan=False)))))    # sums that round
@example([0.0] * 27)
@example([1.0, 2.0, -0.5] + [0.0] * 24)
@example([-0.0] * 3 + [-1.0] + [0.0] * 7 + [0.5] + [0.0] * 7 + [0.0, -2.0] + [0.0] * 6)
@settings(max_examples=200, deadline=None)
def test_det_has_the_bits_of_two_products(coords):
    x = from_coords(coords)
    got, want = det(x), two_product_det(x)
    assert isinstance(got, float) and _bits(got) == _bits(want)


@given(st.one_of(coord_lists, st.lists(st.integers(-4, 4), min_size=27, max_size=27)))
@example([0] * 27)
@settings(max_examples=60, deadline=None)
def test_det_is_exact_as_two_products(coords):
    x = from_coords(coords)
    got, want = det(x), two_product_det(x)
    assert got == want and type(got) is type(want)


def _loop_bits(x):
    """det(x) against the loop's value: equal type, value and bits, any nan for a nan."""
    got, want = det(x), jordan._loop_det(x.coords)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert math.isnan(got) if math.isnan(want) else _bits(got) == _bits(want)
    else:
        assert got == want
    return got


def test_import_builds_no_straight_line_body():
    """In a fresh interpreter: import compiles no straight-line det body,
    an exact det does not either, and the first det on floats does."""
    code = ("from e6kit import jordan\n"
            "print(jordan._straight_det is None)\n"
            "jordan.det(jordan.from_coords([1] * 27))\n"
            "print(jordan._straight_det is None)\n"
            "jordan.det(jordan.from_coords([0.5] * 27))\n"
            "print(jordan._straight_det is None)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jordan.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "True", "False"]


def test_dense_float_det_takes_the_straight_line_body(monkeypatch):
    """A dense float chi with a nonzero det never reaches the loop's unit sums."""
    rng = random.Random(40)
    chis = [from_coords([rng.uniform(-3, 3) for _ in range(27)]) for _ in range(20)]
    want = [two_product_det(x) for x in chis]

    def refused(*args):
        raise AssertionError("the loop ran")

    monkeypatch.setattr(jordan, "_conj_product_unit", refused)
    assert [_bits(det(x)) for x in chis] == [_bits(w) for w in want]


def test_det_of_mixed_coordinate_types_is_the_loops():
    """int, float and Fraction coordinates run the loop: the straight-line
    body would add a float 0.0 (a6 * b2) to w_4 before -a7 * b3, turning the
    exact -6/7 into a float before it meets c_4, and miss the loop's last bit."""
    coords = [0] * 27
    coords[9], coords[10], coords[14], coords[23] = 0.5, 3, Fraction(-2, 7), 3
    x = from_coords(coords)
    assert _loop_bits(x) == 36 / 7
    assert jordan._build_straight_det()(x.coords) != 36 / 7
    rng = random.Random(41)
    for _ in range(200):
        x = from_coords([rng.choice((0, 1, -2, 0.0, -0.0, 0.5, 1e17, Fraction(1, 3),
                                     Fraction(-2, 7), 2 ** 60 + 1)) for _ in range(27)])
        _loop_bits(x)


@pytest.mark.parametrize("coords, sign", [
    ([1.0, 0.0, 0.0] + [0.0] * 24, 1.0),                                      # diag(1, 0, 0)
    ([-1.0, 0.0, 0.0, -0.0] + [0.0] * 23, -1.0),                              # -diag(1, 0, 0)
    ([1.0, 4.0, 9.0, 2.0] + [0.0] * 7 + [6.0] + [0.0] * 7 + [3.0] + [0.0] * 7, 1.0),  # x x†
], ids=["diag", "neg-diag", "outer"])
def test_zero_det_keeps_the_loops_sign(coords, sign):
    """A rank-one chi's det is an exact zero, whose sign the loop sets.

    For -diag(1, 0, 0) with a_0 = -0.0 it is -0.0: with c = 0 the loop adds
    2 (w_0 * 0) = -0.0, where the straight line adds w_0 c_0 + w_1 c_1 = +0.0.
    """
    x = from_coords(coords)
    assert _loop_bits(x) == 0 and math.copysign(1.0, det(x)) == sign
    assert _bits(jordan._build_straight_det()(x.coords)) == _bits(0.0)


def test_overflowing_det_is_the_loops():
    """Coordinates of +-1e308 overflow: the straight line meets inf * 0 where
    the loop skips a zero factor, so the loop's inf is kept, as are its nans."""
    x = from_coords([-1e308] + [0.0] * 6 + [-2.0] + [0.0] * 5 + [-1e308] + [0.0] * 13)
    assert _loop_bits(x) == math.inf
    assert math.isnan(jordan._build_straight_det()(x.coords))
    rng = random.Random(42)
    for _ in range(300):
        _loop_bits(from_coords([rng.choice((1e308, -1e308, 1.0, -2.0)) if rng.random() < 0.2
                                else rng.choice((0.0, -0.0)) for _ in range(27)]))
