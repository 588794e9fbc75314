"""Octonion arithmetic: multiplication table, alternativity, norm composition.

e6kit has no octonion class; these tests pin the unit tables of e6kit.units
and the reference `Octonion` that the other tests check e6kit against.
"""

import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6kit.units import IMAGINARY_UNITS, MULT_TABLE, TRIPLES, UNIT_INDEX, UNITS, _AGS_PAIRS
from reference import Octonion, associator


def u(name: str) -> Octonion:
    return Octonion.unit(name)


rational = st.fractions(min_value=-10, max_value=10,
                        max_denominator=8)
octonions = st.builds(Octonion.from_rationals,
                      st.lists(rational, min_size=8, max_size=8))
nonzero_octonions = octonions.filter(lambda x: not x.is_zero())


def test_unit_squares():
    one = Octonion.scalar(Fraction(1))
    assert u("1") * u("1") == one
    for name in IMAGINARY_UNITS:
        assert u(name) * u(name) == -one


def test_triples_cyclic():
    for a, b, c in TRIPLES:
        assert u(a) * u(b) == u(c)
        assert u(b) * u(c) == u(a)
        assert u(c) * u(a) == u(b)
        assert u(b) * u(a) == -u(c)


def test_anticommuting_imaginary_units():
    for a in IMAGINARY_UNITS:
        for b in IMAGINARY_UNITS:
            if a == b:
                continue
            assert u(a) * u(b) == -(u(b) * u(a))


def test_quaternionic_triples_pairs_multiply_to_axis():
    assert sorted(_AGS_PAIRS) == sorted(IMAGINARY_UNITS)
    for axis, pairs in _AGS_PAIRS.items():
        assert len(pairs) == 3
        for p, q in pairs:
            assert u(p) * u(q) == u(axis)


def test_quaternionic_pairs_derived_from_the_triples_match_the_table():
    """_AGS_PAIRS, read off TRIPLES, is the table that the A/G/S stages were written against."""
    assert _AGS_PAIRS == {
        "i": (("j", "k"), ("kl", "jl"), ("l", "il")),
        "j": (("k", "i"), ("il", "kl"), ("l", "jl")),
        "k": (("i", "j"), ("jl", "il"), ("l", "kl")),
        "kl": (("jl", "i"), ("j", "il"), ("k", "l")),
        "jl": (("i", "kl"), ("il", "k"), ("j", "l")),
        "il": (("kl", "j"), ("k", "jl"), ("i", "l")),
        "l": (("il", "i"), ("jl", "j"), ("kl", "k")),
    }
    assert list(_AGS_PAIRS) == list(IMAGINARY_UNITS)


def test_associator_example():
    # (ij)l - i(jl) = 2 kl under the chosen table.
    want = Octonion.unit("kl", Fraction(2))
    assert associator(u("i"), u("j"), u("l")) == want


def test_unit_index_consistent():
    assert [UNITS[UNIT_INDEX[n]] for n in UNITS] == list(UNITS)


@given(octonions, octonions)
@settings(max_examples=50, deadline=None)
def test_norm_composition(x, y):
    assert (x * y).norm2() == x.norm2() * y.norm2()


@given(octonions, octonions)
@settings(max_examples=50, deadline=None)
def test_conjugation_antiautomorphism(x, y):
    assert (x * y).conj() == y.conj() * x.conj()


@given(octonions, octonions)
@settings(max_examples=50, deadline=None)
def test_alternativity(x, y):
    zero = Octonion.zero()
    assert associator(x, x, y) == zero
    assert associator(x, y, y) == zero
    assert associator(y, x, y) == zero


@given(octonions, octonions, octonions)
@settings(max_examples=50, deadline=None)
def test_associator_alternating(x, y, z):
    a = associator(x, y, z)
    assert associator(y, x, z) == -a
    assert associator(x, z, y) == -a


@given(nonzero_octonions)
@settings(max_examples=50, deadline=None)
def test_inverse(x):
    one = Octonion.scalar(Fraction(1))
    assert x * x.inverse() == one
    assert x.inverse() * x == one


@given(octonions)
@settings(max_examples=50, deadline=None)
def test_real_and_imaginary_split(x):
    assert x.re() + x.im() == x
    assert x.re().conj() == x.re()
    assert x.im().conj() == -x.im()


def test_nonassociativity_present():
    assert associator(u("i"), u("j"), u("l")) != Octonion.zero()


def _loop_product(x: Octonion, y: Octonion) -> tuple:
    """The general 8x8 product loop, without the real-factor shortcut."""
    out = [None] * 8
    for a, ca in enumerate(x.coeffs):
        if not ca:
            continue
        for b, cb in enumerate(y.coeffs):
            if not cb:
                continue
            sign, idx = MULT_TABLE[a][b]
            term = ca * cb
            if sign < 0:
                term = -term
            out[idx] = term if out[idx] is None else out[idx] + term
    zero = x.coeffs[0] * 0
    return tuple(zero if v is None else v for v in out)


def _bits(coeffs: tuple) -> tuple:
    """Coefficients with each float as its bit pattern, so -0.0 != 0.0."""
    return tuple((type(c), struct.pack("<d", c) if isinstance(c, float) else c)
                 for c in coeffs)


_float = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _real_factor_pair(draw):
    """(x, y), one of them real (zero included), the other arbitrary, of one coefficient type."""
    kind = draw(st.sampled_from([st.integers(-5, 5), rational,
                                 st.one_of(_float, st.sampled_from([0.0, -0.0]))]))
    real = [draw(kind)] + [draw(st.sampled_from([0, 0.0, -0.0, Fraction(0)]))
                                        for _ in range(7)]
    other = draw(st.lists(kind, min_size=8, max_size=8))
    pair = (Octonion(real), Octonion(other))
    return pair if draw(st.booleans()) else pair[::-1]


@given(_real_factor_pair())
@settings(max_examples=300, deadline=None)
def test_real_factor_product_matches_loop(pair):
    """The real-factor shortcut gives the loop's coefficients, types and float bits."""
    x, y = pair
    assert _bits((x * y).coeffs) == _bits(_loop_product(x, y))


def test_norm2_sums_left_to_right():
    # 1 + 1e16 rounds to 1e16, and so does each later + 1; a compensated sum
    # (sum() from Python 3.12 on) would give 1e16 + 8.
    x = Octonion([1.0, 1e8, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert x.norm2() == 1e16
