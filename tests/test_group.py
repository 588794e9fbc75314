"""One-parameter group actions: labels, finite evaluation, tangents."""

import random
from fractions import Fraction

import pytest

from e6kit.group import (GeneratorLabel, IllegalLabel, action_matrix,
                         all_labels, apply, format_label,
                         one_parameter_check, parse_label, type_cycle)
from e6kit.jordan import det, from_coords, to_coords
from e6kit.octonion import UNIT_INDEX


def random_chi(rng):
    return from_coords([rng.randint(-6, 6) / 2.0 for _ in range(27)])


def test_catalog_size_and_roundtrip():
    labels = all_labels()
    assert len(labels) == 135
    assert len(set(labels)) == 135
    for label in labels:
        assert parse_label(format_label(label)) == label


def test_parse_accepts_ascii_and_display_units():
    assert parse_label("R:z,kl:2") == parse_label("R:z,kℓ:2")
    assert parse_label("A:l") == GeneratorLabel("A", 1, axis="l")
    assert parse_label("B:t,x:3") == GeneratorLabel("B", 3, plane=("t", "x"))


@pytest.mark.parametrize("bad", ["Q:i", "B:t", "B:t,z:4", "R:t,z", "A:w",
                                 "B:x,z", "A:i:0", "nonsense", "R:i,j", "R:l,il:2"])
def test_illegal_labels_rejected(bad):
    with pytest.raises(IllegalLabel):
        parse_label(bad)


@pytest.mark.parametrize("text", ["B:t,z", "B:t,kl:3", "R:x,z:2", "R:z,jl",
                                  "A:i", "G:l:2", "S:il:3"])
def test_one_parameter_property(text):
    rng = random.Random(7)
    chi = random_chi(rng)
    assert one_parameter_check(parse_label(text), 0.31, -0.17, chi)


def test_a_l_tangent_on_off_diagonal_block():
    # The tangent of A:l moves the a-block octonion by
    # a -> -a_il i + a_jl j - a_j jl + a_i il  (all other coords fixed).
    coords = [Fraction(0)] * 27
    base = 3  # a-block starts after p, m, n
    for name, value in (("i", 2), ("j", 3), ("jl", 5), ("il", 7)):
        coords[base + UNIT_INDEX[name]] = Fraction(value)
    from e6kit.algebra import tangent
    moved = tangent(parse_label("A:l")).apply_coords(coords)
    dot = {name: moved[base + UNIT_INDEX[name]]
           for name in ("i", "j", "k", "kl", "jl", "il", "l")}
    assert dot == {"i": -7, "il": 2, "j": 5, "jl": -3,
                   "k": 0, "kl": 0, "l": 0}


@pytest.mark.parametrize("text", ["B:t,z", "R:x,i", "A:j:2", "S:kl"])
def test_action_matrix_matches_apply(text):
    rng = random.Random(3)
    chi = random_chi(rng)
    label, alpha = parse_label(text), 0.41
    mat = action_matrix(label, alpha)
    coords = [float(v) for v in to_coords(chi)]
    via_matrix = [sum(mat[i][j] * coords[j] for j in range(27))
                  for i in range(27)]
    direct = [float(v) for v in to_coords(apply(label, alpha, chi))]
    assert max(abs(a - b) for a, b in zip(via_matrix, direct)) < 1e-12


@pytest.mark.parametrize("text", ["B:t,j:2", "R:z,kl:3", "A:i", "G:jl:3",
                                  "S:l:2", "R:x,z"])
def test_det_preserved_sample(text):
    rng = random.Random(11)
    for _ in range(3):
        chi = random_chi(rng)
        before = float(det(chi))
        after = float(det(apply(parse_label(text), 0.9, chi)))
        assert abs(after - before) < 1e-9


def test_type_cycle_order_three():
    rng = random.Random(5)
    chi = random_chi(rng)
    cycled = type_cycle(type_cycle(type_cycle(chi)))
    assert to_coords(cycled) == to_coords(chi)
    assert det(type_cycle(chi)) == det(chi)
