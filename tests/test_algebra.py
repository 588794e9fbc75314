"""Lie algebra layer: basis reduction, structure table, Killing form."""

import random
from fractions import Fraction

import pytest

from e6kit import algebra
from e6kit.algebra import (GELLMANN_LABELS, calibration_constant, commutator,
                           curve_commutator, element_sum, gellmann_check,
                           killing_matrix, killing_restricted, preferred_basis,
                           rank_estimate, reduce_basis, signature,
                           stabilizer_of_l, structure_table, tangent,
                           unit_vectors)
from e6kit.group import GeneratorLabel, format_label, parse_label
from e6kit.jordan import from_coords
from e6kit.linalg import kernel, vec_add
from e6kit.octonion import IMAGINARY_UNITS
from e6kit.rootweight import cartan_matrix, diagram


def combo(parts):
    return element_sum([(Fraction(c), tangent(parse_label(text)))
                        for c, text in parts])


def test_preferred_basis_is_78_and_independent():
    basis, certificates = reduce_basis()
    assert len(basis) == 78
    assert len(certificates) == 135 - 78
    # every certificate reconstructs the dropped tangent exactly
    for label, coeffs in list(certificates.items())[::9]:
        rebuilt = element_sum([(v, tangent(b)) for b, v in coeffs.items()])
        difference = element_sum([(Fraction(1), tangent(label)),
                                  (Fraction(-1), rebuilt)])
        assert difference.is_zero()


@pytest.mark.parametrize("q", IMAGINARY_UNITS)
def test_dependency_families(q):
    assert combo([(1, f"S:{q}"), (1, f"S:{q}:2"), (1, f"S:{q}:3")]).is_zero()
    assert combo([(1, f"R:x,{q}"), (1, f"R:x,{q}:2"),
                  (1, f"R:x,{q}:3")]).is_zero()
    assert combo([(1, f"R:x,{q}:2"), (Fraction(1, 2), f"R:x,{q}"),
                  (Fraction(1, 2), f"S:{q}")]).is_zero()
    assert combo([(1, f"S:{q}:2"), (Fraction(-3, 2), f"R:x,{q}"),
                  (Fraction(1, 2), f"S:{q}")]).is_zero()


def test_boost_sum_dependency():
    assert combo([(1, "B:t,z"), (1, "B:t,z:2"), (1, "B:t,z:3")]).is_zero()


@pytest.mark.parametrize("cat", ["A", "G"])
@pytest.mark.parametrize("q", IMAGINARY_UNITS)
def test_type_independence(cat, q):
    t1 = tangent(parse_label(f"{cat}:{q}"))
    t2 = tangent(parse_label(f"{cat}:{q}:2"))
    t3 = tangent(parse_label(f"{cat}:{q}:3"))
    assert t1.flat() == t2.flat() == t3.flat()


def test_structure_table_closure_and_antisymmetry():
    table = structure_table()
    n = len(table.basis)
    assert n == 78
    rng = random.Random(2)
    for _ in range(300):
        i, j = rng.sample(range(n), 2)
        u, v = {i: Fraction(1)}, {j: Fraction(1)}
        fwd = table.bracket_vectors(u, v)
        bwd = table.bracket_vectors(v, u)
        assert {k: -c for k, c in fwd.items() if c} == \
               {k: c for k, c in bwd.items() if c}


def test_jacobi_sample():
    table = structure_table()
    rng = random.Random(4)
    for _ in range(200):
        a, b, c = rng.sample(range(78), 3)
        ua, ub, uc = {a: Fraction(1)}, {b: Fraction(1)}, {c: Fraction(1)}
        total = {}
        for x, y, z in ((ua, ub, uc), (ub, uc, ua), (uc, ua, ub)):
            for k, v in table.bracket_vectors(x, table.bracket_vectors(y, z)).items():
                total[k] = total.get(k, Fraction(0)) + v
        assert all(v == 0 for v in total.values())


def test_killing_signature():
    assert signature(killing_matrix()) == (52, 26, 0)


def test_killing_rotation_and_boost_blocks():
    from e6kit.subalgebra import basis_flags
    flags = basis_flags()
    rotations = [n for n in range(78) if not flags.is_boost[n]]
    boosts = [n for n in range(78) if flags.is_boost[n]]
    assert len(rotations) == 52 and len(boosts) == 26
    assert signature(killing_restricted(unit_vectors(rotations))) == (52, 0, 0)
    assert signature(killing_restricted(unit_vectors(boosts))) == (0, 26, 0)


def test_casimir_sextet_commutes_and_rank():
    labels = algebra.casimir_labels()
    assert len(labels) == 6
    for a in labels:
        for b in labels:
            assert commutator(tangent(a), tangent(b)).is_zero()
    full = unit_vectors(list(range(78)))
    assert rank_estimate(full) == 6


def test_restricted_roots_are_a2_with_multiplicity_8():
    """h1 = B:t,z and h2 = B:t,z:2 span a maximal split torus of E6(-26).

    sl(3,K) has real rank 2 and restricted roots A2, each of multiplicity
    dim K (Baez, "The Octonions", arXiv math/0105155): the joint eigenspaces
    of ad h1, ad h2 are a 30-dim centralizer and six 8-dim root spaces.
    """
    table = structure_table()
    n = len(table.basis)
    h = [preferred_basis().index(parse_label(text)) for text in ("B:t,z", "B:t,z:2")]
    assert table.bracket(*h) == {}

    def joint_eigenspace(values):
        columns = []
        for a in range(n):
            col = {}
            for block, (i, lam) in enumerate(zip(h, values)):
                shifted = vec_add(table.bracket(i, a), {a: lam}, Fraction(-1))
                col.update({block * n + k: v for k, v in shifted.items()})
            columns.append(col)
        return kernel(columns)

    half = Fraction(1, 2)
    alpha, beta = (half, half), (half, -1)
    positive = [alpha, beta, (alpha[0] + beta[0], alpha[1] + beta[1])]
    roots = positive + [(-x, -y) for x, y in positive]
    assert len(joint_eigenspace((0, 0))) == 30
    assert [len(joint_eigenspace(root)) for root in roots] == [8] * 6
    assert 30 + 8 * len(roots) == n

    killing = killing_matrix()
    gram = [[killing[i][j] for j in h] for i in h]
    assert gram == [[24, -12], [-12, 24]]
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    inverse = [[gram[1][1] / det, -gram[0][1] / det], [-gram[1][0] / det, gram[0][0] / det]]

    def dot(u, v):
        return sum(u[i] * inverse[i][j] * v[j] for i in range(2) for j in range(2))

    simple = (alpha, beta)
    assert [[2 * dot(a, b) / dot(a, a) for b in simple] for a in simple] == \
        cartan_matrix(diagram("A2"))


def test_kernel_reads_dependent_columns():
    columns = [{0: 1}, {0: 2}, {}, {1: 1}, {0: 1, 1: 1}]
    basis = kernel(columns)
    assert basis == [{1: 1, 0: -2}, {2: 1}, {4: 1, 0: -1, 3: -1}]
    for v in basis:
        total = {}
        for i, x in v.items():
            for k, y in columns[i].items():
                total[k] = total.get(k, 0) + x * y
        assert not any(total.values())


def test_rank_without_sextet_vectors():
    """Mixing each sextet vector with another leaves only the seeded draws."""
    sextet = {preferred_basis().index(lab) for lab in algebra.casimir_labels()}
    mixed = [{n: 1, (n + 1) % 78: 1} if n in sextet else {n: 1} for n in range(78)]
    assert rank_estimate(mixed) == 6


def test_rank_of_a_subspace_that_is_not_closed():
    boosts = [n for n, lab in enumerate(preferred_basis()) if lab.category == "B"]
    with pytest.raises(algebra.NotClosed):
        rank_estimate(unit_vectors(boosts))


def test_stabilizer_of_l_rank():
    """Stab(l) is not reductive, but an abelian self-normalizing centralizer certifies rank 4."""
    stab = stabilizer_of_l()["kernel"]
    assert signature(killing_restricted(stab)) == (28, 8, 16)
    assert rank_estimate(stab) == 4


def test_gellmann_correspondence():
    assert len(GELLMANN_LABELS) == 8
    result = gellmann_check()
    assert result == {"pairs_checked": 28, "match": True}


def test_stabilizer_of_l():
    report = stabilizer_of_l()
    assert report["dim"] == 52
    assert report["documented_basis_in_kernel"]
    assert report["so81_dim"] == 36 and report["so81_closed"]
    assert report["b_dims"] == (6, 6, 4)
    assert report["b_abelian"]
    assert report["b_is_ideal_under_so81"]
    assert report["b2_killing_null"]


def test_calibration_constant():
    assert abs(calibration_constant() - 0.5) < 1e-5


def test_curve_commutator_matches_bracket():
    rng = random.Random(9)
    chi = from_coords([rng.randint(-5, 5) / 2.0 for _ in range(27)])
    # a pair that does not commute, so a wrong curve constant cannot pass
    l1, l2 = parse_label("A:i"), parse_label("B:t,j")
    from e6kit.jordan import to_coords
    est = curve_commutator(l1, l2, 1e-3, chi)
    exact = commutator(tangent(l1), tangent(l2)).apply_coords(
        [Fraction(float(v)) for v in to_coords(chi)])
    exact = [float(v) for v in exact]
    assert max(abs(v) for v in exact) > 1
    assert max(abs(a - b) for a, b in zip(est, exact)) < 1e-4


def test_curve_commutator_step_guard():
    chi = from_coords([1.0] * 27)
    with pytest.raises(algebra.StepTooLarge):
        curve_commutator(parse_label("A:i"), parse_label("A:j"),
                         1.5, chi, tol=1e-8)


def test_gellmann_a_g_brackets_nontrivial():
    # [A:k, A:kl] should be a nonzero combination (su(3) f_{123} != 0)
    bracket = commutator(tangent(GeneratorLabel("A", 1, axis="k")),
                         tangent(GeneratorLabel("A", 1, axis="kl")))
    assert not bracket.is_zero()


def test_structure_constants_are_rational_and_sparse():
    table = structure_table()
    total = sum(len(row) for row in table.constants.values())
    assert total > 0
    for row in table.constants.values():
        for v in row.values():
            assert isinstance(v, Fraction) and v != 0
    labels = {format_label(lab) for lab in preferred_basis()}
    assert len(labels) == 78
