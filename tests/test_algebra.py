"""Lie algebra layer: basis reduction, structure table, Killing form."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from e6kit import algebra, gellmann, stabilizer
from e6kit.algebra import (GELLMANN_LABELS, gellmann_check,
                           killing_matrix, killing_restricted, preferred_basis,
                           rank_estimate, reduce_basis, signature,
                           stabilizer_of_l, structure_table, tangent,
                           unit_vectors)
from e6kit.group import GeneratorLabel, format_label, parse_label
from e6kit.jordan import from_coords
from e6kit.linalg import kernel
from e6kit.rootweight import cartan_matrix, diagram
from e6kit.units import IMAGINARY_UNITS
from reference import (StepTooLarge, apply_matrix, calibration_constant, commutator,
                       curve_commutator, flat_matrix, killing_from_table, mat_sum,
                       nested_matrix)


def combo(parts):
    return mat_sum([(Fraction(c), tangent(parse_label(text)))
                    for c, text in parts])


def test_preferred_basis_is_78_and_independent():
    basis, certificates = reduce_basis()
    assert len(basis) == 78
    assert len(certificates) == 135 - 78
    # every certificate reconstructs the dropped tangent exactly
    for label, coeffs in list(certificates.items())[::9]:
        rebuilt = mat_sum([(v, tangent(b)) for b, v in coeffs.items()])
        difference = mat_sum([(Fraction(1), tangent(label)),
                              (Fraction(-1), rebuilt)])
        assert difference == {}


@pytest.mark.parametrize("q", IMAGINARY_UNITS)
def test_dependency_families(q):
    assert combo([(1, f"S:{q}"), (1, f"S:{q}:2"), (1, f"S:{q}:3")]) == {}
    assert combo([(1, f"R:x,{q}"), (1, f"R:x,{q}:2"),
                  (1, f"R:x,{q}:3")]) == {}
    assert combo([(1, f"R:x,{q}:2"), (Fraction(1, 2), f"R:x,{q}"),
                  (Fraction(1, 2), f"S:{q}")]) == {}
    assert combo([(1, f"S:{q}:2"), (Fraction(-3, 2), f"R:x,{q}"),
                  (Fraction(1, 2), f"S:{q}")]) == {}


def test_boost_sum_dependency():
    assert combo([(1, "B:t,z"), (1, "B:t,z:2"), (1, "B:t,z:3")]) == {}


@pytest.mark.parametrize("cat", ["A", "G"])
@pytest.mark.parametrize("q", IMAGINARY_UNITS)
def test_type_independence(cat, q):
    t1 = tangent(parse_label(f"{cat}:{q}"))
    t2 = tangent(parse_label(f"{cat}:{q}:2"))
    t3 = tangent(parse_label(f"{cat}:{q}:3"))
    assert t1 == t2 == t3


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
    from e6kit.subalgebra import make_involution
    phi_t = make_involution("t").signs
    rotations = [n for n in range(78) if phi_t[n] == 1]
    boosts = [n for n in range(78) if phi_t[n] == -1]
    assert len(rotations) == 52 and len(boosts) == 26
    assert signature(killing_restricted(unit_vectors(rotations))) == (52, 0, 0)
    assert signature(killing_restricted(unit_vectors(boosts))) == (0, 26, 0)


def test_casimir_sextet_commutes_and_rank():
    labels = algebra.casimir_labels()
    assert len(labels) == 6
    for a in labels:
        for b in labels:
            assert commutator(tangent(a), tangent(b)) == {}
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
                shifted = dict(table.bracket(i, a))    # L times ad b_i
                shifted[a] = shifted.get(a, 0) - table.scale * lam
                col.update({block * n + k: v for k, v in shifted.items() if v})
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
    det = Fraction(gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0])    # exact inverse
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


def test_rank_of_scaled_vectors_takes_the_general_path():
    """Vectors that are not unit vectors go through _span_constants and its two errors."""
    boosts = [n for n, lab in enumerate(preferred_basis()) if lab.category == "B"]
    with pytest.raises(algebra.NotClosed, match="escapes the subspace"):
        rank_estimate([{i: 2} for i in boosts])
    with pytest.raises(ValueError, match="dependent"):
        rank_estimate([{0: 1}, {1: 2}, {1: 2}])


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


def _swap_last_so81_with_bl0(named):
    named["so81"][-1], named["bl"][0] = named["bl"][0], named["so81"][-1]


def _last_b2_to_boost_tz(named):
    named["b2"][-1] = {preferred_basis().index(parse_label("B:t,z")): 1}


@pytest.mark.parametrize("corrupt, flags", [
    (_swap_last_so81_with_bl0, {"documented_basis_in_kernel": True, "so81_closed": False,
                                "b_abelian": False, "b_is_ideal_under_so81": False,
                                "b2_killing_null": True}),
    (_last_b2_to_boost_tz, {"documented_basis_in_kernel": True, "so81_closed": True,
                            "b_abelian": False, "b_is_ideal_under_so81": False,
                            "b2_killing_null": False}),
])
def test_stabilizer_of_l_flags_a_corrupted_basis(monkeypatch, corrupt, flags):
    """Each containment check fails on its own: a failed one does not hide another."""
    documented = stabilizer.stab_l_documented_basis

    def corrupted():
        named = documented()
        corrupt(named)
        return named

    monkeypatch.setattr(stabilizer, "stab_l_documented_basis", corrupted)
    report = stabilizer_of_l()
    assert {flag: report[flag] for flag in flags} == flags
    assert report["dim"] == 52 and report["b_dims"] == (6, 6, 4)


def _fresh_run(code, extra_env=None):
    """stdout of `code` run in a fresh interpreter, with no disk cache unless extra_env sets one."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(algebra.__file__)))
    env.pop(algebra.CACHE_ENV, None)
    env.update(extra_env or {})
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_stabilizer_of_l_builds_no_tangent():
    """In a fresh interpreter, Stab(l) reads the doubled tangents and the table only."""
    code = ("from e6kit import algebra\n"
            "calls = []\n"
            "tangent = algebra.tangent\n"
            "algebra.tangent = lambda label: calls.append(label) or tangent(label)\n"
            "assert algebra.stabilizer_of_l()['dim'] == 52\n"
            "print(len(calls))\n")
    assert _fresh_run(code) == "0\n"


def _doubled_tangent_calls(statement):
    """(calls, distinct labels) of doubled_tangent while a fresh interpreter runs `statement`."""
    code = ("from e6kit import algebra\n"
            "calls = []\n"
            "doubled = algebra.doubled_tangent\n"
            "algebra.doubled_tangent = lambda label: calls.append(label) or doubled(label)\n"
            f"{statement}\n"
            "print(len(calls), len(set(calls)))\n")
    return tuple(map(int, _fresh_run(code).split()))


def test_structure_table_builds_each_core_tangent_once():
    """In a fresh interpreter, the span and the table share one 2T per core-basis label."""
    assert _doubled_tangent_calls("algebra.structure_table()") == (78, 78)


def test_stabilizer_of_l_builds_each_preferred_tangent_once():
    """Stab(l) needs the table (78 core-basis 2T) and the 78 preferred 2T, which its
    kernel and the Killing form of b2 share; the 57 B/R labels are on both lists and
    are built once: 99 calls, not 156."""
    assert _doubled_tangent_calls("algebra.stabilizer_of_l()") == (99, 99)


def test_killing_builds_each_preferred_tangent_once():
    """The Killing form reads the 78 preferred 2T only: the 21 transverse-core 2T,
    which the table's span reads, are not built."""
    assert _doubled_tangent_calls("algebra.killing_matrix()") == (78, 78)


def test_killing_matches_the_table_oracle():
    """The trace form tr(2T_i 2T_j) is tr(ad_i ad_j) summed over the structure constants."""
    killing = killing_matrix()
    assert killing == killing_from_table(structure_table())
    assert all(isinstance(v, int) for row in killing for v in row)
    assert sum(1 for row in killing for v in row if v) == 80


def test_killing_verb_builds_no_span_no_table_and_no_cache(tmp_path):
    """In a fresh interpreter, `killing` and `killing --out` differentiate the 7 orbit
    cores and do not even import the module of the span, the structure table and
    the disk cache."""
    cache = tmp_path / "cache.json"
    code = ("import contextlib, io, sys\n"
            "from e6kit import algebra, cli\n"
            "calls = []\n"
            "dual = algebra.apply_dual\n"
            "algebra.apply_dual = lambda label, chi: calls.append(label) or dual(label, chi)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['killing']) == 0\n"
            f"    assert cli.run(['killing', '--out', {str(tmp_path / 'killing.json')!r}]) == 0\n"
            "print(len(calls), 'e6kit.structure' in sys.modules)\n")
    assert _fresh_run(code, {algebra.CACHE_ENV: str(cache)}) == "7 False\n"
    assert not cache.exists()
    assert (tmp_path / "killing.json").exists()


def test_cold_table_is_one_integer_table():
    """In a fresh interpreter, a cold structure_table() makes one StructureTable and
    constructs no Fraction at all: the stage terms are ints, and the rational
    constants are formed only by `table`."""
    code = ("from fractions import Fraction\n"
            "from e6kit import algebra\n"
            "made = []\n"
            "new, init = Fraction.__new__, algebra.StructureTable.__init__\n"
            "def counted(cls, *args, **kwargs):\n"
            "    made.append('F')\n"
            "    return new(cls, *args, **kwargs)\n"
            "Fraction.__new__ = counted\n"
            "algebra.StructureTable.__init__ = lambda self, *a: made.append('T') or init(self, *a)\n"
            "algebra.structure_table()\n"
            "print(made.count('T'), made.count('F'))\n")
    assert _fresh_run(code) == "1 0\n"


def test_calibration_constant():
    assert abs(calibration_constant() - 0.5) < 1e-5


def test_curve_commutator_matches_bracket():
    rng = random.Random(9)
    chi = from_coords([rng.randint(-5, 5) / 2.0 for _ in range(27)])
    # a pair that does not commute, so a wrong curve constant cannot pass
    l1, l2 = parse_label("A:i"), parse_label("B:t,j")
    from e6kit.jordan import to_coords
    est = curve_commutator(l1, l2, 1e-3, chi)
    exact = apply_matrix(commutator(tangent(l1), tangent(l2)),
                         [Fraction(float(v)) for v in to_coords(chi)])
    exact = [float(v) for v in exact]
    assert max(abs(v) for v in exact) > 1
    assert max(abs(a - b) for a, b in zip(est, exact)) < 1e-4


def test_curve_commutator_step_guard():
    chi = from_coords([1.0] * 27)
    with pytest.raises(StepTooLarge):
        curve_commutator(parse_label("A:i"), parse_label("A:j"),
                         1.5, chi, tol=1e-8)


def test_gellmann_a_g_brackets_nontrivial():
    # [A:k, A:kl] should be a nonzero combination (su(3) f_{123} != 0)
    bracket = commutator(tangent(GeneratorLabel("A", 1, axis="k")),
                         tangent(GeneratorLabel("A", 1, axis="kl")))
    assert bracket != {}


def test_flat_commutator_matches_reference_bracket():
    """The integer kernel gellmann runs is the plain YX - XY, on both of its sides.

    All 28 pairs of the Gell-Mann 2T and of the doubled oracle matrices,
    against the reference bracket, which shares no code with _flat_commutator.
    """
    sides = ([algebra.doubled_tangent(label) for label in GELLMANN_LABELS],
             gellmann._gellmann_matrices())
    nonzero = 0
    for mats in sides:
        assert len(mats) == 8
        for a, x in enumerate(mats):
            for y in mats[a + 1:]:
                got = algebra._flat_commutator(algebra._operand(x), algebra._operand(y))
                got = {key: v for key, v in got.items() if v}
                assert got == flat_matrix(commutator(nested_matrix(x), nested_matrix(y)))
                nonzero += bool(got)
    assert nonzero == 2 * 25    # on each side, 25 of the 28 pairs do not commute


def test_structure_constants_are_rational_and_sparse():
    table = structure_table()
    total = sum(len(row) for row in table.constants.values())
    assert total > 0
    assert table.scale == 6
    for row in table.constants.values():
        for v in row.values():
            assert type(v) is int and v != 0
    labels = {format_label(lab) for lab in preferred_basis()}
    assert len(labels) == 78
