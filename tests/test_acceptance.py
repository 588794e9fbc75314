"""End-to-end acceptance checks for the sl(3,O) toolkit.

Each test number below maps to one headline claim:
 1. 135 generators reduce to an exact rank-78 basis with the five
    dependency families vanishing exactly.
 2. A and G tangents are type-independent.
 3. Antisymmetry and Jacobi hold exactly for the full structure table.
 4. Killing signatures: (52,26,0) overall, (52,0,0) rotations, (36,10,0)
    on the type-1 subalgebra.
 5. The commuting sextet and rank 6.
 6. Determinant preservation for every finite transformation.
 7. The involution suite and its fixed/compact-preimage table.
 8. The eight-cell refinement grid and its fifteen assemblies.
 9. The stabilizer of the unit l.
10. The su(3) Gell-Mann correspondence.
11. The root/weight engine.
12. Finite-curve commutators against the structure table.
"""

import random
from fractions import Fraction

from e6kit import algebra, jordan, rootweight, subalgebra
from e6kit.algebra import (gellmann_check,
                           killing_matrix, killing_restricted,
                           rank_estimate, reduce_basis, signature,
                           stabilizer_of_l, structure_table, tangent,
                           unit_vectors)
from e6kit.group import action_matrix, all_labels, parse_label
from e6kit.rootweight import (cartan_matrix, diagram, embed_check,
                              inverse_cartan, middle_slice,
                              orthogonal_direction, root_system, simple_roots,
                              weights_from_highest)
from e6kit.units import IMAGINARY_UNITS
from reference import apply_matrix, calibration_constant, commutator, curve_commutator, mat_sum


def combo(parts):
    return mat_sum([(Fraction(c), tangent(parse_label(text)))
                    for c, text in parts])


def test_01_basis_reduction_and_dependency_families():
    basis, certificates = reduce_basis()
    assert len(all_labels()) == 135
    assert len(basis) == 78
    assert len(certificates) == 57
    assert combo([(1, "B:t,z"), (1, "B:t,z:2"), (1, "B:t,z:3")]) == {}
    for q in IMAGINARY_UNITS:
        assert combo([(1, f"S:{q}"), (1, f"S:{q}:2"),
                      (1, f"S:{q}:3")]) == {}
        assert combo([(1, f"R:x,{q}"), (1, f"R:x,{q}:2"),
                      (1, f"R:x,{q}:3")]) == {}
        assert combo([(1, f"R:x,{q}:2"), (Fraction(1, 2), f"R:x,{q}"),
                      (Fraction(1, 2), f"S:{q}")]) == {}
        assert combo([(1, f"S:{q}:2"), (Fraction(-3, 2), f"R:x,{q}"),
                      (Fraction(1, 2), f"S:{q}")]) == {}


def test_02_type_independence_of_a_and_g():
    for cat in ("A", "G"):
        for q in IMAGINARY_UNITS:
            t1 = tangent(parse_label(f"{cat}:{q}"))
            assert tangent(parse_label(f"{cat}:{q}:2")) == t1
            assert tangent(parse_label(f"{cat}:{q}:3")) == t1


def test_03_antisymmetry_and_jacobi_full():
    table = structure_table()
    n = len(table.basis)
    # pairwise brackets as sparse vectors, including antisymmetry
    bracket = [[None] * n for _ in range(n)]
    for i in range(n):
        bracket[i][i] = {}
        for j in range(i + 1, n):
            fwd = {k: v for k, v in table.constants.get((i, j), {}).items()
                   if v}
            via_vectors = table.bracket_vectors({i: Fraction(1)},
                                                {j: Fraction(1)})
            assert {k: v for k, v in via_vectors.items() if v} == fwd
            rev = table.bracket_vectors({j: Fraction(1)}, {i: Fraction(1)})
            assert {k: -v for k, v in rev.items() if v} == fwd
            bracket[i][j] = fwd
            bracket[j][i] = {k: -v for k, v in fwd.items()}

    def ad(i, vec):
        out = {}
        for k, v in vec.items():
            for m, c in bracket[i][k].items():
                out[m] = out.get(m, Fraction(0)) + v * c
        return out

    checked = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                total = ad(a, bracket[b][c])
                for m, v in ad(b, bracket[c][a]).items():
                    total[m] = total.get(m, Fraction(0)) + v
                for m, v in ad(c, bracket[a][b]).items():
                    total[m] = total.get(m, Fraction(0)) + v
                assert all(v == 0 for v in total.values()), (a, b, c)
                checked += 1
    assert checked == 78 * 77 * 76 // 6  # 76,076 triples


def test_04_killing_signatures():
    assert signature(killing_matrix()) == (52, 26, 0)
    phi_t = subalgebra.make_involution("t").signs
    phi_23 = subalgebra.make_involution("two_three").signs
    rotations = [i for i in range(78) if phi_t[i] == 1]
    assert signature(killing_restricted(unit_vectors(rotations))) == (52, 0, 0)
    type1 = [i for i in range(78) if phi_23[i] == 1]
    assert len(type1) == 46
    assert signature(killing_restricted(unit_vectors(type1))) == (36, 10, 0)


def test_05_casimir_sextet_and_rank():
    labels = algebra.casimir_labels()
    texts = {str(lab) for lab in labels}
    assert texts == {"B:t,z", "B:t,z:2", "R:x,ℓ", "A:ℓ", "G:ℓ", "S:ℓ"}
    for a in labels:
        for b in labels:
            assert commutator(tangent(a), tangent(b)) == {}
    assert rank_estimate(unit_vectors(list(range(78)))) == 6


def test_06_det_preservation_all_labels():
    rng = random.Random(0)
    chis = []
    for _ in range(20):
        coords = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                  for _ in range(27)]
        floats = [float(v) for v in coords]
        chis.append((floats, float(jordan.det(jordan.from_coords(floats)))))
    worst = 0.0
    for label in all_labels():
        for a in (0.3, -0.3, 0.9, -0.9):
            mat = action_matrix(label, a)
            for coords, det_before in chis:
                moved = [sum(mat[i][j] * coords[j] for j in range(27))
                         for i in range(27)]
                det_after = float(jordan.det(jordan.from_coords(moved)))
                worst = max(worst, abs(det_after - det_before))
    assert worst < 1e-9


def test_07_involution_suite():
    rows = [
        (["t"], (52, 4, (52, 0)), (78, 6, (52, 26))),
        (["two_three"], (46, 6, (36, 10)), (52, 4, (36, 16))),
        (["h_perp"], (38, 6, (24, 14)), (36, 4, (24, 12))),
        (["two_three", "t"], (52, 4, (36, 16)), (46, 6, (36, 10))),
        (["h_perp", "t"], (36, 4, (24, 12)), (38, 6, (24, 14))),
        (["two_three", "h_perp"], (38, 6, (24, 14)), (36, 4, (24, 12))),
        (["two_three", "h_perp", "t"], (36, 4, (24, 12)), (38, 6, (24, 14))),
    ]
    for which, fixed, compact in rows:
        phi = subalgebra.make_involution(which)  # raises if not bracket-compatible
        rep = subalgebra.fixed_subalgebra(phi)
        assert (rep.dim, rep.rank, rep.signature[:2]) == fixed, which
        rep = subalgebra.compact_preimage(phi)
        assert (rep.dim, rep.rank, rep.signature[:2]) == compact, which


def test_08_refinement_grid_and_assemblies():
    cells = subalgebra.refine_subspaces()
    sizes = {name: len(ix) for name, ix in cells.items()}
    assert (sizes["R1H"], sizes["B1H"]) == (16, 6)
    assert (sizes["R23H"], sizes["B23H"]) == (8, 8)
    assert (sizes["R23Hp"], sizes["B23Hp"]) == (8, 8)
    assert (sizes["R1Hp"], sizes["B1Hp"]) == (20, 4)
    assemblies = [
        (["R1H"], 16, 4, (16, 0)),
        (["R1H", "R23Hp"], 24, 4, (24, 0)),
        (["R1H", "B1H"], 22, 6, (16, 6)),
        (["R1H", "B23Hp"], 24, 4, (16, 8)),
        (["R1H", "B23H"], 24, 4, (16, 8)),
        (["R1H", "R23H"], 24, 4, (24, 0)),
        (["R1H", "B1Hp"], 20, 4, (16, 4)),
        (["R1H", "R1Hp"], 36, 4, (36, 0)),
        (["R1H", "B1H", "B23H", "R23H"], 38, 6, (24, 14)),
        (["R1H", "B1H", "R23Hp", "B23Hp"], 38, 6, (24, 14)),
        (["R1H", "B1H", "B1Hp", "R1Hp"], 46, 6, (36, 10)),
        (["R1H", "B23Hp", "R23H", "B1Hp"], 36, 4, (24, 12)),
        (["R1H", "R23Hp", "B23H", "B1Hp"], 36, 4, (24, 12)),
        (["R1H", "R23Hp", "R23H", "R1Hp"], 52, 4, (52, 0)),
        (["R1H", "B23Hp", "B23H", "R1Hp"], 52, 4, (36, 16)),
    ]
    for names, dim, rank, sig in assemblies:
        rep = subalgebra.assemble(names)  # raises if not closed
        assert (rep.dim, rep.rank, rep.signature[:2]) == (dim, rank, sig), names


def test_09_stabilizer_of_l():
    report = stabilizer_of_l()
    assert report["dim"] == 52
    assert report["documented_basis_in_kernel"]
    assert report["so81_dim"] == 36 and report["so81_closed"]
    assert report["b_dims"] == (6, 6, 4)
    assert sum(report["b_dims"]) == 16
    assert report["b_abelian"]
    assert report["b_is_ideal_under_so81"]
    assert report["b2_killing_null"]


def test_10_gellmann_exact():
    assert gellmann_check() == {"pairs_checked": 28, "match": True}


def test_11_root_weight_engine():
    b3 = diagram("B3")
    assert cartan_matrix(b3) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert inverse_cartan(b3) == [
        [Fraction(1), Fraction(1), Fraction(1, 2)],
        [Fraction(1), Fraction(2), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(3, 2)],
    ]
    wd = weights_from_highest(b3, [1, 0, 0])
    assert {w.mark for w in wd.weights} == {
        (1, 0, 0), (-1, 1, 0), (0, -1, 2), (0, 0, 0),
        (0, 1, -2), (1, -1, 0), (-1, 0, 0)}
    counts = {"A2": 6, "B2": 8, "C2": 8, "G2": 12, "A3": 12, "D3": 12,
              "B3": 18, "C3": 18, "F4": 48, "E6": 72}
    for name, count in counts.items():
        assert len(root_system(diagram(name))) == count, name
    assert 78 - 6 == counts["E6"]
    f4 = diagram("F4")
    normal = orthogonal_direction(simple_roots(f4)[1:])
    assert len(middle_slice(root_system(f4), normal)) == 18
    assert not embed_check(root_system(diagram("A3")),
                           root_system(diagram("C3")))


def test_12_curve_commutator_cross_oracle():
    assert abs(calibration_constant() - 0.5) < 1e-5
    rng = random.Random(0)
    labels = all_labels()
    chi = jordan.from_coords([rng.randint(-5, 5) / 2.0 for _ in range(27)])
    chi_coords = [Fraction(float(v)) for v in jordan.to_coords(chi)]
    scale_pairs = 0
    for _ in range(30):
        l1, l2 = rng.sample(labels, 2)
        est = curve_commutator(l1, l2, 1e-3, chi)
        exact = apply_matrix(commutator(tangent(l1), tangent(l2)), chi_coords)
        exact = [float(v) for v in exact]
        scale = max(1.0, max(abs(v) for v in exact))
        err = max(abs(a - b) for a, b in zip(est, exact))
        assert err / scale < 1e-4, (str(l1), str(l2), err)
        scale_pairs += 1
    assert scale_pairs == 30
