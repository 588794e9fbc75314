"""Involutive automorphisms, eigenspace subalgebras, and the refinement grid."""

import pytest

from e6kit.algebra import killing_matrix, killing_restricted, signature, unit_vectors
from e6kit.subalgebra import (CELL_NAMES, NotAutomorphism, assemble,
                              basis_flags, compact_preimage, fixed_subalgebra,
                              identify, make_involution, refine_subspaces,
                              verify_involution)

# (involution tokens, fixed (dim, sig), compact preimage (dim, sig))
TABLE_ROWS = [
    (["t"], (52, (52, 0)), (78, (52, 26))),
    (["two_three"], (46, (36, 10)), (52, (36, 16))),
    (["h_perp"], (38, (24, 14)), (36, (24, 12))),
    (["two_three", "t"], (52, (36, 16)), (46, (36, 10))),
    (["h_perp", "t"], (36, (24, 12)), (38, (24, 14))),
    (["two_three", "h_perp"], (38, (24, 14)), (36, (24, 12))),
    (["two_three", "h_perp", "t"], (36, (24, 12)), (38, (24, 14))),
]

# (cells, dim, signature) for every documented assembly
ASSEMBLIES = [
    (["R1H"], 16, (16, 0)),
    (["R1H", "R23Hp"], 24, (24, 0)),
    (["R1H", "B1H"], 22, (16, 6)),
    (["R1H", "B23Hp"], 24, (16, 8)),
    (["R1H", "B23H"], 24, (16, 8)),
    (["R1H", "R23H"], 24, (24, 0)),
    (["R1H", "B1Hp"], 20, (16, 4)),
    (["R1H", "R1Hp"], 36, (36, 0)),
    (["R1H", "B1H", "B23H", "R23H"], 38, (24, 14)),
    (["R1H", "B1H", "R23Hp", "B23Hp"], 38, (24, 14)),
    (["R1H", "B1H", "B1Hp", "R1Hp"], 46, (36, 10)),
    (["R1H", "B23Hp", "R23H", "B1Hp"], 36, (24, 12)),
    (["R1H", "R23Hp", "B23H", "B1Hp"], 36, (24, 12)),
    (["R1H", "R23Hp", "R23H", "R1Hp"], 52, (52, 0)),
    (["R1H", "B23Hp", "B23H", "R1Hp"], 52, (36, 16)),
]


def test_basis_flags_counts():
    flags = basis_flags()
    assert sum(flags.is_boost) == 26
    assert sum(flags.is_type1) == 46
    assert sum(flags.is_H) == 38


@pytest.mark.parametrize("which", [["t"], ["two_three"], ["h_perp"],
                                   ["two_three", "t"],
                                   ["two_three", "h_perp", "t"]])
def test_involutions_are_automorphisms(which):
    phi = make_involution(which)
    assert all(s in (1, -1) for s in phi.signs)
    verify_involution(phi.signs)


def test_corrupted_signs_rejected():
    phi = make_involution(["t"])
    bad = list(phi.signs)
    bad[0] = -bad[0]
    with pytest.raises(NotAutomorphism):
        verify_involution(tuple(bad))


@pytest.mark.parametrize("which,fixed,compact", TABLE_ROWS)
def test_fixed_and_compact_rows(which, fixed, compact):
    phi = make_involution(which)
    rep_f = fixed_subalgebra(phi)
    assert (rep_f.dim, rep_f.signature[:2]) == fixed
    rep_c = compact_preimage(phi)
    assert (rep_c.dim, rep_c.signature[:2]) == compact


def test_refinement_grid_counts():
    cells = refine_subspaces()
    assert set(cells) == set(CELL_NAMES)
    sizes = {name: len(ix) for name, ix in cells.items()}
    assert sizes == {"R1H": 16, "B1H": 6, "R23H": 8, "B23H": 8,
                     "R1Hp": 20, "B1Hp": 4, "R23Hp": 8, "B23Hp": 8}
    # cells partition the 78-dimensional basis
    everything = sorted(i for ix in cells.values() for i in ix)
    assert everything == list(range(78))


@pytest.mark.parametrize("cells,dim,sig", ASSEMBLIES)
def test_assemblies(cells, dim, sig):
    report = assemble(cells)
    assert report.dim == dim
    assert report.signature[:2] == sig


def test_identify_known_forms():
    assert identify(78, 6, (52, 26, 0)) == ["sl(3,O)"]
    assert "su(3,O) [compact F4]" in identify(52, 4, (52, 0, 0))
    assert identify(1, None, (0, 1, 0)) == ["unknown"]


def test_full_algebra_report():
    report = assemble(list(CELL_NAMES))
    assert report.dim == 78
    assert report.signature[:2] == (52, 26)


def test_report_json_shape():
    phi = make_involution(["h_perp"])
    data = fixed_subalgebra(phi).to_json_dict()
    assert data["dim"] == 38
    assert len(data["basis"]) == 38
    assert data["signature"][:2] == [24, 14]


def test_report_killing_form_is_the_submatrix():
    """On unit vectors the restricted Killing form is a submatrix of killing_matrix()."""
    report = fixed_subalgebra(make_involution(["two_three", "h_perp"]))
    bmat = killing_matrix()
    sub = [[bmat[i][j] for j in report.indices] for i in report.indices]
    assert len(sub) == 38
    assert sub == killing_restricted(unit_vectors(report.indices))
    assert signature(sub) == report.signature == (24, 14, 0)
