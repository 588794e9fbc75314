"""Involutive automorphisms, eigenspace subalgebras, and the refinement grid."""

import hashlib
import itertools

import pytest

from e6kit import cli
from e6kit.algebra import killing_matrix, killing_restricted, signature, unit_vectors
from e6kit.subalgebra import (CELL_NAMES, NotAutomorphism, assemble,
                              compact_preimage, fixed_subalgebra,
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


# the --auto spelling of each TABLE_ROWS entry, in the same order
AUTO_TOKENS = ["t", "23", "hperp", "23,t", "hperp,t", "23,hperp", "23,hperp,t"]

# SHA-256 of the stdout of 29 subalg runs, pinned before the cells and the compact
# preimages were derived from the sign maps: every --auto token list with --part
# fixed then --part compact, then every ASSEMBLIES entry as --assemble
SUBALG_SHA256 = "b5383f299a2b764ae1b64d86c87813437dd6c99cd0093ca491f1b035233a8a83"


def test_subalg_outputs_golden_hash(capsys):
    argvs = [["subalg", "--auto", auto, "--part", part]
             for auto in AUTO_TOKENS for part in ("fixed", "compact")]
    argvs += [["subalg", "--assemble", ",".join(cells)] for cells, _, _ in ASSEMBLIES]
    assert len(argvs) == 29
    for argv in argvs:
        assert cli.run(argv) == 0, argv
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SUBALG_SHA256


BASE = ("t", "two_three", "h_perp")

CELL_SIZES = {"R1H": 16, "B1H": 6, "R23H": 8, "B23H": 8,
              "R23Hp": 8, "B23Hp": 8, "R1Hp": 20, "B1Hp": 4}


def test_base_sign_counts():
    signs = {which: make_involution(which).signs for which in BASE}
    assert signs["t"].count(-1) == 26
    assert signs["two_three"].count(1) == 46
    assert signs["h_perp"].count(1) == 38


@pytest.mark.parametrize("which", [row[0] for row in TABLE_ROWS])
def test_compact_preimage_is_the_fixed_set_of_phi_times_phi_t(which):
    phi = make_involution(which)
    twisted = make_involution(which + ["t"])
    assert compact_preimage(phi).indices == fixed_subalgebra(twisted).indices


def test_cells_are_the_joint_sign_classes():
    signs = {which: make_involution(which).signs for which in BASE}
    cells = refine_subspaces()
    triples = {name: {tuple(signs[w][i] for w in BASE) for i in ix} for name, ix in cells.items()}
    assert all(len(t) == 1 for t in triples.values())
    assert len(set.union(*triples.values())) == 8
    # each of the 8 products of the three maps is constant on every cell
    for r in range(4):
        for subset in itertools.combinations(BASE, r):
            product = make_involution(list(subset)).signs
            for name, ix in cells.items():
                assert len({product[i] for i in ix}) == 1, (subset, name)


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
    assert {name: len(ix) for name, ix in cells.items()} == CELL_SIZES
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
