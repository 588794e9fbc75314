"""Involutive automorphisms of sl(3,O) and the subalgebras they expose.

Three sign-diagonal involutions act on the preferred 78-element basis:

  * phi_t       flips the 26 boosts,
  * phi_23      flips the 32 basis elements outside T1 (the type-1 span
                together with B2_tz),
  * phi_hperp   flips the 40 basis elements carrying one label from
                {i, j, jl, il}.

_base_signs holds these three +-1 vectors; the rest is read from them.  A
compact preimage is the fixed set of phi . phi_t, and the eight cells of
the refinement grid are the joint sign classes of phi_t, phi_23 and
phi_hperp.  The fixed subalgebras, compact preimages and unions of cells
reproduce the full catalogue of maximal subalgebras of sl(3,O), each
identified by (dim, rank, signature).
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .algebra import (NotClosed, _basis_index, _span_constants, killing_matrix, preferred_basis,
                      signature)
from .group import GeneratorLabel, format_label
from .linalg import kernel
from .structure import StructureTable, structure_table


class NotAutomorphism(RuntimeError):
    """A candidate sign map fails bracket compatibility."""


H_UNIT_LABELS = frozenset({"i", "j", "jl", "il"})


def _label_unit(label: GeneratorLabel) -> Optional[str]:
    """The imaginary-unit tag of a label, or None for purely real planes."""
    if label.axis is not None:
        return label.axis
    q = label.plane[1]
    return q if q not in ("x", "z") else None


class Involution(NamedTuple):
    """Diagonal +-1 map on the preferred basis, verified as an automorphism."""

    name: str
    signs: tuple


def _base_signs(which: str) -> tuple:
    """The +-1 vector of phi_t, phi_23 or phi_hperp on the preferred basis."""
    basis = preferred_basis()
    if which == "t":
        flipped = [l.category == "B" for l in basis]
    elif which == "two_three":
        # T1 is the span of the type-1 transformations together with
        # B2_tz - B3_tz; on basis elements that makes both B_tz labels T1.
        flipped = [not (l.type_index == 1 or (l.category == "B" and l.plane == ("t", "z")))
                   for l in basis]
    elif which == "h_perp":
        flipped = [_label_unit(l) in H_UNIT_LABELS for l in basis]
    else:
        raise ValueError(f"unknown involution {which!r}")
    return tuple(-1 if f else 1 for f in flipped)


def verify_involution(signs: tuple) -> None:
    """Check [phi x, phi y] = phi [x, y] on every structure-table pair."""
    table = structure_table()
    for (i, j), comps in table.constants.items():
        sij = signs[i] * signs[j]
        for k in comps:
            if signs[k] != sij:
                basis = preferred_basis()
                raise NotAutomorphism(
                    f"sign map breaks bracket at "
                    f"[{format_label(basis[i])}, {format_label(basis[j])}]"
                )


def make_involution(which) -> Involution:
    """Build (and verify) phi_t / phi_23 / phi_hperp or a composition list."""
    which = [which] if isinstance(which, str) else list(which)
    signs = (1,) * 78
    for kind in which:
        signs = tuple(a * b for a, b in zip(signs, _base_signs(kind)))
    phi = Involution("*".join(which), signs)
    verify_involution(phi.signs)
    return phi


class SubalgebraReport:
    """A subalgebra spanned by basis elements, with its identification."""

    __slots__ = ("indices", "dim", "signature", "rank", "names", "notes")

    def __init__(self, indices: list, dim: int, signature: tuple, rank: int,
                 names: list, notes: str):
        self.indices, self.dim, self.signature = indices, dim, signature
        self.rank, self.names, self.notes = rank, names, notes

    def to_json_dict(self) -> dict:
        basis = preferred_basis()
        return {
            "basis": [format_label(basis[i]) for i in self.indices],
            "dim": self.dim,
            "signature": list(self.signature),
            "rank": self.rank,
            "names": self.names,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Casimirs and rank

def casimir_labels() -> list[GeneratorLabel]:
    return [GeneratorLabel("B", 1, plane=("t", "z")),
            GeneratorLabel("B", 2, plane=("t", "z")),
            GeneratorLabel("R", 1, plane=("x", "l")),
            GeneratorLabel("A", 1, axis="l"),
            GeneratorLabel("G", 1, axis="l"),
            GeneratorLabel("S", 1, axis="l")]


def unit_vectors(indices: list[int]) -> list[dict]:
    return [{i: 1} for i in indices]


def rank_estimate(subspace: list[dict]) -> int:
    """The rank of the subalgebra spanned by `subspace`, certified exactly.

    The subspace is given as sparse coefficient vectors over the preferred
    basis and must close under the bracket (NotClosed otherwise).  The
    bracket is that of the integer table L c (structure_table): it is
    L times the true one, which changes none of the kernels below.  For
    distinct unit vectors it is the table renumbered; any other list goes
    through _span_constants, which also raises ValueError if the vectors
    are dependent.  For a sparse element x of it the centralizer
    c = ker(ad x) is computed exactly; if c is abelian and is its own
    normalizer, it is a Cartan subalgebra and the rank is dim c.  x is
    first a fixed combination of the subspace vectors that are
    Casimir-sextet basis elements, then seeded combinations of four subspace
    vectors.  If no x certifies, the smallest centralizer found is returned:
    an upper bound on min dim ker(ad x), which is the rank when the
    subalgebra is reductive.
    """
    table = structure_table()
    d = len(subspace)
    # the bracket in coordinates over the subspace vectors
    sub = StructureTable(list(range(d)), table.scale, {})
    position = {k: n for n, v in enumerate(subspace) if list(v.values()) == [1] for k in v}
    if len(position) == d:
        # distinct unit vectors: the sub-table is the table renumbered
        for (i, j), row in table.constants.items():
            a, b = position.get(i), position.get(j)
            if a is None or b is None:
                continue
            for k in row:
                if k not in position:
                    raise NotClosed(f"[{format_label(table.basis[i])}, "
                                    f"{format_label(table.basis[j])}] leaves the span "
                                    f"(hits {format_label(table.basis[k])})")
            if a < b:
                sub.constants[(a, b)] = {position[k]: v for k, v in row.items()}
            else:
                sub.constants[(b, a)] = {position[k]: -v for k, v in row.items()}
    else:
        sub.constants = _span_constants(subspace, table.bracket_vectors)
    sextet = {_basis_index()[label]: w for w, label in enumerate(casimir_labels(), 1)}
    first = {n: sextet[k] for n, v in enumerate(subspace)
             if len(v) == 1 for k in v if k in sextet}
    rng = random.Random(0)
    draws = [first] * bool(first) + [
        {n: rng.choice((-3, -2, -1, 1, 2, 3)) for n in rng.sample(range(d), min(d, 4))}
        for _ in range(8)]
    best = d
    for x in draws:
        c = kernel(sub.bracket_vectors(x, {b: 1}) for b in range(d))
        best = min(best, len(c))
        if any(sub.bracket_vectors(u, v) for n, u in enumerate(c) for v in c[n + 1:]):
            continue
        # N(c) is the y-part of the kernel of (y, z) -> [y, c_j] - sum_m z_jm c_m
        # over all j; y fixes the z-part, so that kernel has dim N(c)
        cols = [{(j, k): v for j, u in enumerate(c)
                 for k, v in sub.bracket_vectors({b: 1}, u).items()} for b in range(d)]
        cols += [{(j, k): -v for k, v in u.items()} for j in range(len(c)) for u in c]
        if len(kernel(cols)) == len(c):
            return len(c)
    return best


def _report(indices: list, notes: str) -> SubalgebraReport:
    # on unit vectors the restricted Killing form is a submatrix
    bmat = killing_matrix()
    sig = signature([[bmat[i][j] for j in indices] for i in indices])
    dim = len(indices)
    rank = rank_estimate(unit_vectors(indices))
    names = identify(dim, rank, (sig[0], sig[1]))
    return SubalgebraReport(list(indices), dim, sig, rank, names, notes)


def fixed_subalgebra(phi: Involution) -> SubalgebraReport:
    """The +1 eigenspace of a verified involution."""
    indices = [i for i, s in enumerate(phi.signs) if s == 1]
    return _report(indices, notes=f"fixed set of {phi.name}")


def compact_preimage(phi: Involution) -> SubalgebraReport:
    """Preimage of the maximal compact subalgebra of phi(sl(3,O)).

    Under the twisted Killing form the compact directions are the fixed
    rotations together with the flipped boosts: the fixed set of phi . phi_t.
    """
    indices = [i for i, (s, t) in enumerate(zip(phi.signs, _base_signs("t"))) if s == t]
    return _report(indices, notes=f"compact preimage of {phi.name}")


# ---------------------------------------------------------------------------
# eight-cell refinement of phi_23 . phi_hperp

CELL_NAMES = ("R1H", "B1H", "R23H", "B23H", "R1Hp", "B1Hp", "R23Hp", "B23Hp")


def refine_subspaces() -> dict:
    """The eight cells: the joint sign classes of phi_t, phi_23 and phi_hperp.

    A cell is named by boost/rotation (phi_t), T1/T23 (phi_23) and
    H/Hperp (phi_hperp), each +1 side first.
    """
    cells = {name: [] for name in CELL_NAMES}
    signs = zip(*(_base_signs(which) for which in ("t", "two_three", "h_perp")))
    for i, (t, two_three, h_perp) in enumerate(signs):
        cells["RB"[t < 0] + ("1", "23")[two_three < 0] + ("H", "Hp")[h_perp < 0]].append(i)
    return cells


def assemble(cell_names: list) -> SubalgebraReport:
    """Union of refinement cells, checked for closure and identified.

    The cells are disjoint, so a repeated name adds nothing and is dropped.
    """
    cells = refine_subspaces()
    cell_names = list(dict.fromkeys(cell_names))
    indices = []
    for name in cell_names:
        if name not in cells:
            raise ValueError(f"unknown cell {name!r}")
        indices.extend(cells[name])
    indices.sort()
    return _report(indices, notes="+".join(cell_names))


# ---------------------------------------------------------------------------
# identification table

def _su_dim(n: int, f: int) -> int:
    """dim su(n,F) for |F| = f, with the octonionic triality correction."""
    so_im = (f - 1) * (f - 2) // 2  # dim so(im F) = so(f-1)
    d = (f - 1) * (n - 1) + f * n * (n - 1) // 2 + so_im
    if f == 8 and n == 3:
        d -= 7  # triality: so(7) acts with a 7-dim overlap
    return d


def _sl_dim(n: int, f: int) -> int:
    return _su_dim(n, f) + (n - 1) + f * n * (n - 1) // 2


# Entries: (dim, rank or None, (compact, boosts)) -> name.  Generated from
# the counting formulas plus the named rows of the involution tables.
_IDENTIFY_TABLE = [
    (78, 6, (52, 26), "sl(3,O)"),
    (52, 4, (52, 0), "su(3,O) [compact F4]"),
    (52, 4, (36, 16), "su(2,1,O)"),
    (46, None, (36, 10), "sl(2,O)+u(1) [so(9,1)+u(1)]"),
    (45, 5, (36, 9), "sl(2,O) [so(9,1)]"),
    (38, None, (24, 14), "sl(3,H)+su(2,C)^C"),
    (38, None, (24, 14), "sl(2,1,H)+su(2,C)_2"),
    (36, 4, (24, 12), "su(3,1,H)"),
    (36, 4, (36, 0), "so(9) [su(2,O)]"),
    (36, 4, (28, 8), "so(8,1)"),
    (28, None, (28, 0), "so(8)"),
    (24, None, (24, 0), "su(3,H)+su(2,C)^C"),
    (24, None, (16, 8), "su(2,1,H)+su(2,C)^C"),
    (22, None, (16, 6), "sl(2,H)+su(2,C)^C+su(2)+u(1)"),
    (21, 3, (21, 0), "su(3,H) [sp(3)]"),
    (20, None, (16, 4), "so(5)+so(4,1)"),
    (16, None, (16, 0), "su(2,H)+su(2,C)^C+su(2)"),
    (14, 2, (14, 0), "G2 [compact]"),
    (8, 2, (8, 0), "su(3,C) [compact]"),
    (3, 1, (3, 0), "su(2)"),
]

# sanity hooks for the counting formulas used to generate the table
assert _su_dim(3, 8) == 52 and _sl_dim(3, 8) == 78
assert _su_dim(2, 8) == 36  # su(2,O) = so(9)
assert _sl_dim(2, 8) == 45  # sl(2,O) = so(9,1)
assert _su_dim(3, 4) == 21 and _sl_dim(3, 4) == 35  # su(3,H), sl(3,H)


def identify(dim: int, rank: Optional[int], sig: tuple) -> list:
    """Candidate names for (dim, rank, signature); never guesses."""
    hits = []
    for d, r, s, name in _IDENTIFY_TABLE:
        if d != dim or s != tuple(sig)[:2]:
            continue
        if rank is not None and r is not None and r != rank:
            continue
        hits.append(name)
    return hits or ["unknown"]
