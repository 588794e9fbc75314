"""Involutive automorphisms of sl(3,O) and the subalgebras they expose.

Three sign-diagonal involutions act on the preferred 78-element basis:

  * phi_t       flips the 26 boosts,
  * phi_23      flips the 32 basis elements outside T1 (the type-1 span
                together with B2_tz),
  * phi_hperp   flips the 40 basis elements carrying one label from
                {i, j, jl, il}.

Their fixed subalgebras, compact preimages, and the eight-cell refinement
grid of the composition phi_23 . phi_hperp reproduce the full catalogue of
maximal subalgebras of sl(3,O), each identified by (dim, rank, signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .group import GeneratorLabel, format_label
from .algebra import (
    NotClosed,  # raised by _report through rank_estimate
    preferred_basis,
    structure_table,
    killing_matrix,
    signature,
    unit_vectors,
    rank_estimate,
)


class NotAutomorphism(RuntimeError):
    """A candidate sign map fails bracket compatibility."""


H_UNIT_LABELS = frozenset({"i", "j", "jl", "il"})


def _label_unit(label: GeneratorLabel) -> Optional[str]:
    """The imaginary-unit tag of a label, or None for purely real planes."""
    if label.axis is not None:
        return label.axis
    q = label.plane[1]
    return q if q not in ("x", "z") else None


@dataclass(frozen=True)
class BasisFlags:
    """Per-basis-element membership in the three orthogonal splittings."""

    is_boost: tuple
    is_type1: tuple
    is_H: tuple


_FLAGS: Optional[BasisFlags] = None


def basis_flags() -> BasisFlags:
    global _FLAGS
    if _FLAGS is None:
        basis = preferred_basis()
        is_boost = tuple(l.category == "B" for l in basis)
        # T1 is the span of the type-1 transformations together with
        # B2_tz - B3_tz; on basis elements that makes both B_tz labels T1.
        is_type1 = tuple(
            l.type_index == 1 or (l.category == "B" and l.plane == ("t", "z"))
            for l in basis
        )
        is_H = tuple(_label_unit(l) not in H_UNIT_LABELS for l in basis)
        _FLAGS = BasisFlags(is_boost, is_type1, is_H)
    return _FLAGS


@dataclass(frozen=True)
class Involution:
    """Diagonal +-1 map on the preferred basis, verified as an automorphism."""

    name: str
    signs: tuple


def _base_signs(which: str) -> tuple:
    flags = basis_flags()
    if which == "t":
        keep = flags.is_boost
        return tuple(-1 if b else 1 for b in keep)
    if which == "two_three":
        return tuple(1 if t1 else -1 for t1 in flags.is_type1)
    if which == "h_perp":
        return tuple(1 if h else -1 for h in flags.is_H)
    raise ValueError(f"unknown involution {which!r}")


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
    if isinstance(which, str):
        which = [which]
    signs = tuple([1] * 78)
    names = []
    for kind in which:
        part = _base_signs(kind)
        signs = tuple(a * b for a, b in zip(signs, part))
        names.append(kind)
    phi = Involution("*".join(names), signs)
    verify_involution(phi.signs)
    return phi


@dataclass
class SubalgebraReport:
    indices: list
    dim: int
    signature: tuple
    rank: int
    names: list
    notes: str = ""

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
    rotations together with the flipped boosts.
    """
    flags = basis_flags()
    indices = [
        i
        for i, s in enumerate(phi.signs)
        if (s == 1 and not flags.is_boost[i]) or (s == -1 and flags.is_boost[i])
    ]
    return _report(indices, notes=f"compact preimage of {phi.name}")


# ---------------------------------------------------------------------------
# eight-cell refinement of phi_23 . phi_hperp

CELL_NAMES = ("R1H", "B1H", "R23H", "B23H", "R1Hp", "B1Hp", "R23Hp", "B23Hp")


def refine_subspaces() -> dict:
    """The eight cells cut out by boost/rotation, T1/T23, and H/Hperp."""
    flags = basis_flags()
    cells = {name: [] for name in CELL_NAMES}
    for i in range(78):
        name = "".join(
            [
                "B" if flags.is_boost[i] else "R",
                "1" if flags.is_type1[i] else "23",
                "H" if flags.is_H[i] else "Hp",
            ]
        )
        cells[name].append(i)
    return cells


def assemble(cell_names: list) -> SubalgebraReport:
    """Union of refinement cells, checked for closure and identified."""
    cells = refine_subspaces()
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
