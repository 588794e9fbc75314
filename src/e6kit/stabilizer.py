"""Stab(l): the elements of sl(3,O) that fix the octonionic unit l.

Only `e6kit stab-l` runs this; it reads the preferred doubled tangents
(algebra) and the structure table (structure).
"""

from __future__ import annotations

from .algebra import DIM, _basis_index, _preferred_doubled, _weighted_sum, killing_restricted
from .group import GeneratorLabel
from .linalg import kernel, span_of
from .structure import structure_table
from .units import IMAGINARY_UNITS, UNIT_INDEX

A_L_COORD = 3 + UNIT_INDEX["l"]  # index of the a_l coordinate in Coord27


def _combo(parts: list[tuple[int, GeneratorLabel]]) -> dict:
    """Integer coefficients (on the preferred basis) of a sum of distinct basis labels."""
    return {_basis_index()[lab]: s for s, lab in parts}


def stab_l_documented_basis() -> dict:
    """Named pieces of Stab(l): so(8,1) plus the abelian ideal b2+b3+bl."""
    B, R, A, G, S = "B", "R", "A", "G", "S"
    su3c = [_combo([(1, GeneratorLabel(A, 1, axis=q))]) for q in IMAGINARY_UNITS]
    su3c.append(_combo([(1, GeneratorLabel(G, 1, axis="l"))]))
    so6_extra = [_combo([(1, GeneratorLabel(G, 1, axis=q)),
                         (2, GeneratorLabel(S, 1, axis=q))])
                 for q in IMAGINARY_UNITS if q != "l"]
    so6_extra.append(_combo([(1, GeneratorLabel(S, 1, axis="l"))]))
    so21 = [_combo([(1, GeneratorLabel(R, 1, plane=("x", "z")))]),
            _combo([(1, GeneratorLabel(B, 1, plane=("t", "x")))]),
            _combo([(1, GeneratorLabel(B, 1, plane=("t", "z")))])]
    so81_extra = []
    for q in IMAGINARY_UNITS:
        if q == "l":
            continue
        so81_extra += [_combo([(1, GeneratorLabel(B, 1, plane=("t", q)))]),
                       _combo([(1, GeneratorLabel(R, 1, plane=("x", q)))]),
                       _combo([(1, GeneratorLabel(R, 1, plane=("z", q)))])]
    # In this realization the type-2/3 part of the kernel is spanned by
    # B2_tq - R2_zq and B3_tq + R3_zq (all seven q) together with
    # B2_tx + R2_xz and B3_tx - R3_xz; the q = l pair joins the x pair in
    # the su(3)-invariant four-dimensional piece b_l.
    b2 = [_combo([(1, GeneratorLabel(B, 2, plane=("t", q))),
                  (-1, GeneratorLabel(R, 2, plane=("z", q)))])
          for q in IMAGINARY_UNITS if q != "l"]
    b3 = [_combo([(1, GeneratorLabel(B, 3, plane=("t", q))),
                  (1, GeneratorLabel(R, 3, plane=("z", q)))])
          for q in IMAGINARY_UNITS if q != "l"]
    bl = [_combo([(1, GeneratorLabel(B, 2, plane=("t", "x"))),
                  (1, GeneratorLabel(R, 2, plane=("x", "z")))]),
          _combo([(1, GeneratorLabel(B, 3, plane=("t", "x"))),
                  (-1, GeneratorLabel(R, 3, plane=("x", "z")))]),
          _combo([(1, GeneratorLabel(B, 2, plane=("t", "l"))),
                  (-1, GeneratorLabel(R, 2, plane=("z", "l")))]),
          _combo([(1, GeneratorLabel(B, 3, plane=("t", "l"))),
                  (1, GeneratorLabel(R, 3, plane=("z", "l")))])]
    return {"su3c": su3c, "so6_extra": so6_extra,
            "so81": su3c + so6_extra + so21 + so81_extra,
            "b2": b2, "b3": b3, "bl": bl}


def stabilizer_of_l() -> dict:
    """Report on Stab(l): the elements whose tangent kills the a_l coordinate.

    The defining condition is linear: row a_l of the 27x27 tangent matrix
    vanishes, and the kernel is taken on that row of the preferred 2T, the
    list killing_matrix reads too (_preferred_doubled).  Returns the kernel
    basis plus the verified decomposition facts; the brackets are those of
    the integer table L c (structure_table), which no span or zero test can
    tell from c.
    """
    # the kernel of x -> sum_i x_i * (row a_l of 2T_i), the map the documented vectors must zero
    rows = [{key % DIM: v for key, v in mat.items() if key // DIM == A_L_COORD}
            for mat in _preferred_doubled()]
    stab = kernel(rows)
    table = structure_table()
    named = stab_l_documented_basis()
    so81, b_all = named["so81"], named["b2"] + named["b3"] + named["bl"]

    def pairs(xs):    # [u, v] for each pair of the vectors
        return (table.bracket_vectors(u, v) for n, u in enumerate(xs) for v in xs[n + 1:])

    so81_span = span_of(so81)
    b2_gram = killing_restricted(named["b2"])
    return {
        "dim": len(stab),
        "kernel": stab,
        "documented_basis_in_kernel": not any(
            _weighted_sum((c, rows[i]) for i, c in x.items()) for x in so81 + b_all),
        "so81_dim": so81_span.rank,    # 36 unless the documented vectors are dependent
        "so81_closed": all(map(so81_span.contains, pairs(so81))),
        "b_dims": (len(named["b2"]), len(named["b3"]), len(named["bl"])),
        "b_abelian": not any(pairs(b_all)),
        "b_is_ideal_under_so81": all(map(span_of(b_all).contains, (
            table.bracket_vectors(u, v) for u in so81 for v in b_all))),
        "b2_killing_null": all(b2_gram[n][n] == 0 for n in range(len(b2_gram))),
    }
