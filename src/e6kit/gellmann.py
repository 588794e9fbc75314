"""The su(3) check: the A/G generators against the Gell-Mann matrices.

Only `e6kit gellmann` runs this; it brackets doubled tangents (algebra) and
reads no structure table.
"""

from __future__ import annotations

from .algebra import DIM, _flat_commutator, _operand, _span_constants, doubled_tangent
from .group import GeneratorLabel


class MismatchAt(RuntimeError):
    pass


GELLMANN_LABELS = [GeneratorLabel("A", 1, axis="k"),
                   GeneratorLabel("A", 1, axis="kl"),
                   GeneratorLabel("A", 1, axis="l"),
                   GeneratorLabel("A", 1, axis="i"),
                   GeneratorLabel("A", 1, axis="il"),
                   GeneratorLabel("A", 1, axis="jl"),
                   GeneratorLabel("A", 1, axis="j"),
                   GeneratorLabel("G", 1, axis="l")]


def _gellmann_matrices() -> list[dict]:
    """The eight matrices of the correspondence table, transposed, realified and doubled.

    A complex 3x3 matrix X + iY becomes the real 6x6 matrix [[X, -Y], [Y, X]],
    and that is transposed: _flat_commutator takes YX - XY, which on
    transposes is (XY - YX)^T, so the constants read off are those of ab - ba.
    Each is doubled and flat, {row * DIM + col: 2v}, as the tangents are
    (doubled_tangent).
    """
    table = [
        {(0, 1): -1j, (1, 0): -1j},            # -i * lambda1-like
        {(0, 1): -1, (1, 0): 1},
        {(0, 0): 1j, (1, 1): -1j},
        {(0, 2): -1j, (2, 0): -1j},
        {(0, 2): 1, (2, 0): -1},
        {(1, 2): -1j, (2, 1): -1j},
        {(1, 2): -1, (2, 1): 1},
        {(0, 0): -1j, (1, 1): -1j, (2, 2): 2j},
    ]
    def realified(entries):    # (row, col, v) of the transposed real 6x6 matrix
        for (r, c), z in entries.items():
            x, y = int(z.real), int(z.imag)
            yield from ((c, r, x), (c + 3, r, -y), (c, r + 3, y), (c + 3, r + 3, x))

    return [{row * DIM + col: 2 * v for row, col, v in realified(entries) if v}
            for entries in table]


def gellmann_check() -> dict:
    """Compare the octonionic su(3) constants against the matrix oracle.

    Both sides are spans of eight doubled integer matrices under
    _flat_commutator: the 2T of GELLMANN_LABELS and the _gellmann_matrices.
    [2a, 2b] = 4 [a, b], so each side gives 2c, twice its constants.  Returns
    {"pairs_checked": 28, "match": True}; raises MismatchAt at the first pair
    whose constants differ, and ValueError or NotClosed (_span_constants) if
    either side is dependent or does not close.
    """
    def bracket(x, y):
        return _flat_commutator(_operand(x), _operand(y))

    octonionic = _span_constants(list(map(doubled_tangent, GELLMANN_LABELS)), bracket)
    oracle = _span_constants(_gellmann_matrices(), bracket)
    for pair, coeffs in octonionic.items():
        if coeffs != oracle[pair]:
            raise MismatchAt(f"structure constants differ at pair {pair} "
                             f"(got {coeffs}, oracle {oracle[pair]})")
    return {"pairs_checked": len(octonionic), "match": True}
