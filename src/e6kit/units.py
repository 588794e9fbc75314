"""The eight octonion units and their multiplication table.

Basis order is fixed everywhere as (1, i, j, k, kl, jl, il, l); "kl" denotes
the product k*l and prints as "kℓ".  Multiplication is generated by seven
oriented triples: within each triple, the product of consecutive elements is
the next element cyclically.

e6kit works on coordinates through these tables and has no octonion class:
the `Octonion` of the tests' reference computations (tests/reference.py)
multiplies by the same table.
"""

from __future__ import annotations

UNITS = ("1", "i", "j", "k", "kl", "jl", "il", "l")
UNIT_INDEX = {name: n for n, name in enumerate(UNITS)}
DISPLAY = {"kl": "kℓ", "jl": "jℓ", "il": "iℓ", "l": "ℓ"}
DISPLAY_TO_NAME = {v: k for k, v in DISPLAY.items()}

IMAGINARY_UNITS = ("i", "j", "k", "kl", "jl", "il", "l")

# Oriented quaternionic triples: consecutive product equals the next element.
TRIPLES = (
    ("i", "j", "k"),
    ("i", "l", "il"),
    ("j", "l", "jl"),
    ("k", "l", "kl"),
    ("i", "kl", "jl"),
    ("kl", "j", "il"),
    ("il", "k", "jl"),
)


def _build_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """table[a][b] = (sign, index) with e_a * e_b = sign * e_index."""
    table = [[None] * 8 for _ in range(8)]
    for a in range(8):
        table[0][a] = (1, a)
        table[a][0] = (1, a)
    for a in range(1, 8):
        table[a][a] = (-1, 0)
    for t in TRIPLES:
        idx = [UNIT_INDEX[u] for u in t]
        for s in range(3):
            a, b, c = idx[s], idx[(s + 1) % 3], idx[(s + 2) % 3]
            table[a][b] = (1, c)
            table[b][a] = (-1, c)
    for a in range(8):
        for b in range(8):
            if table[a][b] is None:
                raise AssertionError("incomplete multiplication table")
    return tuple(tuple(row) for row in table)


MULT_TABLE = _build_table()


def _build_ags_pairs() -> dict[str, tuple[tuple[str, str], ...]]:
    """{axis q: its quaternionic pairs (b, c), b c = q}: from each triple that holds q,
    rotated to (q, b, c), in TRIPLES order but with the pair holding l last unless q is l."""
    out = {}
    for q in IMAGINARY_UNITS:
        pairs = [(t * 2)[t.index(q) + 1:t.index(q) + 3] for t in TRIPLES if q in t]
        out[q] = tuple(sorted(pairs, key=lambda pair: q != "l" and "l" in pair))
    return out


_AGS_PAIRS = _build_ags_pairs()


def norm2(coeffs):
    """The sum of the squares of coeffs, left to right from the int 0.

    Not sum(): from Python 3.12 on it compensates float rounding, so float
    norms would depend on the version."""
    total = 0
    for c in coeffs:
        total = total + c * c
    return total
