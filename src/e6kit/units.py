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

# Quaternionic subalgebra pairs for each axis; the product of each ordered
# pair equals the axis, and only the third pair involves l.
_AGS_PAIRS = {
    "i": (("j", "k"), ("kl", "jl"), ("l", "il")),
    "j": (("k", "i"), ("il", "kl"), ("l", "jl")),
    "k": (("i", "j"), ("jl", "il"), ("l", "kl")),
    "kl": (("jl", "i"), ("j", "il"), ("k", "l")),
    "jl": (("i", "kl"), ("il", "k"), ("j", "l")),
    "il": (("kl", "j"), ("k", "jl"), ("i", "l")),
    "l": (("il", "i"), ("jl", "j"), ("kl", "k")),
}


def norm2(coeffs):
    """The sum of the squares of coeffs, left to right from the int 0.

    Not sum(): from Python 3.12 on it compensates float rounding, so float
    norms would depend on the version."""
    total = 0
    for c in coeffs:
        total = total + c * c
    return total
