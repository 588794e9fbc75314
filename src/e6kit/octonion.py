"""Exact octonion arithmetic.

Basis order is fixed everywhere as (1, i, j, k, kl, jl, il, l); "kl" denotes
the product k*l and prints as "kℓ".  Multiplication is generated by seven
oriented triples: within each triple, the product of consecutive elements is
the next element cyclically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

UNITS = ("1", "i", "j", "k", "kl", "jl", "il", "l")
UNIT_INDEX = {name: n for n, name in enumerate(UNITS)}
DISPLAY = {"kl": "kℓ", "jl": "jℓ", "il": "iℓ", "l": "ℓ"}
DISPLAY_TO_NAME = {v: k for k, v in DISPLAY.items()}

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

# Padding zeros are the int 0: it adds to int, Fraction and float
# coefficients without changing their type, and 0 + x has the same float bits
# as Fraction(0) + x (-0.0 included).
_ZERO8 = (0,) * 8


class Octonion:
    """Octonion with coefficients in any commutative ring.

    Values are immutable; arithmetic never mutates.  Coefficients may be
    int, Fraction, float, or any scalar supporting +, -, * and truthiness.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != 8:
            raise ValueError("octonion needs 8 coefficients")

    @staticmethod
    def zero() -> "Octonion":
        return _ZERO

    @staticmethod
    def unit(name: str, scale=Fraction(1)) -> "Octonion":
        c = list(_ZERO8)
        c[UNIT_INDEX[name]] = scale
        return Octonion(c)

    @staticmethod
    def scalar(value) -> "Octonion":
        return Octonion((value,) + _ZERO8[1:])

    @staticmethod
    def from_rationals(values) -> "Octonion":
        return Octonion(tuple(Fraction(v) for v in values))

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Octonion":
        return Octonion(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return self.scale(other)
        # A real factor (e_0 * e_b = +e_b): each product coefficient is the
        # one term ca * cb the loop below would make, with the same zeros.
        sa, sb = self.coeffs, other.coeffs
        if sa[0] and not any(sa[1:]):
            ca, zero = sa[0], sa[0] * 0
            return Octonion(tuple(ca * cb if cb else zero for cb in sb))
        if sb[0] and not any(sb[1:]):
            cb, zero = sb[0], sa[0] * 0
            return Octonion(tuple(ca * cb if ca else zero for ca in sa))
        out = [None] * 8
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                if not cb:
                    continue
                sign, idx = MULT_TABLE[a][b]
                term = ca * cb
                if sign < 0:
                    term = -term
                out[idx] = term if out[idx] is None else out[idx] + term
        zero = self.coeffs[0] * 0
        return Octonion(tuple(zero if v is None else v for v in out))

    def __rmul__(self, other) -> "Octonion":
        return self.scale(other)

    def scale(self, s) -> "Octonion":
        return Octonion(tuple(s * c for c in self.coeffs))

    def conj(self) -> "Octonion":
        c = self.coeffs
        return Octonion((c[0],) + tuple(-x for x in c[1:]))

    def re(self) -> "Octonion":
        return Octonion((self.coeffs[0],) + (self.coeffs[0] * 0,) * 7)

    def im(self) -> "Octonion":
        return Octonion((self.coeffs[0] * 0,) + self.coeffs[1:])

    def real_part(self):
        return self.coeffs[0]

    def norm2(self):
        return norm2(self.coeffs)

    def inverse(self) -> "Octonion":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("inverse of zero octonion")
        return Octonion(tuple(c / n for c in self.conj().coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Octonion) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for name, c in zip(UNITS, self.coeffs):
            if c:
                label = "" if name == "1" else DISPLAY.get(name, name)
                terms.append(f"{c}{('*' + label) if label else ''}")
        return "Octonion(" + (" + ".join(terms) if terms else "0") + ")"


def norm2(coeffs):
    """The sum of the squares of coeffs, left to right from the int 0.

    Not sum(): from Python 3.12 on it compensates float rounding, so float
    norms would depend on the version."""
    total = 0
    for c in coeffs:
        total = total + c * c
    return total


_ZERO = Octonion(_ZERO8)  # values are immutable, so one zero serves everywhere


def associator(a: Octonion, b: Octonion, c: Octonion) -> Octonion:
    return (a * b) * c - a * (b * c)


class QuaternionTriple(NamedTuple):
    axis: str
    pairs: tuple[tuple[str, str], tuple[str, str], tuple[str, str]]


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

IMAGINARY_UNITS = ("i", "j", "k", "kl", "jl", "il", "l")


def quaternionic_triples() -> list[QuaternionTriple]:
    return [QuaternionTriple(axis, _AGS_PAIRS[axis]) for axis in IMAGINARY_UNITS]
