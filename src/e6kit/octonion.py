"""Exact octonion arithmetic: the value class `Octonion`.

The units, their multiplication table and the quaternionic pairs live in
`units` and are re-exported here; code that needs only those imports `units`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

# the unit tables, re-exported beside the class that multiplies by them
from .units import (DISPLAY, DISPLAY_TO_NAME, IMAGINARY_UNITS, MULT_TABLE, TRIPLES,
                    UNIT_INDEX, UNITS, _AGS_PAIRS, norm2)

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


_ZERO = Octonion(_ZERO8)  # values are immutable, so one zero serves everywhere


def associator(a: Octonion, b: Octonion, c: Octonion) -> Octonion:
    return (a * b) * c - a * (b * c)


class QuaternionTriple(NamedTuple):
    axis: str
    pairs: tuple[tuple[str, str], tuple[str, str], tuple[str, str]]


def quaternionic_triples() -> list[QuaternionTriple]:
    return [QuaternionTriple(axis, _AGS_PAIRS[axis]) for axis in IMAGINARY_UNITS]
