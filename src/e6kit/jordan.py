"""The exceptional Jordan algebra: hermitian 3x3 octonionic matrices.

A general element is

    chi = [[ p,    conj(a), c       ],
           [ a,    m,       conj(b) ],
           [ conj(c), b,    n       ]]

with rational diagonal (p, m, n) = (t+z, t-z, n) and octonions a, b, c.  The
flat coordinate order (Coord27) is (p, m, n, a[0..7], b[0..7], c[0..7]) with
the fixed octonion basis order inside each block.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .octonion import MULT_TABLE, Octonion


class _Value:
    """Equality, hash and repr over the fields in __slots__.

    Values are immutable by convention, as Octonion's are: arithmetic never
    mutates.  They are not tuples, so `2 * chi` raises TypeError instead of
    repeating the fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class JordanElement(_Value):
    """chi = (p, m, n, a, b, c), as in the module docstring."""

    __slots__ = ("p", "m", "n", "a", "b", "c")

    def __init__(self, p, m, n, a: Octonion, b: Octonion, c: Octonion):
        self.p, self.m, self.n, self.a, self.b, self.c = p, m, n, a, b, c

    @staticmethod
    def zero() -> "JordanElement":
        z = Fraction(0)
        o = Octonion.zero()
        return JordanElement(z, z, z, o, o, o)

    @staticmethod
    def identity() -> "JordanElement":
        one = Fraction(1)
        o = Octonion.zero()
        return JordanElement(one, one, one, o, o, o)

    @staticmethod
    def diag(p, m, n) -> "JordanElement":
        o = Octonion.zero()
        return JordanElement(p, m, n, o, o, o)

    def __add__(self, other: "JordanElement") -> "JordanElement":
        return JordanElement(self.p + other.p, self.m + other.m, self.n + other.n,
                             self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        return JordanElement(self.p - other.p, self.m - other.m, self.n - other.n,
                             self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, s) -> "JordanElement":
        return JordanElement(s * self.p, s * self.m, s * self.n,
                             self.a.scale(s), self.b.scale(s), self.c.scale(s))


def to_matrix(x: JordanElement) -> list[list[Octonion]]:
    """Full 3x3 octonionic matrix (private plumbing for products)."""
    sp = Octonion.scalar
    return [
        [sp(x.p), x.a.conj(), x.c],
        [x.a, sp(x.m), x.b.conj()],
        [x.c.conj(), x.b, sp(x.n)],
    ]


def matmul(xm: list[list[Octonion]], ym: list[list[Octonion]]) -> list[list[Octonion]]:
    """3x3 octonionic matrix product; int, Fraction and float entries keep their type."""
    y_nonzero = [[not y.is_zero() for y in row] for row in ym]
    out = []
    for xrow in xm:
        terms = [(k, x) for k, x in enumerate(xrow) if not x.is_zero()]
        row = []
        for j in range(3):
            acc = Octonion.zero()
            for k, x in terms:
                if y_nonzero[k][j]:
                    acc = acc + x * ym[k][j]
            row.append(acc)
        out.append(row)
    return out


def from_matrix(mat: list[list[Octonion]]) -> JordanElement:
    """Read off a hermitian matrix; the caller guarantees hermiticity."""
    return JordanElement(
        mat[0][0].real_part(), mat[1][1].real_part(), mat[2][2].real_part(),
        mat[1][0], mat[2][1], mat[0][2])


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    xm, ym = to_matrix(x), to_matrix(y)
    xy, yx = matmul(xm, ym), matmul(ym, xm)
    half = Fraction(1, 2)
    sym = [[(xy[i][j] + yx[i][j]).scale(half) for j in range(3)] for i in range(3)]
    return from_matrix(sym)


def trace(x: JordanElement):
    return x.p + x.m + x.n


def sigma(x: JordanElement):
    """sigma(A) = ((tr A)^2 - tr(A∘A)) / 2."""
    t = trace(x)
    return (t * t - trace(jordan_product(x, x))) / 2


def _conj_product_terms() -> tuple:
    """Per unit of conj(a) conj(b), the (a, b, negate) of its 8 terms.

    They come in the order Octonion.__mul__ adds them (a ascending), and
    negate folds in the signs of both conjugations: conj negates the
    imaginary units.
    """
    terms = [[] for _ in range(8)]
    for u in range(8):
        for v in range(8):
            s, c = MULT_TABLE[u][v]
            terms[c].append((u, v, (s < 0) ^ (u > 0) ^ (v > 0)))
    return tuple(map(tuple, terms))


_CONJ_PRODUCT = _conj_product_terms()


def _conj_product_unit(a: tuple, b: tuple, terms: tuple):
    """One unit of conj(a) conj(b), summed as Octonion.__mul__ sums it."""
    w = None
    for u, v, negate in terms:
        au, bv = a[u], b[v]
        if au and bv:
            t = -(au * bv) if negate else au * bv
            w = t if w is None else w + t
    return a[0] * 0 if w is None else w


def det(x: JordanElement):
    """det chi = pmn - (p|b|^2 + m|c|^2 + n|a|^2) + 2 Re(conj(a) conj(b) conj(c)).

    With w = conj(a) conj(b), Re(w conj(c)) is the dot product of w and c.
    Each w_u that meets a nonzero c_u is summed from the sign table as
    Octonion.__mul__ sums it, and the dot product as Octonion.__mul__ would
    sum the real part of w * conj(c): left to right over the units where
    both factors are nonzero, starting from the first term, and w_0 * 0
    when there is none.  So ints and Fractions give the two-product value,
    and floats its bits up to the sign of a nan: the table negates a
    product where the two-product form negates a factor, and the two differ
    when the other factor is a nan.
    """
    a, b = x.a.coeffs, x.b.coeffs
    re = None
    for cu, terms in zip(x.c.coeffs, _CONJ_PRODUCT):
        if cu:
            wu = _conj_product_unit(a, b, terms)
            if wu:
                re = wu * cu if re is None else re + wu * cu
    if re is None:
        re = _conj_product_unit(a, b, _CONJ_PRODUCT[0]) * 0
    return (x.p * x.m * x.n
            - (x.p * x.b.norm2() + x.m * x.c.norm2() + x.n * x.a.norm2())
            + 2 * re)


def det_trace_form(x: JordanElement):
    """det via the characteristic-equation form (Jordan powers)."""
    x2 = jordan_product(x, x)
    x3 = jordan_product(x2, x)
    t1, t2, t3 = trace(x), trace(x2), trace(x3)
    return (t3 - Fraction(3, 2) * t2 * t1 + Fraction(1, 2) * t1 * t1 * t1) / 3


class Vector2(_Value):
    """Hermitian 2x2 octonionic matrix [[t+z, conj(q)], [q, t-z]]."""

    __slots__ = ("tz_plus", "tz_minus", "q")

    def __init__(self, tz_plus, tz_minus, q: Octonion):
        self.tz_plus, self.tz_minus, self.q = tz_plus, tz_minus, q

    def __add__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.tz_plus + other.tz_plus,
                       self.tz_minus + other.tz_minus, self.q + other.q)


def vector2_det(v: Vector2):
    return v.tz_plus * v.tz_minus - v.q.norm2()


def lorentz_dot(a: Vector2, b: Vector2):
    """tr(A∘B) - trA trB = -(a+ b-) - (a- b+) + 2 Re(conj(a_q) b_q)."""
    cross = (a.q.conj() * b.q).real_part()
    return -(a.tz_plus * b.tz_minus) - (a.tz_minus * b.tz_plus) + 2 * cross


class Spinor(NamedTuple):
    top: Octonion
    bottom: Octonion


def spinor_square(theta: Spinor) -> Vector2:
    """theta theta† — always a null vector (det 0)."""
    return Vector2(theta.top.norm2(), theta.bottom.norm2(),
                   theta.bottom * theta.top.conj())


def vector_block(x: JordanElement) -> Vector2:
    """Upper-left 2x2 block of chi viewed as a vector."""
    return Vector2(x.p, x.m, x.a)


def to_coords(x: JordanElement) -> list:
    return [x.p, x.m, x.n, *x.a.coeffs, *x.b.coeffs, *x.c.coeffs]


def from_coords(v) -> JordanElement:
    v = list(v)
    if len(v) != 27:
        raise ValueError("Coord27 needs 27 entries")
    return JordanElement(v[0], v[1], v[2],
                         Octonion(v[3:11]), Octonion(v[11:19]), Octonion(v[19:27]))


def basis_element(k: int) -> JordanElement:
    """The k-th coordinate unit, with integer coordinates."""
    coords = [0] * 27
    coords[k] = 1
    return from_coords(coords)
