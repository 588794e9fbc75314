"""The exceptional Jordan algebra: hermitian 3x3 octonionic matrices.

A general element is

    chi = [[ p,    conj(a), c       ],
           [ a,    m,       conj(b) ],
           [ conj(c), b,    n       ]]

with rational diagonal (p, m, n) = (t+z, t-z, n) and octonions a, b, c.  A
JordanElement is its 27 coordinates in the flat order Coord27: (p, m, n,
a[0..7], b[0..7], c[0..7]), with the fixed octonion basis order inside each
block.
"""

from __future__ import annotations

from .units import MULT_TABLE, norm2

_A, _B, _C = slice(3, 11), slice(11, 19), slice(19, 27)     # a, b, c in Coord27


class JordanElement:
    """chi as its 27 coordinates: `coords`, a tuple in Coord27 order.

    A value: equal and hashed by its coordinates, and never mutated.  It is
    not a tuple, so `2 * chi` raises TypeError instead of repeating the
    coordinates.  from_coords is the validating constructor.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        self.coords = coords

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"JordanElement(coords={self.coords!r})"


def _conj_product_terms() -> tuple:
    """Per unit of conj(a) conj(b), the (a, b, negate) of its 8 terms.

    They come in the order the octonion product adds them (a ascending: the
    `Octonion.__mul__` of tests/reference.py), and negate folds in the
    signs of both conjugations: conj negates the imaginary units.
    """
    terms = [[] for _ in range(8)]
    for u in range(8):
        for v in range(8):
            s, c = MULT_TABLE[u][v]
            terms[c].append((u, v, (s < 0) ^ (u > 0) ^ (v > 0)))
    return tuple(map(tuple, terms))


_CONJ_PRODUCT = _conj_product_terms()


def _conj_product_unit(a: tuple, b: tuple, terms: tuple):
    """One unit of conj(a) conj(b), summed as the octonion product sums it."""
    w = None
    for u, v, negate in terms:
        au, bv = a[u], b[v]
        if au and bv:
            t = -(au * bv) if negate else au * bv
            w = t if w is None else w + t
    return a[0] * 0 if w is None else w


def _loop_det(v: tuple):
    """det of the coordinates v, skipping zero factors: the body of det for
    every input but finite floats with a nonzero det (see det)."""
    p, m, n, a, b, c = v[0], v[1], v[2], v[_A], v[_B], v[_C]
    re = None
    for cu, terms in zip(c, _CONJ_PRODUCT):
        if cu:
            wu = _conj_product_unit(a, b, terms)
            if wu:
                re = wu * cu if re is None else re + wu * cu
    if re is None:
        re = _conj_product_unit(a, b, _CONJ_PRODUCT[0]) * 0
    return p * m * n - (p * norm2(b) + m * norm2(c) + n * norm2(a)) + 2 * re


_straight_det = None    # det's straight-line body, compiled by the first det call on floats


def _build_straight_det():
    """Compile det's straight-line body from _CONJ_PRODUCT, and keep it.

    Each unit of conj(a) conj(b) is one expression of its 8 terms in the
    table's order and signs (a negated term is -(a_u * b_v)), the units are
    dotted with c left to right, and each norm is 0 + x0 * x0 + ... + x7 * x7,
    as norm2 sums it.
    """
    global _straight_det
    dot = " + ".join("(%s) * c%d" % ("".join("%s(a%d * b%d)" % ("+-"[neg], u, v)
                                             for u, v, neg in terms).lstrip("+"), w)
                     for w, terms in enumerate(_CONJ_PRODUCT))
    norm = "(0" + "".join(" + {0}%d * {0}%d" % (k, k) for k in range(8)) + ")"
    names = ", ".join(x + str(k) for x in "abc" for k in range(8))
    namespace = {}
    exec("def det(v):\n    p, m, n, %s = v\n    return p * m * n - (p * %s + m * %s + n * %s)"
         " + 2 * (%s)" % (names, *map(norm.format, "bca"), dot), namespace)
    _straight_det = namespace["det"]
    return _straight_det


_FLOATS = [float] * 27


def det(x: JordanElement):
    """det chi = pmn - (p|b|^2 + m|c|^2 + n|a|^2) + 2 Re(conj(a) conj(b) conj(c)).

    With w = conj(a) conj(b), Re(w conj(c)) is the dot product of w and c.
    Each w_u that meets a nonzero c_u is summed from the sign table as the
    octonion product sums it, and the dot product as that product would sum
    the real part of w * conj(c): left to right over the units where
    both factors are nonzero, starting from the first term, and w_0 * 0
    when there is none.  So ints and Fractions give the two-product value,
    and floats its bits up to the sign of a nan: the table negates a
    product where the two-product form negates a factor, and the two differ
    when the other factor is a nan.

    When every coordinate is a float, a straight-line body (built on the
    first such call) does the same operations without skipping zero
    products, and its result is returned when it is finite and nonzero.
    It then has the bits of the loop: a +-0 product added to a nonzero
    finite partial sum leaves it unchanged, a zero partial sum turns into
    the next nonzero term exactly, and a finite result rules out an inf or
    nan anywhere, so an inf * 0 too.  Otherwise the loop runs, which keeps
    the sign of a zero det and the inf and nan results.  Other coordinate
    types always run the loop: a float zero product added to an exact
    partial sum would round it to a float early.
    """
    v = x.coords
    if [*map(type, v)] == _FLOATS:
        d = (_straight_det or _build_straight_det())(v)
        if d and d - d == 0:    # nonzero and finite
            return d
    return _loop_det(v)


def to_coords(x: JordanElement) -> list:
    return list(x.coords)


def from_coords(v) -> JordanElement:
    coords = tuple(v)
    if len(coords) != 27:
        raise ValueError("Coord27 needs 27 entries")
    return JordanElement(coords)
