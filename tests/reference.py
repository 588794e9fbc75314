"""The tests' reference: octonions, and Jordan elements as 3x3 matrices of them.

e6kit has no octonion class: it acts on the 27 coordinates of chi through
index tables (the stage kernel of e6kit.group, the sign table of
jordan.det).  `Octonion` is exact octonion arithmetic on the unit table of
e6kit.units, and the functions here compute the same things the textbook
way, with `Octonion` arithmetic and 3x3 matrix products, so that the tests
check the tables against a computation that shares none of them.
e6kit.group builds only the stages of the type-1 action and reaches type t
through the type-cycle gathers that rotate chi's fields; `placed` puts each
stage matrix at type t the straight way instead, the oracle of those
gathers, and `type_cycle` rotates chi's fields by hand.  The finite-curve
commutator of two group actions is the float cross-check of the bracket.
The Killing form is here too as tr(ad ad) summed over the structure
constants, the oracle of the trace form that e6kit.algebra.killing_matrix
computes, and the preferred-basis constants pair by pair, the oracle of
e6kit.structure._preferred_constants.
DictForm is the integer linear form as a plain {column: int} dict, the
oracle of the packed ints of e6kit.algebra._GENERIC, which algebra._fields
decodes.  The matrix bracket YX - XY on
{row: {col: v}} dicts, through a plain matrix product, is the oracle of
e6kit.algebra._flat_commutator; flat_matrix and nested_matrix carry a
matrix to and from e6kit's flat layout {row * 27 + col: v}.  `embed_check` is the unpruned isometry
search, trying every norm ratio as the scale and every target vertex at
every level: the oracle of e6kit.rootweight.embed_check.  `pairwise_struts`
keys the difference of every pair of points in two different slices: the
oracle of the struts of e6kit.rootweight.slice_diagram, which searches only
the slice pairs that a root can join.
"""

import functools
import itertools
import random
from fractions import Fraction
from typing import Optional

from e6kit import group, structure
from e6kit.algebra import tangent
from e6kit.group import _KINDS, GeneratorLabel, build_sequence
from e6kit.jordan import JordanElement, from_coords, to_coords
from e6kit.rootweight import (ROUND, SEARCH_BUDGET, SearchBudgetExceeded, _key, _norm2,
                              _orthonormalize, slice_diagram)
from e6kit.units import DISPLAY, MULT_TABLE, UNIT_INDEX, UNITS, norm2

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


def off_diagonal(x: JordanElement) -> tuple:
    """The off-diagonal octonions (a, b, c) of chi."""
    v = x.coords
    return Octonion(v[3:11]), Octonion(v[11:19]), Octonion(v[19:27])


def to_matrix(x: JordanElement) -> list[list[Octonion]]:
    """The full 3x3 octonionic matrix of chi."""
    p, m, n = x.coords[:3]
    a, b, c = off_diagonal(x)
    sp = Octonion.scalar
    return [
        [sp(p), a.conj(), c],
        [a, sp(m), b.conj()],
        [c.conj(), b, sp(n)],
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
    return from_coords([mat[0][0].real_part(), mat[1][1].real_part(), mat[2][2].real_part(),
                        *mat[1][0].coeffs, *mat[2][1].coeffs, *mat[0][2].coeffs])


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    xm, ym = to_matrix(x), to_matrix(y)
    xy, yx = matmul(xm, ym), matmul(ym, xm)
    half = Fraction(1, 2)
    sym = [[(xy[i][j] + yx[i][j]).scale(half) for j in range(3)] for i in range(3)]
    return from_matrix(sym)


def trace(x: JordanElement):
    p, m, n = x.coords[:3]
    return p + m + n


def sigma(x: JordanElement):
    """sigma(A) = ((tr A)^2 - tr(A∘A)) / 2."""
    t = trace(x)
    return (t * t - trace(jordan_product(x, x))) / 2


def det_trace_form(x: JordanElement):
    """det via the characteristic-equation form (Jordan powers)."""
    x2 = jordan_product(x, x)
    x3 = jordan_product(x2, x)
    t1, t2, t3 = trace(x), trace(x2), trace(x3)
    return (t3 - Fraction(3, 2) * t2 * t1 + Fraction(1, 2) * t1 * t1 * t1) / 3


def two_product_det(x: JordanElement):
    """det with 2 Re(conj(a) conj(b) conj(c)) through two full octonion products."""
    p, m, n = x.coords[:3]
    a, b, c = off_diagonal(x)
    abc = (a.conj() * b.conj()) * c.conj()
    return (p * m * n
            - (p * b.norm2() + m * c.norm2() + n * a.norm2())
            + 2 * abc.real_part())


def basis_element(k: int) -> JordanElement:
    """The k-th coordinate unit, with integer coordinates."""
    coords = [0] * 27
    coords[k] = 1
    return from_coords(coords)


def dagger(mat):
    return [[mat[j][i].conj() for j in range(3)] for i in range(3)]


def matadd(xm, ym):
    return [[x + y for x, y in zip(xr, yr)] for xr, yr in zip(xm, ym)]


def placed(mat, type_index: int):
    """A type-1 stage matrix moved to type t: entry (i, j) goes to (i + t - 1, j + t - 1) mod 3."""
    s = type_index - 1
    out = [[None] * 3 for _ in range(3)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            out[(i + s) % 3][(j + s) % 3] = x
    return out


def type_cycle(chi: JordanElement) -> JordanElement:
    """The discrete transformation chi -> T chi T†: (p,m,n,a,b,c) -> (n,p,m,c,a,b)."""
    v = chi.coords
    return from_coords([v[2], v[0], v[1], *v[19:27], *v[3:11], *v[11:19]])


def apply(label, alpha, chi: JordanElement) -> JordanElement:
    """group.apply as 3x3 products of float `Octonion` entries: X -> (M X) M† per stage."""
    alpha = float(alpha)
    mat = to_matrix(from_coords([float(v) for v in chi.coords]))
    for stage in build_sequence(label):
        m = []
        for row in stage.entries:
            mrow = []
            for terms in row:
                coeffs = [0.0] * 8
                for kind, k2, unit, coeff in terms:
                    coeffs[unit] = coeffs[unit] + coeff * _KINDS[kind][0](k2 / 2 * alpha)
                mrow.append(Octonion(coeffs))
            m.append(mrow)
        m = placed(m, label.type_index)
        mat = matmul(matmul(m, mat), dagger(m))
    return from_matrix(mat)


def _slot_matrix(slots):
    """72 stage slots as a 3x3 Octonion matrix: unit u of entry (i, j) at 8 * (3i + j) + u."""
    return [[Octonion(slots[8 * (3 * i + j):8 * (3 * i + j) + 8]) for j in range(3)]
            for i in range(3)]


def apply_dual(label, chi: JordanElement) -> tuple[JordanElement, JordanElement]:
    """group.apply_dual as the Octonion/matmul computation, by the product rule per stage."""
    x = to_matrix(chi)
    d = [[Octonion.zero()] * 3 for _ in range(3)]
    for stage in build_sequence(label):
        m, dm = (placed(_slot_matrix(slots), label.type_index) for slots in stage.at_zero())
        mh = dagger(m)
        mx = matmul(m, x)
        d = matadd(matmul(matadd(matmul(dm, x), matmul(m, d)), mh),
                   matmul(mx, dagger(dm)))
        x = matmul(mx, mh)
    return from_matrix(x), from_matrix(d)


def killing_from_table(table) -> list[list[Fraction]]:
    """B_ij = tr(ad_i ad_j) on the table's basis, summed in integers.

    ad_i maps b_a to sum_k c_{ia}^k b_k; call c_{ia}^k its entry (a -> k).
    Then B_ij = sum over entries (a -> k) of ad_i of
    (Lc)_{i, a->k} (Lc)_{j, k->a} / L^2, where Lc are the table's integer
    constants and L its scale, so the sum is taken in integers.
    """
    n = len(table.basis)
    # (a, k) -> [(i, L c_{ia}^k)]; [b_i, b_j] = c b_k puts c at (j -> k) of
    # ad_i and -c at (i -> k) of ad_j
    entries: dict = {}
    for (i, j), row in table.constants.items():
        for k, x in row.items():
            entries.setdefault((j, k), []).append((i, x))
            entries.setdefault((i, k), []).append((j, -x))
    total = [[0] * n for _ in range(n)]
    for (a, k), col in entries.items():
        back = entries.get((k, a))
        if back:
            for i, x in col:
                row = total[i]
                for j, y in back:
                    row[j] += x * y
    return [[Fraction(v, table.scale ** 2) for v in row] for row in total]


def preferred_constants(brackets: dict) -> dict:
    """The preferred-basis constants from the core ones {(c, e): {g: 2k}}, one pair at a time.

    For each preferred pair a < b, 2d c_ab^f = sum over c, e of
    P[a][c] P[b][e] (2d [core_c, core_e])^f, with [core_e, core_c] =
    -[core_c, core_e] (structure._change_of_basis, structure._to_preferred).
    """
    expand, _, d = structure._change_of_basis()
    moved = {pair: structure._to_preferred(row) for pair, row in brackets.items() if row}
    constants = {}
    for a in range(78):
        for b in range(a + 1, 78):
            acc: dict = {}
            for c, x in expand[a].items():
                for e, y in expand[b].items():
                    row, s = (moved.get((c, e)), x * y) if c < e else (moved.get((e, c)), -x * y)
                    for f, v in (row or {}).items():
                        acc[f] = acc.get(f, 0) + s * v
            row = {f: Fraction(acc[f], 2 * d) for f in sorted(acc) if acc[f]}
            if row:
                constants[(a, b)] = row
    return constants


class DictForm:
    """An integer linear form in the 27 coordinates, as {column: int}.

    It supports what apply_dual does to the generic element's coordinates:
    adding forms, scaling by an int, and negating.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "DictForm":
        return DictForm({c: -v for c, v in self.terms.items()})

    def __add__(self, other) -> "DictForm":
        if not isinstance(other, DictForm):
            if other:
                raise TypeError(f"cannot add the scalar {other!r} to a linear form")
            return self
        out = dict(self.terms)
        for c, v in other.terms.items():
            s = out.get(c, 0) + v
            if s:
                out[c] = s
            else:
                del out[c]
        return DictForm(out)

    __radd__ = __add__

    def __mul__(self, k) -> "DictForm":
        if not isinstance(k, int):
            raise TypeError(f"a linear form can only be scaled by an int, not {k!r}")
        return DictForm({c: k * v for c, v in self.terms.items()} if k else {})

    __rmul__ = __mul__


GENERIC = from_coords([DictForm({i: 1}) for i in range(27)])


def _mat_iadd(acc: dict, b: dict, scale=1) -> None:
    """acc += scale * b in place; zero entries and empty rows are dropped."""
    for r, row in b.items():
        dst = acc.setdefault(r, {})
        for c, v in row.items():
            s = dst.get(c, 0) + scale * v
            if s:
                dst[c] = s
            else:
                dst.pop(c, None)
        if not dst:
            acc.pop(r, None)


def _mat_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, arow in a.items():
        acc: dict = {}
        for j, v in arow.items():
            brow = b.get(j)
            if not brow:
                continue
            for k, w in brow.items():
                s = acc.get(k, 0) + v * w
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        if acc:
            out[i] = acc
    return out


def mat_sum(parts: list) -> dict:
    """sum of coeff * mat over [(coeff, {row: {col: v}})]; {} if it vanishes."""
    acc: dict = {}
    for coeff, mat in parts:
        _mat_iadd(acc, mat, coeff)
    return acc


def commutator(x: dict, y: dict) -> dict:
    """YX - XY of two {row: {col: v}} matrices, the group-orbit (vector-field) bracket."""
    return mat_sum([(1, _mat_mul(y, x)), (-1, _mat_mul(x, y))])


def flat_matrix(mat: dict) -> dict:
    """A {row: {col: v}} matrix in e6kit's flat layout {row * 27 + col: v}."""
    return {r * 27 + c: v for r, row in mat.items() for c, v in row.items()}


def nested_matrix(flat: dict) -> dict:
    """A flat {row * 27 + col: v} matrix as {row: {col: v}}."""
    out: dict = {}
    for key, v in flat.items():
        r, c = divmod(key, 27)
        out.setdefault(r, {})[c] = v
    return out


def apply_matrix(mat: dict, coords: list) -> list:
    """The matrix {row: {col: v}} times the 27 coordinates."""
    out = [0 * coords[0]] * 27
    for r, row in mat.items():
        acc = out[r]
        for c, v in row.items():
            acc = acc + v * coords[c]
        out[r] = acc
    return out


class StepTooLarge(RuntimeError):
    pass


def _second_difference(label1, label2, h, chi):
    def curve(alpha):
        x = group.apply(label1, alpha / 2, chi)
        x = group.apply(label2, alpha / 2, x)
        x = group.apply(label1, -alpha / 2, x)
        x = group.apply(label2, -alpha / 2, x)
        return [float(v) for v in to_coords(x)]

    f0 = [float(v) for v in to_coords(chi)]
    fp, fm = curve(h), curve(-h)
    return [(a - 2 * b + c) / (h * h) for a, c, b in zip(fp, fm, f0)]


def _bracket_on(label1: GeneratorLabel, label2: GeneratorLabel, chi) -> list[Fraction]:
    """[T1, T2] chi, exact."""
    return apply_matrix(commutator(tangent(label1), tangent(label2)),
                        [Fraction(v) for v in to_coords(chi)])


@functools.cache
def calibration_constant() -> float:
    """The curve constant fitted on (A_i, A_j) at step 1e-3, measured once per process.

    curve_commutator divides by the exact 1/2; this fit is the check that
    the second difference really is half the bracket.
    """
    l1 = GeneratorLabel("A", 1, axis="i")
    l2 = GeneratorLabel("A", 1, axis="j")
    rng = random.Random(0)
    chi = from_coords([Fraction(rng.randint(-9, 9)) for _ in range(27)])
    fd = _second_difference(l1, l2, 1e-3, chi)
    mc = [float(v) for v in _bracket_on(l1, l2, chi)]
    return sum(a * b for a, b in zip(fd, mc)) / sum(b * b for b in mc)


def curve_commutator(label1: GeneratorLabel, label2: GeneratorLabel,
                     h: float, chi: JordanElement,
                     tol: Optional[float] = None) -> list[float]:
    """Finite-difference estimate of [T1, T2] applied to chi, by group.apply.

    The second difference of the curve g2(-a/2) g1(-a/2) g2(a/2) g1(a/2)
    approaches 1/2 [T1, T2] chi, so the estimate is twice it.
    """
    est = [2 * v for v in _second_difference(label1, label2, h, chi)]
    if tol is not None:
        mc = _bracket_on(label1, label2, chi)
        err = max(abs(a - float(b)) for a, b in zip(est, mc))
        scale = max(1.0, max(abs(float(b)) for b in mc))
        if err / scale > tol:
            raise StepTooLarge(f"relative mismatch {err / scale:g} exceeds {tol:g}")
    return est


def embed_check(points1: list, points2: list) -> bool:
    """Is there a scaled isometry taking diagram 1 into diagram 2?

    The map must send every vertex of diagram 1 onto a vertex of diagram 2
    and its maximal-norm shell into the maximal-norm shell of diagram 2.
    Every norm ratio |q|^2 / |span[0]|^2 of the target is tried as the
    scale, and every target vertex at every level of the depth-first
    search; past SEARCH_BUDGET candidates it raises SearchBudgetExceeded.
    """
    if not points1:
        return True
    # a linearly independent spanning subset of points1
    basis, span = _orthonormalize(points1, 1e-6)
    k = len(span)
    max1 = max(_norm2(p) for p in points1)
    max2 = max(_norm2(p) for p in points2)
    shell1 = {_key(p) for p in points1 if abs(_norm2(p) - max1) < 1e-6}
    keys2 = {_key(p) for p in points2}
    shell2 = {_key(p) for p in points2 if abs(_norm2(p) - max2) < 1e-6}
    gram1 = [[sum(a * b for a, b in zip(u, v)) for v in span] for u in span]

    tried = 0

    def compatible(partial: list, scale2: float) -> bool:
        n = len(partial) - 1
        for t in range(len(partial)):
            want = gram1[n][t] * scale2
            got = sum(a * b for a, b in zip(partial[n], partial[t]))
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                return False
        return True

    def solve_map(images: list) -> list:
        # linear map T with T(span[i]) = images[i], solved column by column
        # through span's lower-triangular coordinates in `basis`
        coords = [[sum(a * x for a, x in zip(v, b)) for b in basis]
                  for v in span]
        timg = []
        for i in range(k):
            rhs = list(images[i])
            for j in range(i):
                rhs = [r - coords[i][j] * t for r, t in zip(rhs, timg[j])]
            timg.append(tuple(r / coords[i][i] for r in rhs))
        return timg

    def apply_map(timg: list, v: tuple) -> tuple:
        cs = [sum(a * x for a, x in zip(v, b)) for b in basis]
        out = [0.0] * len(points2[0])
        for c, t in zip(cs, timg):
            out = [o + c * x for o, x in zip(out, t)]
        return tuple(out)

    # candidate scale^2 values from matching the first spanning vector
    n1 = _norm2(span[0])
    scales = sorted({round(_norm2(q) / n1, ROUND) for q in points2})

    for scale2 in scales:
        stack = [[]]
        while stack:
            partial = stack.pop()
            if len(partial) == k:
                timg = solve_map(partial)
                images = [_key(apply_map(timg, p)) for p in points1]
                if all(q in keys2 for q in images) and all(
                        q in shell2 for p, q in zip(points1, images) if _key(p) in shell1):
                    return True
                continue
            for q in points2:
                tried += 1
                if tried > SEARCH_BUDGET:
                    raise SearchBudgetExceeded(str(SEARCH_BUDGET))
                cand = partial + [q]
                if compatible(cand, scale2):
                    stack.append(cand)
    return False


def pairwise_struts(points: list, normal: tuple, roots: list) -> list:
    """The struts of slice_diagram(points, normal, roots), every slice pair searched."""
    slices, _ = slice_diagram(points, normal)
    struts = []
    rkeys = {_key(r) for r in roots}
    for s1, s2 in itertools.combinations(slices, 2):
        for p in s1.vertices:
            for q in s2.vertices:
                if _key(tuple(a - b for a, b in zip(p, q))) in rkeys:
                    struts.append((p, q))
    return struts
