"""The Lie algebra sl(3,O) as exact 27x27 tangent matrices.

Every generator is a product of cores (group.cores), each the identity at
alpha = 0, so a type-1 tangent is the angle-weighted sum of its cores'
tangents.  The 45 type-1 cores (24 B/R generators, 21 transverse rotations
shared by the A/G/S generators) fall into 7 orbits under the 21 sign-free
octonion automorphisms.  One core per orbit is differentiated at alpha = 0
in exact integers, by one group.apply_dual call on a generic element whose
27 coordinates are the integer linear forms x_0 .. x_26; the other 38 are
conjugates of those, each move checked on the stage matrices.  The 90
type-2/3 tangents are the type-1 ones conjugated by the type-cycle
permutation.  Every tangent entry lies in 1/2 Z.  The structure table is
built on the core basis (the preferred basis with the 21 transverse cores
in place of A/G/S), on which all 1344 automorphisms that permute the
imaginary units up to sign act as signed permutations: one basis pair per
orbit is computed (166 of 3003) through an integer dual basis and verified
in integers, and the rest are derived from it exactly.  Seven exact 3x3
changes of basis carry the constants to the preferred basis, where they
lie in 1/6 Z, and the Killing form is summed in integers.  Everything
downstream (Casimirs, Gell-Mann comparison, Stab(l)) is computed from the
table over the rationals.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import zlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from . import jordan
from .group import (GeneratorLabel, _is_transverse, all_labels, apply, apply_dual,
                    build_sequence, cores, format_label, type_cycle)
from .jordan import from_coords, to_coords
from .linalg import SpanBasis, kernel, signature_symmetric, span_of
from .octonion import IMAGINARY_UNITS, MULT_TABLE, UNIT_INDEX, UNITS, _AGS_PAIRS

CACHE_ENV = "E6KIT_CACHE"
_CACHE_VERSION = "e6kit-structure-4"

DIM = 27


class RankMismatch(RuntimeError):
    pass


class NotInSpan(RuntimeError):
    pass


class NotClosed(RuntimeError):
    pass


class MismatchAt(RuntimeError):
    def __init__(self, i, j, detail=""):
        super().__init__(f"structure constants differ at pair ({i}, {j}) {detail}")
        self.pair = (i, j)


class StepTooLarge(RuntimeError):
    pass


@dataclass
class AlgebraElement:
    """Sparse exact 27x27 matrix acting on Coord27: mat[row][col] = Fraction."""
    mat: dict
    provenance: Optional[GeneratorLabel] = None

    def flat(self) -> dict:
        return {r * DIM + c: v for r, row in self.mat.items() for c, v in row.items()}

    def is_zero(self) -> bool:
        return not any(row for row in self.mat.values())

    def apply_coords(self, coords: list) -> list:
        out = [0 * coords[0]] * DIM
        for r, row in self.mat.items():
            acc = out[r]
            for c, v in row.items():
                acc = acc + v * coords[c]
            out[r] = acc
        return out


def _mat_add(a: dict, b: dict, scale=1) -> dict:
    out = {r: dict(row) for r, row in a.items()}
    _mat_iadd(out, b, scale)
    return out


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


def element_sum(parts: list[tuple[Fraction, AlgebraElement]]) -> AlgebraElement:
    acc: dict = {}
    for coeff, el in parts:
        _mat_iadd(acc, el.mat, coeff)
    return AlgebraElement(acc)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    # The bracket uses the group-orbit (vector-field) convention, which is
    # the negative of the raw operator commutator on tangent matrices.  This
    # is the convention under which the published structure constants (the
    # Gell-Mann correspondence in particular) hold.
    return AlgebraElement(_mat_add(_mat_mul(y.mat, x.mat), _mat_mul(x.mat, y.mat), -1))


# ---------------------------------------------------------------------------
# tangent extraction

class _Form:
    """An integer linear form in the 27 coordinates, as {column: int}.

    The coordinates of _GENERIC are the forms {i: 1}, so one apply_dual call
    on it returns the whole doubled tangent: coordinate i of the doubled
    derivative is row i of 2T.  apply_dual only adds coordinates and scales
    them by integer stage entries; a form times a form, or a form plus a
    nonzero scalar, would not be linear and raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Form) and self.terms == other.terms

    def __neg__(self) -> "_Form":
        return _Form({c: -v for c, v in self.terms.items()})

    def __add__(self, other) -> "_Form":
        if not isinstance(other, _Form):
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
        return _Form(out)

    __radd__ = __add__

    def __mul__(self, k) -> "_Form":
        if not isinstance(k, int):
            raise TypeError(f"a linear form can only be scaled by an int, not {k!r}")
        return _Form({c: k * v for c, v in self.terms.items()} if k else {})

    __rmul__ = __mul__


_GENERIC = from_coords([_Form({i: 1}) for i in range(DIM)])

_TANGENTS: dict[GeneratorLabel, AlgebraElement] = {}

# group.type_cycle as a coordinate permutation P: coordinate i moves to _CYCLED[i].
_CYCLED = {i: n for n, i in enumerate(to_coords(type_cycle(from_coords(range(DIM)))))}


def tangent(label: GeneratorLabel) -> AlgebraElement:
    """Exact d/dalpha at 0 of the label's action, as a 27x27 matrix.

    Type-1 tangents are sums of core tangents (_core_tangent); the type-2
    and type-3 tangents are P T P^-1 of the type before, where P is the
    type cycle.
    """
    el = _TANGENTS.get(label)
    if el is not None:
        return el
    if label.type_index == 1:
        mat = _evaluated_tangent(label)
    else:
        below = tangent(replace(label, type_index=label.type_index - 1)).mat
        mat = {}
        for r, row in below.items():
            for c, v in row.items():
                mat.setdefault(_CYCLED[r], {})[_CYCLED[c]] = v
    el = AlgebraElement(mat, provenance=label)
    _TANGENTS[label] = el
    return el


def _evaluated_tangent(label: GeneratorLabel) -> dict:
    """sum over the label's cores of angle * T(core), by the product rule.

    Every core is the identity at alpha = 0, so the derivative of their
    product is the sum of their derivatives.
    """
    twice: dict = {}
    for core, angle in cores(label):
        for key, v in _core_tangent(core).items():
            twice[key] = twice.get(key, 0) + angle * v
    # insert column by column: the dicts iterate as if each basis column were applied
    mat: dict = {}
    for col, row in sorted(twice):
        v = twice[col, row]
        if v:
            mat.setdefault(row, {})[col] = Fraction(v, 2)
    return mat


# Octonion automorphisms that permute the imaginary units up to sign, as
# {unit: image} with the units not named fixed.  _SEVEN and _THREE are
# sign-free and generate the 21 sign-free automorphisms, which carry every
# core's stages to its image core's; _SEVEN and _FLIP generate all 1344
# (Baez, "The Octonions", arXiv math/0105155), which act on the core basis
# as signed permutations.
_SEVEN = {"i": "j", "j": "l", "l": "il", "il": "kl", "kl": "k", "k": "jl", "jl": "i"}
_THREE = {"i": "j", "j": "k", "k": "i", "kl": "il", "il": "jl", "jl": "kl"}
_FLIP = {"j": "-j", "k": "-k", "kl": "l", "l": "kl", "jl": "il", "il": "jl"}
_TANGENT_MOVES = (_SEVEN, _THREE)
_TABLE_MOVES = (_SEVEN, _FLIP)

_CORE_TANGENTS: dict[GeneratorLabel, dict] = {}


def _core_tangent(core: GeneratorLabel) -> dict:
    """2T of a type-1 core as {(col, row): int}, derived with the rest of its orbit.

    The 45 cores fall into 7 orbits under _TANGENT_MOVES.  The orbit's first
    core (_orbit_rep) is differentiated by one group.apply_dual call on the
    generic element; every other core is reached from it by moves, each
    checked on the stages (_check_stages), and its tangent is the conjugate
    sign * Q T Q^-1, where Q applies the move to the a, b and c blocks.
    """
    twice = _CORE_TANGENTS.get(core)
    if twice is not None:
        return twice
    rep = _orbit_rep(core)
    if rep not in _CORE_TANGENTS:
        value, d = apply_dual(rep, _GENERIC)
        if value != _GENERIC:
            raise AssertionError(f"action of {rep} at alpha=0 is not the identity")
        _CORE_TANGENTS[rep] = {(col, row): v for row, form in enumerate(to_coords(d))
                               if form for col, v in form.terms.items()}
    moves = [_unit_map(images) for images in _TANGENT_MOVES]
    todo, seen = [rep], {rep}
    while todo:
        src = todo.pop()
        for move in moves:
            dst, sign = _core_image(src, move)
            if dst in seen:
                continue
            _check_stages(src, dst, move, sign)
            q, s = _coordinate_map(move)
            _CORE_TANGENTS[dst] = {(q[col], q[row]): sign * s[col] * s[row] * v
                                   for (col, row), v in _CORE_TANGENTS[src].items()}
            seen.add(dst)
            todo.append(dst)
    if core not in seen:
        raise AssertionError(f"the moves do not carry {rep} to {core}")
    return _CORE_TANGENTS[core]


def _orbit_rep(core: GeneratorLabel) -> GeneratorLabel:
    """The first core of the core's orbit: its unit, or its plane, made that of i."""
    if _is_transverse(core):
        return replace(core, plane=_AGS_PAIRS["i"][0])
    if core.plane[1] in IMAGINARY_UNITS:
        return replace(core, plane=(core.plane[0], "i"))
    return core


def _core_image(core: GeneratorLabel, move: tuple) -> tuple[GeneratorLabel, int]:
    """(image core, sign) of a type-1 core under a unit map (perm, sign).

    A plane's imaginary units move with their signs.  A transverse plane is
    ordered as in _AGS_PAIRS, p q = +axis; a move that reverses that order
    (only a signed one can) fails _check_stages, since R(q, p) at -alpha is
    another two-stage factorization of R(p, q) at alpha.
    """
    perm, sign = move
    plane, s = [], 1
    for u in core.plane:
        if u in IMAGINARY_UNITS:
            s *= sign[UNIT_INDEX[u]]
            u = UNITS[perm[UNIT_INDEX[u]]]
        plane.append(u)
    if _is_transverse(core) and MULT_TABLE[UNIT_INDEX[plane[0]]][UNIT_INDEX[plane[1]]][0] < 0:
        plane.reverse()
    return replace(core, plane=tuple(plane)), s


def _check_stages(core: GeneratorLabel, image: GeneratorLabel, move: tuple, s: int) -> None:
    """AssertionError unless the move carries the core's stages to the image's.

    The move, applied entrywise to (M(0), 2 M'(0)) of every stage of the
    core, must give those of the image, up to one sign per stage (M and -M
    act alike) and the sign s on 2 M'(0).  Then T(image) = s * Q T(core) Q^-1.
    """
    perm, sign = move
    src, dst = _stage_coeffs(core), _stage_coeffs(image)
    ok = len(src) == len(dst)
    for x, y in zip(src, dst):
        moved = [0] * len(x)
        for n, v in enumerate(x):
            if v:
                moved[n - n % 8 + perm[n % 8]] = sign[n % 8] * v
        half = len(y) // 2
        ok = ok and any(moved[:half] == [t * v for v in y[:half]]
                        and moved[half:] == [t * s * v for v in y[half:]] for t in (1, -1))
    if not ok:
        raise AssertionError(f"the unit map {move} does not carry the stages "
                             f"of {format_label(core)} to those of {format_label(image)}")


@functools.cache
def _stage_coeffs(core: GeneratorLabel) -> list[list[int]]:
    """Per stage, the slots of M(0) then of 2 M'(0) (ParamMatrix.at_zero)."""
    return [value + twice for value, twice in (stage.at_zero() for stage in build_sequence(core))]


def _unit_map(images: dict) -> tuple[list, list]:
    """(perm, sign) over the 8 octonion units, e_u -> sign[u] e_perm[u].

    AssertionError unless the map is an automorphism of MULT_TABLE.
    """
    perm, sign = list(range(8)), [1] * 8
    for unit, image in images.items():
        u = UNIT_INDEX[unit]
        perm[u] = UNIT_INDEX[image.lstrip("-")]
        sign[u] = -1 if image.startswith("-") else 1
    for a in range(8):
        for b in range(8):
            s, c = MULT_TABLE[a][b]
            t, d = MULT_TABLE[perm[a]][perm[b]]
            if d != perm[c] or sign[a] * sign[b] * t != s * sign[c]:
                raise AssertionError(f"the unit map {images} is not an octonion automorphism")
    return perm, sign


def _coordinate_map(move: tuple) -> tuple[list, list]:
    """(q, s): the unit map on Coord27, coordinate i -> s[i] coordinate q[i].

    It acts on the a, b and c blocks and fixes p, m and n.
    """
    perm, sign = move
    q, s = [0, 1, 2], [1, 1, 1]
    for start in (3, 11, 19):
        q += [start + perm[u] for u in range(8)]
        s += sign
    return q, s


def preferred_basis() -> list[GeneratorLabel]:
    """The 78 basis labels (type-1-favoring reduction of the 135)."""
    out = [GeneratorLabel("B", 1, plane=("t", "z")),
           GeneratorLabel("B", 2, plane=("t", "z"))]
    out += [GeneratorLabel("B", t, plane=("t", "x")) for t in (1, 2, 3)]
    for q in IMAGINARY_UNITS:
        out += [GeneratorLabel("B", t, plane=("t", q)) for t in (1, 2, 3)]
    out += [GeneratorLabel("R", t, plane=("x", "z")) for t in (1, 2, 3)]
    out += [GeneratorLabel("R", 1, plane=("x", q)) for q in IMAGINARY_UNITS]
    for q in IMAGINARY_UNITS:
        out += [GeneratorLabel("R", t, plane=("z", q)) for t in (1, 2, 3)]
    for cat in ("A", "G", "S"):
        out += [GeneratorLabel(cat, 1, axis=q) for q in IMAGINARY_UNITS]
    return out


@functools.cache
def _basis_index() -> dict[GeneratorLabel, int]:
    return {label: n for n, label in enumerate(preferred_basis())}


@functools.cache
def _core_basis() -> list[GeneratorLabel]:
    """The preferred basis with A/G/S:q replaced by the 21 transverse cores.

    The 57 B and R labels keep their preferred indices; then come the cores
    of each axis q in turn, in the planes _AGS_PAIRS[q].
    """
    out = [label for label in preferred_basis() if label.category in ("B", "R")]
    out += [core for q in IMAGINARY_UNITS for core, _ in cores(GeneratorLabel("S", 1, axis=q))]
    return out


@functools.cache
def _change_of_basis() -> tuple[list[dict], list[dict], int]:
    """(P, W, d), ints: b_a = sum_c P[a][c] core_c and d core_c = sum_f W[c][f] b_f.

    A B or R label is its own core.  For each axis q, A/G/S:q are the
    _AGS_ANGLES combinations of q's three cores (group.cores), a 3x3 block
    M of determinant d = 6; W holds the adjugate of each block.
    """
    core_index = {core: n for n, core in enumerate(_core_basis())}
    expand = [{core_index[core]: angle for core, angle in cores(label)}
              for label in preferred_basis()]
    back: list[dict] = [{} for _ in expand]
    dets = set()
    for q in IMAGINARY_UNITS:
        rows = [_basis_index()[GeneratorLabel(cat, 1, axis=q)] for cat in ("A", "G", "S")]
        cols = [core_index[core] for core, _ in cores(GeneratorLabel("S", 1, axis=q))]
        m = [[expand[a].get(c, 0) for c in cols] for a in rows]
        adj = [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)] for i in range(3)]
        dets.add(sum(m[0][k] * adj[k][0] for k in range(3)))
        for i, c in enumerate(cols):
            back[c] = {a: adj[i][j] for j, a in enumerate(rows) if adj[i][j]}
    (d,) = dets    # the seven blocks are alike
    for c, row in enumerate(back):
        if not row:    # a B or R label, the same index on both bases
            row[c] = d
    return expand, back, d


def _scaled_preferred(coeffs: dict) -> dict:
    """d times the preferred coordinates of a vector given on the core basis."""
    back = _change_of_basis()[1]
    out: dict = {}
    for c, x in coeffs.items():
        for f, w in back[c].items():
            out[f] = out.get(f, 0) + x * w
    return {f: out[f] for f in sorted(out) if out[f]}


@functools.cache
def _basis_span() -> SpanBasis:
    """The reduced span of the 78 core-basis tangents, tagged by core-basis index.

    Built once per process; reduce_basis and structure_table read it.
    """
    doubled = (AlgebraElement(_doubled_core(core)).flat() for core in _core_basis())
    sb = span_of({key: Fraction(v, 2) for key, v in flat.items()} for flat in doubled)
    if sb.rank != 78:
        raise RankMismatch(f"the core-basis tangents span only {sb.rank} dimensions")
    return sb


def _doubled_core(core: GeneratorLabel) -> dict:
    """2T of a core-basis label as {row: {col: int}}: its type-1 core's, type-cycled."""
    mat: dict = {}
    for (col, row), v in _core_tangent(replace(core, type_index=1)).items():
        for _ in range(core.type_index - 1):
            col, row = _CYCLED[col], _CYCLED[row]
        mat.setdefault(row, {})[col] = v
    return mat


def reduce_basis() -> tuple[list[GeneratorLabel], dict]:
    """(preferred basis, certificates expressing every dropped tangent in it).

    Raises RankMismatch unless the 135 tangents span exactly the preferred 78.
    """
    basis = preferred_basis()
    sb = _basis_span()
    d = _change_of_basis()[2]
    certificates = {}
    for label in all_labels():
        if label in _basis_index():
            continue
        coeffs = sb.express(tangent(label).flat())
        if coeffs is None:
            raise RankMismatch(f"tangent of {label} escapes the preferred span")
        certificates[label] = {basis[f]: v / d for f, v in _scaled_preferred(coeffs).items()}
    return basis, certificates


# ---------------------------------------------------------------------------
# structure table

@dataclass
class StructureTable:
    basis: list[GeneratorLabel]
    constants: dict = field(default_factory=dict)  # (i,j) i<j -> {k: Fraction}

    def bracket(self, i: int, j: int) -> dict:
        """Sparse coefficients of [b_i, b_j]."""
        if i == j:
            return {}
        if i < j:
            return self.constants.get((i, j), {})
        return {k: -v for k, v in self.constants.get((j, i), {}).items()}

    def bracket_vectors(self, u: dict, v: dict) -> dict:
        """[u, v] for sparse coefficient vectors over the basis."""
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.bracket(i, j).items():
                    s = out.get(k, 0) + a * b * c
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out


_TABLE: Optional[StructureTable] = None


def structure_table() -> StructureTable:
    """The bracket of every basis pair, exact: one pair per symmetry orbit is computed.

    The table is built on the core basis, on which the 1344 automorphisms
    generated by _TABLE_MOVES act as signed permutations, and then carried
    to the preferred basis (_preferred_constants).  Tangent entries lie in
    1/2 Z, so the doubled tangents 2T are integer matrices and commutators
    of them are 4 [T_i, T_j].  The coefficients are read off the pivot
    coordinates of the reduced span of the core basis through the integer
    dual rows D = L * combos, where L is the lcm of the combos'
    denominators: c_k = sum over pivots of entry * D[row][k] / 4L.  Each
    computed bracket is checked by the integer residual
    [2T_i, 2T_j] - sum 2c_k 2T_k, which must vanish; NotInSpan if a 2c_k is
    not an integer or it does not.  The pairs are walked in (i, j) order,
    and a computed pair's whole orbit is derived from it, so only 166 of
    the 3003 pairs are computed.  With E6KIT_CACHE set, the constants are
    read from that file if it is intact, and written to it otherwise.
    """
    global _TABLE
    if _TABLE is not None:
        return _TABLE
    path = os.environ.get(CACHE_ENV)
    if path:
        try:
            _TABLE = StructureTable(preferred_basis(), _read_cache(path))
            return _TABLE
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
            pass    # a stale, damaged or incomplete file is ignored as a whole
    basis = _core_basis()
    # w in the span is sum over reduced rows n of w[pivot n] * row n, and
    # combos[n] is row n on the core basis.
    span = _basis_span()
    row_of = span.pivot_row
    scale = math.lcm(*(x.denominator for combo in span.combos for x in combo.values()))
    dual = [{k: x.numerator * (scale // x.denominator) for k, x in combo.items()}
            for combo in span.combos]
    doubled = [AlgebraElement(_doubled_core(core)) for core in basis]
    flat = [el.flat() for el in doubled]
    moves = _basis_symmetries(flat)
    brackets: dict = {}  # (i, j) -> {k: 2c}, zero brackets included
    for i in range(78):
        for j in range(i + 1, 78):
            if (i, j) in brackets:
                continue
            comm = commutator(doubled[i], doubled[j]).mat
            acc: dict = {}
            residual = {}
            for r, row in comm.items():
                for c, v in row.items():
                    key = r * DIM + c
                    residual[key] = v
                    n = row_of.get(key)
                    if n is not None:
                        for k, x in dual[n].items():
                            acc[k] = acc.get(k, 0) + v * x
            coeffs = {}
            for k in sorted(acc):
                if not acc[k]:
                    continue
                two, rem = divmod(acc[k], 2 * scale)    # 2 c_k
                if rem:
                    raise NotInSpan(f"[{basis[i]}, {basis[j]}] has a constant outside 1/2 Z")
                for key, w in flat[k].items():
                    residual[key] = residual.get(key, 0) - two * w
                coeffs[k] = two
            if any(residual.values()):
                raise NotInSpan(f"[{basis[i]}, {basis[j]}] escapes the basis span")
            brackets[(i, j)] = coeffs
            _derive_orbit(brackets, (i, j), moves)
    _TABLE = StructureTable(preferred_basis(), _preferred_constants(brackets))
    if path:
        _store_cache(path, _TABLE.constants)
    return _TABLE


def _preferred_constants(brackets: dict) -> dict:
    """The preferred-basis constants from the core ones, given as {(c, e): {g: 2k}}.

    [b_a, b_b] = sum P[a][c] P[b][e] [core_c, core_e], and each core_g is
    sum_f W[g][f] b_f / d (_change_of_basis), so 2d c_ab^f is a sum of ints;
    each nonzero one is divided once.  Keys and rows come out sorted.
    """
    expand, _, d = _change_of_basis()
    moved = {pair: _scaled_preferred(row) for pair, row in brackets.items() if row}
    constants, fractions = {}, {}
    for a in range(78):
        for b in range(a + 1, 78):
            acc: dict = {}
            for c, x in expand[a].items():
                for e, y in expand[b].items():
                    row, s = (moved.get((c, e)), x * y) if c < e else (moved.get((e, c)), -x * y)
                    for f, v in (row or {}).items():
                        acc[f] = acc.get(f, 0) + s * v
            row = {}
            for f in sorted(acc):
                v = acc[f]
                if v:    # equal constants share one Fraction
                    row[f] = fractions.get(v) or fractions.setdefault(v, Fraction(v, 2 * d))
            if row:
                constants[(a, b)] = row
    return constants


def _basis_symmetries(flat: list[dict]) -> list[tuple[list, list]]:
    """Each of _TABLE_MOVES as a signed permutation (perm, sign) of the core basis.

    Q T_k Q^-1 = sign[k] T_perm[k] is checked on the doubled tangents (given
    flat) for every k, so a bracket derived through Q is exact:
    [T_perm[i], T_perm[j]] = sign[i] sign[j] sum_k c_ij^k sign[k] T_perm[k].
    NotInSpan if some Q T_k Q^-1 is not plus or minus a basis tangent.
    """
    index = {}
    for k, f in enumerate(flat):
        index[frozenset(f.items())] = (k, 1)
        index[frozenset((key, -v) for key, v in f.items())] = (k, -1)
    out = []
    for images in _TABLE_MOVES:
        q, s = _coordinate_map(_unit_map(images))
        perm, sign = [], []
        for k, f in enumerate(flat):
            image = frozenset((q[key // DIM] * DIM + q[key % DIM], s[key // DIM] * s[key % DIM] * v)
                              for key, v in f.items())
            hit = index.get(image)
            if hit is None:
                raise NotInSpan(f"the unit map {images} carries the tangent of "
                                f"{format_label(_core_basis()[k])} outside the basis")
            perm.append(hit[0])
            sign.append(hit[1])
        out.append((perm, sign))
    return out


def _derive_orbit(brackets: dict, pair: tuple, moves: list) -> None:
    """Add to brackets every pair the moves reach from `pair`, each derived once."""
    stack = [pair]
    while stack:
        i, j = stack.pop()
        row = brackets[(i, j)]
        for perm, sign in moves:
            a, b, s = perm[i], perm[j], sign[i] * sign[j]
            if a > b:
                a, b, s = b, a, -s
            if (a, b) not in brackets:
                brackets[(a, b)] = dict(sorted((perm[k], v if s * sign[k] > 0 else -v)
                                               for k, v in row.items()))
                stack.append((a, b))


# ---------------------------------------------------------------------------
# disk cache: the structure constants only; tangents are always derived

def _read_cache(path: str) -> dict:
    """The constants from the file; ValueError unless intact and in range."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    body = {"constants": data["constants"]}
    if data["version"] != _CACHE_VERSION or data["crc32"] != _checksum(body):
        raise ValueError("stale or damaged cache")
    constants: dict = {}
    for i, j, k, v in body["constants"]:
        if not (0 <= i < j < 78 and 0 <= k < 78):
            raise ValueError(f"constant ({i}, {j}, {k}) out of range")
        constants.setdefault((i, j), {})[k] = Fraction(v)
    return constants


def _checksum(body: dict) -> int:
    # CRC-32 catches damaged files; zlib is loaded at start-up anyway, while
    # hashlib would load OpenSSL and add about 3.7 MB to every process.
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _store_cache(path: str, constants: dict) -> None:
    """Write the cache through a temporary file, so readers never see half of it."""
    body = {"constants": [[i, j, k, str(v)] for (i, j), row in sorted(constants.items())
                          for k, v in sorted(row.items())]}
    data = {"version": _CACHE_VERSION, "crc32": _checksum(body), **body}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# Killing form, signature

_KILLING: Optional[list[list[Fraction]]] = None


def killing_matrix() -> list[list[Fraction]]:
    """B_ij = tr(ad_i ad_j) on the preferred basis, summed in integers.

    ad_i maps b_a to sum_k c_{ia}^k b_k; call c_{ia}^k its entry (a -> k).
    Then B_ij = sum over entries (a -> k) of ad_i of
    (L'c)_{i, a->k} (L'c)_{j, k->a} / L'^2, where L' is the lcm of the
    constants' denominators, so the sum is taken in integers.
    """
    global _KILLING
    if _KILLING is not None:
        return _KILLING
    table = structure_table()
    n = len(table.basis)
    scale = math.lcm(*(v.denominator for row in table.constants.values() for v in row.values()))
    # (a, k) -> [(i, L' c_{ia}^k)]; [b_i, b_j] = c b_k puts c at (j -> k) of
    # ad_i and -c at (i -> k) of ad_j
    entries: dict = {}
    for (i, j), row in table.constants.items():
        for k, v in row.items():
            x = v.numerator * (scale // v.denominator)
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
    _KILLING = [[Fraction(v, scale * scale) for v in row] for row in total]
    return _KILLING


def signature(bilinear: list[list[Fraction]]) -> tuple[int, int, int]:
    """(d_minus, d_plus, d_zero); compact directions have B(x,x) < 0."""
    return signature_symmetric(bilinear)


def killing_restricted(vectors: list[dict]) -> list[list[Fraction]]:
    """Killing form restricted to a span of sparse 78-coefficient vectors."""
    bmat = killing_matrix()
    n = len(vectors)
    out = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            total = Fraction(0)
            for i, x in vectors[a].items():
                for j, y in vectors[b].items():
                    total += x * y * bmat[i][j]
            out[a][b] = out[b][a] = total
    return out


# ---------------------------------------------------------------------------
# Casimirs and rank

def casimir_labels() -> list[GeneratorLabel]:
    return [GeneratorLabel("B", 1, plane=("t", "z")),
            GeneratorLabel("B", 2, plane=("t", "z")),
            GeneratorLabel("R", 1, plane=("x", "l")),
            GeneratorLabel("A", 1, axis="l"),
            GeneratorLabel("G", 1, axis="l"),
            GeneratorLabel("S", 1, axis="l")]


def unit_vectors(indices: list[int]) -> list[dict]:
    return [{i: Fraction(1)} for i in indices]


def rank_estimate(subspace: list[dict]) -> int:
    """The rank of the subalgebra spanned by `subspace`, certified exactly.

    The subspace is given as sparse coefficient vectors over the preferred
    basis and must close under the bracket (NotClosed otherwise); for unit
    vectors the bracket is read off the table's constants.  For a
    sparse element x of it the centralizer c = ker(ad x) is computed
    exactly; if c is abelian and is its own normalizer, it is a Cartan
    subalgebra and the rank is dim c.  x is first a fixed combination of the
    subspace vectors that are Casimir-sextet basis elements, then seeded
    combinations of four subspace vectors.  If no x certifies, the smallest
    centralizer found is returned: an upper bound on min dim ker(ad x),
    which is the rank when the subalgebra is reductive.
    """
    table = structure_table()
    d = len(subspace)
    # the bracket in coordinates over the subspace vectors
    sub = StructureTable(list(range(d)))
    position = {k: n for n, v in enumerate(subspace) if list(v.values()) == [1] for k in v}
    if len(position) == d:
        # distinct unit vectors: the sub-table is the table renumbered
        for (i, j), row in table.constants.items():
            a, b = position.get(i), position.get(j)
            if a is None or b is None:
                continue
            for k in row:
                if k not in position:
                    raise NotClosed(f"[{format_label(table.basis[i])}, "
                                    f"{format_label(table.basis[j])}] leaves the span "
                                    f"(hits {format_label(table.basis[k])})")
            if a < b:
                sub.constants[(a, b)] = {position[k]: v for k, v in row.items()}
            else:
                sub.constants[(b, a)] = {position[k]: -v for k, v in row.items()}
    else:
        sb = span_of(subspace)
        if sb.rank != d:
            raise ValueError("subspace vectors are dependent")
        for a in range(d):
            for b in range(a + 1, d):
                coeffs = sb.express(table.bracket_vectors(subspace[a], subspace[b]))
                if coeffs is None:
                    raise NotClosed(f"[v_{a}, v_{b}] escapes the subspace")
                sub.constants[(a, b)] = coeffs
    sextet = {_basis_index()[label]: w for w, label in enumerate(casimir_labels(), 1)}
    first = {n: sextet[k] for n, v in enumerate(subspace)
             if len(v) == 1 for k in v if k in sextet}
    rng = random.Random(0)
    draws = [first] * bool(first) + [
        {n: rng.choice((-3, -2, -1, 1, 2, 3)) for n in rng.sample(range(d), min(d, 4))}
        for _ in range(8)]
    best = d
    for x in draws:
        c = kernel(sub.bracket_vectors(x, {b: 1}) for b in range(d))
        best = min(best, len(c))
        if any(sub.bracket_vectors(u, v) for n, u in enumerate(c) for v in c[n + 1:]):
            continue
        # N(c) is the y-part of the kernel of (y, z) -> [y, c_j] - sum_m z_jm c_m
        # over all j; y fixes the z-part, so that kernel has dim N(c)
        cols = [{(j, k): v for j, u in enumerate(c)
                 for k, v in sub.bracket_vectors({b: 1}, u).items()} for b in range(d)]
        cols += [{(j, k): -v for k, v in u.items()} for j in range(len(c)) for u in c]
        if len(kernel(cols)) == len(c):
            return len(c)
    return best


# ---------------------------------------------------------------------------
# Gell-Mann comparison

GELLMANN_LABELS = [GeneratorLabel("A", 1, axis="k"),
                   GeneratorLabel("A", 1, axis="kl"),
                   GeneratorLabel("A", 1, axis="l"),
                   GeneratorLabel("A", 1, axis="i"),
                   GeneratorLabel("A", 1, axis="il"),
                   GeneratorLabel("A", 1, axis="jl"),
                   GeneratorLabel("A", 1, axis="j"),
                   GeneratorLabel("G", 1, axis="l")]


def _gellmann_matrices() -> list[list[list[tuple[Fraction, Fraction]]]]:
    """The eight matrices of the correspondence table, entries (re, im)."""
    def c(re=0, im=0):
        return (Fraction(re), Fraction(im))

    z = c()
    return [
        [[z, c(0, -1), z], [c(0, -1), z, z], [z, z, z]],            # -i * lambda1-like
        [[z, c(-1), z], [c(1), z, z], [z, z, z]],
        [[c(0, 1), z, z], [z, c(0, -1), z], [z, z, z]],
        [[z, z, c(0, -1)], [z, z, z], [c(0, -1), z, z]],
        [[z, z, c(1)], [z, z, z], [c(-1), z, z]],
        [[z, z, z], [z, z, c(0, -1)], [z, c(0, -1), z]],
        [[z, z, z], [z, z, c(-1)], [z, c(1), z]],
        [[c(0, -1), z, z], [z, c(0, -1), z], [z, z, c(0, 2)]],
    ]


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _commutator3(a, b):
    out = [[(Fraction(0), Fraction(0))] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            re = im = Fraction(0)
            for k in range(3):
                p = _cmul(a[i][k], b[k][j])
                q = _cmul(b[i][k], a[k][j])
                re += p[0] - q[0]
                im += p[1] - q[1]
            out[i][j] = (re, im)
    return out


def _flat3(m) -> dict:
    """A complex 3x3 matrix as a sparse real 18-vector (re, im interleaved)."""
    return {n: v for n, v in enumerate(x for row in m for entry in row for x in entry) if v}


def _oracle_constants() -> dict:
    """Structure constants of the matrix side: (a,b) a<b -> {c: Fraction}."""
    mats = _gellmann_matrices()
    span = span_of(_flat3(m) for m in mats)
    if span.rank != 8:
        raise MismatchAt(-1, -1, "(oracle matrices are dependent)")
    out = {}
    for a in range(8):
        for b in range(a + 1, 8):
            x = span.express(_flat3(_commutator3(mats[a], mats[b])))
            if x is None:
                raise MismatchAt(a, b, "(oracle commutator escapes the span)")
            out[(a, b)] = x
    return out


def gellmann_check() -> dict:
    """Compare the octonionic su(3) constants against the matrix oracle.

    Returns {"pairs_checked": 28, "match": True} or raises MismatchAt.
    """
    tangents = [tangent(label) for label in GELLMANN_LABELS]
    sb = span_of(el.flat() for el in tangents)
    if sb.rank != 8:
        raise MismatchAt(-1, -1, "(octonionic su(3) span is degenerate)")
    oracle = _oracle_constants()
    for a in range(8):
        for b in range(a + 1, 8):
            comm = commutator(tangents[a], tangents[b]).flat()
            coeffs = sb.express(comm)
            if coeffs is None:
                raise MismatchAt(a, b, "(octonionic commutator escapes the span)")
            if coeffs != oracle[(a, b)]:
                raise MismatchAt(a, b, f"(got {coeffs}, oracle {oracle[(a, b)]})")
    return {"pairs_checked": 28, "match": True}


# ---------------------------------------------------------------------------
# Stab(l)

A_L_COORD = 3 + UNIT_INDEX["l"]  # index of the a_l coordinate in Coord27


def _combo(parts: list[tuple[int, GeneratorLabel]]) -> dict:
    """Coefficients (on the preferred basis) of a sum of preferred-basis labels."""
    out: dict = {}
    for s, lab in parts:
        idx = _basis_index()[lab]
        out[idx] = out.get(idx, Fraction(0)) + Fraction(s)
    return {k: v for k, v in out.items() if v}


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
    vanishes.  Returns the kernel basis plus the verified decomposition facts.
    """
    # the kernel of x -> sum_i x_i * (row a_l of T_i)
    stab = kernel(tangent(label).mat.get(A_L_COORD, {}) for label in preferred_basis())
    table = structure_table()
    named = stab_l_documented_basis()
    b_all = named["b2"] + named["b3"] + named["bl"]
    stab_span = span_of(stab)
    doc_ok = all(stab_span.contains(v) for v in named["so81"] + b_all)
    b_abelian = all(not table.bracket_vectors(u, v)
                    for i, u in enumerate(b_all) for v in b_all[i + 1:])
    b_span = span_of(b_all)
    ideal_ok = all(b_span.contains(table.bracket_vectors(u, v))
                   for u in named["so81"] for v in b_all)
    b2_gram = killing_restricted(named["b2"])
    null_b2 = all(b2_gram[n][n] == 0 for n in range(len(b2_gram)))
    so81_span = span_of(named["so81"])
    so81_closed = all(so81_span.contains(table.bracket_vectors(u, v))
                      for i, u in enumerate(named["so81"])
                      for v in named["so81"][i + 1:])
    return {
        "dim": len(stab),
        "kernel": stab,
        "documented_basis_in_kernel": doc_ok,
        "so81_dim": len(named["so81"]),
        "so81_closed": so81_closed,
        "b_dims": (len(named["b2"]), len(named["b3"]), len(named["bl"])),
        "b_abelian": b_abelian,
        "b_is_ideal_under_so81": ideal_ok,
        "b2_killing_null": null_b2,
    }


# ---------------------------------------------------------------------------
# curve commutator cross-check

_CALIBRATION: Optional[float] = None


def _calibration_chi() -> jordan.JordanElement:
    rng = random.Random(0)
    return from_coords([Fraction(rng.randint(-9, 9)) for _ in range(DIM)])


def _second_difference(label1, label2, h, chi):
    def curve(alpha):
        x = apply(label1, alpha / 2, chi)
        x = apply(label2, alpha / 2, x)
        x = apply(label1, -alpha / 2, x)
        x = apply(label2, -alpha / 2, x)
        return [float(v) for v in to_coords(x)]

    f0 = [float(v) for v in to_coords(chi)]
    fp, fm = curve(h), curve(-h)
    return [(a - 2 * b + c) / (h * h) for a, c, b in zip(fp, fm, f0)]


def calibration_constant(h: float = 1e-3) -> float:
    """The curve constant fitted on (A_i, A_j), measured once per process.

    curve_commutator divides by the exact 1/2; this fit is the check that
    the second difference really is half the bracket.
    """
    global _CALIBRATION
    if _CALIBRATION is None:
        l1 = GeneratorLabel("A", 1, axis="i")
        l2 = GeneratorLabel("A", 1, axis="j")
        chi = _calibration_chi()
        fd = _second_difference(l1, l2, h, chi)
        mc = commutator(tangent(l1), tangent(l2)).apply_coords(
            [Fraction(v) for v in to_coords(chi)])
        mc = [float(v) for v in mc]
        num = sum(a * b for a, b in zip(fd, mc))
        den = sum(b * b for b in mc)
        _CALIBRATION = num / den
    return _CALIBRATION


def curve_commutator(label1: GeneratorLabel, label2: GeneratorLabel,
                     h: float, chi: jordan.JordanElement,
                     tol: Optional[float] = None) -> list[float]:
    """Finite-difference estimate of [T1, T2] applied to chi.

    The second difference of the curve g2(-a/2) g1(-a/2) g2(a/2) g1(a/2)
    approaches 1/2 [T1, T2] chi, so the estimate is twice it.
    """
    est = [2 * v for v in _second_difference(label1, label2, h, chi)]
    if tol is not None:
        mc = commutator(tangent(label1), tangent(label2)).apply_coords(
            [Fraction(v) for v in to_coords(chi)])
        err = max(abs(a - float(b)) for a, b in zip(est, mc))
        scale = max(1.0, max(abs(float(b)) for b in mc))
        if err / scale > tol:
            raise StepTooLarge(f"relative mismatch {err / scale:g} exceeds {tol:g}")
    return est
