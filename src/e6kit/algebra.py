"""The Lie algebra sl(3,O) as exact 27x27 tangent matrices, and its Killing form.

Every generator is a product of cores (group.cores), each the identity at
alpha = 0, so a type-1 tangent is the angle-weighted sum of its cores'
tangents.  The 45 type-1 cores (24 B/R generators, 21 transverse rotations
shared by the A/G/S generators) fall into 7 orbits under the 21 sign-free
octonion automorphisms.  One core per orbit is differentiated at alpha = 0
in exact integers, by one group.apply_dual call on a generic element whose
27 coordinates are the integer linear forms x_0 .. x_26, packed as plain
ints of 32-bit fields (_GENERIC); the other 38 are conjugates of those,
each move checked on the stage matrices.  The 90 type-2/3 tangents are the
type-1 ones conjugated by the type-cycle permutation.  Every tangent entry
lies in 1/2 Z, so every runtime path holds an element as its doubled
tangent 2T, an integer matrix in one layout, {row * DIM + col: int}
(doubled_tangent).  One helper conjugates a 2T by a coordinate map
(_conjugated), one sums weighted 2T (_weighted_sum), and one kernel
brackets two of them (_flat_commutator), for the table, the span and the
su(3) check alike.  tangent() halves 2T as {row: {col: Fraction}}.  The
Killing form is the trace form of the doubled tangents (killing_matrix).

Each CLI verb is a fresh process that compiles every module it imports, so
the code that only some verbs run lives in modules of its own, which this
one names lazily (__getattr__ below): the structure table and its disk cache
(structure), Stab(l) (stabilizer), the rank of a subalgebra (subalgebra)
and the su(3) check (gellmann).
"""

from __future__ import annotations

import functools
import importlib
import sys
from fractions import Fraction
from itertools import compress

from .group import (GeneratorLabel, _is_transverse, _rotation, _sequence, _shift, apply_dual,
                    cores, format_label)
from .jordan import from_coords, to_coords
from .linalg import signature_symmetric, span_of
from .units import IMAGINARY_UNITS, MULT_TABLE, UNIT_INDEX, UNITS, _AGS_PAIRS

DIM = 27


class NotClosed(RuntimeError):
    pass


def _operand(flat: dict) -> tuple:
    """A flat matrix as _flat_commutator takes it: (entries, rows).

    entries lists (row * DIM, col, v) and rows maps row to [(col, v)], both
    in the order of the flat dict.
    """
    entries, rows = [], {}
    for key, v in flat.items():
        r, c = divmod(key, DIM)
        entries.append((key - c, c, v))
        rows.setdefault(r, []).append((c, v))
    return entries, rows


def _flat_commutator(x: tuple, y: tuple) -> dict:
    """The bracket YX - XY of two matrices X, Y, flat as {row * DIM + col: v}, zero sums kept.

    Each matrix is given as _operand makes it.  The bracket uses the
    group-orbit (vector-field) convention, the negative of the raw operator
    commutator on tangent matrices: the one under which the published
    structure constants, the Gell-Mann correspondence in particular, hold.
    """
    out: dict = {}
    get = out.get
    for (entries, _), (_, rows), s in ((y, x, 1), (x, y, -1)):
        for r, j, v in entries:
            row = rows.get(j)
            if row:
                v *= s
                for c, w in row:
                    out[r + c] = get(r + c, 0) + v * w
    return out


def _span_constants(vectors: list[dict], bracket) -> dict:
    """{(a, b): coefficients of [v_a, v_b] over the vectors} for every a < b.

    The vectors are sparse, and bracket takes two of them to a sparse vector.
    ValueError if the vectors are dependent; NotClosed at the first pair
    whose bracket escapes their span.
    """
    span = span_of(vectors)
    if span.rank != len(vectors):
        raise ValueError("subspace vectors are dependent")
    out = {}
    for a, x in enumerate(vectors):
        for b in range(a + 1, len(vectors)):
            coeffs = span.express(bracket(x, vectors[b]))
            if coeffs is None:
                raise NotClosed(f"[v_{a}, v_{b}] escapes the subspace")
            out[(a, b)] = coeffs
    return out


# ---------------------------------------------------------------------------
# tangent extraction

# A linear form in the 27 coordinates is one int, packed = sum over c of
# v_c 2^(32 c): x_c is 2^(32 c) (_GENERIC), and apply_dual only adds packed
# ints and scales them by int stage slots.  While every |v_c| < _LIMIT the
# fields decode (_fields); _field_bound checks that once per core.
_WIDTH = 32
_LIMIT = 1 << (_WIDTH - 1)
_BIAS = sum(_LIMIT << (_WIDTH * c) for c in range(DIM))
_GENERIC = from_coords([1 << (_WIDTH * c) for c in range(DIM)])


def _fields(packed: int) -> dict:
    """{column: int} over the nonzero v_c of a packed form: packed + _BIAS holds v_c + 2^31."""
    fields = memoryview((packed + _BIAS).to_bytes(_WIDTH // 8 * DIM, sys.byteorder))
    fields = fields.cast("I")    # C unsigned int: 32 bits
    return {c: v - _LIMIT for c, v in enumerate(fields) if v != _LIMIT}


def _field_bound(core: GeneratorLabel) -> int:
    """A bound on every coefficient that apply_dual forms from the core on _GENERIC.

    A half-step sums at most two products of a slot and a coefficient
    (group._half_step_table), or copies a coefficient.  So a stage whose
    slots of M(0) and 2 M'(0) are at most k >= 1 in size maps the bounds
    (x, d) on the coefficients of the value and the derivative to
    (4 k^2 x, 4 k^2 (2 x + d)), which also bound the half-steps between.
    A constant stage, folded into the next stage's left table, has k = 1:
    it only moves and negates coefficients, so the bound it adds is slack.
    OverflowError if the bound reaches _LIMIT, where a field could decode wrong.
    """
    x, d = 1, 0
    for slots in _stage_coeffs(core):
        grow = 4 * max(map(abs, slots.values()), default=1) ** 2
        x, d = grow * x, grow * (2 * x + d)
    if max(x, d) >= _LIMIT:
        raise OverflowError(f"a coefficient of up to {max(x, d)} overflows the "
                            f"{_WIDTH}-bit field of a linear form in {format_label(core)}")
    return max(x, d)


# The type cycle chi -> T chi T†, (p,m,n,a,b,c) -> (n,p,m,c,a,b), as a
# coordinate permutation P: P^(t-1) moves coordinate i to _CYCLES[t - 1][i],
# the type-cycle gather of group.apply.
_CYCLES = tuple(map(_rotation, range(3)))


def tangent(label: GeneratorLabel) -> dict:
    """Exact d/dalpha at 0 of the label's action as {row: {col: Fraction}}: 2T halved."""
    mat: dict = {}
    for key, v in doubled_tangent(label).items():
        mat.setdefault(key // DIM, {})[key % DIM] = Fraction(v, 2)
    return mat


def doubled_tangent(label: GeneratorLabel) -> dict:
    """2T, the label's tangent doubled, as {row * DIM + col: int}; every entry of T lies in 1/2 Z.

    The type-1 2T of a label, or of a transverse core, is the angle-weighted
    sum of its cores' 2T (_core_tangent): every core is the identity at
    alpha = 0, so the derivative of their product is the sum of their
    derivatives.  Type t is P^(t-1) T P^(1-t), where P is the type cycle.
    Not cached: all 135 take about 5 ms once the cores are known.
    """
    parts = cores(GeneratorLabel(label.category, 1, label.plane, label.axis))
    twice = _weighted_sum((angle, _core_tangent(core)) for core, angle in parts)
    return _conjugated(twice, _CYCLES[_shift(label)])


def _weighted_sum(parts) -> dict:
    """sum w v over (w, sparse v) pairs, zero entries dropped: flat 2T, or any sparse vectors."""
    out: dict = {}
    for w, vec in parts:
        for key, v in vec.items():
            out[key] = out.get(key, 0) + w * v
    return {key: v for key, v in out.items() if v}


def _conjugated(twice: dict, q: tuple, s: tuple | None = None, sign: int = 1) -> dict:
    """sign * Q 2T Q^-1, flat, where Q maps coordinate i to s[i] coordinate q[i] (s None: all 1)."""
    s = s or (1,) * DIM
    return {q[k // DIM] * DIM + q[k % DIM]: sign * s[k // DIM] * s[k % DIM] * v
            for k, v in twice.items()}


# Octonion automorphisms that permute the imaginary units up to sign, as
# {unit: image} with the units not named fixed.  _SEVEN and _THREE are
# sign-free and generate the 21 sign-free automorphisms, which carry every
# core's stages to its image core's; _SEVEN and structure._FLIP generate all
# 1344, which act on the core basis as signed permutations.
_SEVEN = {"i": "j", "j": "l", "l": "il", "il": "kl", "kl": "k", "k": "jl", "jl": "i"}
_THREE = {"i": "j", "j": "k", "k": "i", "kl": "il", "il": "jl", "jl": "kl"}
_TANGENT_MOVES = (_SEVEN, _THREE)

_CORE_TANGENTS: dict[GeneratorLabel, dict] = {}


def _core_tangent(core: GeneratorLabel) -> dict:
    """2T of a type-1 core, flat, derived with the rest of its orbit.

    The 45 cores fall into 7 orbits under _TANGENT_MOVES.  The orbit's first
    core (_orbit_rep) is differentiated by one group.apply_dual call on the
    generic element; every other core is reached from it by moves, each
    checked on the stages (_check_stages), and its tangent is the conjugate
    sign * Q T Q^-1 (_conjugated), Q the move on the a, b and c blocks.
    """
    twice = _CORE_TANGENTS.get(core)
    if twice is not None:
        return twice
    rep = _orbit_rep(core)
    if rep not in _CORE_TANGENTS:
        _field_bound(rep)
        value, d = apply_dual(rep, _GENERIC)
        if value != _GENERIC:
            raise AssertionError(f"action of {rep} at alpha=0 is not the identity")
        _CORE_TANGENTS[rep] = {row * DIM + col: v for row, packed in enumerate(to_coords(d))
                               if packed for col, v in _fields(packed).items()}
    moves = [_unit_map(images) for images in _TANGENT_MOVES]
    todo, seen = [rep], {rep}
    while todo:
        src = todo.pop()
        for move in moves:
            dst, sign = _core_image(src, move)
            if dst in seen:
                continue
            _check_stages(src, dst, move, sign)
            _CORE_TANGENTS[dst] = _conjugated(_CORE_TANGENTS[src], *_coordinate_map(move), sign)
            seen.add(dst)
            todo.append(dst)
    if core not in seen:
        raise AssertionError(f"the moves do not carry {rep} to {core}")
    return _CORE_TANGENTS[core]


def _orbit_rep(core: GeneratorLabel) -> GeneratorLabel:
    """The first core of the core's orbit: its unit, or its plane, made that of i."""
    if _is_transverse(core):
        return core._replace(plane=_AGS_PAIRS["i"][0])
    if core.plane[1] in IMAGINARY_UNITS:
        return core._replace(plane=(core.plane[0], "i"))
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
    return core._replace(plane=tuple(plane)), s


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
        moved = {n - n % 8 + perm[n % 8]: sign[n % 8] * v for n, v in x.items()}
        ok = ok and any(moved == {n: (t if n < 72 else t * s) * v for n, v in y.items()}
                        for t in (1, -1))
    if not ok:
        raise AssertionError(f"the unit map {move} does not carry the stages "
                             f"of {format_label(core)} to those of {format_label(image)}")


@functools.cache
def _stage_coeffs(core: GeneratorLabel) -> list[dict]:
    """Per stage, the nonzero slots of M(0), then of 2 M'(0) from slot 72 on (ParamMatrix.at_zero)."""
    slots = [value + twice for value, twice in (stage.at_zero() for stage in _sequence(core))]
    return [dict(zip(compress(range(144), x), compress(x, x))) for x in slots]


def _unit_map(images: dict) -> tuple[tuple, tuple]:
    """(perm, sign) over the 8 octonion units, e_u -> sign[u] e_perm[u].

    AssertionError unless the map is an automorphism of MULT_TABLE.
    """
    return _checked_unit_map(tuple(images.items()))


@functools.cache
def _checked_unit_map(images: tuple) -> tuple[tuple, tuple]:
    perm, sign = list(range(8)), [1] * 8
    for unit, image in images:
        u = UNIT_INDEX[unit]
        perm[u] = UNIT_INDEX[image.lstrip("-")]
        sign[u] = -1 if image.startswith("-") else 1
    for a in range(8):
        for b in range(8):
            s, c = MULT_TABLE[a][b]
            t, d = MULT_TABLE[perm[a]][perm[b]]
            if d != perm[c] or sign[a] * sign[b] * t != s * sign[c]:
                raise AssertionError(f"the unit map {dict(images)} is not an octonion automorphism")
    return tuple(perm), tuple(sign)


@functools.cache
def _coordinate_map(move: tuple) -> tuple[tuple, tuple]:
    """(q, s): the unit map on Coord27, coordinate i -> s[i] coordinate q[i].

    It acts on the a, b and c blocks and fixes p, m and n.
    """
    perm, sign = move
    q, s = [0, 1, 2], [1, 1, 1]
    for start in (3, 11, 19):
        q += [start + perm[u] for u in range(8)]
        s += sign
    return tuple(q), tuple(s)


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
def _shared_doubled() -> list[dict]:
    """2T of the 57 B and R labels: the first 57 of both the core and the preferred basis."""
    return [doubled_tangent(label) for label in preferred_basis() if label.category in ("B", "R")]


# ---------------------------------------------------------------------------
# Killing form, signature

@functools.cache
def _preferred_doubled() -> list[dict]:
    """2T of the 78 preferred-basis labels; killing_matrix and stabilizer_of_l read it.

    The 57 B and R labels share their dicts with structure._core_doubled, but building
    this list builds no transverse-core 2T: 57 + 21 doubled_tangent calls.
    """
    shared = _shared_doubled()
    return shared + [doubled_tangent(label) for label in preferred_basis()[len(shared):]]


@functools.cache
def killing_matrix() -> list[list[int]]:
    """B_ij = tr(ad_i ad_j) on the preferred basis: the trace form tr(2T_i 2T_j).

    E6 is simple, so on the 27 its Killing form is a fixed multiple of the
    trace form, B(T_i, T_j) = 4 tr(T_i T_j), 4 being the ratio 24/6 of the
    Dynkin indices of the adjoint and the 27 (Slansky, Phys. Rep. 79, 1981).
    4 tr(T_i T_j) = tr(2T_i 2T_j) is a sum of products of integers, and each
    entry of 2T_i at (row, col) pairs with the entry of 2T_j at (col, row).
    """
    # row * DIM + col -> [(i, 2T_i at (row, col))]
    doubled = _preferred_doubled()
    entries: dict = {}
    for i, mat in enumerate(doubled):
        for key, v in mat.items():
            entries.setdefault(key, []).append((i, v))
    total = [[0] * len(doubled) for _ in doubled]
    for key, col in entries.items():
        back = entries.get(key % DIM * DIM + key // DIM)
        if back:
            for i, x in col:
                row = total[i]
                for j, y in back:
                    row[j] += x * y
    return total


def signature(bilinear: list[list[Fraction]]) -> tuple[int, int, int]:
    """(d_minus, d_plus, d_zero); compact directions have B(x,x) < 0."""
    return signature_symmetric(bilinear)


def killing_restricted(vectors: list[dict]) -> list[list]:
    """Killing form restricted to a span of sparse 78-coefficient vectors; ints for int vectors."""
    bmat = killing_matrix()
    n = len(vectors)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            total = 0
            for i, x in vectors[a].items():
                for j, y in vectors[b].items():
                    total += x * y * bmat[i][j]
            out[a][b] = out[b][a] = total
    return out


# ---------------------------------------------------------------------------
# names defined in the modules that only some verbs import

# module -> the public names it defines that resolve here too
_ELSEWHERE = {
    "structure": ("CACHE_ENV", "RankMismatch", "NotInSpan", "StructureTable",
                  "structure_table", "reduce_basis"),
    "subalgebra": ("casimir_labels", "unit_vectors", "rank_estimate"),
    "stabilizer": ("A_L_COORD", "stab_l_documented_basis", "stabilizer_of_l"),
    "gellmann": ("GELLMANN_LABELS", "MismatchAt", "gellmann_check"),
}
_ELSEWHERE_NAMES = {name: module for module, names in _ELSEWHERE.items() for name in names}


def __getattr__(name: str):
    """A name of _ELSEWHERE, from its module, imported on first use (PEP 562).

    Not stored here, so `algebra.x` is always the defining module's `x`.
    """
    module = _ELSEWHERE_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)
