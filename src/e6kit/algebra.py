"""The Lie algebra sl(3,O) as exact 27x27 tangent matrices.

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
tangent 2T, an integer matrix {row: {col: int}} (doubled_tangent), and
brackets two of them with one kernel, _flat_commutator: the table, the
span, the su(3) check and the curve cross-check alike.  tangent() halves
2T for callers that want T.

The structure table is built on the core basis (the preferred basis with
the 21 transverse cores in place of A/G/S), on which all 1344 automorphisms
that permute the imaginary units up to sign act as signed permutations: one
basis pair per orbit is computed (166 of 3003) through an integer dual basis
and verified in integers, and the rest are derived from it exactly.  Seven
exact 3x3 changes of basis carry the constants to the preferred basis,
where they lie in 1/6 Z.  The table holds them as one integer table, L c
with L = 6 (StructureTable), which the ranks, the Jacobi suite and Stab(l)
bracket; the rational constant is Fraction(L c, L), formed only where
`table` prints it.  The Killing form is the trace form of the doubled
tangents (killing_matrix).
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
import zlib
from fractions import Fraction
from itertools import compress
from typing import Optional

from . import jordan
from .group import (GeneratorLabel, _is_transverse, _rotation, _sequence, all_labels,
                    apply, apply_dual, cores, format_label)
from .jordan import from_coords, to_coords
from .linalg import SpanBasis, kernel, signature_symmetric, span_of
from .octonion import IMAGINARY_UNITS, MULT_TABLE, UNIT_INDEX, UNITS, _AGS_PAIRS

CACHE_ENV = "E6KIT_CACHE"
_CACHE_VERSION = "e6kit-structure-5"
_CONSTANT_COUNT = 2750    # nonzero c_ij^k with i < j on the preferred basis
_SCALE = 6                # the lcm of their denominators

DIM = 27


class RankMismatch(RuntimeError):
    pass


class NotInSpan(RuntimeError):
    pass


class NotClosed(RuntimeError):
    pass


class MismatchAt(RuntimeError):
    pass


class StepTooLarge(RuntimeError):
    pass


def _flat(mat: dict) -> dict:
    """A matrix {row: {col: v}} as the sparse vector {row * DIM + col: v}."""
    return {r * DIM + c: v for r, row in mat.items() for c, v in row.items()}


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


# group.type_cycle as a coordinate permutation P: P^(t-1) moves coordinate i
# to _CYCLES[t - 1][i], the type-cycle gather of group.apply.
_CYCLES = tuple(map(_rotation, range(3)))


def tangent(label: GeneratorLabel) -> dict:
    """Exact d/dalpha at 0 of the label's action as {row: {col: Fraction}}: 2T halved."""
    return {r: {c: Fraction(v, 2) for c, v in row.items()}
            for r, row in doubled_tangent(label).items()}


def doubled_tangent(label: GeneratorLabel) -> dict:
    """2T, the label's tangent doubled, as {row: {col: int}}; every entry of T lies in 1/2 Z.

    The type-1 2T of a label, or of a transverse core, is the angle-weighted
    sum of its cores' 2T (_core_tangent): every core is the identity at
    alpha = 0, so the derivative of their product is the sum of their
    derivatives.  Type t is P^(t-1) T P^(1-t), where P is the type cycle.
    Not cached: all 135 take about 5 ms once the cores are known.
    """
    parts = cores(GeneratorLabel(label.category, 1, label.plane, label.axis))
    if len(parts) == 1 and parts[0][1] == 1:    # a core: its own 2T
        twice = _core_tangent(parts[0][0])
    else:
        twice = {}
        for core, angle in parts:
            for key, v in _core_tangent(core).items():
                twice[key] = twice.get(key, 0) + angle * v
    # insert column by column: the dicts iterate as if each basis column were applied
    cycle = _CYCLES[label.type_index - 1]
    mat: dict = {}
    for (col, row), v in sorted(twice.items()):
        if v:
            mat.setdefault(cycle[row], {})[cycle[col]] = v
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
        _field_bound(rep)
        value, d = apply_dual(rep, _GENERIC)
        if value != _GENERIC:
            raise AssertionError(f"action of {rep} at alpha=0 is not the identity")
        _CORE_TANGENTS[rep] = {(col, row): v for row, packed in enumerate(to_coords(d))
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


def _to_preferred(coeffs: dict) -> dict:
    """d times the preferred coordinates of a vector given on the core basis."""
    back = _change_of_basis()[1]
    out: dict = {}
    for c, x in coeffs.items():
        for f, w in back[c].items():
            out[f] = out.get(f, 0) + x * w
    return {f: out[f] for f in sorted(out) if out[f]}


@functools.cache
def _shared_doubled() -> list[dict]:
    """2T of the 57 B and R labels: the first 57 of both the core and the preferred basis."""
    return [doubled_tangent(label) for label in preferred_basis() if label.category in ("B", "R")]


@functools.cache
def _core_doubled() -> list[dict]:
    """2T of the 78 core-basis labels, built once per process.

    The span and the table read these dicts, and the B and R ones are those
    of the preferred list (_preferred_doubled) too; no caller mutates them.
    """
    shared = _shared_doubled()
    return shared + [doubled_tangent(core) for core in _core_basis()[len(shared):]]


@functools.cache
def _basis_span() -> tuple[SpanBasis, list[dict]]:
    """(span, 2T flat) of the 78 core-basis tangents, the span tagged by core-basis index.

    Built once per process; reduce_basis and structure_table read it.
    """
    flat = [_flat(mat) for mat in _core_doubled()]
    sb = span_of(flat)
    if sb.rank != 78:
        raise RankMismatch(f"the core-basis tangents span only {sb.rank} dimensions")
    return sb, flat


def reduce_basis() -> tuple[list[GeneratorLabel], dict]:
    """(preferred basis, certificates expressing every dropped tangent in it).

    Raises RankMismatch unless the 135 tangents span exactly the preferred 78.
    """
    basis = preferred_basis()
    sb = _basis_span()[0]
    d = _change_of_basis()[2]
    certificates = {}
    for label in all_labels():
        if label in _basis_index():
            continue
        coeffs = sb.express(_flat(doubled_tangent(label)))
        if coeffs is None:
            raise RankMismatch(f"tangent of {label} escapes the preferred span")
        certificates[label] = {basis[f]: v / d for f, v in _to_preferred(coeffs).items()}
    return basis, certificates


# ---------------------------------------------------------------------------
# structure table

class StructureTable:
    """The integer constants of a basis, {(i, j): {k: L c_ij^k}} for i < j, and their scale L.

    The constant c_ij^k is Fraction(v, scale); a missing pair brackets to 0.
    structure_table() gives the pairs, and each row, in increasing order,
    with L the lcm of the constants' denominators.  The ranks, the Jacobi
    suite and Stab(l) bracket the integers: a uniform scale changes no
    kernel, span or zero test.
    """

    __slots__ = ("basis", "scale", "constants")

    def __init__(self, basis: list, scale: int, constants: dict):
        self.basis, self.scale, self.constants = basis, scale, constants

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

    The table is built on the core basis (_core_constants) and then carried
    to the preferred basis (_preferred_constants).  With E6KIT_CACHE set,
    the integers and their scale are read from that file if it is intact,
    and written to it otherwise.
    """
    global _TABLE
    if _TABLE is not None:
        return _TABLE
    path = os.environ.get(CACHE_ENV)
    if path:
        try:
            _TABLE = StructureTable(preferred_basis(), *_read_cache(path))
            return _TABLE
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            pass    # a stale, damaged or incomplete file is ignored as a whole
    _TABLE = StructureTable(preferred_basis(), *_preferred_constants(_core_constants()))
    if path:
        _store_cache(path, _TABLE)
    return _TABLE


def _core_constants() -> dict:
    """{(i, j): {k: 2c_ij^k}} on the core basis for every i < j, zero brackets included.

    The 1344 automorphisms generated by _TABLE_MOVES act on the core basis
    as signed permutations (_basis_symmetries).  Tangent entries lie in
    1/2 Z, so the doubled tangents 2T are integer matrices and commutators
    of them are 4 [T_i, T_j].  The coefficients are read off the pivot
    coordinates of the integer reduced span of the 2T through the dual rows
    D = L * combo / pivot entry, where L is the lcm of the pivot entries:
    2c_k = sum over pivots of entry * D[row][k] / L.  Each
    computed bracket is checked by the integer residual
    [2T_i, 2T_j] - sum 2c_k 2T_k, which must vanish; NotInSpan if a 2c_k is
    not an integer or it does not.  The pairs are walked in (i, j) order,
    and a computed pair's whole orbit is derived from it, so only 166 of
    the 3003 pairs are computed.
    """
    basis = _core_basis()
    # w in the span is sum over reduced rows n of w[pivot n] / row n[pivot n]
    # * row n, and combos[n] is row n on the 2T.
    span, flat = _basis_span()
    doubled = [_operand(f) for f in flat]
    row_of = span.pivot_row
    pivots = {n: span.rows[n][p] for p, n in row_of.items()}
    scale = math.lcm(*pivots.values())
    dual = [{k: x * (scale // pivots[n]) for k, x in combo.items()}
            for n, combo in enumerate(span.combos)]
    moves = _basis_symmetries(flat)
    brackets: dict = {}  # (i, j) -> {k: 2c}, zero brackets included
    for i in range(78):
        for j in range(i + 1, 78):
            if (i, j) in brackets:
                continue
            residual = _flat_commutator(doubled[i], doubled[j])
            acc: dict = {}
            for key, v in residual.items():
                n = row_of.get(key)
                if n is not None:
                    for k, x in dual[n].items():
                        acc[k] = acc.get(k, 0) + v * x
            coeffs = {}
            for k in sorted(acc):
                if not acc[k]:
                    continue
                two, rem = divmod(acc[k], scale)    # 2 c_k
                if rem:
                    raise NotInSpan(f"[{basis[i]}, {basis[j]}] has a constant outside 1/2 Z")
                for key, w in flat[k].items():
                    residual[key] = residual.get(key, 0) - two * w
                coeffs[k] = two
            if any(residual.values()):
                raise NotInSpan(f"[{basis[i]}, {basis[j]}] escapes the basis span")
            brackets[(i, j)] = coeffs
            _derive_orbit(brackets, (i, j), moves)
    return brackets


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


def _preferred_constants(brackets: dict) -> tuple[int, dict]:
    """(L, L c): the preferred-basis constants from the core ones, given as {(c, e): {g: 2k}}.

    [b_a, b_b] = sum P[a][c] P[b][e] [core_c, core_e], and each core_g is
    sum_f W[g][f] b_f / d (_change_of_basis), so 2d c_ab^f is a sum of ints.
    Each core constant is scattered into the (a, b, f) it feeds, with
    [b_b, b_a] = -[b_a, b_b] and [b_a, b_a] = 0.  L = 2d / gcd(2d, every
    2d c) is the lcm of the constants' denominators, and L c = 2d c / gcd.
    Keys and rows come out sorted.
    """
    expand, back, d = _change_of_basis()
    n = len(expand)
    users: list[list] = [[] for _ in expand]    # core c -> [(a, P[a][c])]
    for a, parts in enumerate(expand):
        for c, x in parts.items():
            users[c].append((a, x))
    acc: dict = {}    # (a n + b) n + f -> 2d c_ab^f, so the keys sort as (a, b, f)
    get = acc.get
    for (c, e), row in brackets.items():
        if not row:
            continue
        for a, x in users[c]:
            for b, y in users[e]:    # [core_c, core_e] feeds pair (a, b) with P[a][c] P[b][e]
                if a < b:
                    key, s = (a * n + b) * n, x * y
                elif a > b:
                    key, s = (b * n + a) * n, -x * y
                else:
                    continue
                for g, v in row.items():
                    for f, w in back[g].items():
                        acc[key + f] = get(key + f, 0) + s * v * w
    common = math.gcd(2 * d, *acc.values())
    constants, last = {}, None
    for flat_key in sorted(acc):
        v = acc[flat_key]
        if v:
            pair, f = divmod(flat_key, n)
            if pair != last:
                last = pair
                row = constants[divmod(pair, n)] = {}
            row[f] = v // common
    return 2 * d // common, constants


def _basis_symmetries(flat: list[dict]) -> list[tuple[list, list]]:
    """Each of _TABLE_MOVES as a signed permutation (perm, sign) of the core basis.

    Q T_k Q^-1 = sign[k] T_perm[k] is checked on the doubled tangents (given
    flat) for every k, so a bracket derived through Q is exact:
    [T_perm[i], T_perm[j]] = sign[i] sign[j] sum_k c_ij^k sign[k] T_perm[k].
    NotInSpan if some Q T_k Q^-1 is not plus or minus a basis tangent.
    """
    index = {frozenset(f.items()): k for k, f in enumerate(flat)}
    out = []
    for images in _TABLE_MOVES:
        q, s = _coordinate_map(_unit_map(images))
        perm, sign = [], []
        for k, f in enumerate(flat):
            image = {q[key // DIM] * DIM + q[key % DIM]: s[key // DIM] * s[key % DIM] * v
                     for key, v in f.items()}
            hit, t = index.get(frozenset(image.items())), 1
            if hit is None:
                hit, t = index.get(frozenset((key, -v) for key, v in image.items())), -1
            if hit is None:
                raise NotInSpan(f"the unit map {images} carries the tangent of "
                                f"{format_label(_core_basis()[k])} outside the basis")
            perm.append(hit)
            sign.append(t)
        out.append((perm, sign))
    return out


def _derive_orbit(brackets: dict, pair: tuple, moves: list) -> None:
    """Add to brackets every pair the moves reach from `pair`, each derived once."""
    stack = [pair]
    while stack:
        pair = stack.pop()
        i, j = pair
        row = brackets[pair]
        for perm, sign in moves:
            a, b = perm[i], perm[j]
            key = (a, b) if a < b else (b, a)
            if key not in brackets:    # rows in any order: _preferred_constants sorts
                s = sign[i] * sign[j] if a < b else -sign[i] * sign[j]
                image = brackets[key] = {}
                for k, v in row.items():
                    image[perm[k]] = s * sign[k] * v
                stack.append(key)


# ---------------------------------------------------------------------------
# disk cache: the integer constants and their scale only; tangents are always derived

def _read_cache(path: str) -> tuple[int, dict]:
    """(L, L c) from the file; ValueError unless intact, complete and in range.

    Complete means the _CONSTANT_COUNT keys (i, j, k) in strictly increasing
    order, as _store_cache writes them: the CRC of a short list, or of one
    with a key repeated, matches as well as the full one's.  Each constant
    is a nonzero int, and the scale is _SCALE, prime to the constants as a
    whole, so that it is the lcm of the denominators of the c they give.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    body = {"constants": data["constants"], "scale": data["scale"]}
    if data["version"] != _CACHE_VERSION or data["crc32"] != _checksum(body):
        raise ValueError("stale or damaged cache")
    if len(body["constants"]) != _CONSTANT_COUNT:
        raise ValueError(f"the cache holds {len(body['constants'])} constants, "
                         f"not {_CONSTANT_COUNT}")
    constants: dict = {}
    last = (0, 0, -1)
    for i, j, k, v in body["constants"]:
        if not (type(i) is type(j) is type(k) is type(v) is int and v
                and 0 <= i < j < 78 and 0 <= k < 78 and (i, j, k) > last):
            raise ValueError(f"constant ({i}, {j}, {k}, {v!r}) not a nonzero int, "
                             f"out of range or out of order")
        last = (i, j, k)
        constants.setdefault((i, j), {})[k] = v
    scale = body["scale"]
    if type(scale) is not int or scale != _SCALE or \
            math.gcd(scale, *(v for row in constants.values() for v in row.values())) != 1:
        raise ValueError(f"scale {scale!r} is not the lcm of the constants' denominators")
    return scale, constants


def _checksum(body: dict) -> int:
    # CRC-32 catches damaged files; zlib is loaded at start-up anyway, while
    # hashlib would load OpenSSL and add about 3.7 MB to every process.
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _store_cache(path: str, table: StructureTable) -> None:
    """Write the cache through a temporary file, so readers never see half of it."""
    body = {"constants": [[i, j, k, v] for (i, j), row in sorted(table.constants.items())
                          for k, v in sorted(row.items())],
            "scale": table.scale}
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

@functools.cache
def _preferred_doubled() -> list[dict]:
    """2T of the 78 preferred-basis labels; killing_matrix and stabilizer_of_l read it.

    The 57 B and R labels share their dicts with _core_doubled, but building
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
    # (row, col) -> [(i, 2T_i at (row, col))]
    doubled = _preferred_doubled()
    entries: dict = {}
    for i, mat in enumerate(doubled):
        for r, row in mat.items():
            for c, v in row.items():
                entries.setdefault((r, c), []).append((i, v))
    total = [[0] * len(doubled) for _ in doubled]
    for (r, c), col in entries.items():
        back = entries.get((c, r))
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
# Casimirs and rank

def casimir_labels() -> list[GeneratorLabel]:
    return [GeneratorLabel("B", 1, plane=("t", "z")),
            GeneratorLabel("B", 2, plane=("t", "z")),
            GeneratorLabel("R", 1, plane=("x", "l")),
            GeneratorLabel("A", 1, axis="l"),
            GeneratorLabel("G", 1, axis="l"),
            GeneratorLabel("S", 1, axis="l")]


def unit_vectors(indices: list[int]) -> list[dict]:
    return [{i: 1} for i in indices]


def rank_estimate(subspace: list[dict]) -> int:
    """The rank of the subalgebra spanned by `subspace`, certified exactly.

    The subspace is given as sparse coefficient vectors over the preferred
    basis and must close under the bracket (NotClosed otherwise).  The
    bracket is that of the integer table L c (structure_table): it is
    L times the true one, which changes none of the kernels below.  For
    distinct unit vectors it is the table renumbered; any other list goes
    through _span_constants, which also raises ValueError if the vectors
    are dependent.  For a sparse element x of it the centralizer
    c = ker(ad x) is computed exactly; if c is abelian and is its own
    normalizer, it is a Cartan subalgebra and the rank is dim c.  x is
    first a fixed combination of the subspace vectors that are
    Casimir-sextet basis elements, then seeded combinations of four subspace
    vectors.  If no x certifies, the smallest centralizer found is returned:
    an upper bound on min dim ker(ad x), which is the rank when the
    subalgebra is reductive.
    """
    table = structure_table()
    d = len(subspace)
    # the bracket in coordinates over the subspace vectors
    sub = StructureTable(list(range(d)), table.scale, {})
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
        sub.constants = _span_constants(subspace, table.bracket_vectors)
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


def _gellmann_matrices() -> list[dict]:
    """The eight matrices of the correspondence table, transposed, realified and doubled.

    A complex 3x3 matrix X + iY becomes the real 6x6 matrix [[X, -Y], [Y, X]],
    and that is transposed: _flat_commutator takes YX - XY, which on
    transposes is (XY - YX)^T, so the constants read off are those of ab - ba.
    Each is doubled, {row: {col: 2v}}, as the tangents are (doubled_tangent).
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
    out = []
    for entries in table:
        mat: dict = {}
        for (r, c), z in entries.items():
            x, y = int(z.real), int(z.imag)
            for row, col, v in ((c, r, x), (c + 3, r, -y), (c, r + 3, y), (c + 3, r + 3, x)):
                if v:
                    mat.setdefault(row, {})[col] = 2 * v
        out.append(mat)
    return out


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

    octonionic = _span_constants([_flat(doubled_tangent(label)) for label in GELLMANN_LABELS],
                                 bracket)
    oracle = _span_constants(list(map(_flat, _gellmann_matrices())), bracket)
    for pair, coeffs in octonionic.items():
        if coeffs != oracle[pair]:
            raise MismatchAt(f"structure constants differ at pair {pair} "
                             f"(got {coeffs}, oracle {oracle[pair]})")
    return {"pairs_checked": len(octonionic), "match": True}


# ---------------------------------------------------------------------------
# Stab(l)

A_L_COORD = 3 + UNIT_INDEX["l"]  # index of the a_l coordinate in Coord27


def _combo(parts: list[tuple[int, GeneratorLabel]]) -> dict:
    """Integer coefficients (on the preferred basis) of a sum of distinct basis labels."""
    return {_basis_index()[lab]: s for s, lab in parts}


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
    vanishes, and the kernel is taken on that row of the preferred 2T, the
    list killing_matrix reads too (_preferred_doubled).  Returns the kernel
    basis plus the verified decomposition facts; the brackets are those of
    the integer table L c (structure_table), which no span or zero test can
    tell from c.
    """
    # the kernel of x -> sum_i x_i * (row a_l of 2T_i)
    stab = kernel(mat.get(A_L_COORD, {}) for mat in _preferred_doubled())
    table = structure_table()
    named = stab_l_documented_basis()
    so81, b_all = named["so81"], named["b2"] + named["b3"] + named["bl"]

    def pairs(xs):    # [u, v] for each pair of the vectors
        return (table.bracket_vectors(u, v) for n, u in enumerate(xs) for v in xs[n + 1:])

    so81_span = span_of(so81)
    b2_gram = killing_restricted(named["b2"])
    return {
        "dim": len(stab),
        "kernel": stab,
        "documented_basis_in_kernel": all(map(span_of(stab).contains, so81 + b_all)),
        "so81_dim": so81_span.rank,    # 36 unless the documented vectors are dependent
        "so81_closed": all(map(so81_span.contains, pairs(so81))),
        "b_dims": (len(named["b2"]), len(named["b3"]), len(named["bl"])),
        "b_abelian": not any(pairs(b_all)),
        "b_is_ideal_under_so81": all(map(span_of(b_all).contains, (
            table.bracket_vectors(u, v) for u in so81 for v in b_all))),
        "b2_killing_null": all(b2_gram[n][n] == 0 for n in range(len(b2_gram))),
    }


# ---------------------------------------------------------------------------
# curve commutator cross-check

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


def _bracket_on(label1: GeneratorLabel, label2: GeneratorLabel, chi) -> list[Fraction]:
    """[T1, T2] chi, exact: a quarter of [2T1, 2T2] (_flat_commutator) applied to chi."""
    x, y = (_operand(_flat(doubled_tangent(label))) for label in (label1, label2))
    coords = [Fraction(v) for v in to_coords(chi)]
    out = [Fraction(0)] * DIM
    for key, v in _flat_commutator(x, y).items():
        r, c = divmod(key, DIM)
        out[r] += v * coords[c]
    return [v / 4 for v in out]


@functools.cache
def calibration_constant() -> float:
    """The curve constant fitted on (A_i, A_j) at step 1e-3, measured once per process.

    curve_commutator divides by the exact 1/2; this fit is the check that
    the second difference really is half the bracket.
    """
    l1 = GeneratorLabel("A", 1, axis="i")
    l2 = GeneratorLabel("A", 1, axis="j")
    chi = _calibration_chi()
    fd = _second_difference(l1, l2, 1e-3, chi)
    mc = [float(v) for v in _bracket_on(l1, l2, chi)]
    return sum(a * b for a, b in zip(fd, mc)) / sum(b * b for b in mc)


def curve_commutator(label1: GeneratorLabel, label2: GeneratorLabel,
                     h: float, chi: jordan.JordanElement,
                     tol: Optional[float] = None) -> list[float]:
    """Finite-difference estimate of [T1, T2] applied to chi.

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
