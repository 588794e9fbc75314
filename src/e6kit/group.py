"""Finite transformations of SL(3,O) acting on the Jordan algebra.

The 135 generators are the 45 basic 2x2 transformations (9 boosts, 15
rotations, 21 transverse rotations recombined into the A/G/S classes) embedded
at each of the three type positions.  Every generator acts by a nest of
conjugations chi -> M(...(M1 chi M1†)...)M†, with matrix entries drawn from a
single complex subalgebra of O so the nest is well defined.

A stage is integer data: each matrix entry is a sum of terms
coeff * f(k2 * alpha / 2) * e_unit with int k2, unit and coeff, and f one of
the functions of _KINDS, which also gives f(0) and f'(0).  Only the stages
of the type-1 action are built; type t is reached by rotating chi's fields
before them and the result's after them, the latter folded into the last
gather.  One stage kernel, compiled once per sparsity structure of the
stage matrices, runs both evaluations as flat index tables over the 72
coefficients of the full 3x3 matrix, with one gather per stage.  The
coefficients of chi (its coordinates, some negated) and each constant stage
(the flip that starts each transverse rotation, a signed permutation of the
coefficients) are folded into the tables of the stage after them, and the
last stage forms only the 27 coordinates of the result, and the products
that those read.
`apply` evaluates at a finite alpha in floating point, bit for bit as 3x3
products of octonion entries would (the `Octonion` reference of
tests/reference.py).
`apply_dual` evaluates the value and the doubled derivative at alpha = 0 in
exact integers, which is where the tangents of the Lie algebra come from.
Every generator is a product of cores (`cores`): a B or R generator is its
own core, and an A/G/S generator is two or three transverse rotations at
fixed angles.  One apply_dual call per type-1 core, on a generic element
whose coordinates are packed ints (one 32-bit field per column of a linear
form), gives the core's whole tangent matrix.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby
from operator import add, itemgetter
from typing import NamedTuple, Optional

from .jordan import JordanElement
from .units import (DISPLAY, DISPLAY_TO_NAME, IMAGINARY_UNITS, MULT_TABLE,
                    UNIT_INDEX, _AGS_PAIRS)


class IllegalLabel(ValueError):
    pass


class GeneratorLabel(NamedTuple):
    """One of the 135 generators.

    category "B" or "R": plane is a pair over {t, x, z} + imaginary units.
    category "A", "G", "S": axis is an imaginary unit; plane is None.
    """
    category: str
    type_index: int
    plane: Optional[tuple[str, str]] = None
    axis: Optional[str] = None

    def __str__(self) -> str:
        return format_label(self)


def _disp(name: str) -> str:
    return DISPLAY.get(name, name)


def format_label(label: GeneratorLabel) -> str:
    if label.category in ("A", "G", "S"):
        core = f"{label.category}:{_disp(label.axis)}"
    else:
        core = f"{label.category}:{label.plane[0]},{_disp(label.plane[1])}"
    if label.type_index != 1:
        core += f":{label.type_index}"
    return core


@functools.lru_cache(maxsize=1024)
def parse_label(text: str) -> GeneratorLabel:
    """The label that text names; IllegalLabel if it names none.

    Memoised, for callers that parse the same texts over and over; a text
    that raises is parsed afresh each time, as exceptions are not cached.
    """
    parts = text.strip().split(":")
    if len(parts) not in (2, 3):
        raise IllegalLabel(f"bad label {text!r}")
    cat = parts[0]
    type_index = 1
    if len(parts) == 3:
        try:
            if not (parts[2].isascii() and parts[2].isdigit()):    # int() takes "+2", " 2", "٢"
                raise ValueError
            type_index = int(parts[2])
        except ValueError:
            raise IllegalLabel(f"bad type index in {text!r}") from None
    if type_index not in (1, 2, 3):
        raise IllegalLabel(f"type index out of range in {text!r}")

    def unit_of(s: str) -> str:
        s = DISPLAY_TO_NAME.get(s, s)
        if s not in IMAGINARY_UNITS:
            raise IllegalLabel(f"unknown unit {s!r} in {text!r}")
        return s

    if cat in ("A", "G", "S"):
        label = GeneratorLabel(cat, type_index, axis=unit_of(parts[1]))
    elif cat in ("B", "R"):
        names = parts[1].split(",")
        if len(names) != 2:
            raise IllegalLabel(f"bad plane in {text!r}")
        plane = tuple(n if n in ("t", "x", "z") else unit_of(n) for n in names)
        label = GeneratorLabel(cat, type_index, plane=plane)
    else:
        raise IllegalLabel(f"unknown category {cat!r}")
    try:
        validate_label(label)
    except IllegalLabel:
        raise IllegalLabel(f"illegal label {text!r}") from None
    return label


_B_PLANES = [("t", "z"), ("t", "x")] + [("t", q) for q in IMAGINARY_UNITS]
_R_PLANES = [("x", "z")] + [("x", q) for q in IMAGINARY_UNITS] + \
            [("z", q) for q in IMAGINARY_UNITS]


def validate_label(label: GeneratorLabel) -> None:
    ok = ((label.category == "B" and label.plane in _B_PLANES)
          or (label.category == "R" and label.plane in _R_PLANES)
          or (label.category in ("A", "G", "S") and label.axis in IMAGINARY_UNITS))
    t = label.type_index
    if not ok or type(t) is not int or t not in (1, 2, 3):    # 2.0 and True equal ints
        raise IllegalLabel(f"illegal label {label!r}")


def all_labels() -> list[GeneratorLabel]:
    """The 135 generator labels in canonical order."""
    out = []
    for t in (1, 2, 3):
        for plane in _B_PLANES:
            out.append(GeneratorLabel("B", t, plane=plane))
        for plane in _R_PLANES:
            out.append(GeneratorLabel("R", t, plane=plane))
        for cat in ("A", "G", "S"):
            for q in IMAGINARY_UNITS:
                out.append(GeneratorLabel(cat, t, axis=q))
    return out


# ---------------------------------------------------------------------------
# symbolic matrices

# A matrix entry is a tuple of int terms (kind, k2, unit, coeff): the entry
# value is the sum over its terms of coeff * f(k2 * alpha / 2) * e_unit, with
# f the kind's function.  _KINDS gives each kind (f, f(0), f'(0)).
_KINDS = {
    "const": (lambda x: 1.0, 1, 0),
    "cos": (math.cos, 1, 0),
    "sin": (math.sin, 0, 1),
    "cosh": (math.cosh, 1, 0),
    "sinh": (math.sinh, 0, 1),
    "exp": (math.exp, 1, 1),
}


class ParamMatrix(NamedTuple):
    entries: tuple  # 3x3 nested tuples of term tuples

    def at_zero(self) -> tuple[list[int], list[int]]:
        """(M(0), 2 M'(0)) as the stage kernel's 72 int slots."""
        value, twice = [0] * 72, [0] * 72
        for e, terms in enumerate(terms for row in self.entries for terms in row):
            for kind, k2, unit, coeff in terms:
                _, f0, slope = _KINDS[kind]
                value[8 * e + unit] += coeff * f0
                twice[8 * e + unit] += coeff * k2 * slope
        return value, twice


_ONE = (("const", 0, 0, 1),)
_EMPTY = ()


def _core_stages(category: str, plane: tuple[str, str], angle: int = 1) -> list[ParamMatrix]:
    """Stage matrices (application order) of a basic transformation at type 1.

    Each acts on the 2x2 block of the first two types and fixes the third
    diagonal entry; angle scales alpha.
    """

    def t(kind, k2, unit, coeff=1):
        return (kind, k2 * angle, UNIT_INDEX[unit], coeff)

    if category == "B":
        if plane == ("t", "z"):
            stages = [[[(t("exp", 1, "1"),), _EMPTY],
                       [_EMPTY, (t("exp", -1, "1"),)]]]
        elif plane == ("t", "x"):
            stages = [[[(t("cosh", 1, "1"),), (t("sinh", 1, "1"),)],
                       [(t("sinh", 1, "1"),), (t("cosh", 1, "1"),)]]]
        else:
            q = plane[1]
            stages = [[[(t("cosh", 1, "1"),), (t("sinh", 1, q),)],
                       [(t("sinh", 1, q, -1),), (t("cosh", 1, "1"),)]]]
    elif category == "R":
        if plane == ("x", "z"):
            stages = [[[(t("cos", 1, "1"),), (t("sin", 1, "1", -1),)],
                       [(t("sin", 1, "1"),), (t("cos", 1, "1"),)]]]
        elif plane[0] == "x":
            q = plane[1]
            stages = [[[(t("cos", 1, "1"), t("sin", 1, q)), _EMPTY],
                       [_EMPTY, (t("cos", 1, "1"), t("sin", 1, q, -1))]]]
        elif plane[0] == "z":
            q = plane[1]
            stages = [[[(t("cos", 1, "1"),), (t("sin", 1, q),)],
                       [(t("sin", 1, q),), (t("cos", 1, "1"),)]]]
        else:
            # transverse rotation in the plane of two imaginary units p, q:
            # M1 = -q I, then M2 = (cos(alpha/2) q + sin(alpha/2) p) I.
            # This orientation is chosen so that the tangent vector of
            # A_l matches ada = -a_il i + a_jl j - a_j jl + a_i il exactly.
            p, q = plane
            flip = (t("const", 0, q, -1),)
            turn = (t("cos", 1, q), t("sin", 1, p))
            stages = [[[flip, _EMPTY], [_EMPTY, flip]],
                      [[turn, _EMPTY], [_EMPTY, turn]]]
    else:
        raise IllegalLabel(f"no core for category {category}")
    return [ParamMatrix(((a, b, _EMPTY), (c, d, _EMPTY), (_EMPTY, _EMPTY, _ONE)))
            for (a, b), (c, d) in stages]


# An A/G/S generator rotates in the planes _AGS_PAIRS[axis] in turn, by these
# multiples of alpha.
_AGS_ANGLES = {"A": (1, -1), "G": (1, 1, -2), "S": (1, 1, 1)}


def cores(label: GeneratorLabel) -> list[tuple[GeneratorLabel, int]]:
    """The label's action as a product of cores, each with its angle.

    A B or R generator is its own core, with angle 1.  An A/G/S generator is
    the transverse rotations R in the planes _AGS_PAIRS[axis], applied in turn
    at angle * alpha.  A transverse rotation is a core only: it is not one of
    the 135 generators, so parse_label rejects it, but cores, build_sequence
    and apply_dual accept it, as its own core.  Every core is the identity at
    alpha = 0.
    """
    if _is_transverse(label):
        return [(label, 1)]
    validate_label(label)
    if label.category in ("B", "R"):
        return [(label, 1)]
    return [(GeneratorLabel("R", label.type_index, plane=pair), angle)
            for pair, angle in zip(_AGS_PAIRS[label.axis], _AGS_ANGLES[label.category])]


def _is_transverse(label: GeneratorLabel) -> bool:
    """R in the plane of two imaginary units: a core of the A/G/S generators."""
    return (label.category == "R" and label.plane is not None
            and all(u in IMAGINARY_UNITS for u in label.plane))


def build_sequence(label: GeneratorLabel) -> list[ParamMatrix]:
    """Stage matrices of the label's type-1 action, in application order (innermost first).

    The label's type index is not read: type t acts as P^(t-1) A P^(1-t),
    with A this action and P the type cycle, and the evaluators reach it
    through the rotations of that shift (_ROTATE, _ORDERS), not through
    other stages.
    """
    stages = []
    for core, angle in cores(label):
        stages += _core_stages(core.category, core.plane, angle)
    return stages


_SEQUENCE_CACHE: dict[GeneratorLabel, list[ParamMatrix]] = {}


def _sequence(label: GeneratorLabel) -> list[ParamMatrix]:
    """build_sequence(label), built once per label: type 1 for the kernels and cores."""
    seq = _SEQUENCE_CACHE.get(label)
    if seq is None:
        seq = _SEQUENCE_CACHE[label] = build_sequence(label)
    return seq


# ---------------------------------------------------------------------------
# stage kernel
#
# The kernel works on the full 3x3 octonion matrix X of chi as 72
# coefficients, entry (i, j) unit u at slot 8 * (3 * i + j) + u.  A stage
# fills 146 slots m: the coefficients of M in the same layout, their
# negations, then the constants 1 and -1 (_COPY, _MINUS).  Each half-step,
# M X and then (M X) M†, gives every coefficient as the sum of one or two
# products m * x: the products that a 3x3 product of octonion entries forms
# (the `Octonion` reference of tests/reference.py), and those it skips
# because a factor is zero.  A block that only an identity entry (`_ONE`)
# reaches is a copy of a source the caller passes: the input for M, zeros
# for M' (the derivative of a constant is 0).
# `apply` runs the tables on floats, `apply_dual` on ints, packed ints included.
# For floats, a zero product changes no sum of two, and float addition of two
# terms is commutative, so every nonzero float has the bits of the octonion
# computation; a zero may differ in sign, which the final + 0.0 clears.  (For
# finite values: the octonion product never forms 0 * inf, which is nan.)  Which
# products appear depends only on which units each entry of M uses, so the
# tables are built once per such sparsity structure.
#
# Apart from one gather per stage, no pass moves a value without forming a
# product.  X enters as the 28 values [*coords, 0]: each coefficient is a
# coordinate, negated where conj negates an imaginary unit, or the 0 of an
# empty unit of a diagonal entry (_state_fold).  A constant stage (the flip
# M = -q I that starts each transverse rotation) is a signed permutation,
# x[o] -> +-x[s].  Each such move is folded into the left table of the next
# product stage: a product m[i] * x[o] reads x[s], and the negation slot of
# m[i] where x[o] is negated; a copy of x[o] reads x[s], or is the product
# m[_MINUS] * x[s] where negated.  (-m) * y and m * (-y) have the same bits,
# as have -1.0 * y and -y, signed zeros and infinities included; only a
# nan's sign may differ.  The left half-step returns its raw list
# [products of one term, products of two, *x], which the right table reads
# by position; the right half-step gathers the next stage's X, or, for the
# last stage, the 27 coordinates of the result in the order of the label's
# type.  So the last right half-step forms only those, and the last left
# one only the slots that they read.

_NEG = 72
_COPY, _MINUS = 2 * _NEG, 2 * _NEG + 1
# The slots a half-step forms, as runs (block, first unit, end unit): all 72
# in state order, or the 27 coordinates p, m, n, a, b, c that the readout keeps.
_ALL_RUNS = tuple((block, 0, 8) for block in range(9))
_READ_RUNS = ((0, 0, 1), (4, 0, 1), (8, 0, 1), (3, 0, 8), (7, 0, 8), (2, 0, 8))

# An 8-byte index pattern read as an int: adding d * _EACH_BYTE adds d to each
# of its bytes (every index stays below 256, so no byte carries).
_EACH_BYTE = int.from_bytes(bytes([1] * 8), "little")
_IDENTITY, _COPY_BYTE = bytes(range(256)), bytes([_COPY])
_UNFOLDED = (_IDENTITY, bytes(256))
# m slot -> the slot of its negation: s <-> _NEG + s, and _COPY <-> _MINUS.
_SWAP = bytes([*range(_NEG, 2 * _NEG), *range(_NEG), _MINUS, _COPY, *range(2 * _NEG + 2, 256)])


def _rotation(shift: int) -> list[int]:
    """[k]: the coordinate of chi that is coordinate k once p, m, n and a, b, c
    are each rotated back by shift; _rotation(-shift) undoes it."""
    return [(k + shift) % 3 if k < 3 else 3 + (k - 3 + 8 * shift) % 24 for k in range(27)]


# A type-t label runs the type-1 kernel on chi's coordinates rotated back by
# shift = t - 1 (_ROTATE), and its last gather rotates the result's forward
# again: coordinate k of the result is coordinate _ORDERS[shift][k] of the
# type-1 readout.
_ROTATE = (None, *(itemgetter(*_rotation(shift)) for shift in (1, 2)))
_ORDERS = tuple(tuple(_rotation(-shift)) for shift in range(3))
_READOUTS = tuple(itemgetter(*order) for order in _ORDERS)


def _state_fold() -> tuple:
    """The fold (see _half_step_table) that reads X's 72 coefficients from [*coords, 0]."""
    sources, negations = [], []
    for start, conj in ((0, None), (3, True), (19, False),      # p, conj(a), c
                        (3, False), (1, None), (11, True),      # a, m, conj(b)
                        (19, True), (11, False), (2, None)):    # conj(c), b, n
        if conj is None:    # a real coordinate, then the 0 at 27 for the empty units
            sources += [start] + [27] * 7
            negations += [0] * 8
        else:
            sources += range(start, start + 8)
            negations += [0] + [255 * conj] * 7
    return bytes(sources).ljust(256, b"\0"), bytes(negations).ljust(256, b"\0")


_STATE = _state_fold()


def _unit_products(left: bool) -> tuple:
    """Per unit u of M, (negation offsets, state units) of the 8 products, by c.

    left: e_u e_b = s e_c gives (s < 0, b) for the products of M X.
    right: e_a conj(e_u) = s' e_c gives (s' < 0, a) for those of Y M†.
    Both patterns are 8-byte ints (see _EACH_BYTE).
    """
    negs, units = [[0] * 8 for _ in range(8)], [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            s, c = MULT_TABLE[a][b]
            if left:
                negs[a][c], units[a][c] = (_NEG if s < 0 else 0), b
            else:
                negs[b][c], units[b][c] = (_NEG if (s < 0) != (b > 0) else 0), a
    return tuple((int.from_bytes(bytes(n), "little"), int.from_bytes(bytes(v), "little"))
                 for n, v in zip(negs, units))


_PRODUCTS = (_unit_products(False), _unit_products(True))
# Per half-step (right, left) and output block (i, j): (entry e of M, first
# x slot) of the factors M[i][k] X[k][j] (left) or Y[i][k] conj(M[j][k]).
_FACTORS = tuple(tuple(tuple((3 * i + k, 24 * k + 8 * j) if left else (3 * j + k, 24 * i + 8 * k)
                             for k in range(3)) for i in range(3) for j in range(3))
                 for left in (False, True))
_GATHERS: dict[tuple, itemgetter] = {}


def _runs(slots: list) -> tuple:
    """Sorted slots as runs (block, first unit, end unit) of consecutive slots."""
    cuts = [n for n in range(1, len(slots)) if slots[n] != slots[n - 1] + 1 or slots[n] % 8 == 0]
    return tuple((slots[a] // 8, slots[a] % 8, slots[b - 1] % 8 + 1)
                 for a, b in zip([0, *cuts], [*cuts, len(slots)]))


def _half_step_table(units: tuple, left: bool, runs: tuple = _ALL_RUNS,
                     fold: tuple = _UNFOLDED) -> tuple:
    """(index columns, parts) of the half-step M X (left) or Y M† for one structure.

    units[e] lists the units that entry e of M uses, or is None for an
    identity entry.  Output block (i, j) of 8 slots takes one product from
    each unit of each nonzero entry (i, k) of M (left) or (j, k) (right); a
    block that takes only an identity entry is a copy.  Only the slots of
    runs are formed: the columns are the m and x slots of the products of one
    term, then of two (see _zipped), and parts lists the formed slots in the
    order of runs as (kind, indices): products of one term (kind 0) or of two
    (1) as a range of their indices, or copies (2) as the bytes of the x
    slots copied.  A fold (sources, negations), as translation tables, reads
    x[o] as x[sources[o]], negated where negations[o] (which is then 255,
    else 0).
    """
    products, factors = _PRODUCTS[left], _FACTORS[left]
    sources, negations = fold
    ones, twos, parts = [], [], []
    n_ones = n_twos = 0
    for block, lo, hi in runs:
        cols, copy = [], None
        for e, x0 in factors[block]:
            entry = units[e]
            if entry is None:
                copy, entry = x0, (0,)
            for u in entry:
                negs, others = products[u]
                cols.append(((negs + (8 * e + u) * _EACH_BYTE).to_bytes(8, "little")[lo:hi],
                             (others + x0 * _EACH_BYTE).to_bytes(8, "little")[lo:hi]))
        if len(cols) == 1 and copy is not None:
            for negated, run in groupby(_IDENTITY[copy + lo:copy + hi], negations.__getitem__):
                run = bytes(run)
                if negated:    # products 1 * x[o], folded below into -1 * x[sources[o]]
                    parts.append((0, range(n_ones, n_ones + len(run))))
                    ones.append((_COPY_BYTE * len(run), run))
                    n_ones += len(run)
                else:
                    parts.append((2, run.translate(sources)))
        elif len(cols) == 1:
            parts.append((0, range(n_ones, n_ones + hi - lo)))
            ones.append(cols[0])
            n_ones += hi - lo
        elif len(cols) == 2:
            parts.append((1, range(n_twos, n_twos + hi - lo)))
            twos.append(cols)
            n_twos += hi - lo
        else:
            raise AssertionError(f"stage block {divmod(block, 3)} takes {len(cols)} products")
    columns = [b"".join(m for m, _ in ones), b"".join(x for _, x in ones),
               b"".join(c[0][0] for c in twos), b"".join(c[0][1] for c in twos),
               b"".join(c[1][0] for c in twos), b"".join(c[1][1] for c in twos)]
    if fold is not _UNFOLDED:    # m[i] * x[o] reads x[sources[o]], and -m[i] where negated
        for n in (0, 2, 4):
            m, x = columns[n], columns[n + 1]
            keep, swap = int.from_bytes(m, "little"), int.from_bytes(m.translate(_SWAP), "little")
            negate = int.from_bytes(x.translate(negations), "little")
            m = (keep ^ (keep ^ swap) & negate).to_bytes(len(m), "little")
            columns[n:n + 2] = m, x.translate(sources)
    return columns, parts


def _where(columns: list, parts: list, copies: bytes = _IDENTITY) -> bytes:
    """Each formed slot's position in the raw list [products of one term,
    products of two, *x], with x[s] at position copies[s] of x."""
    n_ones, base = len(columns[0]), len(columns[0]) + len(columns[2])
    copies = copies.translate(_IDENTITY[base:] + _IDENTITY[:base])    # + base
    return b"".join(_IDENTITY[n_ones * kind + indices.start:n_ones * kind + indices.stop]
                    if kind < 2 else indices.translate(copies) for kind, indices in parts)


def _read_slots(columns: list, parts: list) -> list:
    """The sorted x slots that a half-step table reads."""
    copied = [slots for kind, slots in parts if kind == 2]
    return sorted(set(columns[1]).union(columns[3], columns[5], *copied))


def _zipped(columns: list) -> tuple:
    """The index columns as (ones, twos): pairs (m slot, x slot) of the
    products of one term, and 4-tuples (m slot, x slot, m slot, x slot) of
    those of two."""
    return tuple(zip(*columns[:2])), tuple(zip(*columns[2:]))


def _table_pair(units: tuple, fold: tuple, last: bool) -> tuple:
    """(left table, right table per shift) of one structure.

    A table is (ones, twos, gather) (see _zipped).  The right half-step
    forms _READ_RUNS if last, else all 72 slots, and its gather gives them
    in state order, or the coordinates in the order of each type.  The left
    half-step forms only the slots that the right one reads, through fold,
    and has no gather: the right table reads them by their position in its
    raw list, which stays below 256 (at most 72 products, then x).
    """
    columns, parts = _half_step_table(units, False, _READ_RUNS if last else _ALL_RUNS)
    formed = _read_slots(columns, parts) if last else range(_NEG)
    left, left_parts = _half_step_table(units, True, _runs(formed) if last else _ALL_RUNS, fold)
    at = bytes.maketrans(bytes(formed), _where(left, left_parts))    # Y's slot -> position
    columns[1::2] = [c.translate(at) for c in columns[1::2]]
    where, right = _where(columns, parts, at), _zipped(columns)
    wheres = [order(where) for order in _READOUTS] if last else [tuple(where)] * 3
    return (*_zipped(left), None), tuple(
        (*right, _GATHERS.get(w) or _GATHERS.setdefault(w, itemgetter(*w))) for w in wheres)


_STAGE_TABLES: dict[tuple, int] = {}      # by (units, flip, first, last): an index into _TABLES
_STAGES: dict[tuple, tuple] = {}          # by (stage, flip, first, last)
_TABLES: list[tuple] = []                 # (left table, right tables, length of the left's x)
_FLIPS: dict[ParamMatrix, tuple] = {}
_TEMPLATES: dict[tuple, tuple] = {}       # by the terms they hold
_CONST = _KINDS["const"][0]
_BLANK = (0.0,) * _COPY + (1.0, -1.0)


def _parts(stage: ParamMatrix) -> tuple:
    """(template, terms, slots, units) of a stage.

    template holds the slots that only constant terms fill, their negations,
    and 1.0 and -1.0 at _COPY and _MINUS.  terms are (value slot, f, k2 / 2,
    coeff) per other term, with float constants: the slot takes
    coeff * f(k2 / 2 * alpha).  slots are the slots of terms, whose
    negations the tables read; units, the structure the tables depend on.
    """
    flat = [terms for row in stage.entries for terms in row]
    terms = [(8 * e + unit, _KINDS[kind][0], k2 / 2, float(coeff))
             for e, entry in enumerate(flat) for kind, k2, unit, coeff in entry]
    varying = {t[0] for t in terms if t[1] is not _CONST}
    fixed = tuple(t for t in terms if t[0] not in varying)
    template = _TEMPLATES.get(fixed)
    if template is None:
        template = tuple(_stage_values(_BLANK, fixed, {t[0] for t in fixed}, 0.0))
        _TEMPLATES[fixed] = template
    units = tuple([None if entry == _ONE else tuple(sorted({t[2] for t in entry})) if entry else ()
                   for entry in flat])
    return template, tuple(t for t in terms if t[0] in varying), tuple(sorted(varying)), units


def _fold(flip: Optional[ParamMatrix], first: bool) -> tuple:
    """The fold of a stage's left table: flip's, after _STATE if first."""
    fold = _signed_permutation(flip) if flip else _UNFOLDED
    if first:    # the flip moves X's coefficients, which _STATE reads
        sources, negations = fold
        negate = int.from_bytes(negations, "little") ^ int.from_bytes(
            sources.translate(_STATE[1]), "little")
        fold = sources.translate(_STATE[0]), negate.to_bytes(256, "little")
    return fold


def _compile_stage(stage: ParamMatrix, flip: Optional[ParamMatrix], first: bool,
                   last: bool) -> tuple:
    """Per shift, the stage's entry (template, terms, slots, left table,
    right table, stage, index of the tables in _TABLES), shared by equal stages.

    The tables are built once per structure and fold: flip, the constant
    stage run just before this one or None, and for the first stage the
    state gather, are folded into the left table.
    """
    compiled = _STAGES.get((stage, flip, first, last))
    if compiled is None:
        template, terms, slots, units = _parts(stage)
        index = _STAGE_TABLES.get((units, flip, first, last))
        if index is None:
            index = _STAGE_TABLES[units, flip, first, last] = len(_TABLES)
            _TABLES.append((*_table_pair(units, _fold(flip, first), last), 28 if first else _NEG))
        left, rights, _ = _TABLES[index]
        compiled = _STAGES[stage, flip, first, last] = tuple(
            (template, terms, slots, left, right, stage, index) for right in rights)
    return compiled


def _signed_permutation(stage: ParamMatrix) -> tuple:
    """(sources, negations) of a constant stage, as translation tables: its
    result at slot o is x[sources[o]], negated where negations[o] (which is
    then 255, else 0).

    The stage's two half-steps run once on x[j] = j + 1: with no sums of
    two and slots of +-1, result o is +-(source + 1).  AssertionError unless
    the sources are each slot once.
    """
    perm = _FLIPS.get(stage)
    if perm is None:
        template, terms, slots, units = _parts(stage)
        m = [int(v) for v in _stage_values(template, terms, slots, 0.0)]
        left, (right, *_) = _table_pair(units, _UNFOLDED, False)
        tags = range(1, _NEG + 1)
        y = _half_step(left, m, tags, tags)
        result = _half_step(right, m, y, y)
        if left[1] or right[1] or max(map(abs, m)) != 1 or sorted(map(abs, result)) != list(tags):
            raise AssertionError("a constant stage is not a signed permutation of the state")
        perm = _FLIPS[stage] = (bytes(abs(v) - 1 for v in result).ljust(256, b"\0"),
                                bytes(255 * (v < 0) for v in result).ljust(256, b"\0"))
    return perm


def _is_constant(stage: ParamMatrix) -> bool:
    """Whether every term of the stage is a constant +-1, as in a flip."""
    return all(t[0] == "const" and t[3] in (1, -1) for row in stage.entries
               for entry in row for t in entry)


_KERNELS: dict[GeneratorLabel, tuple] = {}    # by label as passed
_CHAINS: dict[GeneratorLabel, tuple] = {}     # by type-1 label


def _chains(label: GeneratorLabel) -> tuple:
    """Per shift, the compiled product stages of the type-1 label's action.

    A constant stage that another follows is folded into that one's left table.
    """
    chains = _CHAINS.get(label)
    if chains is None:
        seq, stages, flip = _sequence(label), [], None
        for n, stage in enumerate(seq):
            if flip is None and n + 1 < len(seq) and _is_constant(stage):
                flip = stage
            else:
                stages.append(_compile_stage(stage, flip, not stages, n + 1 == len(seq)))
                flip = None
        chains = _CHAINS[label] = tuple(zip(*stages))
    return chains


def _kernel(label: GeneratorLabel) -> tuple:
    """(shift, compiled product stages) of the label's action: one lookup once built."""
    try:
        kernel = _KERNELS.get(label)
    except TypeError:    # an unhashable field, such as a list plane: validate_label refuses it
        raise IllegalLabel(f"illegal label {label!r}") from None
    if kernel is None or type(label.type_index) is not int:    # 2.0 and True hash as ints
        shift = _shift(label)
        kernel = _KERNELS[label] = (shift, _chains(label._replace(type_index=1))[shift])
    return kernel


def _stage_values(template: tuple, terms: tuple, slots, alpha: float) -> list:
    """The stage's 146 float slots at alpha: M's coefficients, negations, 1.0, -1.0."""
    m = list(template)
    for slot, f, k, coeff in terms:
        m[slot] = m[slot] + coeff * f(k * alpha)
    for slot in slots:
        m[_NEG + slot] = -m[slot]
    return m


def _half_step(table: tuple, m: list, x, copies) -> list:
    """One half-step of the stage: products of m and x, then the copy sources,
    gathered, or as the raw list if the table has no gather."""
    ones, twos, gather = table
    v = [m[i] * x[j] for i, j in ones]
    v += [m[i] * x[j] + m[k] * x[l] for i, j, k, l in twos]
    v += copies
    return v if gather is None else gather(v)


_SHIFTS = {1: 0, 2: 1, 3: 2}


def _shift(label: GeneratorLabel) -> int:
    """t - 1 for the label's type t: the shift of its gathers.

    IllegalLabel for any other type index, which as an index into the
    gathers would run another type (0 and -1) or fail (4), and for a float
    or bool, which the dict lookup would take for the int it equals.
    """
    t = label.type_index
    shift = _SHIFTS.get(t) if type(t) is int else None
    if shift is None:
        raise IllegalLabel(f"type index out of range in {label!r}")
    return shift


def apply(label: GeneratorLabel, alpha: float, chi: JordanElement) -> JordanElement:
    """Float evaluation of the finite group action at parameter alpha.

    Each stage acts by X -> (M X) M† on the full matrix of chi, through the
    stage kernel above; for finite values every coordinate has the bits of
    the same computation with 3x3 products of octonion entries.  A type-t
    label runs as P^(t-1) A P^(1-t), with A its type-1 action and P the type
    cycle, by rotating chi's fields and the result's; each coefficient is
    the same sum of at most two products, so the bits are the type-t ones.
    """
    alpha = float(alpha)
    shift, stages = _kernel(label)
    x = [*map(float, _ROTATE[shift](chi.coords) if shift else chi.coords), 0.0]
    for template, terms, slots, left, right, _, _ in stages:
        m = _stage_values(template, terms, slots, alpha)
        y = _half_step(left, m, x, x)
        x = _half_step(right, m, y, y)
    return JordanElement(tuple([v + 0.0 for v in x]))


# action_matrix reads each half-step table from the source side: per input
# position, the (output position, m slot) pairs it feeds, with m slot
# _COPY = 1.0 for a copy; a left table's pairs whose output the right one
# does not read are dropped.  A basis column fills few positions, so its pass
# follows the nonzeros.  It forms the products `apply` forms, in either
# order (a sum of two floats is commutative), and skips those of unreached
# positions: +-0 in `apply`, times a finite stage value, changes no sum of
# two.  So each column has the bits of `apply` on that basis element; every
# sum starts from +0.0, so no zero is negative.

_SOURCES: dict[int, tuple] = {}       # by index into _TABLES
_PAIRS: dict[tuple, tuple] = {}       # one copy of each (output position, m slot) pair


def _sources(table: tuple, n_in: int) -> list:
    """Per input position of the table, the (output position, m slot) pairs it feeds."""
    ones, twos, gather = table
    products = [((i, j),) for i, j in ones]
    products += [((i, j), (k, l)) for i, j, k, l in twos]
    products += [((_COPY, j),) for j in range(n_in)]
    feeds = [[] for _ in range(n_in)]
    for out, pairs in enumerate(products if gather is None else gather(products)):
        for i, j in pairs:
            feeds[j].append(_PAIRS.setdefault((out, i), (out, i)))
    return feeds


def _source_side(index: int) -> tuple:
    """(left form, right form) of the tables _TABLES[index], built once.

    The last right form gives the coordinates in type-1 order.
    """
    form = _SOURCES.get(index)
    if form is None:
        left, (right, *_), n_in = _TABLES[index]
        second = _sources(right, len(left[0]) + len(left[1]) + n_in)
        feeds = _sources(left, n_in)
        if n_in == 28:    # a first stage: no basis column reaches the zero at input 27
            del feeds[27]
        first = [tuple(p for p in pairs if second[p[0]]) for pairs in feeds]
        form = _SOURCES[index] = (tuple(first), tuple(map(tuple, second)))
    return form


def action_matrix(label: GeneratorLabel, alpha: float) -> list[list[float]]:
    """The finite action at parameter alpha as a 27x27 float matrix.

    Columns are the images of the coordinate basis elements, so
    action_matrix(label, alpha) @ to_coords(chi) == to_coords(apply(label, alpha, chi)),
    and column j has the bits of to_coords(apply(label, alpha, e_j)).  The
    27 columns pass sparsely through the type-1 kernel, with each stage's
    values computed once; as `apply` rotates fields, coordinate i of type t
    is coordinate sigma[i] of type 1, its field shifted by -(t - 1).
    """
    alpha = float(alpha)
    shift, stages = _kernel(label)
    passes = []
    for template, terms, slots, _, _, _, index in stages:
        m = _stage_values(template, terms, slots, alpha)
        first, second = _source_side(index)
        passes += [(first, m), (second, m)]
    order = _ORDERS[shift]
    cols = []
    for j in order:
        x = {j: 1.0}
        for feeds, m in passes:
            y = {}
            for slot, v in x.items():
                for out, i in feeds[slot]:
                    y[out] = y.get(out, 0.0) + m[i] * v
            x = y
        cols.append([x.get(k, 0.0) for k in order])
    return [list(row) for row in zip(*cols)]


def apply_dual(label: GeneratorLabel, chi: JordanElement) -> tuple[JordanElement, JordanElement]:
    """(value, 2 * d/dalpha) of the label's action on chi at alpha = 0, exactly.

    Each stage X -> (M X) M† is differentiated by the product rule on the
    integer slot vectors M(0) and 2 M'(0) (ParamMatrix.at_zero), through the
    stage kernel's tables and with the same association as `apply`:

        X <- (M X) M†,    D <- (M' X + M D) M† + (M X) M'†.

    A flip folded into a left table has M' = 0: its constant slot _MINUS
    is -1 in M and 0 in M'.  Only integer stage entries multiply the
    coordinates of chi, so chi may have any coefficients that add and scale
    by int, such as the packed ints of algebra's generic element.  For
    integer chi both results have integer coordinates; the value is chi.  A
    type-t label runs its type-1 stages on chi's rotated fields, through the
    gathers that `apply` uses.
    """
    shift, stages = _kernel(label)
    x = [*(_ROTATE[shift](chi.coords) if shift else chi.coords), 0]
    d = [0] * len(x)
    for _, _, _, left, right, stage, _ in stages:
        value, twice = stage.at_zero()
        m = value + [-v for v in value] + [1, -1]
        dm = twice + [-v for v in twice] + [0, 0]
        mx = _half_step(left, m, x, x)
        inner = list(map(add, _half_step(left, dm, x, [0] * len(x)), _half_step(left, m, d, d)))
        d = list(map(add, _half_step(right, m, inner, inner),
                     _half_step(right, dm, mx, [0] * len(mx))))
        x = _half_step(right, m, mx, mx)
    return JordanElement(x), JordanElement(tuple(d))
