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
before and after them, a rotation folded into the gathers that load and
read the state.  One stage kernel, compiled once per sparsity structure of
the stage matrices, runs both evaluations as flat index tables over the 72
coefficients of the full 3x3 matrix.  A constant stage (the flip that starts
each transverse rotation) is a signed permutation of the coefficients,
folded into the tables of the stage after it, and the last stage forms only
the 27 that the readout keeps, and the ones that those are formed from.
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
from operator import add, itemgetter, neg
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
    through the gathers of that shift (_LAYOUTS), not through other stages.
    """
    stages = []
    for core, angle in cores(label):
        stages += _core_stages(core.category, core.plane, angle)
    return stages


def _type_1(label: GeneratorLabel) -> GeneratorLabel:
    return label if label.type_index == 1 else label._replace(type_index=1)


_SEQUENCE_CACHE: dict[GeneratorLabel, list[ParamMatrix]] = {}    # type-1 labels only


def _sequence(label: GeneratorLabel) -> list[ParamMatrix]:
    """build_sequence(label), built once per type-1 label."""
    label = _type_1(label)
    seq = _SEQUENCE_CACHE.get(label)
    if seq is None:
        seq = _SEQUENCE_CACHE[label] = build_sequence(label)
    return seq


# ---------------------------------------------------------------------------
# stage kernel
#
# The kernel keeps the full 3x3 octonion matrix X of chi as a state of 72
# coefficients, entry (i, j) unit u at 8 * (3 * i + j) + u.  A stage fills 146
# slots m: the coefficients of M in the same layout, their negations, then
# the constants 1 and -1 (_COPY, _MINUS).  Each half-step, M X and then
# (M X) M†, gives every state coefficient as the sum of one or two products
# m * x: the products that a 3x3 product of octonion entries forms (the
# `Octonion` reference of tests/reference.py), and those it skips because a
# factor is zero.  A block that only an identity entry (`_ONE`) reaches is a
# copy of a source the caller passes: the state for M, zeros for M' (the
# derivative of a constant is 0).
# `apply` runs the tables on floats, `apply_dual` on ints, packed ints included.
# For floats, a zero product changes no sum of two, and float addition of two
# terms is commutative, so every nonzero float has the bits of the octonion
# computation; a zero may differ in sign, which the final + 0.0 clears.  (For
# finite values: the octonion product never forms 0 * inf, which is nan.)  Which
# products appear depends only on which units each entry of M uses, so the
# tables are built once per such sparsity structure.
#
# A constant stage (the flip M = -q I that starts each transverse rotation)
# is a signed permutation of the state, x[o] -> +-x[s], and is folded into
# the left table of the stage after it: a product m[i] * x[o] reads x[s], and
# the negation slot of m[i] where x[o] is negated; a copy of x[o] reads x[s],
# or is the product m[_MINUS] * x[s] where negated.  (-m) * y and m * (-y)
# have the same bits, as have -1.0 * y and -y, signed zeros and infinities
# included; only a nan's sign may differ.  So a call runs no permutation,
# only product passes.  The last stage's right half-step forms only the 27
# slots of _READ_RUNS, and its left half-step only the slots that those read.

_NEG = 72
_COPY, _MINUS = 2 * _NEG, 2 * _NEG + 1
_ZEROS = (0,) * _NEG
# The slots a half-step forms, as runs (block, first unit, end unit): all 72
# in state order, or the 27 coordinates p, m, n, a, b, c that the readout keeps.
_ALL_RUNS = tuple((block, 0, 8) for block in range(9))
_READ_RUNS = ((0, 0, 1), (4, 0, 1), (8, 0, 1), (3, 0, 8), (7, 0, 8), (2, 0, 8))

# An 8-byte index pattern read as an int: adding d * _EACH_BYTE adds d to each
# of its bytes (every index stays below 256, so no byte carries).
_EACH_BYTE = int.from_bytes(bytes([1] * 8), "little")
_IDENTITY, _MINUS_BYTE = bytes(range(256)), bytes([_MINUS])


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
                     flip: Optional[tuple] = None, compact: bool = False) -> tuple:
    """(index tables, x slots read) of the half-step M X (left) or Y M† for one structure.

    units[e] lists the units that entry e of M uses, or is None for an
    identity entry.  Output block (i, j) of 8 slots takes one product from
    each unit of each nonzero entry (i, k) of M (left) or (j, k) (right); a
    block that takes only an identity entry is a copy.  Only the slots of
    runs are formed: products of one and of two terms go to two flat lists,
    and the gather returns them and the copies in the order of runs.  With
    a flip (_signed_permutation), x[o] is read as x[sources[o]], negated
    where negations[o].  With compact, x holds only the slots that the table
    reads, by position, and they are returned sorted; else None.
    """
    products, factors = _PRODUCTS[left], _FACTORS[left]
    sources, negations = flip or (None, None)
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
                x = (others + x0 * _EACH_BYTE).to_bytes(8, "little")
                if flip:    # XOR with _NEG swaps an m slot and its negation
                    negs ^= int.from_bytes(x.translate(negations), "little")
                    x = x.translate(sources)
                cols.append(((negs + (8 * e + u) * _EACH_BYTE).to_bytes(8, "little")[lo:hi],
                             x[lo:hi]))
        if len(cols) == 1 and copy is not None and not flip:
            parts.append((2, copy + lo, hi - lo))
        elif len(cols) == 1 and copy is not None:
            for o in range(copy + lo, copy + hi):
                if negations[o]:    # the product -1 * x[sources[o]]
                    parts.append((0, n_ones, 1))
                    ones.append((_MINUS_BYTE, sources[o:o + 1]))
                    n_ones += 1
                else:
                    parts.append((2, sources[o], 1))
        elif len(cols) == 1:
            parts.append((0, n_ones, hi - lo))
            ones.append(cols[0])
            n_ones += hi - lo
        elif len(cols) == 2:
            parts.append((1, n_twos, hi - lo))
            twos.append(cols)
            n_twos += hi - lo
        else:
            raise AssertionError(f"stage block {divmod(block, 3)} takes {len(cols)} products")
    columns = [b"".join(m for m, _ in ones), b"".join(x for _, x in ones),
               b"".join(c[0][0] for c in twos), b"".join(c[0][1] for c in twos),
               b"".join(c[1][0] for c in twos), b"".join(c[1][1] for c in twos)]
    at, reads = _IDENTITY, None
    if compact:
        copied = (range(first, first + n) for kind, first, n in parts if kind == 2)
        reads = sorted(set(columns[1]).union(columns[3], columns[5], *copied))
        at = bytes.maketrans(bytes(reads), bytes(range(len(reads))))
        columns[1::2] = [c.translate(at) for c in columns[1::2]]
    bases = (0, n_ones, n_ones + n_twos)
    where = []
    for kind, first, n in parts:
        first = bases[kind] + (at[first] if kind == 2 else first)
        where += range(first, first + n)
    where = tuple(where)
    gather = _GATHERS.get(where)
    if gather is None:
        gather = _GATHERS[where] = itemgetter(*where)
    return (*columns, gather), reads


_STAGE_TABLES: dict[tuple, tuple] = {}    # by (units, last, flip)
_STAGES: dict[tuple, tuple] = {}          # by (stage, flip, last)
_FLIPS: dict[ParamMatrix, tuple] = {}


def _parts(stage: ParamMatrix) -> tuple:
    """(terms, slots, units) of a stage.

    terms are (value slot, f, k2 / 2, coeff) per term, with float constants:
    the slot takes coeff * f(k2 / 2 * alpha).  slots are the slots whose
    negation the tables read; units, the structure the tables depend on.
    """
    flat = [terms for row in stage.entries for terms in row]
    terms = tuple((8 * e + unit, _KINDS[kind][0], k2 / 2, float(coeff))
                  for e, entry in enumerate(flat) for kind, k2, unit, coeff in entry)
    units = tuple(None if entry == _ONE else tuple(sorted({t[2] for t in entry}))
                  for entry in flat)
    return terms, tuple(sorted({t[0] for t in terms})), units


def _compile_stage(stage: ParamMatrix, flip: Optional[ParamMatrix], last: bool) -> tuple:
    """(terms, slots, left table, right table, stage), shared by equal stages.

    The tables are built once per structure.  A last stage's right half-step
    forms only _READ_RUNS, reading Y's slots by position among those it
    reads, and its left one forms only those.  flip, the constant stage run
    just before this one or None, is folded into the left table.
    """
    compiled = _STAGES.get((stage, flip, last))
    if compiled is None:
        terms, slots, units = _parts(stage)
        tables = _STAGE_TABLES.get((units, last, flip))
        if tables is None:
            right, reads = _half_step_table(units, False, _READ_RUNS if last else _ALL_RUNS,
                                            compact=last)
            left = _half_step_table(units, True, _runs(reads) if last else _ALL_RUNS,
                                    flip and _signed_permutation(flip))[0]
            tables = _STAGE_TABLES[units, last, flip] = (left, right)
        compiled = _STAGES[stage, flip, last] = (terms, slots, *tables, stage)
    return compiled


def _signed_permutation(stage: ParamMatrix) -> tuple:
    """(sources, negations) of a constant stage, as translation tables: its
    result at slot o is x[sources[o]], negated where negations[o] (which is
    then _NEG, else 0).

    The stage's two half-steps run once on x[j] = j + 1: with no sums of
    two and slots of +-1, result o is +-(source + 1).  AssertionError unless
    the sources are each slot once.
    """
    perm = _FLIPS.get(stage)
    if perm is None:
        terms, slots, units = _parts(stage)
        m = [int(v) for v in _stage_values(terms, slots, 0.0)]
        left, right = (_half_step_table(units, half)[0] for half in (True, False))
        tags = range(1, _NEG + 1)
        y = _half_step(left, m, tags, tags)
        result = _half_step(right, m, y, y)
        if left[2] or right[2] or max(map(abs, m)) != 1 or sorted(map(abs, result)) != list(tags):
            raise AssertionError("a constant stage is not a signed permutation of the state")
        perm = _FLIPS[stage] = (bytes(abs(v) - 1 for v in result).ljust(256, b"\0"),
                                bytes(_NEG * (v < 0) for v in result).ljust(256, b"\0"))
    return perm


def _is_constant(stage: ParamMatrix) -> bool:
    """Whether every term of the stage is a constant +-1, as in a flip."""
    return all(t[0] == "const" and t[3] in (1, -1) for row in stage.entries
               for entry in row for t in entry)


_KERNELS: dict[GeneratorLabel, tuple] = {}    # type-1 labels only


def _kernel(label: GeneratorLabel) -> tuple:
    """The compiled product stages of the label's type-1 action.

    A constant stage that another follows is folded into that one's left table.
    """
    label = _type_1(label)
    kernel = _KERNELS.get(label)
    if kernel is None:
        seq, stages, flip = _sequence(label), [], None
        for n, stage in enumerate(seq):
            if flip is None and n + 1 < len(seq) and _is_constant(stage):
                flip = stage
            else:
                stages.append(_compile_stage(stage, flip, n + 1 == len(seq)))
                flip = None
        kernel = _KERNELS[label] = tuple(stages)
    return kernel


def _stage_values(terms: tuple, slots: tuple, alpha: float) -> list:
    """The stage's 146 float slots at alpha: M's coefficients, negations, 1.0, -1.0."""
    m = [0.0] * (2 * _NEG + 2)
    m[_COPY], m[_MINUS] = 1.0, -1.0
    for slot, f, k, coeff in terms:
        m[slot] = m[slot] + coeff * f(k * alpha)
    for slot in slots:
        m[_NEG + slot] = -m[slot]
    return m


def _half_step(table: tuple, m: list, x, copies) -> tuple:
    """One half-step of the stage: products of m and x, copies from `copies`."""
    ones_m, ones_x, twos_m, twos_x, twos_m2, twos_x2, gather = table
    v = [m[i] * x[j] for i, j in zip(ones_m, ones_x)]
    v += [m[i] * x[j] + m[k] * x[l] for i, j, k, l in zip(twos_m, twos_x, twos_m2, twos_x2)]
    v += copies
    return gather(v)


# The state of chi and its readout are single gathers.  The state gathers
# from chi's 27 coordinates, their 27 negations (conj negates the imaginary
# units) and one zero for the empty units of the diagonal entries.  The last
# stage leaves the 27 slots of _READ_RUNS, in that order, and the readout
# gathers the coordinates from them.  A type-t label runs the type-1 kernel
# on chi's fields rotated back by shift = t - 1, and the result's fields are
# rotated forward again; both rotations are folded into the gathers of that
# shift.

def _rotation(shift: int) -> list[int]:
    """[k]: the coordinate of chi that is coordinate k once p, m, n and a, b, c
    are each rotated back by shift; _rotation(-shift) undoes it."""
    return [(k + shift) % 3 if k < 3 else 3 + (k - 3 + 8 * shift) % 24 for k in range(27)]


def _entry(start: int, conj: bool) -> list[int]:
    """The 8 gather indices of octonion coordinates start.. or of their conj."""
    return [start] + [start + u + 27 * conj for u in range(1, 8)]


_ZERO_AT = 54
_PAD = [_ZERO_AT] * 7      # the empty units of a diagonal entry
_STATE_INDICES = ([0] + _PAD + _entry(3, True) + _entry(19, False)       # p, conj(a), c
                  + _entry(3, False) + [1] + _PAD + _entry(11, True)     # a, m, conj(b)
                  + _entry(19, True) + _entry(11, False) + [2] + _PAD)   # conj(c), b, n


def _layouts(shift: int) -> tuple:
    """(state gather, readout positions in _READ_RUNS, readout gather) for one shift."""
    rotated = _rotation(shift)
    state = [i if i == _ZERO_AT else i - i % 27 + rotated[i % 27] for i in _STATE_INDICES]
    read = tuple(_rotation(-shift))
    return itemgetter(*state), read, itemgetter(*read)


_LAYOUTS = tuple(map(_layouts, range(3)))
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


def _state(coords, zero, shift: int = 0) -> tuple:
    """The 72 coefficients of the full matrix of chi, from its coordinates."""
    return _LAYOUTS[shift][0]([*coords, *map(neg, coords), zero])


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
    shift = _shift(label)
    x = _state(tuple(map(float, chi.coords)), 0.0, shift)
    for terms, slots, left, right, _ in _kernel(label):
        m = _stage_values(terms, slots, alpha)
        y = _half_step(left, m, x, x)
        x = _half_step(right, m, y, y)
    return JordanElement(tuple([v + 0.0 for v in _LAYOUTS[shift][2](x)]))


# action_matrix reads each half-step table from the source side: per state
# slot, the one or two (output slot, m slot) pairs it feeds, with m slot
# _COPY = 1.0 for a copy, or none where the last stage does not form the
# slot fed.  A basis column fills few slots, so its pass follows the
# nonzeros.  It forms the products `apply` forms, in either order (a sum of
# two floats is commutative), and skips those of unreached slots: +-0 in
# `apply`, times a finite stage value, changes no sum of two.  So each column
# has the bits of `apply` on that basis element; every sum starts from +0.0,
# so no zero is negative.

_SOURCES: dict[tuple, tuple] = {}     # by half-step table
_PAIRS: dict[tuple, tuple] = {}       # one copy of each (output slot, m slot) pair
_BASIS_COLUMNS: list[dict] = []


def _sources(table: tuple) -> tuple:
    """(first pair, second pair) that each state slot feeds, by slot; None for none."""
    ones_m, ones_x, twos_m, twos_x, twos_m2, twos_x2, gather = table
    products = [((i, j),) for i, j in zip(ones_m, ones_x)]
    products += [((i, j), (k, l)) for i, j, k, l in zip(twos_m, twos_x, twos_m2, twos_x2)]
    products += [((_COPY, j),) for j in range(_NEG)]
    feeds = [[] for _ in range(_NEG)]
    for out, pairs in enumerate(gather(products)):
        for i, j in pairs:
            feeds[j].append(_PAIRS.setdefault((out, i), (out, i)))
    if max(map(len, feeds)) > 2:
        raise AssertionError("a state slot feeds more than two products")
    return (tuple(f[0] if f else None for f in feeds),
            tuple(f[1] if len(f) == 2 else None for f in feeds))


def _source_side(table: tuple) -> tuple:
    """_sources(table), once per half-step table."""
    form = _SOURCES.get(table)
    if form is None:
        form = _SOURCES[table] = _sources(table)
    return form


def _basis_columns() -> list[dict]:
    """The 27 coordinate basis elements as sparse states {slot: +-1.0}."""
    if not _BASIS_COLUMNS:
        for j in range(27):
            x = _state([float(i == j) for i in range(27)], 0.0)
            _BASIS_COLUMNS.append({slot: c for slot, c in enumerate(x) if c})
    return _BASIS_COLUMNS


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
    shift = _shift(label)
    passes = []
    for terms, slots, left, right, _ in _kernel(label):
        m = _stage_values(terms, slots, alpha)
        passes += [(*_source_side(left), m), (*_source_side(right), m)]
    rows = _LAYOUTS[shift][1]
    basis = _basis_columns()
    cols = []
    for j in _rotation(-shift):
        x = basis[j]
        for first, second, m in passes:
            y = {}
            for slot, v in x.items():
                pair = first[slot]
                if pair:
                    out, i = pair
                    y[out] = y.get(out, 0.0) + m[i] * v
                    pair = second[slot]
                    if pair:
                        out, i = pair
                        y[out] = y.get(out, 0.0) + m[i] * v
            x = y
        cols.append([x.get(k, 0.0) for k in rows])
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
    shift = _shift(label)
    x = _state(chi.coords, 0, shift)
    d = _ZEROS
    for _, _, left, right, stage in _kernel(label):
        value, twice = stage.at_zero()
        m = value + [-v for v in value] + [1, -1]
        dm = twice + [-v for v in twice] + [0, 0]
        mx = _half_step(left, m, x, x)
        inner = list(map(add, _half_step(left, dm, x, _ZEROS), _half_step(left, m, d, d)))
        d = list(map(add, _half_step(right, m, inner, inner), _half_step(right, dm, mx, _ZEROS)))
        x = _half_step(right, m, mx, mx)
    read = _LAYOUTS[shift][2]
    return JordanElement(read(x)), JordanElement(read(d))
