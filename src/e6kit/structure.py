"""The structure table of sl(3,O) on the preferred basis, and its disk cache.

The table is built on the core basis (the preferred basis with the 21
transverse cores in place of A/G/S), on which all 1344 automorphisms that
permute the imaginary units up to sign act as signed permutations: one basis
pair per orbit is computed (166 of 3003) through an integer dual basis and
verified in integers, and the rest are derived from it exactly.  Seven exact
3x3 changes of basis carry the constants to the preferred basis, where they
lie in 1/6 Z.  The table holds them as one integer table, L c with L = 6
(StructureTable), which the ranks, the Jacobi suite and Stab(l) bracket; the
rational constant is Fraction(L c, L), formed only where `table` prints it.

Only the verbs that read the table (table, verify, stab-l, subalg) import
this module; killing and gellmann work on the tangents alone (algebra).
"""

from __future__ import annotations

import functools
import json
import math
import os
import zlib
from typing import Optional

from .algebra import (_SEVEN, _basis_index, _conjugated, _coordinate_map, _flat_commutator,
                      _operand, _shared_doubled, _unit_map, _weighted_sum, doubled_tangent,
                      preferred_basis)
from .group import GeneratorLabel, all_labels, cores, format_label
from .linalg import SpanBasis, span_of
from .units import IMAGINARY_UNITS

CACHE_ENV = "E6KIT_CACHE"
_CACHE_VERSION = "e6kit-structure-5"
_CONSTANT_COUNT = 2750    # nonzero c_ij^k with i < j on the preferred basis
_SCALE = 6                # the lcm of their denominators


class RankMismatch(RuntimeError):
    pass


class NotInSpan(RuntimeError):
    pass


# _SEVEN (algebra) and _FLIP generate the 1344 automorphisms that permute the
# imaginary units up to sign (Baez, "The Octonions", arXiv math/0105155),
# which act on the core basis as signed permutations.
_FLIP = {"j": "-j", "k": "-k", "kl": "l", "l": "kl", "jl": "il", "il": "jl"}
_TABLE_MOVES = (_SEVEN, _FLIP)


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
    return dict(sorted(_weighted_sum((x, back[c]) for c, x in coeffs.items()).items()))


@functools.cache
def _core_doubled() -> list[dict]:
    """2T of the 78 core-basis labels, built once per process.

    The span and the table read these dicts, and the B and R ones are those
    of the preferred list (algebra._preferred_doubled) too; no caller mutates them.
    """
    shared = _shared_doubled()
    return shared + [doubled_tangent(core) for core in _core_basis()[len(shared):]]


@functools.cache
def _basis_span() -> SpanBasis:
    """The span of the 78 core-basis 2T (_core_doubled), tagged by core-basis index.

    Built once per process; reduce_basis and structure_table read it.
    """
    sb = span_of(_core_doubled())
    if sb.rank != 78:
        raise RankMismatch(f"the core-basis tangents span only {sb.rank} dimensions")
    return sb


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
        coeffs = sb.express(doubled_tangent(label))
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
    span, flat = _basis_span(), _core_doubled()
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

    Q T_k Q^-1 = sign[k] T_perm[k] is checked on the doubled tangents
    (_conjugated) for every k, so a bracket derived through Q is exact:
    [T_perm[i], T_perm[j]] = sign[i] sign[j] sum_k c_ij^k sign[k] T_perm[k].
    NotInSpan if some Q T_k Q^-1 is not plus or minus a basis tangent.
    """
    index = {frozenset(f.items()): k for k, f in enumerate(flat)}
    out = []
    for images in _TABLE_MOVES:
        q, s = _coordinate_map(_unit_map(images))
        perm, sign = [], []
        for k, f in enumerate(flat):
            image = _conjugated(f, q, s)
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


