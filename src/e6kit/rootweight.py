"""Dynkin diagrams, Cartan matrices, root systems, and weight diagrams.

Supports the classical families A/B/C/D plus G2, F4, and E6.  Roots and
weights are found on exact integer marks (Dynkin labels), then mapped to
floats through a triangular factor of the Gram matrix, long roots of length
sqrt(2).  Vertex identity in the geometry helpers uses 1e-7 rounding.

The root system of each diagram is built once per process and kept for up
to 128 diagrams: about 65 KiB for the 15 diagrams of the float-stream
benchmark, 20.8 MiB for all 95 that diagram() names (tracemalloc, Python
3.11).  root_system returns a new list of the cached roots on each call.
Each weight diagram is built once per diagram and highest marks, and
weights_from_highest returns new lists of its cached weights and edges; the
cache drops its least recently used diagrams past MAX_WEIGHTS weights in all
(646 KiB for the 23 (diagram, marks) inputs of the float-stream benchmark,
1 890 weights, tracemalloc).

Geometry helpers: slicing a diagram into parallel hyperplane levels,
projecting along a direction (Gram-Schmidt, drop the first coordinate),
and a finite isometry search deciding diagram embeddings.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import sys
from array import array
from collections import OrderedDict
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .linalg import span_of

ROUND = 7
TOL = 1e-7

# The largest diagram weights_from_highest builds; it has at most rank edges per weight.
MAX_WEIGHTS = 10_000

# The largest rank of an A/B/C/D diagram: root_system takes 0.07 s for B24
# and 0.1 s for A32 on a 2-vCPU Xeon, and A200 would take minutes.
MAX_RANK = 24

# The candidate images embed_check tries before it gives up.  It counts
# norm-matched candidates only: each search level draws from one norm shell.
SEARCH_BUDGET = 200_000


class SingularCartan(ValueError):
    """Malformed diagram: the Cartan matrix is singular."""


class SearchBudgetExceeded(RuntimeError):
    """The embedding search ran out of candidate budget."""


class DynkinDiagram(NamedTuple):
    """Nodes 0..rank-1; edges (i, j, multiplicity, shorter-node or None)."""

    name: str
    rank: int
    edges: tuple


def _chain(name: str, n: int, special=()):
    """Simply-laced chain 0-1-...-(n-1) with overrides from `special`."""
    edges = [(i, i + 1, 1, None) for i in range(n - 1)]
    for e in special:
        edges[e[0]] = e[1]
    return DynkinDiagram(name, n, tuple(edges))


_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def diagram(name: str) -> DynkinDiagram:
    """Named diagrams: An (n >= 1), Bn/Cn (n >= 2), Dn (n >= 3) up to MAX_RANK, G2, F4, E6."""
    family, digits = name[:1].upper(), name[1:]
    if not (digits.isascii() and digits.isdigit()):    # int() would take "1_0", "+3", " 2"
        raise ValueError(f"unsupported diagram {name!r}")
    n = int(digits)
    low = _MIN_RANK.get(family)
    if low is not None and not low <= n <= MAX_RANK:
        raise ValueError(f"{family} needs rank {low} to {MAX_RANK}")
    if family == "A":
        return _chain(name, n)
    if family == "B":
        # last node short, double bond at the end
        return _chain(name, n, special=[(n - 2, (n - 2, n - 1, 2, n - 1))])
    if family == "C":
        # first node long, double bond toward the short chain
        return _chain(name, n, special=[(0, (0, 1, 2, 1))])
    if family == "D":
        edges = [(i, i + 1, 1, None) for i in range(n - 2)]
        edges.append((n - 3, n - 1, 1, None))
        return DynkinDiagram(name, n, tuple(edges))
    if family == "G" and n == 2:
        return DynkinDiagram(name, 2, ((0, 1, 3, 1),))
    if family == "F" and n == 4:
        return DynkinDiagram(
            name, 4, ((0, 1, 1, None), (1, 2, 2, 2), (2, 3, 1, None))
        )
    if family == "E" and n == 6:
        # chain 0-1-2-3-4 with node 5 attached to the middle node 2
        edges = [(i, i + 1, 1, None) for i in range(4)] + [(2, 5, 1, None)]
        return DynkinDiagram(name, 6, tuple(edges))
    raise ValueError(f"unsupported diagram {name!r}")


def _check_diagram(d: DynkinDiagram) -> None:
    """ValueError unless d is well formed: a plain int rank >= 1, and a tuple of
    edges (i, j, m, short) with plain ints 0 <= i != j < rank and m >= 1, where
    short is None exactly when m == 1 and is i or j otherwise.

    The caches key a diagram by equality, and 2.0 == 2 and True == 1, so a
    malformed diagram must be refused before any cache is asked.
    """
    n = d.rank
    if type(n) is not int or n < 1:
        raise ValueError(f"{d.name}: the rank must be an integer >= 1, got {n!r}")
    if type(d.edges) is not tuple:
        raise ValueError(f"{d.name}: the edges must be a tuple, got {d.edges!r}")
    for edge in d.edges:
        if type(edge) is not tuple or len(edge) != 4:
            raise ValueError(f"{d.name}: an edge is (i, j, m, short), got {edge!r}")
        i, j, m, short = edge
        if not (all(type(x) is int for x in (i, j, m)) and 0 <= i < n and 0 <= j < n
                and i != j and m >= 1
                and (short is None if m == 1 else type(short) is int and short in (i, j))):
            raise ValueError(f"{d.name}: bad edge {edge!r}")


def cartan_matrix(d: DynkinDiagram) -> list:
    """Exact integer Cartan matrix a_ij = 2 (r_i . r_j) / (r_i . r_i).

    ValueError for a malformed diagram (_check_diagram).
    """
    _check_diagram(d)
    a = [[2 if i == j else 0 for j in range(d.rank)] for i in range(d.rank)]
    for i, j, m, short in d.edges:
        if m == 1:
            a[i][j] = a[j][i] = -1
        else:
            lng = i if short == j else j
            a[lng][short] = -1
            a[short][lng] = -m
    return a


def inverse_cartan(d: DynkinDiagram) -> list:
    """Exact A^-1: its column j solves A x = e_j in the span of A's columns."""
    a = cartan_matrix(d)
    n = d.rank
    columns = span_of({i: Fraction(a[i][j]) for i in range(n) if a[i][j]} for j in range(n))
    if columns.rank != n:
        raise SingularCartan(d.name)
    inv = [columns.express({j: Fraction(1)}) for j in range(n)]
    return [[inv[j].get(i, Fraction(0)) for j in range(n)] for i in range(n)]


def root_norms(d: DynkinDiagram) -> list:
    """Squared lengths per node, long roots normalized to 2 (exact)."""
    a = cartan_matrix(d)
    norms = [None] * d.rank
    norms[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(d.rank):
            if a[i][j] and norms[j] is None:
                # n_j / n_i = a_ij / a_ji
                norms[j] = norms[i] * Fraction(a[i][j], a[j][i])
                queue.append(j)
    top = max(norms)
    return [Fraction(2) * n / top for n in norms]


def gram_matrix(d: DynkinDiagram) -> list:
    """Exact Gram matrix G_ij = r_i . r_j of the simple roots."""
    a = cartan_matrix(d)
    norms = root_norms(d)
    return [
        [norms[i] if i == j else Fraction(a[i][j]) * norms[i] / 2
         for j in range(d.rank)]
        for i in range(d.rank)
    ]


def _fsum(values) -> float:
    """Left to right: from Python 3.12 on, sum() compensates float rounding."""
    total = 0.0
    for x in values:
        total += x
    return total


def simple_roots(d: DynkinDiagram) -> list:
    """Float vectors in R^rank whose Gram matrix matches the diagram."""
    g = [[float(v) for v in row] for row in gram_matrix(d)]
    n = d.rank
    low = [[0.0] * n for _ in range(n)]  # lower-triangular factor
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j] - _fsum(low[i][k] * low[j][k] for k in range(j))
            if i == j:
                if s <= 0:
                    raise SingularCartan(d.name)
                low[i][j] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return [tuple(row) for row in low]


def fundamental_weights(d: DynkinDiagram) -> list:
    """Weight vectors w^i = sum_k (A^-1)_ki r^k in simple-root coordinates."""
    inv = inverse_cartan(d)
    return [[inv[k][i] for k in range(d.rank)] for i in range(d.rank)]


# ---------------------------------------------------------------------------
# weight diagrams by the mark algorithm

class Weight(NamedTuple):
    mark: tuple
    coords: tuple


class WeightDiagram:
    """The weights of a highest-weight module, and the edges between them."""

    __slots__ = ("diagram", "highest", "weights", "edges")

    def __init__(self, diagram: DynkinDiagram, highest: tuple, weights: list, edges: list):
        self.diagram, self.highest, self.weights = diagram, highest, weights
        self.edges = edges  # (from_mark, to_mark, simple-root index)


@functools.lru_cache(maxsize=128)
def _mark_coords(d: DynkinDiagram):
    """The map from a mark to float coordinates: c = A^-1 mark on the simple roots.

    With A^-1 scaled by the lcm L of its denominators, c_k is an integer dot
    product divided once by L, rounded correctly as float(Fraction) is.  Built
    once per diagram, so root_system and weights_from_highest share it.
    """
    inv = inverse_cartan(d)
    scale = math.lcm(*(v.denominator for row in inv for v in row))
    scaled = [[int(v * scale) for v in row] for row in inv]
    roots = simple_roots(d)

    def coords(mark: tuple) -> tuple:
        cs = [sum(m * x for m, x in zip(mark, row)) / scale for row in scaled]
        return tuple(_fsum(c * r[t] for c, r in zip(cs, roots)) for t in range(d.rank))

    return coords


# The weight diagrams built so far, least recently used first: by (diagram,
# highest marks), (weights, their marks, edges as a flat array of index
# triples (from, to, simple root) into them).  It holds at most MAX_WEIGHTS
# weights in all.
_WEIGHT_DIAGRAMS: OrderedDict = OrderedDict()


def weights_from_highest(d: DynkinDiagram, highest) -> WeightDiagram:
    """All weights reached by mark subtraction from the highest mark.

    Weights are taken depth by depth, so those above are known, and each
    alpha_j-string is walked once, from its top (mark[j] > 0, no weight one
    alpha_j above): every edge appears once.  ValueError unless there is one
    mark per node, each a non-negative integer, and for a diagram past
    MAX_WEIGHTS as soon as it gets there; cartan_matrix, called first, refuses a
    malformed diagram before any cache is asked.

    Built once per diagram and marks (1.0 and True count as 1); each call
    gets new lists of the cached weights and edges.
    """
    a = cartan_matrix(d)
    n = d.rank
    marks = tuple(highest)
    if len(marks) != n:
        raise ValueError(f"{d.name} needs {n} highest-weight marks, got {len(marks)}")
    try:
        highest = tuple(int(x) for x in marks)
    except (TypeError, ValueError, OverflowError):
        highest = None
    if highest != marks:    # 1.5 would truncate to 1
        raise ValueError(f"highest-weight marks must be integers, got {list(marks)}")
    if any(x < 0 for x in highest):
        raise ValueError(f"highest-weight marks must be non-negative, got {list(highest)}")
    key = (d, highest)
    cached = _WEIGHT_DIAGRAMS.pop(key, None)
    try:
        if cached is None or len(cached[0]) > MAX_WEIGHTS:    # the latter built under a larger bound
            cached = _weight_diagram(d, a, highest)
        _WEIGHT_DIAGRAMS[key] = cached    # the most recently used
    finally:    # a lowered MAX_WEIGHTS holds from the next call on, whether it builds or raises
        held = sum(len(weights) for weights, _, _ in _WEIGHT_DIAGRAMS.values())
        while held > MAX_WEIGHTS:
            held -= len(_WEIGHT_DIAGRAMS.popitem(last=False)[1][0])
    weights, sorted_marks, triples = cached
    at = iter(triples)
    edges = [(sorted_marks[i], sorted_marks[k], j) for i, k, j in zip(at, at, at)]
    return WeightDiagram(d, highest, list(weights), edges)


def _weight_diagram(d: DynkinDiagram, a: list, highest: tuple) -> tuple:
    """The walk of weights_from_highest, as kept in _WEIGHT_DIAGRAMS."""
    n = d.rank
    seen = {highest}
    queue = [(0, highest)]  # (simple roots below the highest, mark)
    edges = []
    while queue:
        depth, mark = heapq.heappop(queue)
        for j in range(n):
            if mark[j] <= 0 or tuple(mark[k] + a[k][j] for k in range(n)) in seen:
                continue
            cur = mark
            for step in range(depth + 1, depth + mark[j] + 1):
                new = tuple(cur[k] - a[k][j] for k in range(n))
                edges.append((cur, new, j))
                if new not in seen:
                    if len(seen) == MAX_WEIGHTS:
                        raise ValueError(f"the diagram of {list(highest)} has more than "
                                         f"{MAX_WEIGHTS} weights")
                    seen.add(new)
                    heapq.heappush(queue, (step, new))
                cur = new
    coords = _mark_coords(d)
    marks = tuple(sorted(seen))
    index = {mark: i for i, mark in enumerate(marks)}
    triples = array("I", [v for cur, new, j in edges for v in (index[cur], index[new], j)])
    return tuple(Weight(m, coords(m)) for m in marks), marks, triples


# ---------------------------------------------------------------------------
# root systems by Weyl closure

def _key(v: tuple) -> tuple:
    return tuple(0.0 if abs(x) < TOL else round(x, ROUND) for x in v)


def reflect(x: tuple, r: tuple) -> tuple:
    c = 2 * sum(a * b for a, b in zip(x, r)) / sum(a * a for a in r)
    return tuple(a - c * b for a, b in zip(x, r))


def root_system(d: DynkinDiagram) -> list:
    """Nonzero roots: the simple roots' marks (Cartan columns) closed first in,
    first out under s_j(mu) = mu - mu_j * (column j), then mapped to floats.

    Built once per diagram; each call returns a new list of the cached roots.
    ValueError for a malformed diagram (_check_diagram).
    """
    _check_diagram(d)
    return list(_roots(d))


@functools.lru_cache(maxsize=128)
def _roots(d: DynkinDiagram) -> tuple:
    a = cartan_matrix(d)
    n = d.rank
    marks = [tuple(a[k][i] for k in range(n)) for i in range(n)]
    seen = set(marks)
    for mark in marks:  # the loop reaches the roots appended while it runs
        for j in range(n):
            if mark[j]:
                new = tuple(mark[k] - mark[j] * a[k][j] for k in range(n))
                if new not in seen:
                    seen.add(new)
                    marks.append(new)
    coords = _mark_coords(d)
    return tuple(coords(m) for m in marks)


# ---------------------------------------------------------------------------
# slicing, projection, embedding

class Slice:
    """The points of one hyperplane level."""

    __slots__ = ("level", "vertices")

    def __init__(self, level: float, vertices: list):
        self.level, self.vertices = level, vertices


def _direction_norm(direction: tuple, name: str, points: list) -> float:
    """The length of `direction`; ValueError if at most 1e-9 or not the points' dimension."""
    if any(len(p) != len(direction) for p in points):
        raise ValueError(f"{name} {tuple(direction)} is not of the points' dimension")
    nn = math.sqrt(sum(x * x for x in direction))
    if not nn > 1e-9:
        raise ValueError(f"zero {name} {tuple(direction)}: it defines no direction")
    return nn


def slice_diagram(points: Iterable, normal: Iterable, roots: Optional[Iterable] = None):
    """Bucket points by inner product with the (normalized) normal u.

    Returns (slices sorted by level, struts).  Struts are pairs (p, q) of
    points in different levels whose difference is a root, _key(p - q) in
    the roots' keys (only when roots given), in order: slice pairs as
    itertools.combinations gives them, then p in the first slice's order,
    then q in the second's.  A zero normal, or a normal or root of another
    dimension than the points, raises ValueError.  points and roots may be
    any iterables; each is read once.

    Only slice pairs that a root can join are searched: (s1, s2) is skipped
    unless some root r has |s1.level - s2.level - r.u| <= slack.  The skip
    misses no strut.  Keys equal to r's put every coordinate of p - q within
    2e-7 of r's, so (p - q).u is within 2e-7 sqrt(n) of r.u in dimension n;
    each level is within 1e-7 of its point's p.u; and the float dot products
    and the subtraction err by at most 4 (n + 1) eps M for coordinates whose
    absolute values sum to at most M per point or root.  slack is twice that
    sum, 2 (2e-7 (1 + sqrt(n)) + 4 (n + 1) eps M).  With a level or a root's
    level that is not finite, every pair is searched.
    """
    points = list(points)
    normal = tuple(normal)
    nn = _direction_norm(normal, "normal", points)
    if roots is not None:
        roots = list(roots)
        if any(len(r) != len(normal) for r in roots):
            raise ValueError(f"the roots are not all of the points' dimension {len(normal)}")
    unit = tuple(x / nn for x in normal)
    buckets: dict = {}
    for p in points:
        lvl = round(sum(a * b for a, b in zip(p, unit)), ROUND)
        lvl = 0.0 if abs(lvl) < TOL else lvl
        buckets.setdefault(lvl, []).append(p)
    slices = [Slice(lvl, pts) for lvl, pts in sorted(buckets.items())]
    struts = []
    if roots is not None:
        rkeys = {_key(r) for r in roots}
        for i, j in _joinable_pairs(points, slices, roots, unit):
            for p in slices[i].vertices:
                for q in slices[j].vertices:
                    if _key(tuple(a - b for a, b in zip(p, q))) in rkeys:
                        struts.append((p, q))
    return slices, struts


def _joinable_pairs(points: list, slices: list, roots: list, unit: tuple):
    """The index pairs i < j of slices, in order, whose level gap a root's
    level r.u can match: the skip rule and slack of slice_diagram."""
    levels = [s.level for s in slices]
    rlevels = sorted({sum(a * b for a, b in zip(r, unit)) for r in roots})
    if not all(map(math.isfinite, levels + rlevels)):
        yield from itertools.combinations(range(len(slices)), 2)
        return
    n = len(unit)
    big = max((sum(map(abs, v)) for v in itertools.chain(points, roots)), default=0.0)
    slack = 2 * (2e-7 * (1 + math.sqrt(n)) + 4 * (n + 1) * sys.float_info.epsilon * big)
    for i, level in enumerate(levels):
        near = set()
        for rl in rlevels:  # s2.level is near s1.level - r.u
            lo = bisect.bisect_left(levels, level - rl - slack, i + 1)
            near.update(range(lo, bisect.bisect_right(levels, level - rl + slack, lo)))
        for j in sorted(near):
            yield i, j


def middle_slice(points: Iterable, normal: Iterable) -> list:
    slices, _ = slice_diagram(points, normal)
    for s in slices:
        if s.level == 0.0:
            return s.vertices
    return []


def _orthonormalize(vectors: list, tol: float) -> tuple[list, list]:
    """Gram-Schmidt in order: (orthonormal basis, the input vectors it kept).

    A vector whose residual norm is at most tol is skipped; the loop stops
    once the basis spans the whole space.
    """
    dim = len(vectors[0])
    basis, kept = [], []
    for v in vectors:
        w = list(v)
        for b in basis:
            c = sum(a * x for a, x in zip(w, b))
            w = [a - c * x for a, x in zip(w, b)]
        nn = math.sqrt(sum(a * a for a in w))
        if nn > tol:
            basis.append(tuple(a / nn for a in w))
            kept.append(v)
            if len(basis) == dim:
                break
    return basis, kept


def _axes(dim: int) -> list:
    return [tuple(1.0 if i == k else 0.0 for i in range(dim)) for k in range(dim)]


def orthogonal_direction(vectors: Iterable) -> tuple:
    """A float direction orthogonal to the given (independent) vectors; ValueError if none given."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("no vectors: their dimension is unknown")
    basis, _ = _orthonormalize(vectors + _axes(len(vectors[0])), 1e-9)
    if len(basis) <= len(vectors):
        raise ValueError("no orthogonal direction: vectors span the space")
    return basis[len(vectors)]


def project(points: Iterable, direction: Iterable) -> list:
    """Project along `direction`: orthonormalize with it first, drop coord 1.

    A zero direction raises ValueError (Gram-Schmidt would skip it and drop
    the first axis instead), and so does one of another dimension than the points.
    """
    points = list(points)
    p = tuple(direction)
    _direction_norm(p, "direction", points)
    basis, _ = _orthonormalize([p] + _axes(len(p)), 1e-9)
    return [tuple(sum(a * x for a, x in zip(pt, b)) for b in basis[1:])
            for pt in points]


def _norm2(v: tuple) -> float:
    return sum(x * x for x in v)


def _near(got: float, want: float) -> bool:
    """Equal within the search's tolerance, 1e-6 relative (absolute below 1)."""
    return abs(got - want) <= 1e-6 * max(1.0, abs(want))


def embed_check(points1: Iterable, points2: Iterable) -> bool:
    """Is there a scaled isometry taking diagram 1 into diagram 2?

    The map must send every vertex of diagram 1 onto a vertex of diagram 2
    and must send the maximal-norm shell of diagram 1 into the
    maximal-norm shell of diagram 2 (the highest-weight rule).  An empty
    diagram 1 embeds anywhere and a non-empty one in no empty target.  A
    diagram 1 of zero vectors only has the zero map, which embeds iff the
    zero vertex is a vertex of the target's maximal shell.

    Search: pick a spanning tuple of diagram-1 vertices and try
    Gram-compatible image tuples in diagram 2, depth first.  Two exact
    rules prune it; neither changes which tuples can succeed:

    * the shells fix the scale: a map of squared scale s sends the shell of
      norm max1 to norm s * max1, and the highest-weight rule needs max2
      there, so the search runs at s = max2 / max1 alone;
    * each level draws from one norm shell: level i tries only the target
      vertices q with |q|^2 = s * |span[i]|^2, listed once per level in
      target order, so the surviving tuples come in the same order.

    Past SEARCH_BUDGET norm-matched candidates it raises SearchBudgetExceeded.
    Either diagram may be any iterable of points; each is read once.
    """
    points1, points2 = list(points1), list(points2)
    if not points1:
        return True
    if not points2:
        return False
    # a linearly independent spanning subset of points1
    basis, span = _orthonormalize(points1, 1e-6)
    k = len(span)
    norms1 = [_norm2(p) for p in points1]
    norms2 = [_norm2(q) for q in points2]
    max1, max2 = max(norms1), max(norms2)
    keys1 = [_key(p) for p in points1]
    keyed2 = [_key(q) for q in points2]
    shell1 = {kp for kp, n in zip(keys1, norms1) if abs(n - max1) < 1e-6}
    shell2 = {kq for kq, n in zip(keyed2, norms2) if abs(n - max2) < 1e-6}
    keys2 = set(keyed2)
    if not k:  # the zero map
        return _key((0.0,) * len(points2[0])) in shell2
    gram1 = [[sum(a * b for a, b in zip(u, v)) for v in span] for u in span]
    # each span vector in the orthonormal basis that extends span: lower-triangular
    coords = [[sum(a * x for a, x in zip(v, b)) for b in basis] for v in span]

    scale2 = max2 / max1    # the shells fix the squared scale
    tried = 0

    def compatible(partial: list) -> bool:
        # the norm (t = n) was matched when the level was drawn; _near is
        # inlined in this inner loop
        n = len(partial) - 1
        for t in range(n):
            want = gram1[n][t] * scale2
            got = sum(a * b for a, b in zip(partial[n], partial[t]))
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                return False
        return True

    def solve_map(images: list) -> list:
        # linear map T with T(span[i]) = images[i]: solve for T(basis[j])
        # column by column through the triangular coords
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

    levels = [[q for q, nq in zip(points2, norms2) if _near(nq, gram1[i][i] * scale2)]
              for i in range(k)]
    # where each point's image must land: the target's shell for a point of
    # the source's shell (shell2 is part of keys2), else any target vertex
    allowed = [shell2 if kp in shell1 else keys2 for kp in keys1]
    stack = [[]]
    while stack:
        partial = stack.pop()
        if len(partial) == k:
            timg = solve_map(partial)
            if all(_key(apply_map(timg, p)) in where for p, where in zip(points1, allowed)):
                return True
            continue
        for q in levels[len(partial)]:
            tried += 1
            if tried > SEARCH_BUDGET:
                raise SearchBudgetExceeded(str(SEARCH_BUDGET))
            cand = partial + [q]
            if compatible(cand):
                stack.append(cand)
    return False
