"""Root systems, weight diagrams, slicing, projection, embedding checks."""

import contextlib
import hashlib
import io
import itertools
import math
import random
import struct
import time
from fractions import Fraction

import pytest
from reference import embed_check as unpruned_embed_check
from reference import pairwise_struts

from e6kit import cli, rootweight
from e6kit.rootweight import (DynkinDiagram, SingularCartan, _key, cartan_matrix,
                              diagram, embed_check,
                              fundamental_weights, inverse_cartan,
                              middle_slice, orthogonal_direction, project,
                              reflect, root_system, simple_roots,
                              slice_diagram, weights_from_highest)

ROOT_COUNTS = [("A2", 6), ("B2", 8), ("C2", 8), ("G2", 12), ("A3", 12),
               ("D3", 12), ("B3", 18), ("C3", 18), ("F4", 48), ("E6", 72)]


def close(a, b, tol=1e-9):
    return max(abs(x - y) for x, y in zip(a, b)) < tol


def test_b3_cartan_and_inverse():
    d = diagram("B3")
    assert cartan_matrix(d) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert inverse_cartan(d) == [
        [Fraction(1), Fraction(1), Fraction(1, 2)],
        [Fraction(1), Fraction(2), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(3, 2)],
    ]


def test_c_family_long_node_first():
    # first simple root long: its row carries the -1, the short row the -2
    assert cartan_matrix(diagram("C3")) == [[2, -1, 0], [-2, 2, -1],
                                            [0, -1, 2]]


def test_b3_vector_representation_marks():
    wd = weights_from_highest(diagram("B3"), [1, 0, 0])
    marks = {w.mark for w in wd.weights}
    assert len(wd.weights) == 7
    assert marks == {(1, 0, 0), (-1, 1, 0), (0, -1, 2), (0, 0, 0),
                     (0, 1, -2), (1, -1, 0), (-1, 0, 0)}


@pytest.mark.parametrize("marks", [[1, -1], [-1, 0], [0, -3]])
def test_negative_highest_mark_raises(marks):
    """A mark below zero is no highest weight: no diagram is made up for it."""
    with pytest.raises(ValueError):
        weights_from_highest(diagram("A2"), marks)


@pytest.mark.parametrize("marks, message", [
    ((1, 0, 0), "A2 needs 2 highest-weight marks, got 3"),
    ((1,), "A2 needs 2 highest-weight marks, got 1"),
    ((1.5, 0), r"marks must be integers, got \[1.5, 0\]"),    # not truncated to (1, 0)
    (("1", 0), "marks must be integers"),
    ((float("nan"), 0), "marks must be integers"),
    ((float("inf"), 0), "marks must be integers"),
])
def test_bad_highest_marks_raise(marks, message):
    """One integer mark per node, or ValueError: no diagram is made up for other input."""
    with pytest.raises(ValueError, match=message):
        weights_from_highest(diagram("A2"), marks)


def test_integral_float_marks_are_the_integers():
    assert weights_from_highest(diagram("A2"), (1.0, 0)).highest == (1, 0)


@pytest.mark.parametrize("name,marks", [
    ("A2", [10**6, 10**6]),      # weights grow with the marks
    ("A1", [10**12]),
    ("E6", [3, 3, 3, 3, 3, 3]),
    ("A1", [10**4]),            # 10001 weights
    ("A2", [60, 60]),
])
def test_oversized_diagram_raises_fast(name, marks):
    """A diagram past MAX_WEIGHTS weights is refused as soon as it gets there."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than"):
        weights_from_highest(diagram(name), marks)
    assert time.perf_counter() - start < 2.0


def test_diagram_at_the_bounds_is_built(monkeypatch):
    """The bound is inclusive: a diagram of exactly MAX_WEIGHTS weights passes."""
    wd = weights_from_highest(diagram("A2"), [20, 20])
    weights, edges = len(wd.weights), len(wd.edges)
    assert (weights, edges) == (1261, 2440)
    monkeypatch.setattr(rootweight, "MAX_WEIGHTS", weights)
    assert len(weights_from_highest(diagram("A2"), [20, 20]).weights) == weights
    monkeypatch.setattr(rootweight, "MAX_WEIGHTS", weights - 1)
    with pytest.raises(ValueError):
        weights_from_highest(diagram("A2"), [20, 20])


@pytest.mark.parametrize("family", "ABCD")
def test_classical_rank_is_bounded(family):
    """The largest A/B/C/D rank builds its root system; one more is refused."""
    n = rootweight.MAX_RANK
    d = diagram(f"{family}{n}")
    assert d.rank == n
    roots = root_system(d)
    assert len(roots) == {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n,
                          "D": 2 * n * (n - 1)}[family]
    with pytest.raises(ValueError):
        diagram(f"{family}{n + 1}")


@pytest.mark.parametrize("name,count", ROOT_COUNTS)
def test_root_counts(name, count):
    assert len(root_system(diagram(name))) == count


def test_simple_roots_match_gram():
    for name in ("A2", "B3", "F4", "G2"):
        d = diagram(name)
        roots = simple_roots(d)
        a = cartan_matrix(d)
        # Cartan integers <ri, rj> * 2 / <rj, rj> recovered from the embedding
        for i in range(d.rank):
            for j in range(d.rank):
                dot = sum(x * y for x, y in zip(roots[i], roots[j]))
                norm = sum(x * x for x in roots[j])
                assert abs(2 * dot / norm - a[j][i]) < 1e-9


def test_weyl_reflection_is_isometry():
    d = diagram("B3")
    roots = root_system(d)
    for r in simple_roots(d):
        for x in roots:
            y = reflect(x, r)
            assert abs(sum(a * a for a in x) - sum(b * b for b in y)) < 1e-9
            assert any(close(y, z) for z in roots)


def test_adjoint_diagram_of_b3_covers_roots():
    wd = weights_from_highest(diagram("B3"), [0, 1, 0])
    nonzero = [w.coords for w in wd.weights
               if max(abs(c) for c in w.coords) > 1e-9]
    roots = root_system(diagram("B3"))
    assert len(nonzero) == 18
    for r in roots:
        assert any(close(r, w) for w in nonzero)


def test_fundamental_weight_marks():
    # fundamental weights come back in simple-root coordinates; in ambient
    # coordinates they pair to the identity against the co-roots
    d = diagram("B3")
    roots = simple_roots(d)
    for i, cs in enumerate(fundamental_weights(d)):
        ambient = [sum(float(c) * r[t] for c, r in zip(cs, roots))
                   for t in range(3)]
        for j in range(3):
            dot = sum(x * y for x, y in zip(ambient, roots[j]))
            norm = sum(x * x for x in roots[j])
            want = 1 if i == j else 0
            assert abs(2 * dot / norm - want) < 1e-9


def test_f4_middle_slice_has_18_vertices():
    d = diagram("F4")
    roots = root_system(d)
    simple = simple_roots(d)
    normal = orthogonal_direction(simple[1:])
    assert len(middle_slice(roots, normal)) == 18


def test_b3_slice_along_short_root_is_b2():
    d = diagram("B3")
    roots = root_system(d)
    # a short root as slicing normal exposes the 8-vertex B2 equator
    short = min(roots, key=lambda r: sum(x * x for x in r))
    mid = middle_slice(roots, short)
    assert len(mid) == 8
    b2 = root_system(diagram("B2"))
    assert embed_check(b2, mid)


def test_b3_slice_along_simple_plane_normal_is_a2_hexagon():
    d = diagram("B3")
    roots = root_system(d)
    simple = simple_roots(d)
    normal = orthogonal_direction(simple[:2])
    mid = middle_slice(roots, normal)
    assert len(mid) == 6
    assert embed_check(root_system(diagram("A2")), mid)


def test_slice_struts_are_roots():
    d = diagram("B3")
    roots = root_system(d)
    slices, struts = slice_diagram(roots, roots[0], roots=roots)
    assert len(slices) >= 3
    for p, q in struts:
        diff = tuple(a - b for a, b in zip(p, q))
        assert any(close(diff, r) for r in roots)


def test_embed_identity_and_rejections():
    a3 = root_system(diagram("A3"))
    c3 = root_system(diagram("C3"))
    assert embed_check(a3, a3)
    # the highest-shell rule rejects A3 inside C3 (long roots missed)
    assert not embed_check(a3, c3)
    # every simple-root image is a target vertex, but no image of a1 + a2 is
    a2 = root_system(diagram("A2"))
    assert not embed_check(a2, a2[:2] + [tuple(-x for x in r) for r in a2[:2]])


@pytest.mark.parametrize("small,big,expected", [
    ("D4", "F4", True), ("B4", "F4", True), ("C3", "F4", True), ("A2", "F4", True),
    ("A5", "E6", True), ("D5", "E6", True),
    ("F4", "E6", False),  # E6 has no short roots for F4's short shell
    ("G2", "F4", False),  # no norm ratio 3 in F4
])
def test_known_embeddings(small, big, expected):
    assert embed_check(root_system(diagram(small)), root_system(diagram(big))) is expected


def test_search_budget_exceeded(monkeypatch):
    """Past SEARCH_BUDGET norm-matched candidates the search gives up loudly."""
    a2, e6 = root_system(diagram("A2")), root_system(diagram("E6"))
    assert embed_check(a2, e6)  # 72 first images, then 72 second ones
    monkeypatch.setattr(rootweight, "SEARCH_BUDGET", 100)
    with pytest.raises(rootweight.SearchBudgetExceeded):
        embed_check(a2, e6)


def test_embed_into_empty_target():
    """An empty diagram embeds anywhere; a non-empty one in no empty target."""
    assert embed_check([], [])
    assert embed_check([], root_system(diagram("A2")))
    assert not embed_check(root_system(diagram("A2")), [])
    assert not embed_check([(0.0, 0.0)], [])


def test_embed_zero_diagram_is_the_zero_map():
    """Zero vectors only: true iff the zero vertex is in the target's maximal shell."""
    zero = [(0.0, 0.0)]
    assert embed_check(zero, [(0.0, 0.0, 0.0)])
    assert embed_check(zero + zero, [(0.0, 0.0)])
    assert not embed_check(zero, root_system(diagram("A2")))  # zero is no root
    wd = weights_from_highest(diagram("B3"), [1, 0, 0])  # zero is a weight of norm below the top
    assert not embed_check(zero, [w.coords for w in wd.weights])


@pytest.mark.parametrize("call", [project, slice_diagram, middle_slice])
def test_zero_direction_raises(call):
    """A zero direction or normal, or one of the wrong length, is refused, not read as a
    wrong projection or slice; so is a direction orthogonal to no vectors at all."""
    roots = root_system(diagram("B3"))
    for v in ((0.0, 0.0, 0.0), (1e-12, 0.0, 0.0)):
        with pytest.raises(ValueError, match="zero"):
            call(roots, v)
    # nor is one of another length than the points, which zip would truncate
    for v in ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="dimension"):
            call(roots, v)
    with pytest.raises(ValueError, match="no vectors"):
        orthogonal_direction([])


# the unpruned search in tests/reference.py as the oracle: every ordered pair
# of these root systems, and the middle slices and projections of some below
# against the diagrams of lower rank (a slice or projection of a rank-n
# system spans n - 1 dimensions, so no higher rank fits)
ORACLE_DIAGRAMS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                   "D3", "D4", "G2", "F4"]
ORACLE_TARGETS = ["B3", "C3", "B4", "C4", "D4", "G2"]


def test_embed_check_matches_unpruned_search():
    """The shell and scale rules change no answer of the unpruned search."""
    roots = {name: root_system(diagram(name)) for name in ORACLE_DIAGRAMS}
    targets = [(name, roots[name], ORACLE_DIAGRAMS) for name in ORACLE_DIAGRAMS]
    rng = random.Random(27)
    for big in ORACLE_TARGETS:
        lower = [name for name in ORACLE_DIAGRAMS if diagram(name).rank < diagram(big).rank]
        for r in rng.sample(roots[big], 2):
            targets.append((f"{big} mid {r}", middle_slice(roots[big], r), lower))
            targets.append((f"{big} proj {r}", project(roots[big], r), lower))
    for target, points2, names in targets:
        for name in names:
            assert embed_check(roots[name], points2) == \
                unpruned_embed_check(roots[name], points2), (name, target)


def test_c3_inside_projected_c4():
    d4 = diagram("C4")
    roots4 = root_system(d4)
    first = simple_roots(d4)[0]
    image = project(roots4, first)
    image = [p for p in image if max(abs(x) for x in p) > 1e-9]
    assert embed_check(root_system(diagram("C3")), image)


def test_g2_inside_projected_b3():
    b3 = root_system(diagram("B3"))
    g2 = root_system(diagram("G2"))
    found = False
    seen = set()
    for a in b3:
        for b in b3:
            direction = tuple(x - y for x, y in zip(a, b))
            if max(abs(x) for x in direction) < 1e-9:
                continue
            key = tuple(round(x, 6) for x in direction)
            if key in seen:
                continue
            seen.add(key)
            image = [p for p in project(b3, direction)
                     if max(abs(x) for x in p) > 1e-9]
            distinct = {tuple(round(x, 7) for x in p) for p in image}
            if len(distinct) != 12:
                continue
            if embed_check(g2, [list(p) for p in distinct]):
                found = True
                break
        if found:
            break
    assert found


def test_project_drops_one_dimension():
    d = diagram("B3")
    roots = root_system(d)
    image = project(roots, (1.0, 1.0, 1.0))
    assert all(len(p) == 2 for p in image)
    # projection along a direction preserves norms orthogonal to it
    n = math.sqrt(3.0)
    for r, p in zip(roots, image):
        along = sum(r) / n
        rest = sum(x * x for x in r) - along * along
        assert abs(sum(x * x for x in p) - rest) < 1e-9


def test_singular_cartan_raises():
    # a multiplicity-4 edge: the Cartan matrix [[2, -1], [-4, 2]] has determinant 0
    d = DynkinDiagram("X2", 2, ((0, 1, 4, 1),))
    assert cartan_matrix(d) == [[2, -1], [-4, 2]]
    with pytest.raises(SingularCartan):
        inverse_cartan(d)


def test_e6_inverse_cartan_denominators():
    d = diagram("E6")
    inv = inverse_cartan(d)
    assert all(v.denominator in (1, 3) for row in inv for v in row)


def test_mark_coords_built_once_per_diagram(monkeypatch):
    """The roots and weights of one diagram share one A^-1 and one triangular factor."""
    rootweight._mark_coords.cache_clear()
    rootweight._roots.cache_clear()
    calls = []

    def counted(d):
        calls.append(d)
        return inverse_cartan(d)

    monkeypatch.setattr(rootweight, "inverse_cartan", counted)
    d = diagram("E6")
    root_system(d)
    weights_from_highest(d, (1, 0, 0, 0, 0, 0))
    root_system(d)
    assert calls == [d]


# Hand-built diagrams that break one rule of DynkinDiagram.  The first and the
# last two equal diagram("A2") or diagram("B2"), so a cache keyed by equality
# would answer them with the named diagram's entry.
MALFORMED_DIAGRAMS = [
    DynkinDiagram("A2", 2.0, ((0, 1, 1, None),)),    # float rank
    DynkinDiagram("A1", True, ()),                     # bool rank
    DynkinDiagram("A1", 0, ()),                        # no nodes
    DynkinDiagram("A2", 2, [(0, 1, 1, None)]),         # edges not a tuple
    DynkinDiagram("A2", 2, ((0, 1, 1),)),              # edge of three fields
    DynkinDiagram("A2", 2, ((0, 0, 1, None),)),        # a loop
    DynkinDiagram("A2", 2, ((0, 2, 1, None),)),        # node past the rank
    DynkinDiagram("A2", 2, ((-1, 1, 1, None),)),       # negative node
    DynkinDiagram("A2", 2, ((0, 1, 0, None),)),        # multiplicity 0
    DynkinDiagram("A2", 2, ((0, 1, True, None),)),     # bool multiplicity
    DynkinDiagram("A2", 2, ((0, 1, 1, 1),)),           # short node on a single edge
    DynkinDiagram("B2", 2, ((0, 1, 2, None),)),        # no short node on a double edge
    DynkinDiagram("B2", 2, ((0, 1, 2, 2),)),           # short node off the edge
    DynkinDiagram("A2", 2, ((0.0, 1, 1, None),)),      # float node
    DynkinDiagram("B2", 2, ((0, 1, 2, 1.0),)),         # float short node
]


@pytest.mark.parametrize("named_first", [False, True], ids=["cold", "cached"])
@pytest.mark.parametrize("bad", MALFORMED_DIAGRAMS, ids=range(len(MALFORMED_DIAGRAMS)))
def test_malformed_diagram_is_refused_before_the_caches(bad, named_first):
    """ValueError whether or not the named diagram of the same name is cached."""
    rootweight._roots.cache_clear()
    rootweight._mark_coords.cache_clear()
    rootweight._WEIGHT_DIAGRAMS.clear()
    named = diagram(bad.name)
    first = (1,) + (0,) * (named.rank - 1)
    if named_first:
        root_system(named)
        weights_from_highest(named, first)
    for build in (cartan_matrix, root_system, lambda d: weights_from_highest(d, first)):
        with pytest.raises(ValueError):
            build(bad)
    assert root_system(named) == list(rootweight._roots(named))
    assert list(rootweight._WEIGHT_DIAGRAMS) == ([(named, first)] if named_first else [])
    marks, _, edges = _reference_weights(named, first)
    wd = weights_from_highest(named, first)
    assert [w.mark for w in wd.weights] == marks and set(wd.edges) == set(edges)


# ---------------------------------------------------------------------------
# the exact-mark closure and walk against the float closure and the walk
# from every weight that they replaced

SMALL_DIAGRAMS = ([f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                   for n in range(low, 9)] + ["G2", "F4", "E6"])

# the diagrams of the float-stream benchmark, and one with long strings
WEIGHT_CASES = [("A2", (1, 1)), ("B3", (1, 0, 0)), ("G2", (1, 0)), ("C3", (0, 1, 0)),
                ("A3", (0, 1, 1)), ("B4", (0, 0, 0, 1)), ("D4", (0, 1, 0, 0)),
                ("C4", (0, 0, 1, 0)), ("F4", (0, 0, 0, 1)), ("E6", (0, 0, 0, 0, 1, 0)),
                ("B3", (0, 1, 1)), ("C3", (1, 1, 0)), ("G2", (2, 1)),
                ("E6", (0, 0, 0, 0, 0, 1)), ("A5", (1, 0, 1, 0, 0)), ("B4", (1, 0, 0, 1)),
                ("D4", (0, 1, 0, 1)), ("C4", (0, 0, 1, 1)), ("C3", (1, 1, 1)),
                ("B4", (1, 0, 1, 0)), ("B4", (0, 0, 1, 1)), ("C4", (0, 1, 1, 0)),
                ("C4", (1, 0, 1, 0)), ("A2", (20, 20))]


def _reference_root_system(d):
    """Closure of the float simple roots under reflections, rescanning every root per pass."""
    simple = simple_roots(d)
    roots = {_key(r): r for r in simple}
    changed = True
    while changed:
        changed = False
        for x in list(roots.values()):
            for r in simple:
                y = reflect(x, r)
                k = _key(y)
                if k not in roots:
                    roots[k] = y
                    changed = True
    return list(roots.values())


def _reference_weights(d, highest):
    """Marks, coordinates and edges (with repeats) of the walk down from every weight."""
    a = cartan_matrix(d)
    seen = {highest}
    frontier = [highest]
    edges = []
    while frontier:
        nxt = []
        for mark in frontier:
            for j in range(d.rank):
                cur = mark
                for _ in range(mark[j]):
                    new = tuple(cur[k] - a[k][j] for k in range(d.rank))
                    edges.append((cur, new, j))
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
                    cur = new
        frontier = nxt
    inv = inverse_cartan(d)
    roots = simple_roots(d)
    coords = []
    for mark in sorted(seen):
        cs = [float(sum(Fraction(mark[i]) * inv[k][i] for i in range(d.rank)))
              for k in range(d.rank)]
        point = []
        for t in range(d.rank):
            x = 0.0  # left to right, as sum() adds floats up to Python 3.11
            for k in range(d.rank):
                x += cs[k] * roots[k][t]
            point.append(x)
        coords.append(tuple(point))
    return sorted(seen), coords, edges


@pytest.mark.parametrize("name", SMALL_DIAGRAMS)
def test_root_system_matches_float_closure(name):
    """Same roots in the same order as the float closure, within float rounding."""
    d = diagram(name)
    roots, reference = root_system(d), _reference_root_system(d)
    assert [_key(r) for r in roots] == [_key(r) for r in reference]
    assert all(close(r, s, 1e-12) for r, s in zip(roots, reference))


@pytest.mark.parametrize("name", ["A1", "B3", "G2", "E6"])
def test_root_system_returns_a_new_list_of_the_cached_roots(name):
    """Each call gets its own list: clearing or extending one changes no later result."""
    d = diagram(name)
    rootweight._roots.cache_clear()
    built = root_system(d)
    assert root_system(d) is not root_system(d)
    reference = [_key(r) for r in _reference_root_system(d)]
    for mutate in (list.clear, lambda roots: roots.append((0.0,) * d.rank)):
        mutate(root_system(d))
        again = root_system(d)
        assert {_key(r) for r in again} == set(reference)
        assert [_key(r) for r in again] == reference    # the float closure's order
        assert again == built


@pytest.mark.parametrize("name,highest", [("A1", (1,)), ("B3", (0, 1, 1)), ("G2", (2, 1)),
                                          ("E6", (0, 0, 0, 0, 0, 1))])
def test_weights_from_highest_returns_new_lists_of_the_cached_diagram(name, highest):
    """Each call gets its own weights and edges lists: clearing or extending
    one changes no later result."""
    d = diagram(name)
    rootweight._WEIGHT_DIAGRAMS.clear()
    built = weights_from_highest(d, highest)
    again = weights_from_highest(d, highest)
    assert again.weights is not built.weights and again.edges is not built.edges
    marks, _, edges = _reference_weights(d, highest)
    for mutate in (list.clear, lambda items: items.append(items[0])):
        got = weights_from_highest(d, highest)
        mutate(got.weights)
        mutate(got.edges)
        again = weights_from_highest(d, highest)
        assert [w.mark for w in again.weights] == marks
        assert again.weights == built.weights and again.edges == built.edges
        assert len(again.edges) == len(set(again.edges)) and set(again.edges) == set(edges)


def test_integral_float_and_bool_marks_share_the_integer_diagram():
    """(1.0, 0) and (True, False) are (1, 0): one cache entry, the same diagram."""
    d = diagram("A2")
    rootweight._WEIGHT_DIAGRAMS.clear()
    built = weights_from_highest(d, (1, 0))
    for marks in ((1.0, 0), (True, False), [1, 0]):
        wd = weights_from_highest(d, marks)
        assert wd.highest == (1, 0) and [type(x) for x in wd.highest] == [int, int]
        assert wd.weights == built.weights and wd.edges == built.edges
    assert list(rootweight._WEIGHT_DIAGRAMS) == [(d, (1, 0))]


def test_weight_cache_holds_at_most_max_weights(monkeypatch):
    """Each call, a hit too, drops the least recently used diagrams while the
    cache holds more than MAX_WEIGHTS weights, so a lowered bound holds from
    the first call after it; every answer is the one built afresh."""
    cases = [(diagram(name), highest) for name, highest in WEIGHT_CASES[:-1]]
    rootweight._WEIGHT_DIAGRAMS.clear()
    fresh = [weights_from_highest(d, highest) for d, highest in cases]
    held = sum(len(wd.weights) for wd in fresh)
    assert held == 1890 and len(rootweight._WEIGHT_DIAGRAMS) == len(cases)
    monkeypatch.setattr(rootweight, "MAX_WEIGHTS", 300)
    rng = random.Random(3)
    used = list(range(len(cases)))    # the order they were built in
    for n in [rng.randrange(len(cases)) for _ in range(60)]:
        wd = weights_from_highest(*cases[n])
        assert wd.weights == fresh[n].weights and wd.edges == fresh[n].edges
        used = [m for m in used if m != n] + [n]
        kept = [len(w) for w, _, _ in rootweight._WEIGHT_DIAGRAMS.values()]
        assert sum(kept) <= 300
        assert list(rootweight._WEIGHT_DIAGRAMS) == [cases[m] for m in used[-len(kept):]]


def test_slice_roots_of_another_dimension_raise():
    """Roots of another dimension than the points are refused, not read as no struts."""
    d = diagram("A2")
    roots = root_system(d)
    points = [w.coords for w in weights_from_highest(d, (1, 1)).weights]
    assert len(slice_diagram(points, roots[0], roots=roots)[1]) == 12
    for bad in ([r + (0.0,) for r in roots], [r[:1] for r in roots], roots + [(1.0, 0.0, 0.0)]):
        with pytest.raises(ValueError, match="dimension"):
            slice_diagram(points, roots[0], roots=bad)


def test_lowered_weight_bound_holds_after_a_refused_call(monkeypatch):
    """A cached diagram past a lowered MAX_WEIGHTS is refused, and the cache
    is trimmed to the bound all the same."""
    d = diagram("B4")
    rootweight._WEIGHT_DIAGRAMS.clear()
    built = [weights_from_highest(d, marks) for marks in ((1, 0, 0, 1), (0, 0, 0, 1), (1, 0, 1, 0))]
    assert [len(wd.weights) for wd in built] == [80, 16, 233]
    monkeypatch.setattr(rootweight, "MAX_WEIGHTS", 90)
    with pytest.raises(ValueError, match="more than 90 weights"):
        weights_from_highest(d, (1, 0, 1, 0))
    assert list(rootweight._WEIGHT_DIAGRAMS) == [(d, (0, 0, 0, 1))]
    assert weights_from_highest(d, (1, 0, 0, 1)).weights == built[0].weights


def _jittered(points: list, rng: random.Random) -> list:
    """A copy of the points, each coordinate moved by +-4e-8 or +-1e-7: onto
    and across the 5e-8 rounding edges of _key."""
    return [tuple(x + rng.choice((4e-8, -4e-8, 1e-7, -1e-7)) for x in p) for p in points]


@pytest.mark.parametrize("name,highest", WEIGHT_CASES[:-1] + [("A2", (10, 10))])
def test_struts_match_pairwise_search(name, highest):
    """The struts, in order, are those of the search over every slice pair:
    along root normals for every diagram; for those of up to 100 weights also
    along random non-root normals, with jittered copies of the points, and
    with no roots."""
    d = diagram(name)
    roots = root_system(d)
    points = [w.coords for w in weights_from_highest(d, highest).weights]
    cases = [(points, roots[0], roots), (points, roots[-1], roots)]
    if len(points) <= 100:
        rng = random.Random(len(points))
        normals = [roots[len(roots) // 2]] + \
            [tuple(rng.uniform(-1, 1) for _ in range(d.rank)) for _ in range(2)]
        cases += [(points, normal, roots) for normal in normals]
        cases += [(_jittered(points, rng), normal, roots) for normal in (roots[0], normals[1])]
        cases.append((points, roots[0], []))
    for pts, normal, rts in cases:
        struts = slice_diagram(pts, normal, roots=rts)[1]
        assert struts == pairwise_struts(pts, normal, rts)
        assert rts or not struts


def test_struts_with_nan_points_match_pairwise_search():
    """A NaN level leaves the sorted levels out of order, so every slice pair
    is searched: the struts are still those of the pairwise search."""
    d = diagram("A2")
    roots = root_system(d)
    points = [w.coords for w in weights_from_highest(d, (1, 1)).weights]
    rng = random.Random(2)
    for _ in range(20):
        pts = rng.sample(points, len(points))
        for _ in range(2):
            pts.insert(rng.randrange(len(pts) + 1), (math.nan, 0.0))
        for normal in roots:
            assert slice_diagram(pts, normal, roots=roots)[1] == pairwise_struts(pts, normal, roots)


def test_struts_search_only_slices_a_root_can_join(monkeypatch):
    """Along a root of A2 (20, 20), 81 slices, the search keys at most a
    tenth of the differences that the search over every slice pair keys."""
    d = diagram("A2")
    roots = root_system(d)
    points = [w.coords for w in weights_from_highest(d, (20, 20)).weights]
    slices, _ = slice_diagram(points, roots[0])
    pairwise = sum(len(s1.vertices) * len(s2.vertices)
                   for s1, s2 in itertools.combinations(slices, 2))
    assert (len(slices), pairwise) == (81, 783_560)
    calls = []
    monkeypatch.setattr(rootweight, "_key", lambda v: calls.append(v) or _key(v))
    _, struts = slice_diagram(points, roots[0], roots=roots)
    assert len(struts) == 3660
    assert len(calls) <= (pairwise + len(roots)) // 10


def test_iterators_give_the_answers_of_lists():
    """points, roots, normals and directions are read once: an iterator or
    a generator gives the answer of a list."""
    d = diagram("A2")
    roots = root_system(d)
    points = [w.coords for w in weights_from_highest(d, (1, 1)).weights]
    slices, struts = slice_diagram(points, roots[0], roots=roots)
    assert (sum(len(s.vertices) for s in slices), len(struts)) == (7, 12)
    b2, b3 = root_system(diagram("B2")), root_system(diagram("B3"))
    mid = middle_slice(b3, min(b3, key=lambda r: sum(x * x for x in r)))
    assert embed_check(b2, mid)
    for once in (iter, lambda items: (x for x in items)):
        got_slices, got_struts = slice_diagram(once(points), once(roots[0]), roots=once(roots))
        assert [(s.level, s.vertices) for s in got_slices] == \
            [(s.level, s.vertices) for s in slices]
        assert got_struts == struts
        assert middle_slice(once(points), roots[0]) == middle_slice(points, roots[0])
        assert project(once(points), once(roots[0])) == project(points, roots[0])
        assert embed_check(once(b2), once(mid)) and not embed_check(once(b3), once(mid))
        assert orthogonal_direction(once(roots[:1])) == orthogonal_direction(roots[:1])


@pytest.mark.parametrize("name,highest", WEIGHT_CASES)
def test_weights_match_walk_from_every_weight(name, highest):
    """Same marks and coordinate bits; the edges are the reference's distinct edges, once each."""
    d = diagram(name)
    marks, coords, edges = _reference_weights(d, highest)
    wd = weights_from_highest(d, highest)
    assert [w.mark for w in wd.weights] == marks
    assert [[x.hex() for x in w.coords] for w in wd.weights] == \
        [[x.hex() for x in p] for p in coords]
    assert len(wd.edges) == len(set(wd.edges))
    assert set(wd.edges) == set(edges)


ROOTS_HIGHEST = [("A2", "1,1"), ("B3", "1,0,0"), ("C3", "1,1,1"), ("G2", "2,1"),
                 ("B4", "1,0,1,0"), ("E6", "0,0,0,0,0,1")]
ROOTS_SHA256 = "2611ed8f5752653848c8bfc356a1731f14d478a95a5c7ec4a6657cb8e56da9b3"


def test_roots_output_golden_hash():
    """roots stdout, JSON and CSV, is pinned and the same on every supported Python."""
    argvs = [["--algebra", name] for name in SMALL_DIAGRAMS]
    argvs += [["--algebra", name, "--highest", marks] for name, marks in ROOTS_HIGHEST]
    h = hashlib.sha256()
    for argv in argvs:
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(["roots", *argv, "--format", fmt]) == 0
            h.update(out.getvalue().encode())
    assert h.hexdigest() == ROOTS_SHA256


# the normals each WEIGHT_CASES diagram is sliced along: roots at these positions;
# struts are pinned for diagrams of up to GOLDEN_STRUT_POINTS weights, as their
# search is quadratic in the points of slices a root can join (A2 (20, 20),
# 1 261 weights, would take 0.2 s on a 2-vCPU Xeon)
GOLDEN_NORMALS = (0, -1)
GOLDEN_STRUT_POINTS = 300
ROOTWEIGHT_SHA256 = "f4bd7df9f6cc8acbdbb244849326b08d06ad1e97779e48687e1b33df17a35ba2"


def test_rootweight_golden_hash():
    """Root bits, slice levels and struts, and embedding answers are pinned.

    The root systems of SMALL_DIAGRAMS in order; each WEIGHT_CASES diagram
    sliced along a few of its roots, with struts up to GOLDEN_STRUT_POINTS
    weights; embed_check on every ordered ORACLE_DIAGRAMS pair.
    """
    h = hashlib.sha256()

    def floats(v):
        h.update(struct.pack(f"<{len(v)}d", *v))

    for name in SMALL_DIAGRAMS:
        roots = root_system(diagram(name))
        h.update(f"{name}:{len(roots)};".encode())
        for r in roots:
            floats(r)
    for name, highest in WEIGHT_CASES:
        d = diagram(name)
        roots = root_system(d)
        points = [w.coords for w in weights_from_highest(d, highest).weights]
        for i in GOLDEN_NORMALS:
            slices, struts = slice_diagram(
                points, roots[i], roots=roots if len(points) <= GOLDEN_STRUT_POINTS else None)
            h.update(f"{name}{highest}@{i}:{len(slices)},{len(struts)};".encode())
            for s in slices:
                floats((s.level,))
                h.update(f"{len(s.vertices)};".encode())
                for p in s.vertices:
                    floats(p)
            for p, q in struts:
                floats(p + q)
    roots = {name: root_system(diagram(name)) for name in ORACLE_DIAGRAMS}
    for small in ORACLE_DIAGRAMS:
        for big in ORACLE_DIAGRAMS:
            h.update(b"1" if embed_check(roots[small], roots[big]) else b"0")
    assert h.hexdigest() == ROOTWEIGHT_SHA256
