"""The integer tangent kernel: derived tangents, lattices, work counts, guards."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6kit import algebra, group, structure
from e6kit.group import GeneratorLabel, ParamMatrix, all_labels, apply_dual
from e6kit.jordan import from_coords, to_coords
from e6kit.linalg import SpanBasis, span_of
from e6kit.units import _AGS_PAIRS, MULT_TABLE, UNIT_INDEX, UNITS
from reference import GENERIC as reference_generic, DictForm, Octonion
from reference import apply_dual as reference_apply_dual, basis_element
from reference import commutator as reference_commutator, flat_matrix
from reference import preferred_constants as reference_preferred_constants


def _direct_tangent(label):
    """The tangent of any label straight from apply_dual, without derivation."""
    mat = {}
    for col in range(27):
        value, twice = apply_dual(label, basis_element(col))
        assert to_coords(value) == to_coords(basis_element(col))
        for row, v in enumerate(to_coords(twice)):
            assert isinstance(v, int)
            if v:
                mat.setdefault(row, {})[col] = Fraction(v, 2)
    return mat


def test_derived_tangents_match_direct_evaluation():
    """The 45 generic-element tangents and the 90 derived ones equal 27 calls per label."""
    wrong = [group.format_label(lab) for lab in all_labels()
             if algebra.tangent(lab) != _direct_tangent(lab)]
    assert wrong == []


def _exp_column(mat: dict, alpha: float, col: int) -> list:
    """exp(alpha * mat) e_col as a Taylor series, summed until a term is below 1e-18."""
    rows = [(r, [(c, float(v)) for c, v in row.items()]) for r, row in mat.items()]
    term = [0.0] * 27
    term[col] = 1.0
    total = list(term)
    n = 0
    while max(map(abs, term)) > 1e-18:
        n += 1
        nxt = [0.0] * 27
        for r, row in rows:
            nxt[r] = alpha / n * sum(v * term[c] for c, v in row)
        term = nxt
        total = [a + b for a, b in zip(total, term)]
    return total


def test_action_matrix_is_exponential_of_tangent():
    """The float action at alpha equals exp(alpha * T) of the exact tangent, for all 135 labels."""
    alpha = 0.7
    worst, where = 0.0, None
    for label in all_labels():
        action = group.action_matrix(label, alpha)
        mat = algebra.tangent(label)
        for col in range(27):
            for row, x in enumerate(_exp_column(mat, alpha, col)):
                err = abs(action[row][col] - x)
                if err > worst:
                    worst, where = err, group.format_label(label)
    assert worst <= 1e-12, (worst, where)


def _terms(v):
    """A linear form as {column: int}: a packed int decoded, a DictForm's terms, 0 as {}."""
    if isinstance(v, int):
        return algebra._fields(v)
    return v.terms if v else {}


def _decoded(el):
    return [_terms(v) for v in to_coords(el)]


def test_packed_forms_match_dict_forms_on_the_orbit_representatives():
    """apply_dual on the packed generic element decodes to what it gives on dict forms.

    DictForm raises TypeError on any use that is not linear, so this also
    checks that apply_dual only adds the coordinates and scales them by ints.
    """
    reps = {algebra._orbit_rep(core) for label in all_labels()
            for core, _ in group.cores(label._replace(type_index=1))}
    assert len(reps) == 7
    for rep in reps:
        packed = apply_dual(rep, algebra._GENERIC)
        oracle = apply_dual(rep, reference_generic)
        assert [_decoded(el) for el in packed] == [_decoded(el) for el in oracle], rep


@given(st.lists(st.tuples(st.integers(0, 26), st.integers(-2**12, 2**12)), max_size=40),
       st.integers(-2**12, 2**12))
@settings(max_examples=200, deadline=None)
def test_packed_form_arithmetic_matches_dict_forms(terms, k):
    """Sums, negations and int multiples of packed ints decode to the dict-form
    results, whatever the signs of neighbouring fields."""
    packed, oracle = 0, DictForm({})
    for n, (c, v) in enumerate(terms):
        x, y = v * algebra._GENERIC.coords[c], DictForm({c: v} if v else {})
        packed, oracle = (packed + x, oracle + y) if n % 3 else (-packed + x, -oracle + y)
    assert _terms(packed) == _terms(oracle)
    assert _terms(k * packed) == _terms(k * oracle)
    assert bool(packed) == bool(oracle)


def test_form_coefficient_past_the_field_raises(monkeypatch):
    """Fields decode up to 2^31 - 1 in size; a core whose static bound may reach
    2^31 raises OverflowError before it is evaluated, so no field decodes wrong."""
    top, x1 = algebra._LIMIT - 1, algebra._GENERIC.coords[1]
    assert algebra._fields(top) == {0: top}
    assert algebra._fields(-top) == {0: -top}
    assert algebra._fields(top - x1) == {0: top, 1: -1}
    assert algebra._fields(-top - x1) == {0: -top, 1: -1}
    assert algebra._fields(top * algebra._GENERIC.coords[26]) == {26: top}
    cores = {core for label in all_labels() if label.type_index == 1
             for core, _ in group.cores(label)}
    assert len(cores) == 45
    assert max(map(algebra._field_bound, cores)) <= 64

    def not_evaluated(label, chi):
        raise AssertionError(f"{group.format_label(label)} was evaluated")

    monkeypatch.setattr(algebra, "_CORE_TANGENTS", {})
    monkeypatch.setattr(algebra, "apply_dual", not_evaluated)
    monkeypatch.setattr(algebra, "_stage_coeffs", lambda core: [{0: 1, 9: 2**15}])
    with pytest.raises(OverflowError):
        algebra._core_tangent(GeneratorLabel("B", 1, plane=("t", "z")))


def test_tangent_entries_in_half_integers():
    for label in all_labels():
        for row in algebra.tangent(label).values():
            for v in row.values():
                assert (2 * v).denominator == 1, (label, v)


def test_structure_constants_in_sixth_integers():
    table = algebra.structure_table()
    values = [Fraction(v, table.scale) for row in table.constants.values() for v in row.values()]
    assert len(table.constants) == 2334 and len(values) == 2750
    assert all((6 * v).denominator == 1 for v in values)
    assert any((2 * v).denominator == 3 for v in values)  # 1/6 Z is needed, not 1/2 Z


def _stage(i, j, terms):
    entries = [[() for _ in range(3)] for _ in range(3)]
    for n in range(3):
        entries[n][n] = (("const", 0, 0, 1),)
    entries[i][j] = terms
    return ParamMatrix(tuple(tuple(row) for row in entries))


def test_integral_stage_sums_are_accepted():
    # the terms of one entry add up: 2 M'(0) = 1 + 2, M(0) = -1
    terms = (("sin", 1, 1, 1), ("sinh", 2, 1, 1), ("cos", 3, 1, -1))
    value, twice = _stage(0, 1, terms).at_zero()
    assert twice[9] == 3 and type(twice[9]) is int        # entry (0, 1), unit i
    assert value[9] == -1 and type(value[9]) is int
    assert value[0] == 1 and type(value[0]) is int        # entry (0, 0), unit 1
    assert sum(map(abs, twice)) == 3 and sum(map(abs, value)) == 4


def test_core_stage_terms_are_ints():
    """Every term of the 45 type-1 cores' stages is a _KINDS kind with int k2, unit and coeff."""
    core_set = {core for label in all_labels() if label.type_index == 1
                for core, _ in group.cores(label)}
    assert len(core_set) == 45 and {core.type_index for core in core_set} == {1}
    terms = [term for core in core_set for stage in group.build_sequence(core)
             for row in stage.entries for entry in row for term in entry]
    assert {kind for kind, *_ in terms} == set(group._KINDS)
    assert all(type(v) is int for _, *ints in terms for v in ints)


_TRANSVERSE = [GeneratorLabel("R", 1, plane=pair) for pairs in _AGS_PAIRS.values()
               for pair in pairs]


def test_apply_dual_matches_reference_on_the_generic_element():
    """All 135 labels and the 21 transverse cores, on the packed ints of the generic element."""
    wrong = []
    for label in all_labels() + _TRANSVERSE:
        new = apply_dual(label, algebra._GENERIC)
        old = reference_apply_dual(label, algebra._GENERIC)
        if list(map(to_coords, new)) != list(map(to_coords, old)):
            wrong.append(group.format_label(label))
    assert wrong == []


@given(label=st.sampled_from(all_labels() + _TRANSVERSE),
       coords=st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                                 st.fractions(-10, 10, max_denominator=12)),
                       min_size=27, max_size=27))
@settings(max_examples=150, deadline=None)
def test_apply_dual_matches_reference(label, coords):
    chi = from_coords(coords)
    value, twice = apply_dual(label, chi)
    assert to_coords(value) == coords
    assert [to_coords(value), to_coords(twice)] == \
        [to_coords(el) for el in reference_apply_dual(label, chi)]


@pytest.fixture
def fresh_tangents(monkeypatch):
    """Tangents are derived anew, with no disk cache."""
    monkeypatch.delenv(algebra.CACHE_ENV, raising=False)
    monkeypatch.setattr(algebra, "_CORE_TANGENTS", {})


def _count_core_evaluations(monkeypatch):
    """(apply_dual calls as (core, on the generic element), stages they evaluate)."""
    calls, stages, inside = [], [], []

    def counted(label, chi):
        calls.append((label, chi is algebra._GENERIC))
        inside.append(True)
        try:
            return apply_dual(label, chi)
        finally:
            inside.pop()

    def counted_at_zero(self):
        if inside:
            stages.append(self)
        return at_zero(self)

    at_zero = ParamMatrix.at_zero
    monkeypatch.setattr(algebra, "apply_dual", counted)
    monkeypatch.setattr(ParamMatrix, "at_zero", counted_at_zero)
    return calls, stages


def test_tangent_work_count(monkeypatch, fresh_tangents):
    """135 cold tangents evaluate one core per orbit, 7 cores, on the generic element.

    The 7 cores have 8 stages; the flip of the transverse core is a signed
    permutation folded into the left table of its turn, which apply_dual
    does not evaluate, so 7 stages are evaluated at alpha = 0.
    """
    calls, stages = _count_core_evaluations(monkeypatch)
    for label in all_labels():
        algebra.tangent(label)
    assert len(calls) == 7 and len(stages) == 7
    assert len({core for core, _ in calls}) == 7  # each core is evaluated once
    assert {(core.type_index, generic) for core, generic in calls} == {(1, True)}
    assert len(algebra._CORE_TANGENTS) == 45
    for label in all_labels():
        algebra.tangent(label)
    assert len(calls) == 7 and len(stages) == 7


def test_gellmann_evaluates_one_core(monkeypatch, fresh_tangents):
    """The eight su(3) labels are A/G/S labels, whose 21 cores form one orbit."""
    calls, _ = _count_core_evaluations(monkeypatch)
    assert algebra.gellmann_check()["match"]
    assert [core for core, _ in calls] == [GeneratorLabel("R", 1, plane=_AGS_PAIRS["i"][0])]


def test_cores_are_transverse_rotations_not_labels():
    """A/G/S cores are the pairs of _AGS_PAIRS at the build_sequence angles; none is a generator."""
    label = GeneratorLabel("G", 1, axis="i")
    parts = group.cores(label)
    assert [(core.plane, angle) for core, angle in parts] == [
        (("j", "k"), 1), (("kl", "jl"), 1), (("l", "il"), -2)]
    assert len(group.build_sequence(label)) == 2 * len(parts)
    for core, _ in parts:
        with pytest.raises(group.IllegalLabel):
            group.parse_label(group.format_label(core))


def _clear_basis_caches():
    for cached in (algebra._shared_doubled, structure._core_doubled, structure._basis_span,
                   algebra._preferred_doubled):
        cached.cache_clear()


@pytest.fixture
def fresh_span():
    """Build the basis 2T and their span anew, and drop them after the test."""
    _clear_basis_caches()
    yield
    _clear_basis_caches()


def test_basis_span_built_once(monkeypatch, fresh_span):
    """The table, the basis reduction and Stab(l) share one span of the 78 tangents."""
    monkeypatch.delenv(algebra.CACHE_ENV, raising=False)
    monkeypatch.setattr(structure, "_TABLE", None)
    algebra.structure_table()
    algebra.reduce_basis()
    algebra.stabilizer_of_l()
    info = structure._basis_span.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_corrupt_tangent_is_caught(monkeypatch, fresh_span, fresh_tangents):
    """An orbit representative off by 1/2 in one entry cannot pass the integer rebuild."""
    rep = GeneratorLabel("R", 1, plane=_AGS_PAIRS["i"][0])
    twice = dict(_direct_core_tangent(rep))
    twice[0] = twice.get(0, 0) + 1    # row 0, column 0
    monkeypatch.setattr(algebra, "_CORE_TANGENTS", {rep: twice})
    monkeypatch.setattr(structure, "_TABLE", None)
    with pytest.raises(structure.NotInSpan):
        algebra.structure_table()


def _direct_core_tangent(core):
    """2T of a type-1 core, flat as {row * 27 + col: int}, from 27 apply_dual calls."""
    return {row * 27 + col: int(2 * v) for row, cols in _direct_tangent(core).items()
            for col, v in cols.items()}


def _reference_constants():
    """The bracket of every one of the 3003 basis pairs, each computed and residual-checked."""
    basis = algebra.preferred_basis()
    span = span_of(flat_matrix(algebra.tangent(lab)) for lab in basis)
    # row n of the span is sum_k combos[n][k] T_k, and w[pivot n] / row n[pivot n] its weight in w
    pivots = {n: span.rows[n][p] for p, n in span.pivot_row.items()}
    combos = [{k: Fraction(x, pivots[n]) for k, x in combo.items()}
              for n, combo in enumerate(span.combos)]
    scale = math.lcm(*(x.denominator for combo in combos for x in combo.values()))
    dual = [{k: x.numerator * (scale // x.denominator) for k, x in combo.items()}
            for combo in combos]
    doubled = [{r: {c: int(2 * v) for c, v in row.items()}
                for r, row in algebra.tangent(lab).items()}
               for lab in basis]
    flat = [flat_matrix(mat) for mat in doubled]
    constants = {}
    for i in range(78):
        for j in range(i + 1, 78):
            comm = reference_commutator(doubled[i], doubled[j])
            if not comm:
                continue
            acc, residual = {}, {}
            for r, row in comm.items():
                for c, v in row.items():
                    key = r * 27 + c
                    residual[key] = 3 * v
                    n = span.pivot_row.get(key)
                    if n is not None:
                        for k, x in dual[n].items():
                            acc[k] = acc.get(k, 0) + v * x
            coeffs = {}
            for k in sorted(acc):
                if not acc[k]:
                    continue
                six, rem = divmod(3 * acc[k], 2 * scale)
                assert rem == 0
                for key, w in flat[k].items():
                    residual[key] = residual.get(key, 0) - six * w
                coeffs[k] = Fraction(acc[k], 4 * scale)
            assert not any(residual.values())
            constants[(i, j)] = coeffs
    return constants


@pytest.fixture
def cold_table(monkeypatch):
    """structure_table() builds the table anew, with no disk cache."""
    monkeypatch.delenv(algebra.CACHE_ENV, raising=False)
    monkeypatch.setattr(structure, "_TABLE", None)


def _as_lists(constants):
    return [(pair, list(row.items())) for pair, row in constants.items()]


def _rational(scale, constants):
    """The integer constants L c as the rationals c, in their order; each must be an int."""
    assert all(type(v) is int for row in constants.values() for v in row.values())
    return [(pair, [(k, Fraction(v, scale)) for k, v in row.items()])
            for pair, row in constants.items()]


def _lcm_of_denominators(constants):
    return math.lcm(*(v.denominator for row in constants.values() for v in row.values()))


def test_preferred_constants_scatter_matches_the_per_pair_loop(monkeypatch, cold_table):
    """The table's core constants, and a seeded sparse set that puts nonzero rows
    on pairs inside the A/G/S blocks, carry to the same preferred constants both
    ways: the integers L c over L are the per-pair Fractions, keys and row order
    included, and L is the lcm of their denominators."""
    seen = []
    scatter = structure._preferred_constants
    monkeypatch.setattr(structure, "_preferred_constants",
                        lambda brackets: seen.append(brackets) or scatter(brackets))
    algebra.structure_table()
    rng = random.Random(23)
    pairs = [(i, j) for i in range(78) for j in range(i + 1, 78)]
    seeded = {pair: {k: rng.choice((-6, -3, -2, -1, 1, 2, 3, 6))
                     for k in rng.sample(range(78), rng.randint(0, 4))}
              for pair in rng.sample(pairs, 600)}
    for brackets in (seen[0], seeded):
        scale, constants = scatter(brackets)
        reference = reference_preferred_constants(brackets)
        assert _rational(scale, constants) == _as_lists(reference)
        assert scale == _lcm_of_denominators(reference)


def test_derived_table_equals_every_pair_computed(cold_table):
    """The core-basis orbits, carried to the preferred basis, equal the 3003-pair loop,
    in key and row order too; the scale is the lcm of the denominators."""
    table, reference = algebra.structure_table(), _reference_constants()
    assert _rational(table.scale, table.constants) == _as_lists(reference)
    assert table.scale == _lcm_of_denominators(reference) == 6


def _closure(identity, generators, compose):
    """Every product of the generators."""
    group, frontier = {identity}, [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = compose(g, x)
                if y not in group:
                    group.add(y)
                    new.append(y)
        frontier = new
    return group


def _unit_perm(images):
    perm, sign = list(range(8)), [1] * 8
    for unit, image in images.items():
        perm[UNIT_INDEX[unit]] = UNIT_INDEX[image.lstrip("-")]
        sign[UNIT_INDEX[unit]] = -1 if image.startswith("-") else 1
    return perm, sign


def _signed(perm, sign, x):
    """The signed permutation applied to an octonion."""
    out = [0] * 8
    for u, c in enumerate(x.coeffs):
        out[perm[u]] = sign[u] * c
    return Octonion(out)


def _compose(g, h):
    """g after h, for signed permutations given as (perm, sign) tuples."""
    (gp, gs), (hp, hs) = g, h
    return (tuple(gp[hp[u]] for u in range(len(hp))),
            tuple(hs[u] * gs[hp[u]] for u in range(len(hp))))


def _is_automorphism(images):
    perm, sign = _unit_perm(images)
    units = [Octonion.unit(name, 1) for name in UNITS]
    return all(_signed(perm, sign, x * y) == _signed(perm, sign, x) * _signed(perm, sign, y)
               for x in units for y in units)


_IDENTITY8 = (tuple(range(8)), (1,) * 8)


def test_tangent_moves_generate_21_stage_checked_maps_and_7_core_orbits():
    """Every sign-free automorphism carries each of the 45 cores' stages to its image's."""
    assert all(_is_automorphism(images) for images in algebra._TANGENT_MOVES)
    moves = [tuple(map(tuple, _unit_perm(images))) for images in algebra._TANGENT_MOVES]
    maps = _closure(_IDENTITY8, moves, _compose)
    assert len(maps) == 21 and all(set(sign) == {1} for _, sign in maps)
    type1 = _TRANSVERSE + [lab for lab in algebra.preferred_basis()
                           if lab.category in ("B", "R") and lab.type_index == 1]
    assert len(set(type1)) == 45
    orbits = set()
    for core in type1:
        orbit = set()
        for move in maps:
            image, sign = algebra._core_image(core, move)
            algebra._check_stages(core, image, move, sign)
            orbit.add(image)
        orbits.add(frozenset(orbit))
        assert algebra._orbit_rep(core) in orbit
    assert sorted(map(len, orbits)) == [1, 1, 1, 7, 7, 7, 21]


def test_transverse_planes_are_ordered_by_their_axis():
    """_AGS_PAIRS orders each plane (p, q) so that p q = +axis, the order _core_image keeps."""
    for axis, pairs in _AGS_PAIRS.items():
        for p, q in pairs:
            assert MULT_TABLE[UNIT_INDEX[p]][UNIT_INDEX[q]] == (1, UNIT_INDEX[axis])


def test_flip_as_a_tangent_move_is_refused(monkeypatch, fresh_tangents):
    """The signed involution reverses some transverse planes, so its stages do not match."""
    monkeypatch.setattr(algebra, "_TANGENT_MOVES", (algebra._SEVEN, structure._FLIP))
    with pytest.raises(AssertionError, match="does not carry the stages"):
        algebra.tangent(GeneratorLabel("A", 1, axis="i"))
    flip = algebra._unit_map(structure._FLIP)
    refused = 0
    for pairs in _AGS_PAIRS.values():
        for pair in pairs:
            core = GeneratorLabel("R", 1, plane=pair)
            image, sign = algebra._core_image(core, flip)
            try:
                algebra._check_stages(core, image, flip, sign)
            except AssertionError:
                refused += 1
    assert refused == 14


def test_table_moves_are_automorphisms_generating_1344_maps_and_166_orbits():
    assert all(_is_automorphism(images) for images in structure._TABLE_MOVES)
    moves = [tuple(map(tuple, _unit_perm(images))) for images in structure._TABLE_MOVES]
    assert len(_closure(_IDENTITY8, moves, _compose)) == 1344
    flat = [algebra.doubled_tangent(core) for core in structure._core_basis()]
    moves = [(tuple(p), tuple(s)) for p, s in structure._basis_symmetries(flat)]
    group = _closure((tuple(range(78)), (1,) * 78), moves, _compose)
    assert len(group) == 1344
    orbits = {frozenset((min(p[i], p[j]), max(p[i], p[j])) for p, _ in group)
              for i in range(78) for j in range(i + 1, 78)}
    assert sum(map(len, orbits)) == 3003 and len(orbits) == 166


def test_type_cycle_conjugates_the_type_1_tangent():
    """For all 135 labels, 2T at type t is the type-1 2T conjugated by _CYCLES[t - 1],
    and three turns of the cycle give every 2T back."""
    for label in all_labels():
        twice = algebra.doubled_tangent(label)
        first = algebra.doubled_tangent(label._replace(type_index=1))
        assert twice == algebra._conjugated(first, algebra._CYCLES[label.type_index - 1])
        turned = twice
        for _ in range(3):
            turned = algebra._conjugated(turned, algebra._CYCLES[1])
        assert turned == twice, group.format_label(label)


def test_conjugating_by_a_unit_map_and_its_inverse_is_the_identity():
    """Q 2T Q^-1 then Q^-1 (Q 2T Q^-1) Q gives back the 2T of all 135 labels and of
    every core-basis label, for each unit map that moves tangents or table pairs."""
    tangents = [algebra.doubled_tangent(lab) for lab in all_labels() + structure._core_basis()]
    for images in algebra._TANGENT_MOVES + structure._TABLE_MOVES:
        q, s = algebra._coordinate_map(algebra._unit_map(images))
        back, back_sign = [0] * 27, [0] * 27
        for i in range(27):    # Q^-1: coordinate q[i] -> s[i] coordinate i
            back[q[i]], back_sign[q[i]] = i, s[i]
        moved = [algebra._conjugated(twice, q, s) for twice in tangents]
        assert moved != tangents
        assert [algebra._conjugated(m, back, back_sign) for m in moved] == tangents


def test_change_of_basis_inverts_the_ags_blocks():
    """P W = d I, with d = 6 the determinant of each A/G/S block."""
    expand, back, d = structure._change_of_basis()
    assert d == 6
    for a, row in enumerate(expand):
        out = {}
        for c, x in row.items():
            for f, w in back[c].items():
                out[f] = out.get(f, 0) + x * w
        assert {f: v for f, v in out.items() if v} == {a: d}


def test_one_commutator_per_orbit(monkeypatch, cold_table):
    calls = []

    def counted(x, y):
        calls.append(1)
        return commutator(x, y)

    commutator = structure._flat_commutator
    monkeypatch.setattr(structure, "_flat_commutator", counted)
    structure.structure_table()
    assert len(calls) == 166


def test_tangent_moved_off_the_basis_is_caught(monkeypatch, cold_table, fresh_span, fresh_tangents):
    """A core tangent that the moves do not carry to a basis tangent is refused."""
    core = GeneratorLabel("B", 1, plane=("t", "x"))
    twice = dict(_direct_core_tangent(core))
    # row p, column a_i: p moves with a_i, which under B:t,x it does not
    twice[0 * 27 + 3 + UNIT_INDEX["i"]] = 1
    monkeypatch.setattr(algebra, "_CORE_TANGENTS", {core: twice})
    with pytest.raises(structure.NotInSpan, match="outside the basis"):
        algebra.structure_table()


def test_unit_map_that_is_not_an_automorphism_is_refused(monkeypatch, cold_table, fresh_tangents):
    monkeypatch.setattr(structure, "_TABLE_MOVES", ({"i": "j", "j": "i"},))
    with pytest.raises(AssertionError, match="not an octonion automorphism"):
        algebra.structure_table()
    monkeypatch.setattr(algebra, "_TANGENT_MOVES", ({"i": "j", "j": "i"},))
    monkeypatch.setattr(algebra, "_CORE_TANGENTS", {})
    with pytest.raises(AssertionError, match="not an octonion automorphism"):
        algebra.tangent(GeneratorLabel("A", 1, axis="i"))


def test_import_does_no_algebra_work():
    """Importing algebra evaluates no core, reads no stage and builds no automorphism."""
    code = (
        "import sys\n"
        "from e6kit import group\n"
        "called = set()\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call'"
        " and called.add(frame.f_code.co_name))\n"
        "from e6kit import algebra\n"
        "sys.setprofile(None)\n"
        "assert not algebra._CORE_TANGENTS\n"
        "print(' '.join(sorted(called)))\n")
    root = os.path.dirname(os.path.dirname(algebra.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    env.pop(algebra.CACHE_ENV, None)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    called = set(run.stdout.split())
    assert "from_coords" in called    # the profile saw the import's own work
    assert not called & {"apply_dual", "at_zero", "build_sequence", "_unit_map",
                         "_core_tangent", "_basis_symmetries", "_coordinate_map"}


def test_rank_of_unit_vectors_reads_the_table(monkeypatch):
    """Unit vectors take the renumbered table: no express call, the same rank as scaled vectors."""
    indices = [n for n, lab in enumerate(algebra.preferred_basis()) if lab.category != "B"]
    algebra.structure_table()
    express = []
    original = SpanBasis.express

    def counted(self, vector):
        express.append(1)
        return original(self, vector)

    monkeypatch.setattr(SpanBasis, "express", counted)
    assert algebra.rank_estimate(algebra.unit_vectors(indices)) == 4
    assert express == []
    assert algebra.rank_estimate([{i: 2} for i in indices]) == 4
    assert express
