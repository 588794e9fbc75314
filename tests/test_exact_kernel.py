"""The integer tangent kernel: derived tangents, lattices, work counts, guards."""

from fractions import Fraction

import pytest

from e6kit import algebra, group
from e6kit.group import GeneratorLabel, ParamMatrix, all_labels, apply_dual
from e6kit.jordan import basis_element, to_coords


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
             if algebra.tangent(lab).mat != _direct_tangent(lab)]
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
        mat = algebra.tangent(label).mat
        for col in range(27):
            for row, x in enumerate(_exp_column(mat, alpha, col)):
                err = abs(action[row][col] - x)
                if err > worst:
                    worst, where = err, group.format_label(label)
    assert worst <= 1e-12, (worst, where)


@pytest.mark.parametrize("misuse", [
    lambda x, y: x * y,
    lambda x, y: x + 1,
    lambda x, y: 1 - x,
    lambda x, y: x * Fraction(1, 2),
    lambda x, y: 0.5 * x,
])
def test_linear_form_misuse_raises(misuse):
    """A non-linear use of the generic coordinates is a TypeError, not a wrong number."""
    x, y = algebra._Form({0: 1}), algebra._Form({1: 2})
    with pytest.raises(TypeError):
        misuse(x, y)


def test_tangent_entries_in_half_integers():
    for label in all_labels():
        for row in algebra.tangent(label).mat.values():
            for v in row.values():
                assert (2 * v).denominator == 1, (label, v)


def test_structure_constants_in_sixth_integers():
    table = algebra.structure_table()
    values = [v for row in table.constants.values() for v in row.values()]
    assert len(table.constants) == 2334 and len(values) == 2750
    assert all((6 * v).denominator == 1 for v in values)
    assert any((2 * v).denominator == 3 for v in values)  # 1/6 Z is needed, not 1/2 Z


def _stage(i, j, terms):
    entries = [[() for _ in range(3)] for _ in range(3)]
    for n in range(3):
        entries[n][n] = (("const", Fraction(0), 0, Fraction(1)),)
    entries[i][j] = terms
    return ParamMatrix(tuple(tuple(row) for row in entries))


@pytest.mark.parametrize("terms", [
    (("sin", Fraction(1, 3), 1, Fraction(1)),),                    # 2 M'(0) = 2/3
    (("const", Fraction(0), 0, Fraction(1, 2)),),                  # M(0) = 1/2
    (("cos", Fraction(1, 2), 0, Fraction(1)),
     ("exp", Fraction(1, 4), 0, Fraction(1))),                     # 2 M'(0) = 1/2
])
def test_non_integral_stage_raises(monkeypatch, terms):
    monkeypatch.setattr(group, "_sequence", lambda label: [_stage(0, 1, terms)])
    with pytest.raises(group.NotIntegral):
        apply_dual(GeneratorLabel("A", 1, axis="i"), basis_element(0))


def test_integral_stage_sums_are_accepted():
    # two half-integer terms of one entry add up to an integer
    terms = (("sin", Fraction(1, 4), 1, Fraction(1)), ("sin", Fraction(1, 4), 1, Fraction(1)))
    value, twice = _stage(0, 1, terms).at_zero()
    assert twice[0][1].coeffs == (0, 1, 0, 0, 0, 0, 0, 0)
    assert value[0][0].coeffs == (1, 0, 0, 0, 0, 0, 0, 0)


def test_tangent_work_count(monkeypatch):
    """135 cold tangents differentiate 45 cores (66 stages) on the generic element; none on repeat."""
    monkeypatch.delenv(algebra.CACHE_ENV, raising=False)
    monkeypatch.setattr(algebra, "_TANGENTS", {})
    monkeypatch.setattr(algebra, "_CORE_TANGENTS", {})
    calls, stages = [], []

    def counted(label, chi):
        calls.append((label, chi is algebra._GENERIC))
        return apply_dual(label, chi)

    def counted_at_zero(self):
        stages.append(self)
        return at_zero(self)

    at_zero = ParamMatrix.at_zero
    monkeypatch.setattr(algebra, "apply_dual", counted)
    monkeypatch.setattr(ParamMatrix, "at_zero", counted_at_zero)
    for label in all_labels():
        algebra.tangent(label)
    assert len(calls) == 45 and len(stages) == 66
    assert len({core for core, _ in calls}) == 45  # each core is evaluated once
    assert {(core.type_index, generic) for core, generic in calls} == {(1, True)}
    for label in all_labels():
        algebra.tangent(label)
    assert len(calls) == 45 and len(stages) == 66


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


@pytest.fixture
def fresh_span():
    """Build the span of the basis tangents anew, and drop it after the test."""
    algebra._basis_span.cache_clear()
    yield
    algebra._basis_span.cache_clear()


def test_basis_span_built_once(monkeypatch, fresh_span):
    """The table, the basis reduction and Stab(l) share one span of the 78 tangents."""
    monkeypatch.delenv(algebra.CACHE_ENV, raising=False)
    monkeypatch.setattr(algebra, "_TABLE", None)
    algebra.structure_table()
    algebra.reduce_basis()
    algebra.stabilizer_of_l()
    info = algebra._basis_span.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_corrupt_tangent_is_caught(monkeypatch, fresh_span):
    """A basis tangent that is off by 1/2 in one entry cannot pass the integer rebuild."""
    monkeypatch.delenv(algebra.CACHE_ENV, raising=False)
    tangents = {lab: algebra.tangent(lab) for lab in algebra.preferred_basis()}
    label = GeneratorLabel("A", 1, axis="l")
    mat = {r: dict(row) for r, row in tangents[label].mat.items()}
    row = mat.setdefault(0, {})
    row[0] = row.get(0, 0) + Fraction(1, 2)
    tangents[label] = algebra.AlgebraElement(mat, provenance=label)
    monkeypatch.setattr(algebra, "_TANGENTS", tangents)
    monkeypatch.setattr(algebra, "_TABLE", None)
    with pytest.raises(algebra.NotInSpan):
        algebra.structure_table()
