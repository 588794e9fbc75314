"""One-parameter group actions: labels, finite evaluation, tangents."""

import hashlib
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from operator import itemgetter, neg

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from e6kit import group
from e6kit.group import (GeneratorLabel, IllegalLabel, action_matrix, all_labels,
                         apply, apply_dual, build_sequence, format_label, parse_label,
                         validate_label)
from e6kit.jordan import det, from_coords, to_coords
from e6kit.units import UNIT_INDEX
from reference import apply as reference_apply, apply_matrix, basis_element, type_cycle


def random_chi(rng):
    return from_coords([rng.randint(-6, 6) / 2.0 for _ in range(27)])


def test_catalog_size_and_roundtrip():
    labels = all_labels()
    assert len(labels) == 135
    assert len(set(labels)) == 135
    for label in labels:
        assert parse_label(format_label(label)) == label


def test_parse_accepts_ascii_and_display_units():
    assert parse_label("R:z,kl:2") == parse_label("R:z,kℓ:2")
    assert parse_label("A:l") == GeneratorLabel("A", 1, axis="l")
    assert parse_label("B:t,x:3") == GeneratorLabel("B", 3, plane=("t", "x"))


def test_labels_are_immutable_values():
    label = parse_label("R:z,kl:2")
    twin = GeneratorLabel("R", 2, plane=("z", "kl"))
    assert {label: "found"}[twin] == "found"
    assert hash(label) == hash(("R", 2, ("z", "kl"), None))    # set and dict order
    assert repr(label) == "GeneratorLabel(category='R', type_index=2, plane=('z', 'kl'), axis=None)"
    with pytest.raises(AttributeError):
        label.type_index = 1
    with pytest.raises(IllegalLabel) as exc:
        validate_label(GeneratorLabel("R", 1, plane=("t", "z")))
    assert str(exc.value) == ("illegal label GeneratorLabel(category='R', type_index=1, "
                              "plane=('t', 'z'), axis=None)")


@pytest.mark.parametrize("bad", ["Q:i", "B:t", "B:t,z:4", "R:t,z", "A:w",
                                 "B:x,z", "A:i:0", "nonsense", "R:i,j", "R:l,il:2",
                                 "A:i:+2", "A:i: 2", "A:i:٢", "G:l:-1"])
def test_illegal_labels_rejected(bad):
    with pytest.raises(IllegalLabel):
        parse_label(bad)


@pytest.mark.parametrize("type_index", [0, -1, 4, 2.0, 1.0, True])
@pytest.mark.parametrize("label", [GeneratorLabel("A", 1, axis="i"),
                                   GeneratorLabel("B", 1, plane=("t", "z"))], ids=str)
def test_out_of_range_type_index_is_an_illegal_label(label, type_index):
    """A label built by hand with a type index other than the ints 1, 2 or 3
    runs no action: 0 and -1 would index the gathers of types 3 and 2, and
    2.0, 1.0 and True would run the type they equal.  Kernels are kept by
    label, and 2.0 and True hash as the ints they equal, so the int label
    runs first: its kernel entry must not let the others through."""
    from e6kit.algebra import doubled_tangent
    chi = basis_element(3)
    twin = label._replace(type_index=int(type_index))
    if twin.type_index in (1, 2, 3):
        apply(twin, 0.3, chi), apply_dual(twin, chi), action_matrix(twin, 0.3)
        assert hash(twin) == hash(label._replace(type_index=type_index))
    label = label._replace(type_index=type_index)
    for call in (lambda: apply(label, 0.3, chi), lambda: action_matrix(label, 0.3),
                 lambda: apply_dual(label, chi), lambda: doubled_tangent(label)):
        with pytest.raises(IllegalLabel, match="type index out of range"):
            call()


_LIST_PLANE = GeneratorLabel("B", 1, plane=["t", "z"])


def test_list_plane_is_an_illegal_label_for_apply():
    """A hand-built label with an unhashable field names no kernel, as
    validate_label says, and is not a TypeError from the kernel lookup."""
    with pytest.raises(IllegalLabel):
        validate_label(_LIST_PLANE)
    with pytest.raises(IllegalLabel):
        apply(_LIST_PLANE, 0.3, basis_element(3))


def test_list_plane_is_an_illegal_label_for_action_matrix():
    with pytest.raises(IllegalLabel):
        action_matrix(_LIST_PLANE, 0.3)


def test_list_plane_is_an_illegal_label_for_apply_dual():
    with pytest.raises(IllegalLabel):
        apply_dual(_LIST_PLANE, basis_element(3))


@pytest.mark.parametrize("text", ["B:t,z", "B:t,kl:3", "R:x,z:2", "R:z,jl",
                                  "A:i", "G:l:2", "S:il:3"])
def test_one_parameter_property(text):
    """apply(alpha) after apply(beta) is apply(alpha + beta), to 1e-9."""
    rng = random.Random(7)
    chi = random_chi(rng)
    label, alpha, beta = parse_label(text), 0.31, -0.17
    lhs = apply(label, alpha, apply(label, beta, chi)).coords
    rhs = apply(label, alpha + beta, chi).coords
    assert max(abs(x - y) for x, y in zip(lhs, rhs)) < 1e-9


def test_a_l_tangent_on_off_diagonal_block():
    # The tangent of A:l moves the a-block octonion by
    # a -> -a_il i + a_jl j - a_j jl + a_i il  (all other coords fixed).
    coords = [Fraction(0)] * 27
    base = 3  # a-block starts after p, m, n
    for name, value in (("i", 2), ("j", 3), ("jl", 5), ("il", 7)):
        coords[base + UNIT_INDEX[name]] = Fraction(value)
    from e6kit.algebra import tangent
    moved = apply_matrix(tangent(parse_label("A:l")), coords)
    dot = {name: moved[base + UNIT_INDEX[name]]
           for name in ("i", "j", "k", "kl", "jl", "il", "l")}
    assert dot == {"i": -7, "il": 2, "j": 5, "jl": -3,
                   "k": 0, "kl": 0, "l": 0}


@pytest.mark.parametrize("text", ["B:t,z", "R:x,i", "A:j:2", "S:kl"])
def test_action_matrix_matches_apply(text):
    rng = random.Random(3)
    chi = random_chi(rng)
    label, alpha = parse_label(text), 0.41
    mat = action_matrix(label, alpha)
    coords = [float(v) for v in to_coords(chi)]
    via_matrix = [sum(mat[i][j] * coords[j] for j in range(27))
                  for i in range(27)]
    direct = [float(v) for v in to_coords(apply(label, alpha, chi))]
    assert max(abs(a - b) for a, b in zip(via_matrix, direct)) < 1e-12


@pytest.mark.parametrize("text", ["B:t,j:2", "R:z,kl:3", "A:i", "G:jl:3",
                                  "S:l:2", "R:x,z"])
def test_det_preserved_sample(text):
    rng = random.Random(11)
    for _ in range(3):
        chi = random_chi(rng)
        before = float(det(chi))
        after = float(det(apply(parse_label(text), 0.9, chi)))
        assert abs(after - before) < 1e-9


def test_type_cycle_order_three():
    rng = random.Random(5)
    chi = random_chi(rng)
    cycled = type_cycle(type_cycle(type_cycle(chi)))
    assert to_coords(cycled) == to_coords(chi)
    assert det(type_cycle(chi)) == det(chi)


def test_kernels_are_compiled_for_type_1_labels_only():
    """In a fresh interpreter, apply on all 135 labels builds the stage
    sequence of each of the 45 type-1 labels once, and 44 table pairs, one
    per structure.  The 135 label entries share them: a type-2 or type-3
    entry runs the type-1 stages, all but the last right table, whose gather
    gives the coordinates in the order of that type."""
    code = ("import collections\n"
            "from e6kit import group, jordan\n"
            "built = collections.Counter()\n"
            "build = group.build_sequence\n"
            "group.build_sequence = lambda label: built.update([label]) or build(label)\n"
            "chi = jordan.from_coords([0.5] * 27)\n"
            "for label in group.all_labels():\n"
            "    group.apply(label, 0.3, chi)\n"
            "kernels = group._KERNELS\n"
            "print(sum(built.values()), len(built), {label.type_index for label in built})\n"
            "types = collections.Counter(label.type_index for label in kernels)\n"
            "print(len(kernels), sorted(types.items()))\n"
            "print(len(group._CHAINS), len(group._STAGE_TABLES), len(group._TABLES))\n"
            "tables = {id(t) for left, rights, _ in group._TABLES for t in (left, *rights)}\n"
            "used = {id(t) for _, stages in kernels.values() for s in stages for t in s[3:5]}\n"
            "print(used == tables)\n"
            "def trim(stages):\n"
            "    return [stage[:4] + stage[5:] for stage in stages]\n"
            "shared, shifts = [], []\n"
            "for label, (shift, stages) in kernels.items():\n"
            "    base = kernels[label._replace(type_index=1)][1]\n"
            "    shared.append(trim(stages) == trim(base) and stages[-1][4][:2] == base[-1][4][:2])\n"
            "    shifts.append(shift == label.type_index - 1)\n"
            "print(all(shared), all(shifts))\n")
    assert _run_fresh(code) == ("45 45 {1}\n"
                                "135 [(1, 45), (2, 45), (3, 45)]\n"
                                "45 44 44\n"
                                "True\n"
                                "True True\n")


def test_verify_builds_each_stage_sequence_once():
    """In a fresh interpreter with no disk cache, `verify --suite all` builds
    each label's stage sequence at most once."""
    code = ("import collections, contextlib, io\n"
            "from e6kit import group\n"
            "built = collections.Counter()\n"
            "build = group.build_sequence\n"
            "def counted(label):\n"
            "    built[label] += 1\n"
            "    return build(label)\n"
            "group.build_sequence = counted\n"
            "from e6kit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(['verify', '--suite', 'all'])\n"
            "print(code, len(built) > 0, [str(k) for k, n in built.items() if n > 1])\n")
    env = {k: v for k, v in os.environ.items() if k != "E6KIT_CACHE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(group.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 True []\n"

def test_action_matrix_columns_have_the_bits_of_apply():
    """Column j is to_coords(apply(label, alpha, e_j)), bit for bit.

    |alpha| in 700-1420 makes the B labels' products overflow to +-inf and
    nan; packed doubles compare the sign of zero and nan as well.
    """
    rng = random.Random(19)
    basis = [basis_element(j) for j in range(27)]
    kinds = set()
    for label in all_labels():
        alphas = [0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-3, 3)]
        alphas += [rng.choice((-1, 1)) * rng.uniform(700, 1420) for _ in range(2)]
        for alpha in alphas:
            mat = action_matrix(label, alpha)
            for j, e_j in enumerate(basis):
                column = [struct.pack("<d", mat[i][j]) for i in range(27)]
                assert column == _bits(apply(label, alpha, e_j)), (label, alpha, j)
            kinds |= {"inf" if math.isinf(v) else "nan" if math.isnan(v) else "finite"
                      for row in mat for v in row}
    assert kinds == {"finite", "inf", "nan"}


@pytest.mark.parametrize("alpha", [1500.0, -1500.0, 1e6])
def test_action_matrix_raises_where_apply_overflows(alpha):
    for label in all_labels():
        if label.category == "B":
            with pytest.raises(OverflowError):
                apply(label, alpha, basis_element(0))
            with pytest.raises(OverflowError):
                action_matrix(label, alpha)


def test_action_matrix_builds_source_tables_once_per_gather_table():
    """In a fresh interpreter: nothing is built at import; then, for all 135
    labels, one source-side form per half-step table, no apply call, no new
    table, and at most 1.5 MiB kept by the kernels and the forms together.

    The kernels hold 44 table pairs: 14 of stages that some sequence
    continues after, and 30 of last stages, whose right table forms only the
    27 read slots and whose left table only the slots that those read.  The
    7 flip stages are folded into the left tables after them, so they add no
    table and no form.  The tables are prezipped tuples, which the kept
    memory includes (about 0.45 MiB, and 0.45 MiB of forms, on CPython 3.11).
    """
    code = ("import gc, tracemalloc\n"
            "from e6kit import group\n"
            "print(len(group._SOURCES), len(group._PAIRS), len(group._TABLES), len(group._KERNELS))\n"
            "calls = {'apply': 0, '_sources': 0, '_signed_permutation': 0, '_table_pair': 0}\n"
            "def counted(name):\n"
            "    f = getattr(group, name)\n"
            "    def wrapper(*args):\n"
            "        calls[name] += 1\n"
            "        return f(*args)\n"
            "    setattr(group, name, wrapper)\n"
            "gc.collect()\n"
            "tracemalloc.start()\n"
            "labels = group.all_labels()\n"
            "for label in labels:\n"
            "    group._kernel(label)\n"
            "for name in calls:\n"
            "    counted(name)\n"
            "for label in labels:\n"
            "    group.action_matrix(label, 0.7)\n"
            "gc.collect()\n"
            "kept = tracemalloc.get_traced_memory()[0]\n"
            "print(calls, len(group._SOURCES), len(group._TABLES))\n"
            "print(kept <= 1536 * 1024, kept)\n")
    lines = _run_fresh(code).splitlines()
    assert lines[:2] == ["0 0 0 0", "{'apply': 0, '_sources': 88, '_signed_permutation': 0, "
                                    "'_table_pair': 0} 44 44"]
    assert lines[2].startswith("True "), lines[2]


def _run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(group.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_constant_stages_compile_to_signed_permutations():
    """In a fresh interpreter, the 7 distinct flip stages M = -q I of the 45
    kernels compile to signed permutations of the 72 slots, each folded into
    the left table of the turn stage after it, as the state gather is into
    the first one.  No kernel stage is constant, so a kernel of shape S,
    PSPS or PSPSPS (P a flip, S a turn) runs 1, 2 or 3 product stages; no
    table is kept for the flips' structures; and once the kernels are built,
    apply, apply_dual and action_matrix derive no permutation, fold or table
    and build no gather."""
    code = ("import collections\n"
            "from e6kit import group, jordan\n"
            "for label in group.all_labels():\n"
            "    group._kernel(label)\n"
            "stages = [stage for chains in group._CHAINS.values() for stage in chains[0]]\n"
            "flips = group._FLIPS\n"
            "const = all(group._is_constant(f) for f in flips)\n"
            "moved = [sorted(s[:72]) == list(range(72)) and set(n[:72]) <= {0, 255}\n"
            "         for s, n in flips.values()]\n"
            "units = {key[0] for key in group._STAGE_TABLES}\n"
            "kept = [group._parts(f)[3] in units for f in flips]\n"
            "print(len(flips), const, all(moved), any(kept))\n"
            "print(any(group._is_constant(s[5]) for s in stages), all(len(s) == 7 for s in stages),\n"
            "      sorted(collections.Counter(len(c[0]) for c in group._CHAINS.values()).items()))\n"
            "calls = []\n"
            "for name in ('_signed_permutation', '_fold', '_table_pair'):\n"
            "    f = getattr(group, name)\n"
            "    setattr(group, name, lambda *args, f=f: calls.append(args) or f(*args))\n"
            "gathers, tables = dict(group._GATHERS), len(group._TABLES)\n"
            "chi, ints = jordan.from_coords([0.5] * 27), jordan.from_coords(range(27))\n"
            "for label in group.all_labels():\n"
            "    group.apply(label, 0.3, chi)\n"
            "    group.apply_dual(label, ints)\n"
            "    group.action_matrix(label, 0.3)\n"
            "print(len(calls), group._GATHERS == gathers, len(group._TABLES) == tables)\n")
    assert _run_fresh(code) == ("7 True True False\n"
                                "False True [(1, 24), (2, 7), (3, 14)]\n"
                                "0 True True\n")


def test_product_passes_of_a_g_s_apply():
    """In a fresh interpreter, once its kernel is built, an apply runs one
    left and one right pass per turn stage, with the flips folded in: three
    for G and S, two for A, one for B, and nothing else but the rotation of
    a type-2 or type-3 chi.  The first left pass reads [*coords, 0], with
    the state gather and its negations folded in; each left pass returns its
    raw list of products and inputs, which the right pass reads by position,
    so the only gather is the right pass's, giving the 72 slots of the next
    stage or the 27 coordinates.  Per pass, the products formed: the last
    right pass forms just the 27 coordinates, less the copied n (18 products),
    and the last left pass only what those read; over the last left passes
    of the 45 kernels, 1 190 products.  action_matrix computes the values of
    the same stages."""
    code = ("from e6kit import group, jordan\n"
            "chi = jordan.from_coords([0.5] * 27)\n"
            "passes, values = [], []\n"
            "half_step, stage_values = group._half_step, group._stage_values\n"
            "def counted_half_step(table, m, x, copies):\n"
            "    out = half_step(table, m, x, copies)\n"
            "    raw, formed = table[2] is None, len(table[0]) + len(table[1])\n"
            "    assert type(out) is list and len(out) == formed + len(x) if raw else type(out) is tuple\n"
            "    passes.append((formed, len(x) if raw else len(out)))\n"
            "    return out\n"
            "def counted_values(*args):\n"
            "    values.append(1)\n"
            "    return stage_values(*args)\n"
            "for text in ('G:kl:2', 'S:jl:3', 'A:i', 'B:t,z'):\n"
            "    label = group.parse_label(text)\n"
            "    group.apply(label, 0.3, chi)\n"
            "    group._half_step, group._stage_values = counted_half_step, counted_values\n"
            "    group.apply(label, 0.3, chi)\n"
            "    group.action_matrix(label, 0.3)\n"
            "    group._half_step, group._stage_values = half_step, stage_values\n"
            "    print(text, [n for n, _ in passes], [k for _, k in passes], len(values))\n"
            "    passes.clear(); values.clear()\n"
            "lasts = [group._kernel(label)[1][-1][3] for label in group.all_labels()[:45]]\n"
            "print(len(lasts), sum(len(ones) + len(twos) for ones, twos, _ in lasts))\n")
    assert _run_fresh(code) == (
        "G:kl:2 [55, 48, 56, 48, 24, 18] [28, 72, 72, 72, 72, 27] 6\n"
        "S:jl:3 [55, 48, 56, 48, 24, 18] [28, 72, 72, 72, 72, 27] 6\n"
        "A:i [55, 48, 24, 18] [28, 72, 72, 27] 4\n"
        "B:t,z [18, 18] [28, 27] 2\n"
        "45 1190\n")


# SHA-256 of action_matrix over all_labels() x (0.3, -0.7), every entry packed
# as a little-endian double, row by row.
ACTION_MATRIX_SHA256 = "c02aa48e9ce2157e8a8c4ebee8bbe47e475e85dab729128a6c7bbe5492a13545"
# SHA-256 of apply over all_labels() x (0.3, -0.7, 2.9) x four chis, each
# result packed by _pack (below): three dense chis of random.Random(32).uniform(-3, 3)
# coordinates, then one of coordinates drawn from {+-0.0, 1e-300, -1e300, 3.25}.
APPLY_SHA256 = "08090822a58212249d105cd26c2dbe72ebd83730aa9873c47d17c62b4d9ea6b6"
# SHA-256 of det(apply(label, 0.7, chi)) over all_labels(), packed the same
# way, for chi of 27 random.Random(0).randint(-4, 4) / 2 coordinates.  It is
# the same on every Python version (det sums norms left to right, not by sum()).
DET_SHA256 = "3f3f16f0615257c184b379b0ed10f27ac02fe9feb6398e8f8cd941feaeaace63"


def test_action_matrix_golden_bits():
    h = hashlib.sha256()
    for label in all_labels():
        for alpha in (0.3, -0.7):
            for row in action_matrix(label, alpha):
                h.update(b"".join(struct.pack("<d", v) for v in row))
    assert h.hexdigest() == ACTION_MATRIX_SHA256


def test_apply_golden_bits():
    rng = random.Random(32)
    chis = [from_coords([rng.uniform(-3, 3) for _ in range(27)]) for _ in range(3)]
    chis.append(from_coords([rng.choice((0.0, -0.0, 1e-300, -1e300, 3.25)) for _ in range(27)]))
    h = hashlib.sha256()
    for label in all_labels():
        for alpha in (0.3, -0.7, 2.9):
            for chi in chis:
                h.update(_pack(to_coords(apply(label, alpha, chi))))
    assert h.hexdigest() == APPLY_SHA256


def test_det_golden_bits():
    rng = random.Random(0)
    chi = from_coords([rng.randint(-4, 4) / 2 for _ in range(27)])
    dets = [float(det(apply(label, 0.7, chi))) for label in all_labels()]
    packed = b"".join(struct.pack("<d", d) for d in dets)
    assert hashlib.sha256(packed).hexdigest() == DET_SHA256


# Nonfinite inputs: SHA-256 of det over 5000 seeded coordinate lists, mostly
# zeros, drawn from _NONFINITE or its finite part (where 1e308 overflows), and
# of apply over all_labels() x _NONFINITE_ALPHAS x three zero-heavy chis.  Every value
# is packed as a little-endian double, except that a nan is packed as b"nan":
# CPython gives a nan from two nan operands the sign of either one depending
# on whether the interpreter has specialized the operation yet (on 3.11,
# x + y returns y's nan in a cold function and x's in a warm one), so no code
# pins the sign of a nan.  Zeros keep their signs and infinities theirs.
_NONFINITE = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 3.25, 7, 0]
_NONFINITE_ALPHAS = (0.3, -0.7, 0.0, -0.0, 705.0, -1200.0)
DET_NONFINITE_SHA256 = "d37e4393f31607956a2fed218af2c82a5c78c2401e6dde51b39132e792ed4426"
APPLY_NONFINITE_SHA256 = "16fb473f5c0ed6b36cdefea72c2a52ff5f62d27966571dd53897358da5faa698"


def _pack(values) -> bytes:
    return b"".join(b"nan" if math.isnan(v) else struct.pack("<d", v) for v in map(float, values))


def test_det_golden_bits_on_nonfinite_input():
    finite = [v for v in _NONFINITE if math.isfinite(v)]
    rng = random.Random(20)
    h = hashlib.sha256()
    for _ in range(5000):
        pool, density = rng.choice((_NONFINITE, finite)), rng.choice((0.05, 0.15, 0.3, 1.0))
        coords = [rng.choice(pool) if rng.random() < density else rng.choice((0.0, -0.0, 0))
                  for _ in range(27)]
        h.update(_pack([det(from_coords(coords))]))
    assert h.hexdigest() == DET_NONFINITE_SHA256


def test_apply_golden_bits_on_nonfinite_input():
    rng = random.Random(21)
    chis = [from_coords([rng.choice(_NONFINITE) if rng.random() < 0.3 else 0.0
                         for _ in range(27)]) for _ in range(3)]
    h = hashlib.sha256()
    for label in all_labels():
        for alpha in _NONFINITE_ALPHAS:
            for chi in chis:
                try:
                    h.update(_pack(to_coords(apply(label, alpha, chi))))
                except OverflowError:
                    h.update(b"OverflowError")
    assert h.hexdigest() == APPLY_NONFINITE_SHA256


def _bits(chi):
    return [struct.pack("<d", float(v)) for v in to_coords(chi)]


def _coords(values):
    # Mostly zeros, so the sparse skips of the reference are exercised.
    return st.lists(st.one_of(st.just(0), values), min_size=27, max_size=27)


_LABELS_BY_STAGES = {n: [lab for lab in all_labels() if len(build_sequence(lab)) == n]
                     for n in (1, 4, 6)}


@given(label=st.sampled_from(sorted(_LABELS_BY_STAGES)).flatmap(
           lambda n: st.sampled_from(_LABELS_BY_STAGES[n])),
       alpha=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       coords=st.one_of(
           _coords(st.integers(-9, 9)),
           _coords(st.fractions(-10, 10, max_denominator=12)),
           _coords(st.one_of(st.just(-0.0), st.floats(-1e3, 1e3, allow_nan=False,
                                                       allow_infinity=False)))))
@example(label=parse_label("B:t,z"), alpha=0.3, coords=[-0.0] * 27)
@settings(max_examples=300, deadline=None)
def test_apply_matches_reference_bits(label, alpha, coords):
    chi = from_coords(coords)
    assert _bits(apply(label, alpha, chi)) == _bits(reference_apply(label, alpha, chi))


def _product_stages(label):
    """Per product stage of the label's kernel: (stage, the flip run just
    before it or None, whether it is first, whether it is last), read off
    build_sequence."""
    seq, out, flip = build_sequence(label), [], None
    for n, stage in enumerate(seq):
        if flip is None and n + 1 < len(seq) and group._is_constant(stage):
            flip = stage
        else:
            out.append((stage, flip, not out, n + 1 == len(seq)))
            flip = None
    return out


def _stage_slots(entry, float_alpha):
    """The float slots of a kernel entry at alpha, and its int slots of apply_dual."""
    template, terms, slots, _, _, stage, _ = entry
    value = stage.at_zero()[0]
    return (group._stage_values(template, terms, slots, float_alpha),
            value + [-v for v in value] + [1, -1])


def _fused_left(entry, flip, first, last, m, x):
    """The entry's left table run on x, at the slots it forms, and those slots.

    The slots are rebuilt with the table, which must be the entry's: all 72,
    or for a last stage those that its right half-step reads.
    """
    units = group._parts(entry[5])[3]
    formed = (group._read_slots(*group._half_step_table(units, False, group._READ_RUNS))
              if last else range(72))
    columns, parts = group._half_step_table(units, True, group._runs(formed) if last
                                            else group._ALL_RUNS, group._fold(flip, first))
    assert group._zipped(columns) == entry[3][:2] and entry[3][2] is None
    raw = group._half_step(entry[3], m, x, x)
    return [raw[w] for w in group._where(columns, parts)], formed


def _full_left(entry, flip, m, z):
    """The stage's full left table, with no fold, run on z after the flip
    before it (negating by unary minus): all 72 slots, in state order."""
    if flip is not None:
        sources, negations = group._signed_permutation(flip)
        z = [-z[s] if negations[o] else z[s] for o, s in enumerate(sources[:72])]
    columns, parts = group._half_step_table(group._parts(entry[5])[3], True)
    table = (*group._zipped(columns), itemgetter(*group._where(columns, parts)))
    return group._half_step(table, m, z, z)


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf])


@given(label=st.sampled_from(sorted(_LABELS_BY_STAGES)).flatmap(
           lambda n: st.sampled_from(_LABELS_BY_STAGES[n])),
       alpha=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       y=st.lists(st.one_of(_SPECIAL, st.floats(-1e3, 1e3)), min_size=72, max_size=72),
       ints=st.lists(st.integers(-9, 9), min_size=72, max_size=72))
@example(label=parse_label("A:i"), alpha=0.3, y=[-0.0] * 36 + [math.inf] * 36, ints=[0] * 72)
@settings(max_examples=200, deadline=None)
def test_fused_left_tables_match_flip_then_table(label, alpha, y, ints):
    """Each left table of a kernel after the first (shapes PSPS, PSPSPS), run
    on y, has the bits of the flip before its stage, negating by unary minus,
    then the stage's full left table: at the slots it forms, on float y with
    float stage values, and exactly on int y with the int values of
    apply_dual.  test_state_fold_matches_state_gather checks the first."""
    kernel = group._kernel(label)[1]
    stages = _product_stages(label)
    assert len(kernel) == len(stages)
    for entry, (stage, flip, first, last) in zip(kernel, stages):
        assert entry[5] == stage
        if first:
            continue
        for x, m in zip((y, ints), _stage_slots(entry, alpha)):
            fused, formed = _fused_left(entry, flip, False, last, m, x)
            old = _full_left(entry, flip, m, x)
            assert _pack(fused) == _pack([old[o] for o in formed])
            if x is ints:
                assert fused == [old[o] for o in formed]


# The 72-slot state of chi that the first left tables fold in: the
# coordinates, their negations (conj negates the imaginary units) and a zero
# for the empty units of the diagonal entries, gathered into the full
# matrix, entry (i, j) unit u at slot 8 * (3 * i + j) + u, after rotating
# the fields back by the shift of the label's type.
def _entry_indices(start, conj):
    return [start] + [start + u + 27 * conj for u in range(1, 8)]


_PAD = [54] * 7
_STATE_INDICES = ([0] + _PAD + _entry_indices(3, True) + _entry_indices(19, False)
                  + _entry_indices(3, False) + [1] + _PAD + _entry_indices(11, True)
                  + _entry_indices(19, True) + _entry_indices(11, False) + [2] + _PAD)


def _state(coords, zero, shift):
    rotated = group._rotation(shift)
    values = [*coords, *map(neg, coords), zero]
    return [values[i if i == 54 else i - i % 27 + rotated[i % 27]] for i in _STATE_INDICES]


_FLOAT_COORDS = st.lists(st.one_of(_SPECIAL, st.just(math.nan), st.floats(-1e3, 1e3)),
                         min_size=27, max_size=27)


@given(label=st.sampled_from(sorted(_LABELS_BY_STAGES)).flatmap(
           lambda n: st.sampled_from(_LABELS_BY_STAGES[n])),
       shift=st.integers(0, 2),
       alpha=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       coords=_FLOAT_COORDS,
       ints=st.lists(st.integers(-9, 9), min_size=27, max_size=27))
@example(label=parse_label("A:i"), shift=1, alpha=0.3,
         coords=[-0.0] * 9 + [math.inf] * 9 + [math.nan] * 9, ints=[0] * 27)
@settings(max_examples=200, deadline=None)
def test_state_fold_matches_state_gather(label, shift, alpha, coords, ints):
    """The first left table of each kernel (shapes S, PSPS, PSPSPS), run on
    [*rotated coords, 0] for the shift of each type, has the bits of the
    72-slot state gather it replaces (negations included), then the flip
    before the stage, negating by unary minus, then the stage's full left
    table: at the slots it forms, on floats with float stage values (a nan
    packed as one token), and exactly on ints with the int values of
    apply_dual."""
    label = label._replace(type_index=shift + 1)
    entry = group._kernel(label)[1][0]
    stage, flip, first, last = _product_stages(label)[0]
    assert entry[5] == stage and first
    for values, zero, m in zip((coords, ints), (0.0, 0), _stage_slots(entry, alpha)):
        rotated = group._ROTATE[shift](values) if shift else tuple(values)
        fused, formed = _fused_left(entry, flip, True, last, m, [*rotated, zero])
        old = _full_left(entry, flip, m, _state(values, zero, shift))
        assert _pack(fused) == _pack([old[o] for o in formed])
        if values is ints:
            assert fused == [old[o] for o in formed]
