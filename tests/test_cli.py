"""CLI surface: verbs, exit codes, deterministic JSON output."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import zlib
from fractions import Fraction

import pytest

CLI = [sys.executable, "-m", "e6kit.cli"]
_CACHE_FILE = os.path.join(tempfile.mkdtemp(prefix="e6kit-cache-"),
                           "table.json")


def run_cli(*args, stdin=None):
    env = dict(os.environ, E6KIT_CACHE=_CACHE_FILE)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          input=stdin, env=env)


# SHA-256 of the canonical outputs, pinned at the seed: any change to the
# basis, the tangents, the bracket convention or the number format shows here.
GOLDEN_SHA256 = {
    "table": "8bbe61ca9cacaf584f5825733cd407b5beb93ecf8e90ec8da2a50021272b7925",
    "killing": "ad1c84d7ba8cfcfae8600e0a6644c364eaf372ed95bbfb7474367bc5e9c5cf81",
    "stab-l": "54e118e03bf290a67ffd2417839e33efa927f67e6aabfe80907328f1db39ea67",
    "gellmann": "2f1456b917466fe5cd6b030e81ae558f0b29367b43fa93d336d4f2a091d758d6",
}


@pytest.mark.parametrize("verb", sorted(GOLDEN_SHA256))
def test_golden_output_cold(verb, tmp_path):
    """Computed from scratch (no disk cache), the output is byte-identical to the seed's."""
    env = {k: v for k, v in os.environ.items() if k != "E6KIT_CACHE"}
    out = tmp_path / f"{verb}.json"
    proc = subprocess.run(CLI + [verb, "--out", str(out)], capture_output=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[verb]


@pytest.mark.parametrize("verb", sorted(GOLDEN_SHA256))
def test_golden_output_from_cache(verb, tmp_path):
    """With a filled disk cache the outputs are the seed's too (tangents are still derived)."""
    assert run_cli("table").returncode == 0  # fills the shared cache if needed
    out = tmp_path / f"{verb}.json"
    proc = run_cli(verb, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[verb]


def test_killing_prints_signature():
    proc = run_cli("killing")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(52,26)"


def test_verify_dependencies():
    proc = run_cli("verify", "--suite", "dependencies")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    confirmed = [ln for ln in lines if ln.startswith("confirmed:")]
    assert len(confirmed) == 15 + 14 + 1 + 1
    assert lines[-1] == "31 identities confirmed"


def test_verify_dependencies_checks_each_difference(monkeypatch, capsys):
    """Errors in A:i:2 and A:j:2 that cancel in a sum over q still fail the A identity."""
    from e6kit import algebra, cli, group
    original = algebra.doubled_tangent
    extra = original(group.parse_label("B:t,z"))
    shifted = {group.parse_label("A:i:2"): 1, group.parse_label("A:j:2"): -1}

    def doubled_tangent(label):
        twice = dict(original(label))
        if label in shifted:
            for key, v in extra.items():
                twice[key] = twice.get(key, 0) + shifted[label] * v
        return twice

    monkeypatch.setattr(algebra, "doubled_tangent", doubled_tangent)
    assert cli.run(["verify", "--suite", "dependencies"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAILED: A:q = A:q:2 = A:q:3 for all q"
    assert len(lines) == 30    # the 29 identities before it were confirmed


def test_verify_jacobi_seeded():
    proc = run_cli("verify", "--suite", "jacobi", "--seed", "1")
    assert proc.returncode == 0
    assert "jacobi holds" in proc.stdout


def test_verify_jacobi_reports_the_failing_triple(monkeypatch, capsys):
    """A constant put on a pair that brackets to 0 breaks Jacobi on a seed-1 triple."""
    from e6kit import cli, structure
    table = structure.structure_table()
    assert (0, 1) not in table.constants    # [B:t,z, B:t,z:2] = 0; seed 1 samples (0, 1, 5)
    constants = {**table.constants, (0, 1): {2: 1}}
    monkeypatch.setattr(structure, "_TABLE",
                        structure.StructureTable(table.basis, table.scale, constants))
    assert cli.run(["verify", "--suite", "jacobi", "--seed", "1"]) == 1
    assert capsys.readouterr().out == "FAILED: jacobi(B:t,z, B:t,z:2, B:t,i) != 0\n"


def test_verify_det_reports_drift(monkeypatch, capsys):
    """An action that scales chi by 1.001 fails the det suite at the first label."""
    from e6kit import cli, group, jordan
    original = group.apply
    monkeypatch.setattr(group, "apply", lambda label, alpha, chi: jordan.from_coords(
        [1.001 * v for v in original(label, alpha, chi).coords]))
    assert cli.run(["verify", "--suite", "det"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED: det drift ") and out.endswith(" for B:t,z at alpha=0.3\n")


def test_verify_det_fails_on_a_nan_det(monkeypatch, capsys):
    """A nan det is no det preserved: the suite fails at the first label."""
    from e6kit import cli, jordan
    monkeypatch.setattr(jordan, "det", lambda x: float("nan"))
    assert cli.run(["verify", "--suite", "det"]) == 1
    assert capsys.readouterr().out == "FAILED: det drift nan for B:t,z at alpha=0.3\n"


def test_table_json_schema_and_determinism():
    p1 = run_cli("table")
    p2 = run_cli("table")
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout  # byte-identical
    data = json.loads(p1.stdout)
    assert set(data) == {"basis", "constants"}
    assert len(data["basis"]) == 78
    entry = data["constants"][0]
    assert set(entry) == {"i", "j", "k", "v"}
    assert all(isinstance(e["v"], str) for e in data["constants"][:50])


def test_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("table", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,j,k,v"
    assert len(lines) > 100


def test_roots_b3_vector_rep(tmp_path):
    out = tmp_path / "w.json"
    proc = run_cli("roots", "--algebra", "B3", "--highest", "1,0,0",
                   "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 3
    assert len(data["weights"]) == 7
    assert len(data["edges"]) == 6


def test_roots_without_highest_lists_roots():
    proc = run_cli("roots", "--algebra", "F4")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["roots"]) == 48


def test_subalg_auto():
    proc = run_cli("subalg", "--auto", "23,hperp")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["dim"] == 38
    assert data["signature"][:2] == [24, 14]


def test_subalg_assemble():
    proc = run_cli("subalg", "--assemble", "R1H,B23Hp,B23H,R1Hp")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["dim"] == 52
    assert data["signature"][:2] == [36, 16]


def test_subalg_assemble_not_closed_names_the_bracket():
    proc = run_cli("subalg", "--assemble", "B1H")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "FAILED: assembly not closed: [B:t,z, B:t,x] leaves the span (hits R:x,z)"]


def test_subalg_assemble_repeated_cell_is_the_cell():
    """The cells are disjoint: R1H,R1H is R1H, byte for byte."""
    once = run_cli("subalg", "--assemble", "R1H")
    twice = run_cli("subalg", "--assemble", "R1H,R1H")
    assert (twice.returncode, twice.stderr) == (0, "")
    assert twice.stdout == once.stdout


def test_stab_l():
    proc = run_cli("stab-l")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["dim"] == 52
    assert data["b_dims"] == [6, 6, 4]


_STAB_L_REPORT = {"dim": 52, "kernel": [], "documented_basis_in_kernel": True,
                  "so81_dim": 36, "so81_closed": True, "b_dims": (6, 6, 4),
                  "b_abelian": True, "b_is_ideal_under_so81": True,
                  "b2_killing_null": True}


@pytest.mark.parametrize("check, field, value", [
    ("dim == 52", "dim", 51),
    ("documented_basis_in_kernel", "documented_basis_in_kernel", False),
    ("so81_closed", "so81_closed", False),
    ("b_abelian", "b_abelian", False),
    ("b_is_ideal_under_so81", "b_is_ideal_under_so81", False),
    ("b2_killing_null", "b2_killing_null", False),
])
def test_stab_l_names_the_failed_check(monkeypatch, capsys, check, field, value):
    from e6kit import cli, stabilizer
    monkeypatch.setattr(stabilizer, "stabilizer_of_l", lambda: dict(_STAB_L_REPORT))
    assert cli.run(["stab-l"]) == 0
    passing = capsys.readouterr()
    assert passing.err == ""
    monkeypatch.setattr(stabilizer, "stabilizer_of_l",
                        lambda: dict(_STAB_L_REPORT, **{field: value}))
    assert cli.run(["stab-l"]) == 1
    failing = capsys.readouterr()
    assert failing.err == f"FAILED: stabilizer check {check} does not hold\n"
    assert json.loads(failing.out) == dict(json.loads(passing.out), **{field: value})


def test_import_group_leaves_other_modules_unloaded():
    """import e6kit.group compiles no algebra, subalgebra or rootweight; e6kit.__all__ still resolves."""
    code = ("import sys, e6kit.group\n"
            "lazy = [m for m in ('algebra', 'subalgebra', 'rootweight')\n"
            "        if 'e6kit.' + m in sys.modules]\n"
            "import e6kit\n"
            "missing = [n for n in e6kit.__all__ if getattr(e6kit, n, None) is None]\n"
            "print(lazy, missing)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


def test_gellmann():
    proc = run_cli("gellmann")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"match": True, "pairs_checked": 28}


def _swap_first_two(mats):
    mats[0], mats[1] = mats[1], mats[0]


def _repeat_first(mats):
    mats[1] = mats[0]


def _real_diagonal_last(mats):
    mats[7] = {0 * 27 + 0: 2, 3 * 27 + 3: 2}    # diag(1, 0, 0), realified and doubled, flat


@pytest.mark.parametrize("corrupt, message", [
    (_swap_first_two, "FAILED: structure constants differ at pair (0, "),
    (_repeat_first, "FAILED: subspace vectors are dependent"),
    (_real_diagonal_last, "FAILED: [v_"),
])
def test_gellmann_failure_exits_1(monkeypatch, capsys, corrupt, message):
    """A corrupted oracle fails the check: exit 1, stdout empty, one stderr line."""
    from e6kit import cli, gellmann
    mats = gellmann._gellmann_matrices()
    corrupt(mats)
    monkeypatch.setattr(gellmann, "_gellmann_matrices", lambda: mats)
    assert cli.run(["gellmann"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


def test_apply_preserves_det():
    chi = {"coords": [1, 2, 3] + [0.5] * 24}
    proc = run_cli("apply", "--label", "R:z,kl:2", "--alpha", "0.3",
                   "--chi", "-", stdin=json.dumps(chi))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["coords"]) == 27

    base = run_cli("apply", "--label", "R:z,kl:2", "--alpha", "0.0",
                   "--chi", "-", stdin=json.dumps(chi))
    assert abs(data["det"] - json.loads(base.stdout)["det"]) < 1e-9


def test_negative_alpha_with_an_exponent_reads_as_the_equals_form():
    chi = json.dumps({"coords": [1, 2, 3] + [0.5] * 24})
    spaced = run_cli("apply", "--label", "A:i", "--alpha", "-1e-3", "--chi", "-", stdin=chi)
    joined = run_cli("apply", "--label", "A:i", "--alpha=-1e-3", "--chi", "-", stdin=chi)
    assert (spaced.returncode, spaced.stderr) == (0, "")
    assert spaced.stdout == joined.stdout


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="no /dev/full to fail a write")


@pytest.mark.parametrize("args", [
    ["nonsense-verb"],
    ["roots"],                       # missing --algebra
    ["apply", "--label", "A:i"],     # missing --alpha/--chi
    ["killing", "--jobs", "2"],      # no such flag
    ["killing", "--seed", "1"],      # --seed belongs to verify only
    ["killing", "--out", "/no/such/dir/x"],
    ["apply", "--label", "A:i", "--alpha", "0.1", "--chi", "/missing"],
    ["apply", "--label", "A:i", "--alpha", "nan", "--chi", "-"],
    ["apply", "--label", "B:t,x", "--alpha", "1e3", "--chi", "-"],  # inf/nan result
    ["apply", "--label", "B:t,x", "--alpha", "1e4", "--chi", "-"],  # cosh overflows
    ["verify", "--suite", "det", "--tol", "-1"],
    ["verify", "--suite", "det", "--tol", "0"],
    ["roots", "--algebra", "A2", "--highest", "1,-1"],  # not a highest weight
    ["roots", "--algebra", "A2", "--highest", "1000000,1000000"],  # too many weights
    ["apply", "--label", "R:i,j", "--alpha", "0.1", "--chi", "-"],  # a core, not a generator
    ["verify", "--suite", "det", "--seed", "١"],   # numeric flags take ASCII text only
    ["verify", "--suite", "det", "--seed", "1_0"],
    ["verify", "--suite", "det", "--seed", " 7 "],
    ["verify", "--suite", "det", "--seed", "+7"],
    ["verify", "--suite", "det", "--tol", "1_0e-9"],
    ["verify", "--suite", "det", "--tol", " 1e-9"],
    ["apply", "--label", "A:i", "--alpha", "٠.٣", "--chi", "-"],
    ["apply", "--label", "A:i", "--alpha", "0.3 ", "--chi", "-"],
    ["apply", "--label", "A:i", "--alpha", "inf", "--chi", "-"],
    ["verify", "--suite", "det", "--tol", "-1e-3"],     # read, then refused as not positive
    ["apply", "--label", "A:i", "--alpha", "--chi", "-"],  # no number after --alpha
    pytest.param(["stab-l", "--out", "/dev/full"], marks=_NEEDS_DEV_FULL),
])
def test_usage_errors_exit_2(args):
    """Bad input, or output that cannot be written, exits 2 without a traceback."""
    proc = run_cli(*args, stdin=json.dumps({"coords": [1, 2, 3] + [0.5] * 24}))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, text, value", [
    ("--seed", "0", 0), ("--seed", "17", 17), ("--seed", "-3", -3),
    ("--tol", "1e-300", 1e-300), ("--tol", "2E+3", 2000.0), ("--tol", ".5", 0.5),
    ("--tol", "3.", 3.0), ("--tol", "-1.5", -1.5), ("--tol", "7", 7.0),
    ("--tol", "-1e-3", -0.001), ("--tol", "-.5E1", -5.0), ("--tol", "-2e+3", -2000.0),
])
def test_numeric_flags_take_ascii_numbers(flag, text, value):
    """--seed takes ASCII digits after an optional "-"; --tol and --alpha an
    ASCII decimal with an optional exponent, read as float() reads it, also
    when it is negative and follows the flag as a token of its own."""
    from e6kit import cli
    args = cli.build_parser().parse_args(["verify", flag, text])
    assert getattr(args, flag[2:]) == value and type(getattr(args, flag[2:])) is type(value)
    if flag == "--tol":
        args = cli.build_parser().parse_args(["apply", "--label", "A:i", "--alpha", text,
                                              "--chi", "-"])
        assert args.alpha == value


def _run_buffered(args, stdout):
    """Run the CLI with a buffered stdout, which retries unwritten bytes at exit."""
    env = dict(os.environ, E6KIT_CACHE=_CACHE_FILE)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(CLI + args, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env)


@_NEEDS_DEV_FULL
@pytest.mark.parametrize("args", [["gellmann"], ["killing"], ["table", "--out", "/dev/full"]])
def test_failed_write_is_one_stderr_line(args):
    with open("/dev/full", "w") as full:
        proc = _run_buffered(args, full)
    assert proc.returncode == 2
    assert proc.stderr == f"{args[0]}: cannot write output: No space left on device\n"


@pytest.mark.parametrize("args", [["gellmann"], ["--help"]])
def test_closed_pipe_exits_0_quietly(args):
    read_end, write_end = os.pipe()
    os.close(read_end)    # every write to the pipe now fails with EPIPE
    try:
        proc = _run_buffered(args, write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


_BAD_VALUES = {
    ("verify", "--suite", "det", "--tol", "-1"): "verify: --tol must be positive, got -1",
    ("verify", "--suite", "det", "--tol", "-1e-3"): "verify: --tol must be positive, got -0.001",
    ("roots", "--algebra", "A2", "--highest", "1,-1"):
        "roots: highest-weight marks must be non-negative, got [1, -1]",
    ("roots", "--algebra", "A2", "--highest", "1000000,1000000"):
        "roots: the diagram of [1000000, 1000000] has more than 10000 weights",
    ("roots", "--algebra", "A200"): "roots: A needs rank 1 to 24",   # above MAX_RANK
    ("roots", "--algebra", "D25"): "roots: D needs rank 3 to 24",
    ("roots", "--algebra", "X"): "roots: unsupported diagram 'X'",
    ("roots", "--algebra", "A"): "roots: unsupported diagram 'A'",
    ("roots", "--algebra", "Ax"): "roots: unsupported diagram 'Ax'",
    ("roots", "--algebra", "A1_0"): "roots: unsupported diagram 'A1_0'",   # not A10
    ("roots", "--algebra", "B+3"): "roots: unsupported diagram 'B+3'",
    ("roots", "--algebra", "A 2"): "roots: unsupported diagram 'A 2'",
    ("apply", "--label", "B:z,t", "--alpha", "0.1", "--chi", "chi.json"):
        "apply: illegal label 'B:z,t'",    # the text typed, not the parsed label
    # only ASCII digits, as int() alone would read each of these as a number
    ("roots", "--algebra", "A2", "--highest", "+1,0"):
        "roots: --highest must be a comma list of integers",
    ("roots", "--algebra", "A2", "--highest", "١,0"):    # an Arabic-Indic one
        "roots: --highest must be a comma list of integers",
    ("roots", "--algebra", "A2", "--highest", "1_0,0"):    # not 10
        "roots: --highest must be a comma list of integers",
    ("roots", "--algebra", "A2", "--highest", "1, 0"):
        "roots: --highest must be a comma list of integers",
    ("apply", "--label", "A:i:+2", "--alpha", "0.1", "--chi", "chi.json"):
        "apply: bad type index in 'A:i:+2'",
    ("apply", "--label", "A:i: 2", "--alpha", "0.1", "--chi", "chi.json"):
        "apply: bad type index in 'A:i: 2'",
    ("apply", "--label", "A:i:٢", "--alpha", "0.1", "--chi", "chi.json"):
        "apply: bad type index in 'A:i:٢'",
}


@pytest.mark.parametrize("args", [list(args) for args in _BAD_VALUES])
def test_bad_value_is_one_stderr_line(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == _BAD_VALUES[tuple(args)] + "\n"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_apply_rejects_non_finite_chi(bad):
    text = '{"coords": [%s' % bad + ", 0.5" * 26 + "]}"
    proc = run_cli("apply", "--label", "A:i", "--alpha", "0.1", "--chi", "-", stdin=text)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["apply: bad chi JSON: coordinates must be finite"]


_CHI_TAIL = [2, 3] + [0.5] * 24


@pytest.mark.parametrize("payload", [
    "1" * 27,                                  # a string of 27 digits is not 27 numbers
    {"coords": "1" * 27},
    [True] + _CHI_TAIL,                        # JSON true is not the number 1
    {"coords": [False] + _CHI_TAIL},
    ["1e5"] + _CHI_TAIL,                       # nor is a numeric string
    {"coords": {str(k): 1 for k in range(27)}},  # nor are the keys of an object
])
def test_apply_accepts_only_27_json_numbers(payload):
    proc = run_cli("apply", "--label", "A:i", "--alpha", "0.1", "--chi", "-",
                   stdin=json.dumps(payload))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("apply: bad chi JSON: ")


def _cache_copy(tmp_path, damage):
    """A copy of the filled shared cache, damaged by `damage(data)`."""
    assert run_cli("table").returncode == 0  # fills the shared cache if needed
    with open(_CACHE_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    damage(data)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _set_crc(data):
    """The CRC-32 that _store_cache gives the file's body, so that only the checks
    after it can refuse the file."""
    body = {"constants": data["constants"], "scale": data["scale"]}
    data["crc32"] = zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _table_with_cache(path):
    """`table` run with the cache at `path`; its stdout must be the golden table,
    so a wrong constant loaded from a damaged file would show, and its stderr empty."""
    env = dict(os.environ, E6KIT_CACHE=path)
    proc = subprocess.run(CLI + ["table"], capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256["table"]


def test_cache_with_empty_constants_is_ignored(tmp_path):
    _table_with_cache(_cache_copy(tmp_path, lambda data: data.update(constants=[])))


def test_cache_with_one_bad_entry_is_ignored_whole(tmp_path):
    def damage(data):
        first, last = data["constants"][0], data["constants"][-1]
        first[3] += 1                           # an int, but wrong
        last[3] = "not a number"                # makes the load give up
    _table_with_cache(_cache_copy(tmp_path, damage))


@pytest.mark.parametrize("entry", [
    [0, 1, 2, "1/2"], [0, 1, 78, 1], [1, 1, 2, 1],
    [0, 1, 2, 0], [0, 1, 2, True], [0, 1, 2, 1.5],
])
def test_cache_with_a_bad_constant_and_a_good_crc_is_ignored(tmp_path, entry):
    def damage(data):
        data["constants"][0] = entry
        _set_crc(data)
    _table_with_cache(_cache_copy(tmp_path, damage))


@pytest.mark.parametrize("scale", [0, 12])    # 12 is prime to the constants too, but halves every c
def test_cache_with_a_bad_scale_and_a_good_crc_is_ignored(tmp_path, scale):
    def damage(data):
        data["scale"] = scale
        _set_crc(data)
    _table_with_cache(_cache_copy(tmp_path, damage))


@pytest.mark.parametrize("keep", [
    lambda c: [],                   # the CRC of an empty list matches too
    lambda c: c[:1],
    lambda c: c[:-1] + c[:1],       # 2750 entries, one key twice
    lambda c: c[1::-1] + c[2:],     # 2750 distinct keys, out of order
], ids=["empty", "one", "repeated", "unsorted"])
def test_incomplete_cache_with_a_good_crc_is_rebuilt(tmp_path, keep):
    def damage(data):
        data["constants"] = keep(data["constants"])
        _set_crc(data)
    path = _cache_copy(tmp_path, damage)
    _table_with_cache(path)
    with open(_CACHE_FILE, encoding="utf-8") as fh, open(path, encoding="utf-8") as gh:
        assert json.load(gh) == json.load(fh)


def test_cache_holds_only_the_constants():
    assert run_cli("table").returncode == 0  # fills the shared cache if needed
    with open(_CACHE_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data) == {"version", "crc32", "scale", "constants"}
    assert data["scale"] == 6
    assert len(data["constants"]) == 2750
    assert all(type(v) is int and v for *_, v in data["constants"])


def test_stale_cache_is_rewritten(tmp_path):
    path = _cache_copy(tmp_path, lambda data: data.update(version="e6kit-structure-3"))
    _table_with_cache(path)
    with open(_CACHE_FILE, encoding="utf-8") as fh, open(path, encoding="utf-8") as gh:
        assert json.load(gh) == json.load(fh)


def test_version_4_cache_is_rewritten_as_version_5(tmp_path):
    """A version-4 file, the constants as "p/q" strings under a valid CRC and no
    scale, is ignored and rewritten in the integer format."""
    def version_4(data):
        scale = data.pop("scale")
        constants = [[i, j, k, str(Fraction(v, scale))] for i, j, k, v in data["constants"]]
        data.update(version="e6kit-structure-4", constants=constants,
                    crc32=zlib.crc32(json.dumps({"constants": constants},
                                                sort_keys=True).encode()))
    path = _cache_copy(tmp_path, version_4)
    _table_with_cache(path)
    with open(_CACHE_FILE, encoding="utf-8") as fh, open(path, encoding="utf-8") as gh:
        rewritten = json.load(gh)
        assert rewritten == json.load(fh)
    assert rewritten["version"] == "e6kit-structure-5"


def test_deeply_nested_cache_is_rewritten(tmp_path):
    """A file that json.load cannot parse without recursing too deep is ignored as a whole."""
    assert run_cli("table").returncode == 0  # fills the shared cache if needed
    path = tmp_path / "cache.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    _table_with_cache(str(path))
    with open(_CACHE_FILE, encoding="utf-8") as fh, open(path, encoding="utf-8") as gh:
        assert json.load(gh) == json.load(fh)


def test_start_up_imports_no_dataclasses():
    """Each verb is a fresh process: `dataclasses` and its `inspect` would cost ~20 ms."""
    code = ("import sys, e6kit.cli, e6kit.rootweight; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _e6kit_modules_after(argv, stdin=None):
    """(exit code, the e6kit modules loaded) after cli.run(argv) in a fresh interpreter."""
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from e6kit import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run({argv!r})
        print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "e6kit"))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "E6KIT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          input=stdin, env=env)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


def test_help_compiles_only_the_cli():
    """Every verb is a fresh process that compiles what it imports: the parser needs no algebra."""
    assert _e6kit_modules_after(["--help"]) == (0, {"e6kit", "e6kit.cli"})
    # flags that name no mode are refused before any algebra is compiled
    assert _e6kit_modules_after(["subalg"]) == (2, {"e6kit", "e6kit.cli"})


_CHI = json.dumps({"coords": [1, 2, 3, 0.5] + [0] * 23})


# the modules every algebra verb runs: the tangents and the Killing form
_ALGEBRA_CORE = {"cli", "algebra", "group", "jordan", "linalg", "units"}


@pytest.mark.parametrize("argv, loaded", [
    (["killing"], _ALGEBRA_CORE),
    (["gellmann"], _ALGEBRA_CORE | {"gellmann"}),
    (["table"], _ALGEBRA_CORE | {"structure"}),
    (["verify", "--suite", "all"], _ALGEBRA_CORE | {"structure", "verify"}),
    (["stab-l"], _ALGEBRA_CORE | {"structure", "stabilizer"}),
    (["subalg", "--auto", "23,hperp"], _ALGEBRA_CORE | {"structure", "subalgebra"}),
    (["roots", "--algebra", "E6"], {"cli", "floatcli", "rootweight", "linalg"}),
    (["apply", "--label", "A:i", "--alpha", "0.1", "--chi", "-"],
     {"cli", "floatcli", "group", "jordan", "units"}),
], ids=["killing", "gellmann", "table", "verify", "stab-l", "subalg", "roots", "apply"])
def test_each_verb_compiles_only_the_modules_it_runs(argv, loaded):
    """Exactly these e6kit modules: killing and gellmann load no table build
    (structure), and only verify its suites."""
    code, modules = _e6kit_modules_after(argv, stdin=_CHI)
    assert code == 0
    assert modules == {"e6kit"} | {f"e6kit.{m}" for m in loaded}


def test_verify_suite_names_match_the_suites():
    """The parser's copy of the suite names is verify.SUITES, in order."""
    from e6kit import cli, verify
    assert cli._SUITE_NAMES == tuple(verify.SUITES)


def test_every_public_name_resolves_in_a_fresh_interpreter():
    """Each name of e6kit.__all__, and each name algebra hands on to the module
    that defines it now, resolves after a bare `import e6kit`; others do not."""
    code = ("import e6kit\n"
            "from e6kit import algebra\n"
            "missing = [n for n in e6kit.__all__ if getattr(e6kit, n, None) is None]\n"
            "moved = [n for n in algebra._ELSEWHERE_NAMES if getattr(algebra, n, None) is None]\n"
            "print(missing, moved, hasattr(e6kit, 'nothing'), hasattr(algebra, 'commutator'))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [] False False\n"


def test_version_is_the_one_in_pyproject():
    import re

    import e6kit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
    assert e6kit.__version__ == declared


def test_assemble_help_lists_the_cell_names():
    """The parser's copy of the cell names is subalgebra.CELL_NAMES, in order."""
    from e6kit import cli, subalgebra
    names = ",".join(subalgebra.CELL_NAMES)
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "verb")
    assemble = next(a for a in subparsers.choices["subalg"]._actions if a.dest == "assemble")
    assert assemble.help == f"comma list of cells: {names}"
    proc = run_cli("subalg", "--help")
    assert proc.returncode == 0 and names in proc.stdout


def test_subalg_requires_exactly_one_mode():
    assert run_cli("subalg").returncode == 2
    assert run_cli("subalg", "--auto", "t",
                   "--assemble", "R1H").returncode == 2
    # an empty value is a given flag: the token check names the empty token
    for flag, message in (("--auto", "unknown involution token ''"),
                          ("--assemble", "unknown cell names ['']")):
        proc = run_cli("subalg", flag, "")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"subalg: {message}\n")


@pytest.mark.parametrize("part", ["fixed", "compact"])
def test_subalg_part_with_assemble_is_bad_input(part):
    proc = run_cli("subalg", "--assemble", "R1H", "--part", part)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "subalg: --part applies only to --auto\n"


def test_no_runtime_path_builds_an_octonion():
    """In a fresh interpreter with no disk cache, the benchmark's six verbs and
    the float requests (apply, det, action_matrix on every label) build no
    `Octonion` of the tests' reference: e6kit has no octonion class, and
    works on the 27 coordinates through index tables."""
    code = textwrap.dedent("""
        import contextlib, io, json, random
        import reference
        step = "import"
        built = {step: 0}
        init = reference.Octonion.__init__
        def counted(self, coeffs):
            built[step] += 1
            init(self, coeffs)
        reference.Octonion.__init__ = counted
        from e6kit import cli, group, jordan
        for argv in (["killing"], ["table"], ["verify", "--suite", "all"], ["stab-l"],
                     ["gellmann"], ["subalg", "--auto", "23,hperp"]):
            step = " ".join(argv)
            built[step] = 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0, argv
        step = "float"
        built[step] = 0
        rng = random.Random(0)
        chi = jordan.from_coords([rng.randint(-4, 4) / 2 for _ in range(27)])
        for label in group.all_labels():
            jordan.det(group.apply(label, 0.7, chi))
            group.action_matrix(label, -0.3)
        print(json.dumps(built, sort_keys=True))
    """)
    env = {k: v for k, v in os.environ.items() if k != "E6KIT_CACHE"}
    tests = os.path.dirname(os.path.abspath(__file__))    # where reference.py lives
    src = os.path.join(os.path.dirname(tests), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (tests, src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    built = json.loads(proc.stdout)
    assert len(built) == 8 and set(built.values()) == {0}, built


def test_bad_label_exit_2():
    proc = run_cli("apply", "--label", "Q:i", "--alpha", "0.1", "--chi", "-",
                   stdin=json.dumps({"coords": [0] * 27}))
    assert proc.returncode == 2


def test_roots_unknown_algebra_exit_2():
    assert run_cli("roots", "--algebra", "Z9").returncode == 2


@pytest.mark.parametrize("name", ["B1", "C1", "A0", "D2", "G-1"])
def test_roots_rank_out_of_range_exit_2(name):
    proc = run_cli("roots", "--algebra", name)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
