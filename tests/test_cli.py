"""CLI surface: verbs, exit codes, deterministic JSON output."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
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


def test_verify_jacobi_seeded():
    proc = run_cli("verify", "--suite", "jacobi", "--seed", "1")
    assert proc.returncode == 0
    assert "jacobi holds" in proc.stdout


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
    from e6kit import algebra, cli
    monkeypatch.setattr(algebra, "stabilizer_of_l", lambda: dict(_STAB_L_REPORT))
    assert cli.run(["stab-l"]) == 0
    passing = capsys.readouterr()
    assert passing.err == ""
    monkeypatch.setattr(algebra, "stabilizer_of_l",
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
])
def test_usage_errors_exit_2(args):
    proc = run_cli(*args, stdin=json.dumps({"coords": [1, 2, 3] + [0.5] * 24}))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "det", "--tol", "-1"],
    ["roots", "--algebra", "A2", "--highest", "1,-1"],
    ["roots", "--algebra", "A2", "--highest", "1000000,1000000"],
    ["roots", "--algebra", "A200"],   # rank above rootweight.MAX_RANK
    ["roots", "--algebra", "D25"],
])
def test_bad_value_is_one_stderr_line(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_apply_rejects_non_finite_chi(bad):
    text = '{"coords": [%s' % bad + ", 0.5" * 26 + "]}"
    proc = run_cli("apply", "--label", "A:i", "--alpha", "0.1", "--chi", "-", stdin=text)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["apply: bad chi JSON: coordinates must be finite"]


def _cache_copy(tmp_path, damage):
    """A copy of the filled shared cache, damaged by `damage(data)`."""
    assert run_cli("killing").returncode == 0  # fills the shared cache if needed
    with open(_CACHE_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    damage(data)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _killing_with_cache(path):
    env = dict(os.environ, E6KIT_CACHE=path)
    return subprocess.run(CLI + ["killing"], capture_output=True, text=True, env=env)


def test_cache_with_empty_constants_is_ignored(tmp_path):
    path = _cache_copy(tmp_path, lambda data: data.update(constants=[]))
    proc = _killing_with_cache(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(52,26)"


def test_cache_with_one_bad_entry_is_ignored_whole(tmp_path):
    def damage(data):
        first, last = data["constants"][0], data["constants"][-1]
        first[3] = str(Fraction(first[3]) + 1)  # parses, but is wrong
        last[3] = "not a number"                # makes the load give up
    proc = _killing_with_cache(_cache_copy(tmp_path, damage))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(52,26)"


@pytest.mark.parametrize("entry", [[0, 1, 2, "1/0"], [0, 1, 78, "1"], [1, 1, 2, "1"]])
def test_cache_with_a_bad_constant_and_a_good_crc_is_ignored(tmp_path, entry):
    def damage(data):
        data["constants"][0] = entry
        body = {"constants": data["constants"]}
        data["crc32"] = zlib.crc32(json.dumps(body, sort_keys=True).encode())
    proc = _killing_with_cache(_cache_copy(tmp_path, damage))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(52,26)"


def test_cache_holds_only_the_constants():
    assert run_cli("table").returncode == 0  # fills the shared cache if needed
    with open(_CACHE_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data) == {"version", "crc32", "constants"}
    assert len(data["constants"]) == 2750


def test_stale_cache_is_rewritten(tmp_path):
    path = _cache_copy(tmp_path, lambda data: data.update(version="e6kit-structure-3"))
    proc = _killing_with_cache(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(52,26)"
    with open(_CACHE_FILE, encoding="utf-8") as fh, open(path, encoding="utf-8") as gh:
        assert json.load(gh) == json.load(fh)


def test_subalg_requires_exactly_one_mode():
    assert run_cli("subalg").returncode == 2
    assert run_cli("subalg", "--auto", "t",
                   "--assemble", "R1H").returncode == 2


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
