"""Generated command lines: the CLI contract holds for any argv.

Whatever the verbs, flags, values, labels and chi payloads, `cli.run` returns
0, 1 or 2 without an escaping exception or a traceback, and any JSON it
writes is strict (no NaN or Infinity).  `verify` always gets a `--suite`
other than det and all, which would spend seconds per example.
"""

import atexit
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from e6kit import cli

_DIR = tempfile.mkdtemp(prefix="e6kit-fuzz-")
atexit.register(shutil.rmtree, _DIR, True)
_OUT = os.path.join(_DIR, "out.json")
_CHI = os.path.join(_DIR, "chi.json")

_junk = st.sampled_from(["", " ", "-", "--", "x", "nan", "inf", "-inf", "1e999", "0x10",
                         "1,2", ",", "None", "{}", "ℓ", "-1", "0", "99999999999999999999"])
_number = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr), _junk)
_label = st.one_of(
    st.sampled_from(["A:i", "G:l:2", "S:kl:3", "B:t,z", "B:t,x:3", "R:x,z:2", "R:z,kℓ",
                     "R:x,jl:3", "R:i,j", "R:l,il", "A:i:4", "A:w", "B:t", "Q:i", "A", ":", ""]),
    st.text(max_size=8))
_marks = st.one_of(
    st.lists(st.integers(-1, 2), min_size=1, max_size=7).map(lambda m: ",".join(map(str, m))),
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=7)
      .map(lambda m: ",".join(map(str, m))),
    _junk)
_tokens = st.lists(st.sampled_from(["t", "23", "two_three", "hperp", "h_perp", "x", ""]),
                   min_size=1, max_size=3).map(",".join)
_cells = st.lists(st.sampled_from(["R1H", "B1H", "R23H", "B23H", "R1Hp", "B1Hp", "R23Hp",
                                   "B23Hp", "Q", ""]), min_size=1, max_size=4).map(",".join)

_FLAGS = {
    "--out": st.sampled_from([_OUT, "-", _OUT, "-", os.path.join(_DIR, "no", "such", "x")]),
    "--format": st.sampled_from(["json", "csv", "json", "csv", "xml", ""]),
    "--suite": st.sampled_from(["dependencies", "jacobi", "bogus"]),
    "--seed": st.one_of(st.integers(-10**20, 10**20).map(str), _junk),
    "--tol": _number,
    "--auto": st.one_of(_tokens, _junk),
    "--assemble": st.one_of(_cells, _junk),
    "--part": st.one_of(st.sampled_from(["fixed", "compact"]), _junk),
    "--algebra": st.sampled_from(["A1", "A2", "a3", "B2", "B3", "C3", "D4", "G2", "F4", "E6",
                                  "B24", "D24", "A25",
                                  "A0", "B1", "D2", "E7", "G3", "Z9", "A-1", "A", "", "1e3"]),
    "--highest": _marks,
    "--label": _label,
    "--alpha": _number,
    "--chi": st.sampled_from([_CHI, "-", os.path.join(_DIR, "missing.json")]),
    "--jobs": st.just("2"),
}
_RANKS = {"A1": 1, "A2": 2, "a3": 3, "B2": 2, "B3": 3, "C3": 3, "D4": 4, "G2": 2, "F4": 4, "E6": 6,
          "B24": 24, "D24": 24}
_VERBS = ["table", "verify", "killing", "subalg", "roots", "stab-l", "apply", "gellmann"]
# the flags each verb reads; the first ones are required or needed for real work
_OWN = {"table": ["--format", "--out"], "verify": ["--seed", "--tol", "--out"],
        "killing": ["--out"], "subalg": ["--auto", "--part", "--assemble", "--out"],
        "roots": ["--algebra", "--highest", "--format", "--out"], "stab-l": ["--out"],
        "apply": ["--label", "--alpha", "--chi", "--out"], "gellmann": ["--out"]}

_coords = st.lists(st.one_of(st.integers(-10**400, 10**400), st.integers(-5, 5),
                             st.floats(), st.booleans(), st.none(), st.text(max_size=3)),
                   min_size=0, max_size=30)
_payload = st.one_of(
    _coords.map(json.dumps),
    _coords.map(lambda c: json.dumps({"coords": c})),
    st.lists(st.integers(-3, 3), min_size=27, max_size=27).map(lambda c: json.dumps({"coords": c})),
    st.sampled_from(["", "{", "null", "[]", "{}", '{"coords": 5}', '"text"', "[[1]]",
                     '{"coords": "' + "1" * 27 + '"}', "[" * 5000 + "]" * 5000]),
)


@st.composite
def _argv(draw):
    """Mostly a known verb with some of its own flags; sometimes a foreign flag or a stray word."""
    verb = draw(st.sampled_from(_VERBS + ["", "nonsense", "--help"]))
    own = _OWN.get(verb, [])
    names = [name for n, name in enumerate(own) if draw(st.integers(0, 4 if n == 0 else 1))]
    if not draw(st.integers(0, 4)):
        names.append(draw(st.sampled_from(sorted(_FLAGS))))
    values = {name: draw(_FLAGS[name]) for name in names}
    if "--highest" in values and values.get("--algebra") in _RANKS and draw(st.booleans()):
        rank = _RANKS[values["--algebra"]]     # marks of the right length
        values["--highest"] = ",".join(map(str, draw(st.lists(st.integers(0, 2), min_size=rank,
                                                              max_size=rank))))
    argv = [verb]
    for name, value in values.items():
        argv += [name, value]
    if verb == "verify":
        argv += ["--suite", draw(_FLAGS["--suite"])]
    if not draw(st.integers(0, 5)):
        argv.append(draw(_junk))              # a stray positional or a flag without its value
    return argv


def _check_json(text: str) -> None:
    if text.lstrip().startswith(("{", "[")):
        def reject(token):
            raise AssertionError(f"non-finite number {token} in JSON output")
        json.loads(text, parse_constant=reject)


def _run(argv: list, payload: str) -> int:
    """Run the CLI in process with the payload as --chi file and stdin; check the contract."""
    with open(_CHI, "w", encoding="utf-8") as fh:
        fh.write(payload)
    if os.path.exists(_OUT):
        os.remove(_OUT)
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    finally:
        sys.stdin = stdin
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv
    _check_json(out.getvalue())
    if rc == 0 and os.path.exists(_OUT):
        with open(_OUT, encoding="utf-8") as fh:
            _check_json(fh.read())
    return rc


@given(_argv(), _payload)
@settings(max_examples=150, deadline=None)
def test_generated_argv_keeps_the_cli_contract(argv, payload):
    _run(argv, payload)


_entry = st.one_of(st.integers(-5, 5), st.floats(-5, 5), st.floats(),
                   st.integers(-10**400, 10**400), st.none(), st.text(max_size=2),
                   st.booleans(), st.sampled_from(["1", "1e5", "-0.5"]))


@given(st.sampled_from(["A:i", "G:l:2", "B:t,x:3", "R:z,kl"]),
       st.sampled_from(["0.3", "-1.5", "40"]),
       st.sampled_from([_CHI, "-"]),
       st.one_of(st.lists(_entry, min_size=27, max_size=27), st.lists(_entry, max_size=30)),
       st.booleans())
@example("A:i", "0.1", "-", [10**400] + [1] * 26, True)           # float() overflows
@example("A:i", "0.1", _CHI, [[[[[[0]]]]]] * 27, False)
@example("A:i", "0.1", "-", [True] * 27, True)                    # bools are not numbers
@example("A:i", "0.1", "-", ["1"] * 27, False)
@settings(max_examples=100, deadline=None)
def test_generated_chi_payloads_keep_the_cli_contract(label, alpha, chi, coords, wrapped):
    """A well-formed apply with any coordinate list: numbers, huge ints, nulls, text, bools.

    It succeeds only on 27 JSON numbers: ints and floats, not bools.
    """
    payload = json.dumps({"coords": coords} if wrapped else coords)
    rc = _run(["apply", "--label", label, "--alpha", alpha, "--chi", chi], payload)
    if rc == 0:
        assert len(coords) == 27
        assert all(type(x) in (int, float) for x in coords), coords


def test_deeply_nested_chi_is_bad_input():
    assert _run(["apply", "--label", "A:i", "--alpha", "0.1", "--chi", "-"],
                "[" * 100_000 + "]" * 100_000) == 2
