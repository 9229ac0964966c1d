"""Command-line interface: output golds, exit codes, file output,
and a fuzz test over every subcommand."""

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylkit.cli
from weylkit.cli import main

ROOT_DATUM_A2 = """\
series: A2
variant: sc
cartan:
   2  -1
  -1   2
positive roots (weight coords / coroot coords):
  [2, -1] / [1, 0]
  [-1, 2] / [0, 1]
  [1, 1] / [1, 1]
rho: [1, 1]
coxeter number: 3
index of connection: 3
"""

PRESET_CSV = """\
,nabla_0,nabla_8,nabla_10,nabla_18,nabla_20,nabla_28,nabla_30,jantzen
L_0,1,,,,,,,yes
L_8,-1,1,,,,,,yes
L_10,1,-1,1,,,,,yes
L_18,-1,1,-1,1,,,,yes
L_20,1,-1,1,-1,1,,,yes
L_28,,,,,-1,1,,no
L_30,,,,-1,1,-1,1,no
"""

SL2_CHECK_P5 = """\
n   digits  lcf_valid
0   0       yes
8   13      yes
10  20      yes
18  33      yes
20  40      yes
28  103     no
30  110     no
"""

LCF_A1_P2_TEXT = """\
     nabla_0  nabla_2  nabla_4  nabla_6  nabla_8
L_0        1        .        .        .        .  *
L_2       -1        1        .        .        .  *
L_4        .       -1        1        .        .
L_6       -1        1       -1        1        .
L_8        .        .        .       -1        1
"""

IC_FIELD_P2 = """\
degree  -2  -1
  open   k   0
 point   k   k
"""

IC_PLUS = """\
degree  -2  -1    0
  open   Z   0    0
 point   Z   0  Z/2
"""

IC_PUSHFORWARD_P2 = """\
degree  -2  -1  0  1
  open   k   0  0  0
 point   k   k  k  k
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- golds

def test_root_datum_text(capsys):
    code, out, err = run(capsys, ["root-datum", "A2"])
    assert code == 0 and err == ""
    assert out == ROOT_DATUM_A2


def test_root_datum_json(capsys):
    code, out, _ = run(capsys, ["root-datum", "A1", "adjoint",
                                "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "weylkit/root-datum/1"
    assert body["series"] == "A1" and body["variant"] == "adjoint"
    assert body["rho"] is None  # half-sum not in the root lattice
    assert body["coxeter_number"] == 2
    assert body["index_of_connection"] == 1
    assert body["positive_roots"] == [{"root": [2], "coroot": [1]}]


def test_lcf_preset_csv(capsys):
    code, out, _ = run(capsys, ["lcf", "--preset", "sl2-p5",
                                "--format", "csv"])
    assert code == 0
    assert out == PRESET_CSV


def test_lcf_preset_equals_explicit_flags(capsys):
    _, preset_out, _ = run(capsys, ["lcf", "--preset", "sl2-p5",
                                    "--format", "csv"])
    _, flag_out, _ = run(capsys, ["lcf", "A1", "--p", "5",
                                  "--max-weight", "30", "--format", "csv"])
    assert preset_out == flag_out


def test_lcf_jantzen_only(capsys):
    code, out, _ = run(capsys, ["lcf", "--preset", "sl2-p5",
                                "--jantzen-only", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # header + five rows inside the bound
    assert all(line.endswith("yes") for line in lines[1:])
    assert lines[0] == ",nabla_0,nabla_8,nabla_10,nabla_18,nabla_20,jantzen"


def test_lcf_text_render(capsys):
    code, out, _ = run(capsys, ["lcf", "A1", "--p", "2", "--max-len", "4"])
    assert code == 0
    assert out == LCF_A1_P2_TEXT


def test_kl_dihedral(capsys):
    code, out, _ = run(capsys, ["kl", "--dihedral", "--x", "w4",
                                "--y", "w2"])
    assert code == 0 and out == "v^2\n"


def test_kl_dihedral_json(capsys):
    code, out, _ = run(capsys, ["kl", "--dihedral", "--x", "w'3",
                                "--y", "w'1", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body == {"schema": "weylkit/kl-polynomial/1", "series": "A1",
                    "x": "w'3", "y": "w'1", "poly": {"2": 1}}


def test_kl_explicit_words(capsys):
    code, out, _ = run(capsys, ["kl", "A2", "--x", "0,1", "--y", "id"])
    assert code == 0 and out == "v^2\n"
    code, out, _ = run(capsys, ["kl", "B2", "--x", "0,1,0", "--y", "0"])
    assert code == 0 and out == "v^2\n"


def test_char_text_and_csv(capsys):
    code, out, _ = run(capsys, ["char", "--n", "18", "--p", "5"])
    assert code == 0
    assert out == ("e^{-18} + e^{-16} + e^{-14} + e^{-12} + e^{-8} + "
                   "e^{-6} + e^{-4} + e^{-2} + e^{2} + e^{4} + e^{6} + "
                   "e^{8} + e^{12} + e^{14} + e^{16} + e^{18}\n")
    code, out, _ = run(capsys, ["char", "--n", "3", "--p", "5",
                                "--format", "csv"])
    assert code == 0
    assert out == "weight,mult\n-3,1\n-1,1\n1,1\n3,1\n"


def test_char_json(capsys):
    code, out, _ = run(capsys, ["char", "--n", "2", "--p", "5",
                                "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "weylkit/character/1"
    assert body["n"] == 2 and body["p"] == 5
    assert body["terms"] == [
        {"weight": [-2], "mult": 1},
        {"weight": [0], "mult": 1},
        {"weight": [2], "mult": 1},
    ]


def test_sl2_check_table(capsys):
    code, out, _ = run(capsys, ["sl2-check", "--p", "5", "--upto", "31"])
    assert code == 0
    assert out == SL2_CHECK_P5


def test_sl2_check_json_records_the_known_exception(capsys):
    code, out, _ = run(capsys, ["sl2-check", "--p", "2", "--upto", "7",
                                "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "weylkit/sl2-check/1"
    rows = {r["n"]: r for r in body["rows"]}
    assert rows[4]["lcf_valid"] is False
    # three digits yet still valid: the rank-one weight 6 at p = 2
    assert rows[6]["digits"] == [0, 1, 1]
    assert rows[6]["lcf_valid"] is True


def test_ic_cone_models(capsys):
    code, out, _ = run(capsys, ["ic-cone", "--link", "rp3", "--d", "2",
                                "--p", "2"])
    assert code == 0 and out == IC_FIELD_P2
    code, out, _ = run(capsys, ["ic-cone", "--link", "rp3", "--d", "2",
                                "--model", "plus"])
    assert code == 0 and out == IC_PLUS
    code, out, _ = run(capsys, ["ic-cone", "--link", "rp3", "--d", "2",
                                "--model", "pushforward", "--p", "2"])
    assert code == 0 and out == IC_PUSHFORWARD_P2


def test_ic_cone_inline_link(capsys):
    link = '{"0": {"free": 1, "torsion": []}, "3": {"free": 1, "torsion": []}}'
    code, out, _ = run(capsys, ["ic-cone", "--link", link, "--d", "2",
                                "--p", "3"])
    assert code == 0
    assert out == "degree  -2  -1\n  open   k   0\n point   k   0\n"


def test_ic_cone_json(capsys):
    code, out, _ = run(capsys, ["ic-cone", "--link", "rp3", "--d", "2",
                                "--model", "integral", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "weylkit/stalk-table/1"
    assert body["characteristic"] is None
    assert body["open"]["-2"] == {"free": 1, "torsion": []}


def test_intersection_form(capsys):
    code, out, _ = run(capsys, ["intersection-form", "--matrix", "[[-2]]",
                                "--p", "2"])
    assert code == 0 and out == "semisimple: no\n"
    code, out, _ = run(capsys, ["intersection-form", "--matrix", "[[-2]]",
                                "--p", "3"])
    assert code == 0 and out == "semisimple: yes\n"


def test_intersection_form_json(capsys):
    code, out, _ = run(capsys, ["intersection-form", "--matrix",
                                "[[2,1],[1,2]]", "--p", "3",
                                "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "weylkit/intersection-form/1"
    assert body["semisimple"] is False


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("argv,code", [
    (["root-datum", "F4"], 2),
    (["lcf", "A1"], 2),                                  # missing --p
    (["lcf", "A2", "--p", "5", "--preset", "sl2-p5"], 2),
    (["lcf", "A2", "--p", "2", "--max-len", "2"], 3),    # p below h
    (["char", "--n", "4", "--p", "4"], 3),               # p not prime
    (["kl", "--dihedral", "--x", "zz", "--y", "id"], 3),
    (["intersection-form", "--matrix", "[[1,2]]", "--p", "3"], 3),
    (["intersection-form", "--matrix", "not json", "--p", "3"], 3),
    (["char", "--n", "24", "--p", "5", "--max-terms", "3"], 4),
    (["char", "--n", "3", "--p", "5", "--max-terms", "-1"], 3),
    (["lcf", "A2", "--p", "5", "--max-weight", "-3"], 3),
    (["ic-cone", "--link", '{"0":5}', "--d", "2"], 3),
    (["ic-cone", "--link", '{"0":{"free":1.5}}', "--d", "2"], 3),
    (["intersection-form", "--matrix", '[["a"]]', "--p", "3"], 3),
    (["intersection-form", "--matrix", "[[1.5]]", "--p", "3"], 3),
    (["intersection-form", "--matrix", "[[true]]", "--p", "3"], 3),
    # p beyond the range where primality can be certified
    (["ic-cone", "--link", "rp3", "--d", "2", "--p", str(10 ** 400 + 1)], 3),
    (["intersection-form", "--matrix", "[[-2]]", "--p", str(10 ** 400 + 1)],
     3),
    (["sl2-check", "--p", "0", "--upto", "3"], 3),
    # the Mersenne prime 2^61 - 1: certified without trial division
    (["char", "--n", "1", "--p", "2305843009213693951"], 0),
    (["ic-cone", "--link", "rp3", "--d", "2", "--p", "2305843009213693951"],
     0),
    (["sl2-check", "--p", "2305843009213693951", "--upto", "5"], 0),
    # a misspelt link key is an error, not a torsion-free link
    (["ic-cone", "--link", '{"0":{"free":1,"torsoin":[2]}}', "--d", "2"], 3),
    # a weight box that is not closed downward keeps its closed part
    (["lcf", "A2", "--p", "5", "--max-weight", "5"], 0),
    (["sl2-check", "--p", "1", "--upto", "3"], 3),
    (["sl2-check", "--p", "4", "--upto", "3"], 3),
    (["sl2-check", "--p", "5", "--upto", "-1"], 3),
    # one orbit weight below the bound: one row, not a scan of 2*10^7
    (["sl2-check", "--p", "2305843009213693951", "--upto", "20000000"], 0),
    # the weight 2p - 2 has the digit p - 2: over the term cap
    (["sl2-check", "--p", "2305843009213693951", "--upto", str(2 ** 62)], 4),
    # the preset fixes p and the weight bound: no flag may override them
    (["lcf", "--preset", "sl2-p5", "--p", "7"], 2),
    (["lcf", "--preset", "sl2-p5", "--max-len", "2"], 2),
    (["lcf", "--preset", "sl2-p5", "--max-weight", "10"], 2),
    # nor the variant: the preset's rows are the simply connected ones
    (["lcf", "--preset", "sl2-p5", "--variant", "adjoint"], 2),
    # an --out path that cannot be written: in a missing directory, or
    # a directory itself
    (["lcf", "A2", "--p", "5", "--max-len", "3", "--out", "/nonexistent/x"],
     3),
    (["lcf", "A2", "--p", "5", "--max-len", "3", "--out", "."], 3),
    # --dihedral names affine A1's elements: no other series
    (["kl", "A2", "--dihedral", "--x", "w2", "--y", "id"], 2),
    # a series has one spelling: A01 is not A1
    (["lcf", "A01", "--p", "5", "--max-weight", "30"], 2),
])
def test_exit_codes(capsys, argv, code):
    got, out, err = run(capsys, argv)
    assert got == code
    assert err.startswith("error:") if code else err == ""


def test_sl2_check_rejects_every_non_prime_alike(capsys):
    for p in ("0", "1", "4"):
        code, out, err = run(capsys, ["sl2-check", "--p", p, "--upto", "3"])
        assert (code, out, err) == (3, "", f"error: {p} is not prime\n")


def test_dihedral_fixes_the_series(capsys):
    argv = ["kl", "--dihedral", "--x", "w2", "--y", "id"]
    assert run(capsys, ["kl", "A2"] + argv[1:]) == (
        2, "", "error: --dihedral fixes the series to A1\n")
    assert run(capsys, ["kl", "A1"] + argv[1:]) == run(capsys, argv) == (
        0, "v^2\n", "")


def test_argparse_errors_exit_two(capsys):
    assert run(capsys, ["kl", "--dihedral", "--x", "w2"])[0] == 2  # no --y
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["lcf", "A1", "--p", "5", "--max-len", "2",
                        "--format", "yaml"])[0] == 2


# --------------------------------------------------------------- files

def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "matrix.csv"
    code, out, err = run(capsys, ["lcf", "--preset", "sl2-p5",
                                  "--format", "csv", "--out", str(target)])
    assert code == 0 and out == "" and err == ""
    assert target.read_text() == PRESET_CSV


def test_runs_are_deterministic(capsys):
    first = run(capsys, ["lcf", "--preset", "sl2-p5", "--format", "json"])
    second = run(capsys, ["lcf", "--preset", "sl2-p5", "--format", "json"])
    assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylkit.cli", "kl", "--dihedral",
         "--x", "w5", "--y", "w1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "v^4\n"


def test_closed_stdout_ends_without_a_traceback():
    # the reader takes 100 bytes of a 1.3 MB JSON document and closes the
    # pipe, as ``| head -c 100`` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylkit.cli", "lcf", "A3", "--p", "5",
         "--max-len", "20", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b'{\n  "schema"')
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


# -------------------------------------------------------- shared parser

OUT_FILE = "OUT_FILE"  # replaced by a temporary path

PARSER_SEQUENCE = [
    ["lcf", "--preset", "sl2-p5", "--jantzen-only", "--format", "csv"],
    ["lcf", "--preset", "sl2-p5", "--format", "csv"],
    ["lcf", "--preset", "sl2-p5", "--format", "json", "--out", OUT_FILE],
    ["lcf", "--preset", "sl2-p5", "--format", "json"],
    ["lcf", "A2", "--p", "5", "--max-len", "3", "--format", "yaml"],
    ["lcf", "A2", "--p", "5", "--max-len", "3"],
    ["lcf", "A2", "--p", "5", "--max-len", "3", "--jantzen-only"],
    ["kl", "--dihedral", "--x", "w2"],
    ["kl", "--dihedral", "--x", "w2", "--y", "id"],
    ["no-such-command"],
    ["char", "--n", "24", "--p", "5", "--max-terms", "3"],
    ["char", "--n", "24", "--p", "5", "--format", "csv"],
    ["sl2-check", "--p", "5", "--upto", "30", "--out", OUT_FILE],
    ["sl2-check", "--p", "5", "--upto", "30"],
    ["root-datum", "G2", "adjoint", "--format", "json"],
    ["root-datum", "A2"],
    ["ic-cone", "--link", "rp3", "--d", "2", "--model", "plus"],
    ["ic-cone", "--link", "s3", "--d", "2"],
    ["intersection-form", "--matrix", "[[-2]]", "--p", "2"],
    ["lcf", "--preset", "sl2-p5", "--p", "7"],
    ["lcf", "--preset", "sl2-p5"],
]


def run_sequence(tmp_path, call):
    """(argv, exit code, stdout, stderr, --out file) of each call in
    turn, made by ``call(argv)``."""
    got = []
    target = tmp_path / "out.txt"
    for argv in PARSER_SEQUENCE:
        argv = [str(target) if a == OUT_FILE else a for a in argv]
        code, out, err = call(argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        got.append((argv, code, out, err, written))
    return got


def fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "weylkit.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_answers_like_a_fresh_one(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.setattr(weylkit.cli, "_parsers", {})
    shared = run_sequence(tmp_path, lambda argv: run(capsys, argv))
    parsers = dict(weylkit.cli._parsers)
    assert run_sequence(tmp_path, lambda argv: run(capsys, argv)) == shared
    # one parser per subcommand for both rounds, and the full parser for
    # the unknown command
    assert set(parsers) == set(weylkit.cli._COMMANDS) | {None}
    assert all(weylkit.cli._parsers[name] is parser
               for name, parser in parsers.items())
    # each call alone in a new process: a parser of its own
    assert run_sequence(tmp_path, fresh_process) == shared
    assert {code for _, code, *_ in shared} == {0, 2, 4}


def test_build_parser_runs_once(capsys, monkeypatch):
    built = []
    build = weylkit.cli.build_parser

    def counting(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(weylkit.cli, "_parsers", {})
    monkeypatch.setattr(weylkit.cli, "build_parser", counting)
    for _ in range(3):
        for argv in (["root-datum", "A2"], ["no-such-command"], [],
                     ["lcf", "--preset", "sl2-p5", "--format", "csv"],
                     ["lcf", "--help"], ["--help"]):
            run(capsys, argv)
    # the full parser (None) answers the unknown command, no command and
    # --help; each subcommand gets a parser of its own
    assert sorted(built, key=str) == [None, "lcf", "root-datum"]
    # the public builder still returns a new full parser on each call
    full, again = build(), build()
    assert full is not again
    assert subcommands(full) == subcommands(again) == list(
        weylkit.cli._COMMANDS)
    assert subcommands(build("kl")) == ["kl"]


def subcommands(parser):
    """The names of the subcommands a parser holds."""
    return [name for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in action.choices]


GOLDEN_ARGVS = [case["argv"] for case in json.loads(
    (Path(__file__).resolve().parent / "golden" / "commands.json")
    .read_text(encoding="utf-8"))]

BAD_ARGVS = [
    [],
    ["no-such-command"],
    ["lcf", "A2", "--p", "5", "--bogus"],                # unknown flag
    ["sl2-check", "--upto", "30"],                       # no --p
    ["lcf", "A2", "--p", "5", "--format", "yaml"],
    *([name, "-h"] for name in weylkit.cli._COMMANDS),
]


def test_each_command_parser_answers_like_the_full_one(capsys,
                                                       monkeypatch):
    argvs = GOLDEN_ARGVS + BAD_ARGVS
    monkeypatch.setattr(weylkit.cli, "_parsers", {})
    own = [run(capsys, argv) for argv in argvs]
    assert set(weylkit.cli._parsers) == set(weylkit.cli._COMMANDS) | {None}
    build = weylkit.cli.build_parser
    monkeypatch.setattr(weylkit.cli, "_parsers", {})
    monkeypatch.setattr(weylkit.cli, "build_parser",
                        lambda command=None: build())
    assert [run(capsys, argv) for argv in argvs] == own
    assert {code for code, *_ in own} == {0, 2}


@pytest.mark.parametrize("argv", [["--help"], ["lcf", "--help"]])
def test_help_does_not_depend_on_the_terminal_width(capsys, monkeypatch,
                                                    argv):
    got = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got.append(run(capsys, argv))
    assert got[0] == got[1]
    assert got[0][0] == 0 and got[0][1].startswith("usage: weylkit")


# ---------------------------------------------------------------- fuzz
#
# Small valid values mixed with malformed tokens.  The bounds keep each
# run short: --max-weight stays small because no budget caps the orbit
# walk yet, so a large weight bound can run for minutes.

BAD_TOKENS = st.sampled_from(["", " ", "-", "--", "x", "1.5", "1e3", "0x10",
                              "nan"])
BROKEN_JSON = st.sampled_from([
    "", "{", "[", "[[", "[[1,2]", "null", "1", '"s"', "[]", "[[]]", "{}",
    "[[1],[2,3]]", "[[1e400]]", "[[NaN]]", '{"0":', '{"0": []}',
    '{"x": {}}', '{"0": {"free": "1"}}', '{"0": {"torsion": 5}}',
    '{"0": {"torsion": [0]}}'])


def one_in(n):
    """True one time in n, and False in the simplest example."""
    return st.integers(1, n).map(lambda k: k == n)


def mostly(valid, malformed):
    """A valid value, or one time in six a malformed one."""
    return one_in(6).flatmap(lambda bad: malformed if bad else valid)


def numbers(lo, hi):
    return mostly(st.integers(lo, hi).map(str), BAD_TOKENS)


def choices(*valid):
    return mostly(st.sampled_from(valid), st.sampled_from(["x", ""]))


SERIES = mostly(st.sampled_from(["A1", "A2", "A3", "B2", "C2", "G2"]),
                st.sampled_from(["F4", "a2", "A0", ""]))
SMALL = st.integers(-2, 4)
WORDS = mostly(
    st.one_of(st.lists(st.integers(0, 3), max_size=6).map(
        lambda w: ",".join(map(str, w))),
        st.sampled_from(["id", "w3", "w'2", "w0"])),
    st.sampled_from(["-1", "0,-1", "w", "w-1", "zz", ",", "0,,1", ""]))
MATRICES = mostly(
    st.lists(st.lists(SMALL, max_size=3), max_size=3).map(json.dumps),
    BROKEN_JSON)
LINKS = mostly(
    st.one_of(
        st.sampled_from(["rp3", "s3", "s1", "lens:1", "lens:4"]),
        st.dictionaries(
            st.integers(-2, 4).map(str),
            st.fixed_dictionaries({}, optional={
                "free": SMALL, "torsion": st.lists(SMALL, max_size=2)}),
            max_size=3).map(json.dumps)),
    st.one_of(st.sampled_from(["lens:0", "lens:", "lens:x", "torus"]),
              BROKEN_JSON))

COMMANDS = [
    ("root-datum", [SERIES, choices("sc", "adjoint")],
     {"--format": choices("text", "json")}),
    ("lcf", [SERIES], {
        "--variant": choices("sc", "adjoint"),
        "--p": numbers(-2, 13), "--max-len": numbers(-2, 6),
        "--max-weight": numbers(-2, 8), "--jantzen-only": None,
        "--entries": choices("auto", "lcf", "simple"),
        "--preset": choices("sl2-p5"),
        "--format": choices("text", "csv", "json")}),
    ("kl", [SERIES], {"--dihedral": None, "--x": WORDS, "--y": WORDS,
                      "--format": choices("text", "json")}),
    ("char", [], {"--n": numbers(-3, 200), "--p": numbers(-1, 13),
                  "--max-terms": numbers(-1, 40),
                  "--format": choices("text", "csv", "json")}),
    ("sl2-check", [], {"--p": numbers(-1, 13), "--upto": numbers(-3, 200),
                       "--format": choices("text", "csv", "json")}),
    ("ic-cone", [], {
        "--link": LINKS, "--d": numbers(-2, 4), "--p": numbers(-1, 7),
        "--model": choices("field", "integral", "plus", "pushforward"),
        "--format": choices("text", "json")}),
    ("intersection-form", [], {"--matrix": MATRICES, "--p": numbers(-1, 7),
                               "--format": choices("text", "json")}),
]


RARE = {"--preset", "--dihedral", "--jantzen-only", "--max-weight"}


@st.composite
def argvs(draw):
    """A subcommand with most of its flags (a flag in RARE one time in
    four), some values malformed, sometimes an unknown flag."""
    name, positionals, flags = draw(st.sampled_from(COMMANDS))
    argv = [name]
    for value in positionals:
        if not draw(one_in(8)):
            argv.append(draw(value))
    for flag, value in flags.items():
        if draw(one_in(4)) if flag in RARE else not draw(one_in(8)):
            argv += [flag] if value is None else [flag, draw(value)]
    if draw(one_in(12)):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "--p"])))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())
