"""Command-line interface: output golds, exit codes, file output."""

import json
import subprocess
import sys

import pytest

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
])
def test_exit_codes(capsys, argv, code):
    got, out, err = run(capsys, argv)
    assert got == code
    assert err.startswith("error:") if code else err == ""


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
