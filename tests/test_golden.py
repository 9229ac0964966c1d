"""Golden CLI output: byte-identical stdout and the same exit code.

``golden/commands.json`` lists each command's name, argv and exit
code; ``golden/<name>.out`` holds its stdout, recorded from a trusted
build.  A refactor that changes any byte of these outputs fails here.
"""

import json
from pathlib import Path

import pytest

from weylkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", COMMANDS, ids=lambda c: c["name"])
def test_golden_stdout(case, capsys):
    code = main(case["argv"])
    out = capsys.readouterr().out
    expected = (GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
    assert code == case["exit"]
    assert out == expected
