"""Byte-for-byte CLI output of the README commands (all but `scaling donsker`,
whose 2x10^4 chains of 2500 steps take seconds), plus an approx level law and
an explicit --glaw table.

tests/data/cli_golden.json holds the stdout and exit code of each command as
recorded before the law types were merged into one; a refactor must leave
every byte of it unchanged.
"""

import json
import pathlib
import shlex

import pytest

from pitman_lab.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_cli_output_is_unchanged(capsys, case):
    code = main(shlex.split(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
