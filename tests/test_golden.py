"""Byte-for-byte CLI output of the README commands (all but `scaling donsker`,
whose 2x10^4 chains of 2500 steps take seconds), plus an approx level law,
an explicit --glaw table and three sharded `sample` commands.

tests/data/cli_golden.json holds the stdout and exit code of each command as
recorded before the law types were merged into one (the sharded `sample`
commands: before the samplers returned their narrowest integer type, so
shards of different widths must still print the same bytes); a refactor must
leave every byte of it unchanged.  The three `sample chain` cases alone were
re-recorded once since, when the chain sampler began to read its uniforms 16
bits at a time: a new stream, so new paths (tests/test_sampling.py checks
them step for step against an int64 reference chain).
"""

import json
import pathlib
import shlex
from fractions import Fraction

import numpy as np
import pytest

from pitman_lab import Params, RngStream, sample_chain
from pitman_lab.cli import main
from pitman_lab.processes import parse_initial_law
from pitman_lab.sampling import shard_sizes

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_cli_output_is_unchanged(capsys, case):
    code = main(shlex.split(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_sharded_chain_case_mixes_widths():
    # the six-stream `sample chain` case concatenates int8 shards (starts at 0)
    # with int32 ones (starts at 40000)
    assert any("--streams 6" in case["argv"] for case in GOLDEN)
    law = parse_initial_law("finite:0=1/2,40000=1/2")
    widths = {sample_chain(6, law, Params(Fraction(1)), RngStream(4, i), n=m).dtype
              for i, m in enumerate(shard_sizes(12, 6))}
    assert widths == {np.dtype(np.int8), np.dtype(np.int32)}
