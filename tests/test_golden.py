"""Byte-for-byte CLI output of the README commands (all but `scaling donsker`,
whose 2x10^4 chains of 2500 steps take seconds), plus an approx level law,
an explicit --glaw table, three more `sample` commands, and seven approx
verifier reports and tables (`verify thm1` at q < 1 and q > 1, sigma = 0
and > 0, parts I and II; `verify two-sided` from spoisson:2; `law chain` and
`law rhs` from geo:1/3), which pin the float routes' bits, and three `law
chain --route product` cases, one per kind of start the product route
reads (exact from a finite law, the float weights of an exact law from
geo:1/3, the float weights of a float law from spoisson:1.5), recorded
before its kernel entries were built from int q-brackets.

tests/data/cli_golden.json holds the stdout and exit code of each command as
recorded before the law types were merged into one; a refactor must leave
every byte of it unchanged.  Cases were re-recorded three times since.  The
`sample chain` cases were re-recorded when the chain sampler began to read
its uniforms 16 bits at a time: a new stream, so new paths
(tests/test_sampling.py checks them step for step against an int64
reference chain).  When every command came to draw from the one stream
RngStream(seed), the `verify tropical` and `sample chain ... --seed 7`
reports lost their "streams" key (same violations, same paths), and the
three cases that took --streams were re-recorded without it, the second
chain case at another seed.  The `scaling kernel` case was re-recorded when
its binomials moved from log-gamma differences to Loader's saddle-point
form: both `finite` values moved closer to exact path counts (relative
error 1.9e-14 -> 1.9e-16 at N = 100, 2.9e-13 -> 4.3e-15 at N = 10^4).
The geo:1/3 product case was re-recorded when a law with infinite support
came to be summed in its float weights, each weight's error counted in
`err`, where its exact weights had been summed over a running lcm and
rounded once: `err` went from 1.0281576585705016e-15 to
5.3910565895912055e-15, and 12 of its 27 entries moved by two to five
units in the last place; `mass` kept its bytes.
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

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_cli_output_is_unchanged(capsys, case):
    code = main(shlex.split(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_chain_case_takes_the_widest_start():
    # the chain cases start at 0 and at 40000: one array, in the int32 that
    # holds 40000 + t
    assert any("finite:0=1/2,40000=1/2" in case["argv"] for case in GOLDEN)
    law = parse_initial_law("finite:0=1/2,40000=1/2")
    paths = sample_chain(6, law, Params(Fraction(1)), RngStream(4), n=12)
    assert paths.dtype == np.dtype(np.int32)
    assert set(paths[:, 0].tolist()) == {0, 40000}
