import argparse
import json
import math
import pathlib
import time
from fractions import Fraction

import pytest

from pitman_lab import (Params, Path, RngStream, __version__, donsker_check, sample_chain,
                        sample_walk)
from pitman_lab.cli import _GRID_CAP, _JSON_BLOCK, _emit, _grid, main
from pitman_lab.processes import parse_initial_law


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestVerifyCommands:
    def test_thm1_pass(self, capsys):
        code, rep, _ = run_json(
            capsys, "verify", "thm1", "--rho", "1/2", "--sigma", "0",
            "--t", "4", "--initial", "qnb:q=1/4,theta=1/2", "--part", "I",
        )
        assert code == 0
        assert rep["status"] == "PASS"
        assert rep["schema"] == "report-v1"
        assert rep["params"] == {"rho": "1/2", "sigma": "0/1"}

    def test_thm1_candidate_failure_exits_one(self, capsys):
        code, rep, _ = run_json(
            capsys, "verify", "thm1", "--rho", "1/2", "--t", "2",
            "--initial", "point:1", "--candidate", "point:0",
        )
        assert code == 1
        assert rep["status"] == "FAIL" and rep["witness"]

    def test_thm2_pass(self, capsys):
        code, rep, _ = run_json(
            capsys, "verify", "thm2", "--rho", "1/2", "--sigma", "0",
            "--t", "4", "--initial", "point:1", "--part", "I",
        )
        assert code == 0 and rep["max_abs_diff"] == "0/1"

    def test_thm2_regime_error_exits_two(self, capsys):
        code, _, err = run(
            capsys, "verify", "thm2", "--rho", "1", "--t", "3",
            "--initial", "point:1",
        )
        assert code == 2
        assert "rho" in err

    def test_two_sided(self, capsys):
        code, rep, _ = run_json(
            capsys, "verify", "two-sided", "--rho", "2/3", "--t", "3",
            "--initial", "point:2",
        )
        assert code == 0 and rep["status"] == "PASS"

    def test_tropical(self, capsys):
        code, rep, _ = run_json(
            capsys, "verify", "tropical", "--t-exhaustive", "4",
            "--samples", "1000", "--seed", "1",
        )
        assert code == 0 and rep["violations"] == 0

    @pytest.mark.parametrize("what", ["thm1", "thm2", "two-sided"])
    def test_zero_horizon_exits_two(self, capsys, what):
        code, out, err = run(capsys, "verify", what, "--rho", "1/2", "--t", "0",
                             "--initial", "point:1")
        assert code == 2 and not out.strip()
        assert "t=0 compares no table" in err

    def test_thm1_approx_reports_tolerance(self, capsys):
        code, rep, _ = run_json(capsys, "verify", "thm1", "--rho", "1/2", "--sigma", "1",
                                "--t", "3", "--initial", "geo:1/3")
        assert code == 0 and rep["exact"] is False
        assert rep["status"] == "PASS" and rep["witness"] is None
        assert "tolerance_parts" not in rep
        assert rep["max_abs_diff"]["float"] <= rep["tolerance"] < 1e-12

    @pytest.mark.parametrize("argv", [["--rho", "1/2", "--t", "3", "--initial", "geo:1/3"],
                                      ["--rho", "2/3", "--sigma", "1", "--t", "4",
                                       "--initial", "spoisson:2"]])
    def test_two_sided_approx_passes_within_its_tolerance(self, capsys, argv):
        # a rounding-level difference between the float tables is within their err
        code, rep, _ = run_json(capsys, "verify", "two-sided", *argv)
        assert code == 0 and rep["status"] == "PASS" and rep["witness"] is None
        assert 0 < rep["max_abs_diff"]["float"] <= rep["tolerance"] < 1e-12

    @pytest.mark.parametrize("samples", [0, 5, 19, 20, 1000])
    def test_tropical_runs_at_any_sample_count(self, capsys, samples):
        # one stream, however few samples
        code, rep, _ = run_json(capsys, "verify", "tropical", "--t-exhaustive", "2",
                                "--samples", str(samples))
        assert code == 0 and rep["status"] == "PASS"
        assert rep["random"] == {"samples": samples, "t": 50, "g_max": 10, "seed": 0}

    def test_damage(self, capsys):
        code, rep, _ = run_json(
            capsys, "verify", "damage", "--q", "1/4", "--theta", "1/2",
            "--nmax", "20",
        )
        assert code == 0 and rep["rao_rubin_holds"]

    @pytest.mark.parametrize("candidate", ["point:0", "finite:0=1/2,3=1/2", "geo:1/8",
                                           "qnb:q=1/4,theta=1/2", "nb:rho0=1/2", "spoisson:1"])
    def test_thm1_candidate_reads_every_law_string(self, capsys, candidate):
        code, rep, _ = run_json(capsys, "verify", "thm1", "--rho", "1/2", "--t", "3",
                                "--initial", "qnb:q=1/4,theta=1/2", "--candidate", candidate)
        assert code == (0 if candidate == "geo:1/8" else 1)
        assert rep["level_law"] == candidate
        assert parse_initial_law(rep["level_law"]) == parse_initial_law(candidate)


class TestPreimageCommand:
    def test_matches_hand_example(self, capsys):
        code, rep, _ = run_json(capsys, "preimage", "--path", "0,1")
        assert code == 0
        assert rep["ray"] == {"s": "0,-1", "g_min": 0}
        assert rep["sporadic"] == [{"g": 0, "s": "0,1"}]

    def test_malformed_path(self, capsys):
        code, _, err = run(capsys, "preimage", "--path", "1,2")
        assert code == 2


class TestLawCommands:
    def test_walk_table_mass(self, capsys):
        code, rep, _ = run_json(capsys, "law", "walk", "--rho", "2", "--sigma", "1",
                                "--t", "2")
        assert code == 0
        assert rep["mass"] == "1/1"
        assert rep["table"]["entries"]["0,1,2"] == "1/49"

    def test_chain_table(self, capsys):
        code, rep, _ = run_json(capsys, "law", "chain", "--rho", "1", "--t", "1",
                                "--initial", "point:0")
        assert rep["table"]["entries"]["0,1"] == "1/1"

    def test_level_pmf(self, capsys):
        code, rep, _ = run_json(capsys, "law", "level", "--rho", "1",
                                "--initial", "point:3", "--nmax", "4")
        assert [rep["pmf"][str(n)] for n in range(4)] == ["1/4"] * 4

    def test_level_pmf_approx_carries_err(self, capsys):
        code, rep, _ = run_json(capsys, "law", "level", "--rho", "1/2",
                                "--initial", "geo:1/3", "--nmax", "5")
        assert code == 0
        for n in range(6):
            level = rep["pmf"][str(n)]
            assert set(level) == {"value", "err"}
            assert 0 < level["err"] < 1e-12 and level["value"] > 0

    def test_level_pmf_heavy_geometric_is_fast_and_certified(self, capsys, ratio_tails,
                                                              within_err):
        # one tail-sum table serves all levels: ~3400 float terms, not
        # ~3400 per level with Fraction powers
        start = time.perf_counter()
        code, rep, _ = run_json(capsys, "law", "level", "--rho", "1/2",
                                "--initial", "geo:99/100", "--nmax", "20")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        q = Fraction(1, 4)
        for n, (lo, hi) in enumerate(ratio_tails(Fraction(99, 100), q, 20)):
            level = rep["pmf"][str(n)]
            assert within_err(level["value"], level["err"], q**n * lo, q**n * hi), n

    @pytest.mark.parametrize("glaw", ["geo:1/4", "point:2", "qnb:q=1/4,theta=1/2",
                                      "nb:rho0=1/2"])
    def test_rhs_glaw_reads_every_law_string(self, capsys, glaw):
        code, rep, _ = run_json(capsys, "law", "rhs", "--rho", "1/2", "--t", "2",
                                "--glaw", glaw)
        assert code == 0 and rep["mass"] == "1/1"

    @pytest.mark.parametrize("argv", [["chain", "--rho", "1/2", "--sigma", "1", "--t", "6",
                                       "--initial", "geo:1/3"],
                                      ["rhs", "--rho", "2/3", "--t", "5", "--initial", "spoisson:2"]])
    def test_approx_mass_sums_the_printed_entries(self, capsys, monkeypatch, argv):
        from pitman_lab import DistTable
        from pitman_lab.exact import left_sum

        def refused(self):
            raise AssertionError("the per-path view was built")

        monkeypatch.setattr(DistTable, "entries", property(refused))
        code, rep, _ = run_json(capsys, "law", *argv)
        assert code == 0 and rep["table"]["mode"] == "approx"
        assert rep["mass"] == left_sum(rep["table"]["entries"].values())

    def test_rhs_of_a_float_level_law_carries_err(self, capsys):
        code, rep, _ = run_json(capsys, "law", "rhs", "--rho", "1/2", "--t", "2",
                                "--glaw", "spoisson:1")
        assert code == 0 and rep["table"]["mode"] == "approx"
        assert 0 < rep["table"]["err"] < 1e-12

    @pytest.mark.parametrize("lam", ["nan", "inf", "1e300"])
    def test_unusable_poisson_mean_exits_two_at_once(self, capsys, lam):
        start = time.perf_counter()
        code, out, err = run(capsys, "law", "chain", "--rho", "1", "--t", "2",
                             "--initial", f"spoisson:{lam}")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out.strip()
        assert "lam must be in" in err

    def test_malformed_initial_law(self, capsys):
        code, _, err = run(capsys, "law", "chain", "--rho", "1", "--initial", "junk:1")
        assert code == 2

    @pytest.mark.parametrize("cap", ["abc", "1.5", "-3"])
    def test_a_malformed_cap_exits_two_naming_the_variable(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("PITMAN_LAB_CAP", cap)
        code, out, err = run(capsys, "verify", "thm1", "--rho", "1/2", "--t", "1",
                             "--initial", "point:0")
        assert code == 2 and not out.strip()
        assert json.loads(err)["error"] == f"PITMAN_LAB_CAP must be an integer >= 0, got {cap!r}"

    @pytest.mark.parametrize("obj, missing", [
        (("chain",), "--initial"), (("level",), "--initial"), (("rhs", "--t", "2"), "--glaw"),
    ])
    def test_a_law_object_requires_its_level_flag(self, capsys, obj, missing):
        code, out, err = run(capsys, "law", *obj, "--rho", "1/2")
        assert code == 2 and not out.strip() and missing in err


# (command that runs, a flag it carried without reading it): each object's
# subparser now takes only its own flags
IGNORED_FLAGS = [
    *((("law", "walk", "--rho", "1/2", "--t", "1"), flag) for flag in (
        ("--initial", "point:1"), ("--glaw", "geo:1/2"), ("--route", "product"),
        ("--which", "Gtilde"), ("--nmax", "7"))),
    *((("law", "chain", "--rho", "1/2", "--t", "1", "--initial", "point:1"), flag) for flag in (
        ("--glaw", "geo:1/2"), ("--which", "Gtilde"), ("--nmax", "7"))),
    *((("law", "rhs", "--rho", "1/2", "--t", "1", "--glaw", "point:1"), flag) for flag in (
        ("--initial", "point:1"), ("--route", "product"), ("--which", "Gtilde"),
        ("--nmax", "7"))),
    *((("law", "level", "--rho", "1/2", "--initial", "point:1"), flag) for flag in (
        ("--t", "1"), ("--glaw", "geo:1/2"), ("--route", "product"))),
    (("sample", "walk", "--rho", "1/2", "--t", "2"), ("--initial", "garbage:xyz")),
    *((("sample", "limit-process", "--v", "0"), flag) for flag in (
        ("--rho", "5"), ("--t", "99"), ("--initial", "spoisson:3"))),
]


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS,
                         ids=[" ".join(c[:2] + f[:1]) for c, f in IGNORED_FLAGS])
def test_a_flag_the_object_does_not_read_exits_two(capsys, command, flag):
    assert run(capsys, *command)[0] == 0
    code, out, err = run(capsys, *command, *flag)
    assert code == 2 and not out.strip() and flag[0] in err


class TestScalingCommands:
    def test_continuity_csv(self, capsys):
        code, out, _ = run(
            capsys, "scaling", "continuity", "--N", "2500", "--v", "1/2",
            "--regime", "point", "--grid", "0.5:1.5:0.5", "--out", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,exact,limit,diff"
        assert len(lines) == 4

    def test_kernel_ladder(self, capsys):
        code, rep, _ = run_json(
            capsys, "scaling", "kernel", "--N", "100,10000", "--t", "1",
            "--x", "1", "--y", "1", "--v", "0.5",
        )
        assert code == 0
        assert rep["rel_errors"][1] < rep["rel_errors"][0]

    def test_donsker_derives_level_from_initial_law(self, capsys):
        code, rep, _ = run_json(
            capsys, "scaling", "donsker", "--N", "400", "--v", "0.5",
            "--sigma", "2", "--initial", "point:20", "--samples", "2000",
            "--seed", "2",
        )
        assert code == 0 and rep["status"] == "PASS"
        assert rep["gamma_measure"].startswith("delta(1.0)")

    def test_donsker_rejects_unsupported_initial(self, capsys):
        # nb is the q = 1 qnb, which matches the chain only at v = 0, where
        # the two rates of the hypoexponential coincide
        for v, initial in (("0.5", "geo:1/3"), ("0", "nb:rho0=1/2")):
            code, out, err = run(
                capsys, "scaling", "donsker", "--N", "400", "--v", v,
                "--initial", initial, "--samples", "200",
            )
            assert code == 2 and not out.strip()
            assert "supports point:<n> and matched qnb" in err

    @pytest.mark.parametrize("initial,sigma,samples,seed", [
        ("point:20", "2", 2000, 2),
        ("qnb:q=1521/1600,theta=4/5", "1", 3000, 5),
    ])
    def test_donsker_prints_the_library_report(self, capsys, initial, sigma, samples, seed):
        code, rep, _ = run_json(
            capsys, "scaling", "donsker", "--N", "400", "--v", "1/2", "--sigma", sigma,
            "--initial", initial, "--samples", str(samples), "--seed", str(seed),
        )
        lib = donsker_check(400, Fraction(1, 2), Fraction(sigma), parse_initial_law(initial),
                            samples, seed)
        assert code == 0
        payload = {k: v for k, v in rep.items() if k not in ("schema", "version", "command")}
        assert payload == json.loads(json.dumps(lib))

    def test_donsker_level_law_past_the_grid_exits_two(self, capsys):
        # rates u + v = 1e-7 and u - v: gamma is Exp(1e-7), with 0.9 of its
        # mass above 2^20, where the tabulated inverse CDF ends
        code, out, err = run(
            capsys, "scaling", "donsker", "--N", "4", "--v=-1/2", "--sigma", "0",
            "--initial", "qnb:q=25/16,theta=14999999/25000000", "--samples", "200",
        )
        assert code == 2 and not out.strip()
        assert "leaves mass 0.9 above x = 1.04858e+06" in err

    @pytest.mark.parametrize("argv", [
        ("scaling", "donsker", "--steps", "64"),
        ("scaling", "donsker", "--streams", "2"),
        ("sample", "limit-process", "--steps", "64"),
        ("verify", "thm1", "--rho", "1/2", "--initial", "point:1", "--jobs", "2"),
        ("verify", "tropical", "--streams", "2"),
        ("sample", "walk", "--rho", "1/2", "--streams", "2"),
        ("sample", "chain", "--rho", "1/2", "--stream", "1"),
    ])
    def test_removed_knobs_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--samples", "200")
        assert code == 2 and not out.strip()
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("what", ["kernel", "continuity"])
    def test_pass_bound_is_not_an_option(self, capsys, what):
        # the PASS bound is the library's, CONTINUITY_TOL or KERNEL_TOL
        code, out, err = run(capsys, "scaling", what, "--N", "100", "--tol", "1")
        assert code == 2 and not out.strip()
        assert "unrecognized arguments: --tol" in err


    @pytest.mark.parametrize("argv", [
        ("scaling", "continuity", "--grid", "0.1:3.0:0"),
        ("sample", "limit-process", "--grid", "0:1:-0.5"),
    ])
    def test_grid_step_not_positive_exits_two_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and not out.strip()
        assert "--grid step must be > 0" in err

    def test_grid_holds_at_most_the_cap(self):
        assert len(_grid("0:99999:1")) == _GRID_CAP
        with pytest.raises(ValueError, match="holds 100001 points, more than the 100000"):
            _grid("0:100000:1")
        # a step below the spacing of floats near start once stalled a running sum
        assert _grid("1e16:1e16:0.5") == [1e16]
        assert _grid("0.1:3.0:0.1") == [round(0.1 * k, 12) for k in range(1, 31)]


class TestSampleCommands:
    def test_walk_reproducible(self, capsys):
        args = ("sample", "walk", "--rho", "1/2", "--t", "5", "--samples", "3",
                "--seed", "42")
        _, rep1, _ = run_json(capsys, *args)
        _, rep2, _ = run_json(capsys, *args)
        assert rep1["paths"] == rep2["paths"]
        assert len(rep1["paths"]) == 3

    def test_chain_paths_start_at_initial_level(self, capsys):
        _, rep, _ = run_json(capsys, "sample", "chain", "--rho", "1", "--t", "4",
                             "--initial", "point:2", "--samples", "2", "--seed", "0")
        assert all(p.startswith("2,") for p in rep["paths"])

    @pytest.mark.parametrize("obj, draw", [
        ("walk", lambda rng: sample_walk(6, Params(Fraction(1, 2)), rng, n=4)),
        ("chain", lambda rng: sample_chain(6, parse_initial_law("point:3"),
                                           Params(Fraction(1, 2)), rng, n=4)),
    ])
    def test_sample_draws_from_the_seed_stream(self, capsys, obj, draw):
        # the seed alone fixes the paths: those of RngStream(seed), the same bytes
        # on every run
        argv = ("sample", obj, "--rho", "1/2", "--t", "6", "--samples", "4", "--seed", "9")
        argv += ("--initial", "point:3") * (obj == "chain")
        _, out, _ = run(capsys, *argv)
        assert run(capsys, *argv)[1] == out
        assert json.loads(out)["paths"] == [",".join(map(str, row))
                                            for row in draw(RngStream(9)).tolist()]

    def test_limit_process(self, capsys):
        _, rep, _ = run_json(capsys, "sample", "limit-process", "--v", "0",
                             "--samples", "2", "--seed", "1",
                             "--grid", "0.0:1.0:0.5")
        assert len(rep["paths"]) == 2 and len(rep["paths"][0]) == 3

    @pytest.mark.parametrize("argv, reason", [
        (("--grid=-0.5:0.5:0.5",), "grid times must be finite and >= 0"),
        (("--sigma", "-2"), "sigma must be >= 0"),
    ])
    def test_limit_process_bad_input_exits_two(self, capsys, argv, reason):
        code, out, err = run(capsys, "sample", "limit-process", "--samples", "2", *argv)
        assert code == 2 and not out.strip()
        assert reason in err


@pytest.mark.parametrize("report", [
    {},
    {"entries": {}, "rows": [], "pair": (), "nested": {"a": {}, "b": [[], {}]}},
    {"deep": {"a": {"b": {"c": [1, [2, [3, {"d": (4, 5)}]]]}}}, "mixed": [1, "x", {"y": None}]},
    {"floats": [0.1, 1 / 3, 1e300, 5e-324, -0.0, math.inf, -math.inf, math.nan],
     "err": 2.0**-1021, "value": {"v": 0.1 + 0.2}},
    {"exact": Fraction(1, 3), "path": Path((1, 0, -1)), "law": Params(Fraction(1, 2)),
     "inside": {"f": [Fraction(2, 3), {"p": Path(())}], "t": (Fraction(1), None, True)}},
    {"keys": {1: "int", 2.5: [1], False: {"k": 0}, None: "none"}, "text": "é \x00\"\\ \u2028"},
    {"table": {"horizon": 2, "mode": "exact", "err": 0.0,
               "entries": {f"0,{i}": f"{i}/7" for i in range(-2, 3)}}, "status": "PASS"},
    # flat containers longer than one C-encoded block
    {"entries": {str(i): i / 7 for i in range(2 * _JSON_BLOCK + 1)},
     "rows": [{"n": n} for n in range(3)], "levels": list(range(_JSON_BLOCK))},
])
def test_emit_prints_the_stdlib_indented_bytes(capsys, report):
    args = argparse.Namespace(cmd="law", what=None, object="chain")
    assert _emit(report, args) == 0
    want = {"schema": "report-v1", "version": __version__, "command": "law chain", **report}
    assert capsys.readouterr().out == json.dumps(want, indent=2, default=str) + "\n"


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_unknown_command_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("argv, reason", [
    (("sample", "chain", "--rho", "1/2", "--t", "-1"), "horizon t must be >= 0"),
    (("sample", "walk", "--rho", "1/2", "--t", "-1"), "horizon t must be >= 0"),
    (("sample", "walk", "--rho", "1/2", "--samples", "0"), "--samples must be >= 1"),
    (("sample", "chain", "--rho", "1/2", "--samples", "0"), "--samples must be >= 1"),
    (("scaling", "kernel", "--N", "0"), "N must be >= 1"),
    (("scaling", "continuity", "--N", "0"), "N must be >= 1"),
    (("scaling", "donsker", "--N", "0", "--samples", "200"), "N must be >= 1"),
    (("verify", "tropical", "--t-exhaustive", "-1", "--samples", "0"), "must be >= 0"),
    (("verify", "tropical", "--g-max", "-1"), "must be >= 0"),
    (("law", "level", "--rho", "1/2", "--initial", "geo:1/2", "--nmax", "-1"),
     "--nmax must be >= 0"),
    (("scaling", "donsker", "--N", "400", "--v", "0", "--initial", "qnb:q=1,theta=1/2",
      "--samples", "200"), "the donsker check of qnb:q=1/1,theta=1/2 needs --v != 0"),
    (("scaling", "continuity", "--N", "100", "--v", "0", "--regime", "corollary", "--u", "1"),
     "the corollary regime needs --v != 0"),
    (("scaling", "continuity", "--N", "10000", "--v", "1/100000000000000", "--regime",
      "corollary", "--u", "1"), "the corollary regime needs --v != 0"),
    (("scaling", "continuity", "--N", "100", "--grid", "1:0:0.1"), "--grid holds no point"),
    (("scaling", "continuity", "--N", "100", "--grid", "1:0:0.1", "--out", "csv"),
     "--grid holds no point"),
    (("verify", "damage", "--q", "1/4", "--theta", "1/2", "--nmax", "-1"),
     "--nmax must be >= 0"),
    (("scaling", "continuity", "--N", "100", "--v", "1/2", "--regime", "corollary", "--u", "11"),
     "the corollary regime needs --u <= sqrt(N) = 10, got 11"),
    (("scaling", "continuity", "--N", "100", "--grid", "0:1"),
     "--grid takes start:stop:step"),
    (("scaling", "continuity", "--N", "100", "--grid", "a:1:0.1"),
     "--grid takes start:stop:step"),
    (("sample", "limit-process", "--grid", "0:inf:0.5", "--samples", "2"),
     "--grid takes start:stop:step, three finite numbers"),
    (("sample", "limit-process", "--grid", "1:0:0.1", "--samples", "2"),
     "--grid holds no point"),
    (("sample", "limit-process", "--gamma-point", "nan", "--samples", "2"),
     "needs finite atoms and terms"),
    (("sample", "limit-process", "--gamma-point", "inf", "--samples", "2"),
     "needs finite atoms and terms"),
    (("scaling", "donsker", "--N", "1000000", "--samples", "99", "--initial", "point:1000"),
     "--samples must be >= 100, got 99"),
    (("verify", "tropical", "--samples", "1000000000"),
     "--t-random 50 with --samples 1000000000 asks for 51000000000 path levels, more than "
     "the 10000000 allowed; lower --t-random or --samples"),
    (("scaling", "continuity", "--N", "100", "--grid", "0:1:1e-9"),
     "--grid 0:1:1e-9 holds 1000000001 points, more than the 100000 allowed"),
    (("sample", "limit-process", "--grid", "0:1:1e-6", "--samples", "2"),
     "holds 1000001 points"),
    (("sample", "limit-process", "--grid=-1e308:1e308:1", "--samples", "2"),
     "holds inf points"),
    (("scaling", "kernel", "--N", "100,abc"),
     "--N takes a comma-separated list of integers such as 100,10000, got '100,abc'"),
    (("scaling", "kernel", "--N", ","), "--N takes a comma-separated list of integers"),
    (("scaling", "kernel", "--N", "100,0"),
     "--N must be >= 1 in every entry of its comma-separated list, got '100,0'"),
    (("law", "chain", "--rho", "1/2", "--t", "1", "--initial", "point:10000"),
     "--initial point:10000 gives an exact law with rationals of more than"),
    (("sample", "chain", "--rho", "1", "--t", "1000000", "--initial", "point:1",
      "--samples", "20000"),
     "--t 1000000 with --samples 20000 asks for 20000020000 path levels, more than the "
     "10000000 allowed"),
    (("sample", "walk", "--rho", "1", "--t", "1000000", "--samples", "20000"),
     "--t 1000000 with --samples 20000 asks for 20000020000 path levels"),
    (("scaling", "donsker", "--N", "1000000", "--initial", "point:1000"),
     "--N 1000000 with --samples 20000 asks for 20000000000 chain steps, more than the "
     "1000000000 allowed"),
    (("verify", "tropical", "--g-max", "100000000000000000000"),
     "--g-max must be < 2^63, got 100000000000000000000"),
    (("sample", "walk", "--rho", "1/2", "--seed=-1"), "--seed must be in [0, 2^64), got -1"),
    (("sample", "walk", "--rho", "1/2", "--seed", "18446744073709551616"),
     "--seed must be in [0, 2^64), got 18446744073709551616"),
])
def test_out_of_range_input_exits_two_with_a_reason(capsys, argv, reason):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not out.strip()
    assert reason in json.loads(err)["error"]


def test_readme_commands_are_golden_cases():
    # every `pitman-lab` command line of the README but `scaling donsker`
    # (seconds of sampling) is pinned byte for byte in tests/data/cli_golden.json
    root = pathlib.Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    lines = [line.removeprefix("pitman-lab ") for line in readme.splitlines()
             if line.startswith("pitman-lab ")]
    golden = {case["argv"] for case in json.loads(
        (root / "tests" / "data" / "cli_golden.json").read_text())}
    pinned = [line for line in lines if not line.startswith("scaling donsker")]
    assert len(pinned) == len(lines) - 1 == 10
    assert [line for line in pinned if line not in golden] == []


def test_one_parser_serves_every_call_as_a_fresh_interpreter():
    """``main`` builds its parser once per process.  In-process calls of
    different subcommands in sequence, a usage error among them, print the
    bytes and exit codes of one fresh interpreter per command."""
    import contextlib
    import io
    import os
    import subprocess
    import sys

    from pitman_lab.cli import build_parser

    commands = [
        ("law", "chain", "--rho", "2/3", "--sigma", "1", "--t", "3", "--initial", "point:1"),
        ("verify", "thm1", "--rho", "1/2", "--t", "3", "--initial", "point:1", "--part", "I"),
        ("law", "chain", "--rho", "1/2", "--t", "2", "--initial", "point:1",
         "--route", "product"),
        ("preimage", "--path", "0,1,0,-1"),
        ("verify", "thm1", "--rho", "1/2", "--t", "0", "--initial", "point:1"),
        ("sample", "walk", "--rho", "1/2", "--t", "4", "--samples", "2", "--seed", "5"),
        ("law", "level", "--rho", "1/2", "--initial", "point:2", "--nmax", "3"),
    ]
    src = pathlib.Path(__import__("pitman_lab").__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    fresh = [subprocess.run([sys.executable, "-m", "pitman_lab.cli", *argv],
                            capture_output=True, text=True, env=env) for argv in commands]
    in_process = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        in_process.append((code, out.getvalue(), err.getvalue()))
    assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == in_process
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 0, 0]
    assert build_parser() is build_parser()


class TestPointStartPrice:
    """``law chain`` prices a point start's brackets before building them,
    and every exact command prices its start law's top atom."""

    BILLION = ("--rho", "1/2", "--initial", "point:1000000000")

    @pytest.mark.parametrize("argv", [
        ("verify", "thm1", "--t", "1", *BILLION), ("verify", "thm2", "--t", "1", *BILLION),
        ("verify", "two-sided", "--t", "1", *BILLION), ("law", "rhs", "--t", "1", *BILLION),
        ("law", "level", *BILLION),
        ("law", "chain", "--rho", "1/2", "--t", "1", "--initial", "finite:0=1/2,1000000000=1/2")],
        ids=lambda argv: " ".join(argv[:2]))
    def test_a_billion_level_atom_is_refused_within_a_second(self, capsys, argv):
        from pitman_lab.cli import BRACKET_BUDGET_BITS

        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        initial = argv[argv.index("--initial") + 1]
        assert json.loads(err)["error"] == (
            f"--initial {initial} has an atom at level 1000000000, whose q-bracket at q = 1/4 "
            f"takes about 2000000002 bits, over the budget of {BRACKET_BUDGET_BITS} bits of "
            "an exact start law; take a start law with smaller levels")

    @pytest.mark.parametrize("rho,bits_per_level", [("1/2", 2), ("2", 2), ("1", 0)])
    def test_the_budget_is_the_top_bracket_in_bits(self, rho, bits_per_level):
        from pitman_lab.cli import BRACKET_BUDGET_BITS, _priced_start

        def admitted(initial):
            args = argparse.Namespace(rho=rho, sigma="1", initial=initial)
            try:
                return _priced_start(args) == parse_initial_law(initial)
            except ValueError as exc:
                assert f"over the budget of {BRACKET_BUDGET_BITS} bits" in str(exc)
                return False

        # q = 1/4 or 4: the top atom k prices 2 (k + 1) bits; q = 1 prices none
        top = BRACKET_BUDGET_BITS // 2 - 1
        assert admitted(f"point:{top}") and admitted(f"finite:0=1/2,{top}=1/2")
        assert admitted(f"point:{top + 1}") == (bits_per_level == 0)
        assert admitted("qnb:q=1/4,theta=1/2") and admitted("geo:99/100")

    def test_a_billion_level_start_is_refused_at_once(self):
        import os
        import subprocess
        import sys

        src = pathlib.Path(__import__("pitman_lab").__file__).parents[1]
        argv = ["law", "chain", "--rho", "1/2", "--t", "1", "--initial", "point:1000000000"]
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-m", "pitman_lab.cli", *argv],
                               capture_output=True, text=True, timeout=30,
                               env={**os.environ, "PYTHONPATH": str(src)})
        assert time.perf_counter() - start < 5.0
        assert child.returncode == 2 and not child.stdout
        assert json.loads(child.stderr)["error"].startswith(
            "--initial point:1000000000 gives an exact law with rationals of more than "
            f"{sys.get_int_max_str_digits()} digits")

    def test_refused_before_any_table_is_built(self, capsys, monkeypatch):
        import pitman_lab.cli as cli

        def built(*args, **kwargs):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "chain_increment_law", built)
        code, _, err = run(capsys, "law", "chain", "--rho", "1/2", "--t", "1",
                           "--initial", "point:10000")
        assert code == 2 and "--initial point:10000" in json.loads(err)["error"]

    def test_at_q_one_a_far_start_still_prints(self, capsys):
        code, rep, _ = run_json(capsys, "law", "chain", "--rho", "1", "--t", "1",
                                "--initial", "point:1000000000")
        assert code == 0 and rep["mass"] == "1/1"

    @pytest.mark.parametrize("rho,sigma,t", [("1/2", "0", 1), ("1/2", "1", 3), ("2/3", "1", 2),
                                             ("3/2", "1/3", 2), ("5/7", "2", 1)])
    def test_every_start_priced_out_would_not_print(self, rho, sigma, t):
        # the smallest start the price refuses: its table, built, cannot print
        import sys

        from pitman_lab import PointMass, chain_increment_law
        from pitman_lab.cli import _refuse_unprintable_start

        params = Params(Fraction(rho), Fraction(sigma))

        def refused(k):
            args = argparse.Namespace(object="chain", t=t, initial=f"point:{k}")
            try:
                _refuse_unprintable_start(args, PointMass(k), params)
            except ValueError:
                return True
            return False

        lo, hi = 0, 1 << 20  # not refused at lo, refused at hi
        assert not refused(lo) and refused(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if refused(mid) else (mid, hi)
        # and the price is not loose: that start's bracket has under 1.25 times
        # the digit limit
        digits = hi * math.log10(max(params.q.numerator, params.q.denominator))
        assert digits < 1.25 * sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match="integer string conversion"):
            chain_increment_law(t, PointMass(hi), params).to_json()
