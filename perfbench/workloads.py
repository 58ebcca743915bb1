"""The three benchmark workloads: their inputs, operations and checks.

An operation calls public functions of pitman_lab and returns their output;
only the operation is timed.  Its check runs afterwards and compares the
output with properties the method must have or with ``oracles``, never with
stored output of an earlier run.  A check returns a one-line detail or raises
:class:`CheckFailed`.

Inputs come from ``--seed`` only.  Deep exact computations keep fixed
parameters, because their cost depends on the bit length of the rationals
and drawing those would move the timing from seed to seed; the seed draws
the small cross-checked inputs, grid offsets and every random stream.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

import numpy as np

import oracles
import pitman_lab as pl
from pitman_lab import cli

#: Level of every Kolmogorov-Smirnov check.  A benchmark comparison makes
#: about a hundred runs with distinct seeds and each run makes two seeded KS
#: tests, so at a 1% level a correct sampler would fail in about one run in
#: fifty; at 1e-5 one false alarm in a thousand runs is about 2% likely.
#: Reports print the 1% critical value next to it.
KS_ALPHA = 1e-5

#: Key of the limit-vs-pitman stream.  Its inputs do not depend on --seed, so
#: the known Euler-bias failure repeats identically on every run.
PITMAN_STREAM = 1975


class CheckFailed(Exception):
    """An operation's output is wrong."""


def expect(ok: bool, detail: str):
    if not ok:
        raise CheckFailed(detail)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    #: the program fault that makes this operation fail until it is mended
    known_fault: str = None


def _capture_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _steps_table(table: pl.DistTable) -> dict:
    return {p.steps: v for p, v in table.entries.items()}


def _equal_tables(a: dict, b: dict) -> bool:
    zero = F(0)
    return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b))


def _check_exact_table(table: pl.DistTable, label: str):
    expect(table.mode == "exact", f"{label}: mode {table.mode}")
    expect(table.mass() == 1, f"{label}: total mass {table.mass()} != 1")


def _check_thm1(report: dict) -> str:
    label = f"thm1 part {report['part']} {report['initial']} t<={report['t_max']}"
    expect(report["exact"], f"{label}: not in exact mode")
    expect(report["max_abs_diff"]["value"] == "0/1" and report["witness"] is None,
           f"{label}: routes differ by {report['max_abs_diff']['value']} at {report['witness']}")
    expect(report["status"] == "PASS", f"{label}: status {report['status']}")
    return f"{label}: three routes agree exactly"


def _ks_detail(stat, n, m=None):
    return (f"KS {stat:.5f} vs critical {oracles.ks_critical(KS_ALPHA, n, m):.5f} "
            f"at alpha={KS_ALPHA:g} (1% critical {oracles.ks_critical(0.01, n, m):.5f})")


# ---------------------------------------------------------------------------
# exact-tables
# ---------------------------------------------------------------------------


def exact_tables(seed: int) -> list:
    rnd = random.Random(f"exact-tables:{seed}")
    # the deep cases: qnb at t<=8 (6561 paths at t=8), the flat-free point
    # law at t<=12 (4096 paths at t=12), the product route at t=7
    deep = pl.Params(F(2, 3), F(1))
    qnb = pl.QNegativeBinomial(deep.q, F(1, 2))
    point_params = pl.Params(F(1, 2), F(0))
    point = pl.PointMass(3)
    three_atoms = pl.FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2))))
    qnb_cli = ["law", "chain", "--rho", "2/3", "--sigma", "1", "--t", "8",
               "--initial", qnb.cli_string()]

    # seeded small inputs, cheap enough (t<=5) that their draw leaves the
    # timing alone: a random three-atom law and parameter pair for the brute
    # force, and a wrong geometric level law for the negative control
    small_params = pl.Params(rnd.choice([F(1, 2), F(2, 3), F(3, 2), F(2)]),
                             rnd.choice([F(0), F(1, 2), F(1)]))
    levels = sorted(rnd.sample(range(7), 3))
    cuts = sorted(rnd.sample(range(1, 12), 2))
    weights = [F(c, 12) for c in (cuts[0], cuts[1] - cuts[0], 12 - cuts[1])]
    small_law = pl.FiniteSupport(tuple(zip(levels, weights)))
    g_true = deep.q * qnb.theta  # the derived level law is geo(q*theta)
    wrong_p = rnd.choice([F(k, 9) for k in range(1, 9) if F(k, 9) != g_true])

    def chain_routes():
        return (pl.chain_increment_law(7, three_atoms, deep, route="product"),
                pl.chain_increment_law(7, three_atoms, deep, route="formula"))

    def check_chain_routes(out):
        product, formula = out
        _check_exact_table(product, "product route")
        _check_exact_table(formula, "formula route")
        expect(_equal_tables(_steps_table(product), _steps_table(formula)),
               "product and formula routes differ")
        return f"{three_atoms.cli_string()} t=7: product == formula, mass 1"

    def brute():
        return [(t, pl.chain_increment_law(t, small_law, small_params, route="formula"),
                 pl.chain_increment_law(t, small_law, small_params, route="product"))
                for t in range(1, 6)]

    def check_brute(out):
        initial = dict(small_law.masses)
        for t, formula, product in out:
            oracle = oracles.brute_force_chain_law(t, initial, small_params.rho,
                                                   small_params.sigma)
            for label, table in (("formula", formula), ("product", product)):
                _check_exact_table(table, f"{label} t={t}")
                expect(_equal_tables(_steps_table(table), oracle),
                       f"{label} route differs from the brute-force law at t={t}")
        return (f"{small_law.cli_string()} rho={small_params.rho} sigma={small_params.sigma}: "
                f"both routes == brute force for t<=5")

    def thm2():
        vlaw = pl.v_law_from_initial(qnb, deep, "I")
        out = []
        for t in range(1, 8):
            cond = pl.conditioned_walk_law(t, vlaw, deep, "I")
            chain = pl.chain_increment_law(t, qnb, deep)
            out.append((cond, chain, chain.max_abs_diff(cond)[0]))
        return out

    def check_thm2(out):
        for t, (cond, chain, diff) in enumerate(out, start=1):
            _check_exact_table(cond, f"conditioned t={t}")
            _check_exact_table(chain, f"chain t={t}")
            expect(diff == 0 and _equal_tables(_steps_table(cond), _steps_table(chain)),
                   f"conditioned and chain laws differ at t={t}")
        return "conditioned walk == chain law exactly for t<=7"

    def check_two_sided(report):
        expect(report["max_abs_diff"]["value"] == "0/1" and report["status"] == "PASS",
               f"two-sided laws differ by {report['max_abs_diff']['value']}")
        return "plain and flipped representations agree exactly for t<=7"

    def check_cli(out):
        code, text = out
        expect(code == 0, f"exit code {code}")
        report = json.loads(text)
        entries = report["table"]["entries"]
        values = [F(v) for v in entries.values()]
        expect(len(values) == 3**8, f"{len(values)} entries, expected 3^8")
        expect(all(v > 0 for v in values), "a path of positive probability has value 0")
        expect(sum(values) == 1 and report["mass"] == "1/1", "table mass != 1")
        return f"{len(text)} bytes, 6561 entries summing to exactly 1"

    def negative():
        return pl.verify_thm1(4, qnb, deep, "I", candidate=pl.LevelLaw.geometric(wrong_p))

    def check_negative(report):
        expect(report["status"] == "FAIL" and report["witness"] is not None,
               f"wrong level law geo({wrong_p}) was not refuted")
        return f"geo({wrong_p}) refuted at {report['witness']['path']}"

    return [
        Op("thm1-qnb-I", lambda: pl.verify_thm1(8, qnb, deep, "I"), _check_thm1),
        Op("thm1-qnb-II", lambda: pl.verify_thm1(8, qnb, deep, "II"), _check_thm1),
        Op("thm1-point", lambda: pl.verify_thm1(12, point, point_params, "I"), _check_thm1),
        Op("chain-routes-finite", chain_routes, check_chain_routes),
        Op("chain-vs-brute-force", brute, check_brute),
        Op("thm2-conditioned", thm2, check_thm2),
        Op("two-sided", lambda: pl.verify_two_sided(7, qnb, deep), check_two_sided),
        Op("cli-law-chain", lambda: _capture_cli(qnb_cli), check_cli),
        Op("negative-control", negative, check_negative),
    ]


# ---------------------------------------------------------------------------
# level-laws
# ---------------------------------------------------------------------------


def level_laws(seed: int) -> list:
    rnd = random.Random(f"level-laws:{seed}")
    # grid offsets leave the work alone: every regime sums the level law up
    # to the largest grid index, floor(3 * sqrt(N)) either way
    offset = rnd.random()
    grid = [(i + offset) / 10 for i in range(1, 30)]
    regimes = [
        ("trunc-exp", (10**4, F(1, 2), "point", grid), {}, oracles.point_level_cdf(0.5, 1.0)),
        ("uniform", (10**4, F(0), "point", grid), {}, oracles.point_level_cdf(0.0, 1.0)),
        ("escape", (10**4, F(1, 2), "power", grid), {}, oracles.exponential_cdf(1.0)),
        ("corollary", (10**4, F(-3, 10), "corollary", grid), {"u": F(1)},
         oracles.exponential_cdf(0.7)),
    ]
    damage = [(F(1, 4), F(1, 2)), (F(1), F(1, 2)), (F(4), F(1, 5))]
    kernel_cases = [(v, x, y) for v in (0.0, 0.5)
                    for x, y in itertools.product((0.5, 1.0, 2.0), repeat=2)]
    # approx tails cost the same at every q, so rho is drawn; the terms summed
    # grow as log(1e-15)/log(p): ~1700 for 49/50, ~3400 for 99/100
    approx_params = pl.Params(rnd.choice([F(1, 2), F(2, 3)]), F(1))
    approx_cases = [("49/50", pl.Geometric(F(49, 50)), 10),
                    ("99/100", pl.Geometric(F(99, 100)), 2)]
    rho_qnb = rnd.choice([F(1, 2), F(2, 3), F(3, 4)])
    theta_qnb = rnd.choice([F(1, 2), F(1, 3), F(1, 5), F(2, 3)])
    qnb_params = pl.Params(rho_qnb, F(1))
    qnb = pl.QNegativeBinomial(qnb_params.q, theta_qnb)

    def continuity():
        return [pl.continuity_check(*args, **kw) for _, args, kw, _ in regimes]

    def check_continuity(reports):
        sups = []
        for (name, _, _, limit), rep in zip(regimes, reports):
            xs = np.array([row["x"] for row in rep["rows"]])
            exact = np.array([row["exact"] for row in rep["rows"]])
            ours = limit(xs)
            theirs = np.array([row["limit"] for row in rep["rows"]])
            expect(np.max(np.abs(ours - theirs)) <= 1e-9, f"{name}: limit CDF off the closed form")
            sup = float(np.max(np.abs(exact - ours)))
            expect(sup <= 0.02 and rep["sup_distance"] <= 0.02, f"{name}: sup distance {sup:.4f}")
            sups.append(f"{name}={sup:.4f}")
        return "sup distances " + ", ".join(sups) + " (<= 0.02)"

    def check_damage(reports):
        for rep in reports:
            expect(rep["status"] == "PASS" and rep["factorization_violations"] == 0
                   and rep["marginals_match"] and rep["rao_rubin_holds"],
                   f"damage q={rep['q']} theta={rep['theta']} failed")
        return "3 factorizations exact on n<=60"

    def poisson():
        glaw = pl.g_law_from_initial(pl.ShiftedPoisson(1.0), pl.Params(F(1)), "G",
                                     mode="approx", trunc_n=200)
        return pl.poisson_split_check(20, 200), [glaw.pmf(m) for m in range(21)]

    def check_poisson(out):
        report, pmf = out
        err = max(abs(p - oracles.poisson_pmf(m)) for m, p in enumerate(pmf))
        expect(report["status"] == "PASS" and err <= 1e-12,
               f"level law off Poisson(1) by {err:.2e}")
        return f"level law within {err:.1e} of e^-1/m! for m<=20"

    def kernel():
        return [pl.kernel_limit_ladder([100, 10**4], 1.0, x, y, v) for v, x, y in kernel_cases]

    def check_kernel(ladders):
        errs = {100: [], 10**4: []}
        for (v, x, y), ladder in zip(kernel_cases, ladders):
            limit = oracles.kernel_limit(1.0, x, y, v)
            for rep in ladder["reports"]:
                expect(abs(rep["limit"] - limit) <= 1e-12 * abs(limit),
                       f"kernel limit at v={v} x={x} y={y} off the closed form")
                errs[rep["N"]].append(abs(rep["finite"] - limit) / limit)
        worst, mean4, mean2 = max(errs[10**4]), np.mean(errs[10**4]), np.mean(errs[100])
        expect(worst <= 0.05 and mean4 < mean2,
               f"kernel error {worst:.4f} at N=1e4, mean {mean4:.4f} vs {mean2:.4f} at N=100")
        return f"max rel error {worst:.4f} at N=1e4, mean {mean4:.4f} < {mean2:.4f} at N=100"

    def approx_levels(law, nmax):
        q = approx_params.q
        glaw = pl.g_law_from_initial(law, approx_params, "G")
        return glaw.exact, [(pl.tail_sum_ratio(law, n, q, "approx"), glaw.pmf(n), glaw.tail(n))
                            for n in range(nmax + 1)]

    def check_approx_levels(law, label):
        def check(out):
            exact_mode, rows = out
            expect(not exact_mode, f"geo:{label} level law claims exact mode")
            p, q = law.p, approx_params.q
            intervals = oracles.geometric_ratio_tails(p, q, len(rows) - 1)
            # rounding allowance: m terms summed in floats, each term within a
            # few ulps, so the sum is within (m + 8) u of the exact value
            m = oracles.approx_terms_bound(p)
            u = oracles.UNIT_ROUNDOFF
            worst, beyond_err = 0.0, 0
            for n, ((approx, pmf, tail), (lo, hi)) in enumerate(zip(rows, intervals)):
                room = approx.err + (m + 8) * u * float(hi)
                gap = _outside(approx.value, lo, hi)
                expect(gap <= room, f"geo:{label} tail sum at n={n} off by {gap:.2e} > {room:.2e}")
                worst = max(worst, gap / approx.err)
                beyond_err += gap > approx.err
                qn, bracket = q**n, oracles.q_bracket(n, q)
                room_pmf = float(qn) * (approx.err + (m + 12) * u * float(hi))
                expect(_outside(pmf, qn * lo, qn * hi) <= room_pmf, f"geo:{label} pmf({n}) off")
                room_tail = (float(bracket) * (approx.err + (m + 16) * u * float(hi))
                             + 4 * u * float(p**n + bracket * hi))
                expect(_outside(tail, p**n - bracket * hi, p**n - bracket * lo) <= room_tail,
                       f"geo:{label} tail({n}) off")
            return (f"geo:{label} rho={approx_params.rho}: n=0..{len(rows) - 1} within err plus "
                    f"{m + 8} ulps of the certified sum; {beyond_err} levels beyond the stated "
                    f"err alone (worst {worst:.1f} x err)")
        return check

    def approx_thm1():
        p = pl.Params(F(1, 2), F(1))
        return [pl.verify_thm1(6, pl.Geometric(F(1, 3)), p, "I"),
                pl.verify_thm1(5, pl.Geometric(F(9, 10)), p, "I")]

    def check_approx_thm1(reports):
        for rep in reports:
            expect(not rep["exact"] and rep["status"] == "PASS",
                   f"approx thm1 {rep['initial']}: {rep['status']}")
        return "geo:1/3 t<=6 and geo:9/10 t<=5 agree within the truncation bound"

    def qnb_levels():
        g = pl.g_law_from_initial(qnb, qnb_params, "G")
        gt = pl.g_law_from_initial(qnb, qnb_params, "Gtilde")
        return [(g.pmf(n), g.tail(n), gt.pmf(n), gt.tail(n)) for n in range(31)]

    def check_qnb_levels(rows):
        qt = qnb_params.q * theta_qnb
        for n, (gp, gtail, tp, ttail) in enumerate(rows):
            expect((gp, gtail) == (oracles.geometric_pmf(qt, n), oracles.geometric_tail(qt, n)),
                   f"G != geo(q theta) at n={n}")
            expect((tp, ttail) == (oracles.geometric_pmf(theta_qnb, n),
                                   oracles.geometric_tail(theta_qnb, n)),
                   f"Gtilde != geo(theta) at n={n}")
        return f"{qnb.cli_string()}: G = geo({qt}), Gtilde = geo({theta_qnb}) exactly, n<=30"

    ops = [
        Op("continuity", continuity, check_continuity),
        Op("damage", lambda: [pl.damage_check(q, th, nmax=60) for q, th in damage], check_damage),
        Op("poisson-split", poisson, check_poisson),
        Op("kernel-ladder", kernel, check_kernel),
    ]
    for label, law, nmax in approx_cases:
        ops.append(Op(f"approx-level-geo-{label}", lambda law=law, nmax=nmax: approx_levels(law, nmax),
                      check_approx_levels(law, label)))
    ops += [
        Op("approx-thm1-geo", approx_thm1, check_approx_thm1),
        Op("qnb-level-closed-form", qnb_levels, check_qnb_levels),
    ]
    return ops


def _outside(value: float, lo: F, hi: F) -> float:
    """Distance from a float to the interval [lo, hi], 0 inside."""
    x = F(value)
    return float(max(lo - x, x - hi, F(0)))


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------


def monte_carlo(seed: int) -> list:
    rnd = random.Random(f"monte-carlo:{seed}")
    stream = pl.RngStream(rnd.getrandbits(63))
    tropical_seed = rnd.getrandbits(31)
    # Donsker: the acceptance-gate configuration (N=2500, 20000 samples,
    # 4096 Euler steps per unit time)
    n_chain, donsker_n, steps, sn = 2500, 20000, 4096, 50
    v, sigma = F(2, 5), F(2)
    donsker_params = pl.Params(1 - v / sn, sigma)
    # 3000 draws: enough for a KS test, few enough that the Python CDF calls
    # (one per draw) stay near a second
    level_draws = 3000
    rejection_params = pl.Params(F(1, 2))
    pitman_n, pitman_steps = 50000, 1024

    def donsker():
        chains = pl.sample_chain(n_chain, pl.PointMass(sn), donsker_params, stream.child(1),
                                 n=donsker_n)
        k_chain = (chains[:, -1] - chains[:, 0]).astype(np.int64)
        gamma = pl.LimitLevelLaw(float(v), pl.MuMeasure.point(1.0))
        lim = pl.limit_process_sample(float(v), gamma, [1.0], steps, stream.child(2),
                                      n=donsker_n, sigma=float(sigma))[:, 0]
        lim_lattice = np.round(lim * sn).astype(np.int64)
        return k_chain, lim_lattice, pl.ks_distance(k_chain, lim_lattice)

    def check_donsker(out):
        from scipy import stats as sps

        k_chain, lim_lattice, stat = out
        ours = sps.ks_2samp(k_chain, lim_lattice).statistic
        expect(abs(ours - stat) <= 1e-12, f"ks_distance {stat} != scipy {ours}")
        expect(stat < oracles.ks_critical(KS_ALPHA, donsker_n, donsker_n),
               "chain vs limit: " + _ks_detail(stat, donsker_n, donsker_n))
        return "chain vs limit marginal: " + _ks_detail(stat, donsker_n, donsker_n)

    def level_sampling():
        lll = pl.LimitLevelLaw(-0.3, pl.MuMeasure.hypoexponential(0.7, 1.3))
        draws = lll.sample(stream.child(3), level_draws)
        return draws, pl.ks_distance(draws, cdf=lll.cdf)

    def check_level_sampling(out):
        from scipy import stats as sps

        draws, stat = out
        # (v, mu) = (-0.3, two exponentials at u+-v with u=1) collapses to Exp(u+v)
        ours = sps.kstest(draws, oracles.exponential_cdf(0.7)).statistic
        crit = oracles.ks_critical(KS_ALPHA, level_draws)
        expect(stat < crit and ours < crit,
               f"level-law sampler: {_ks_detail(stat, level_draws)}; vs Exp(0.7) {ours:.5f}")
        return f"sample vs cdf {_ks_detail(stat, level_draws)}; vs Exp(0.7) KS {ours:.5f}"

    def rejection():
        vlaw = pl.v_law_from_initial(pl.PointMass(1), rejection_params, "I")
        return pl.rejection_oracle(3, vlaw, rejection_params, "I", horizon_pad=200,
                                   n_samples=200000, rng=stream.child(4))

    def check_rejection(res):
        exact = oracles.brute_force_chain_law(3, {1: F(1)}, rejection_params.rho,
                                              rejection_params.sigma)
        got = _steps_table(res["table"])
        worst = 0.0
        for key, p in exact.items():
            p = float(p)
            se = math.sqrt(p * (1 - p) / res["accepted"])
            gap = abs(got.get(key, 0.0) - p)
            expect(gap <= 4.5 * se + res["truncation_bound"] + 1e-12,
                   f"rejection oracle off by {gap:.2e} at {key}")
            worst = max(worst, gap / se if se else 0.0)
        return (f"{res['accepted']} accepted of {res['n_samples']}; worst gap {worst:.2f} "
                f"standard errors (bound 4.5 + {res['truncation_bound']:.1e})")

    tropical_argv = ["verify", "tropical", "--t-exhaustive", "7", "--samples", "10000",
                     "--seed", str(tropical_seed)]

    def check_tropical(out):
        code, text = out
        report = json.loads(text)
        expect(code == 0 and report["violations"] == 0 and report["status"] == "PASS",
               f"{report['violations']} tropical violations")
        return "0 violations (exhaustive t<=7, 10000 random paths at t=50)"

    def limit_vs_pitman():
        gamma = pl.LimitLevelLaw(0.0, pl.MuMeasure.point(0.0))  # gamma = 0
        x = pl.limit_process_sample(0.0, gamma, [1.0], pitman_steps, pl.RngStream(PITMAN_STREAM),
                                    n=pitman_n)[:, 0]
        return x, pl.ks_distance(x, cdf=oracles.pitman_cdf)

    def check_limit_vs_pitman(out):
        from scipy import stats as sps

        x, stat = out
        ours = sps.kstest(x, np.vectorize(oracles.pitman_cdf)).statistic
        expect(abs(ours - stat) <= 1e-9, f"ks_distance {stat} != scipy {ours}")
        expect(stat < oracles.ks_critical(KS_ALPHA, pitman_n),
               "2(M-gamma)_+ - B vs 2M-B: " + _ks_detail(stat, pitman_n))
        return "2(M-gamma)_+ - B vs 2M-B: " + _ks_detail(stat, pitman_n)

    return [
        Op("donsker", donsker, check_donsker),
        Op("level-law-sampling", level_sampling, check_level_sampling),
        Op("rejection-oracle", rejection, check_rejection),
        Op("verify-tropical", lambda: _capture_cli(tropical_argv), check_tropical),
        Op("limit-vs-pitman", limit_vs_pitman, check_limit_vs_pitman,
           known_fault="limit_process_sample takes the running maximum on the Euler grid, "
                       "which is biased low by O(sqrt(dt)) (Asmussen, Glynn & Pitman 1995)"),
    ]


WORKLOADS = {
    "exact-tables": exact_tables,
    "level-laws": level_laws,
    "monte-carlo": monte_carlo,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)
