"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the measured value.  Run with ``pytest tests/test_acceptance.py -v -s``.

Monte Carlo criteria use pinned seeds; the chosen configurations were checked
to pass across neighbouring seeds as well, so nothing here is balanced on a
lucky draw.
"""

import itertools
import math
import time
from fractions import Fraction as F

import numpy as np

import pitman_lab as pl

RHO_GRID = [F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]
SIGMA_GRID = [F(0), F(1)]
FS3 = pl.FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2))))


def _initial_laws(params):
    q = params.q
    theta = F(1, 2) if q <= 1 else 1 / (2 * q)
    return [pl.PointMass(n) for n in range(5)] + [FS3, pl.QNegativeBinomial(q, theta)]


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1: the representation identity, exact on the full grid -------------------


def test_criterion_1_representation_identity_exact():
    t0 = time.time()
    worst = F(0)
    cells = 0
    for rho, sigma in itertools.product(RHO_GRID, SIGMA_GRID):
        params = pl.Params(rho, sigma)
        for law in _initial_laws(params):
            for part in ("I", "II"):
                rep = pl.verify_thm1(6, law, params, part)
                cells += 1
                assert rep["exact"], (rho, sigma, law)
                d = pl.parse_rat(rep["max_abs_diff"]["value"])
                worst = max(worst, d)
    elapsed = time.time() - t0
    report(1, worst == 0 and elapsed < 120,
           f"{cells} grid cells (t<=6, both parts, 3 routes), "
           f"max |diff| = {worst} [{elapsed:.1f}s]")


# -- 2: preimage completeness ---------------------------------------------------


def test_criterion_2_preimage_completeness(running_max_identity):
    violations = 0
    paths_checked = 0
    for t in range(8):
        g_max = t  # largest running maximum over horizon t
        buckets = {}
        for s in pl.enumerate_paths(t):
            for g in range(g_max + 1):
                buckets.setdefault(pl.apply_T(g, s), set()).add((g, s))
        for x in pl.enumerate_paths(t):
            paths_checked += 1
            predicted = set(pl.preimage(x).members(g_max))
            if predicted != buckets.get(x, set()):
                violations += 1
            k0 = pl.stats(x).K0
            for r in range(k0, x.end + 1):
                member = pl.preimage_member(x, r)
                direct = pl.stats(member)
                if pl.preimage_stats(x, r) != (direct.U, direct.D, direct.H):
                    violations += 1
                if not running_max_identity(x, r):
                    violations += 1
                if pl.apply_T(-k0, member) != x:
                    violations += 1
    report(2, violations == 0,
           f"{paths_checked} paths through t=7, brute-force inverse images, "
           f"member statistics and the running-max identity: {violations} violations")


# -- 3: the walk-reproducing level law, both directions -------------------------


def _perturbed_level_laws(q):
    """20 deterministic level laws, all differing from geo(q) somewhere a
    horizon-4 table can see (the table reads pmf(0..3) and tails up to 4)."""
    laws = []
    geo = pl.LevelLaw.geometric(q)
    for i in range(4):  # move a third of one atom's mass one level up
        masses = {n: geo.pmf(n) for n in range(40)}
        delta = masses[i] / 3
        masses[i] -= delta
        masses[i + 1] += delta
        masses[39] += 1 - sum(masses.values())
        laws.append(pl.LevelLaw.from_pmf(masses))
    laws += [pl.LevelLaw.geometric(p) for p in (F(1, 7), F(1, 3), F(3, 5), q / 2, (1 + q) / 2)]
    laws += [pl.LevelLaw.point(n) for n in range(4)]
    laws += [
        pl.LevelLaw.from_pmf({n: F(1, k + 1) for n in range(k + 1)})
        for k in range(2, 9)
    ]
    return laws[:20]


def test_criterion_3_walk_law_characterization():
    matches, witnesses = 0, 0
    for rho in (F(1, 2), F(2, 3)):
        for sigma in SIGMA_GRID:
            params = pl.Params(rho, sigma)
            rep = pl.walk_match_report(pl.LevelLaw.geometric(params.q), params, 6)
            matches += rep["status"] == "MATCH"
    params = pl.Params(F(1, 2), F(0))
    perturbed = _perturbed_level_laws(params.q)
    assert len(perturbed) == 20
    for glaw in perturbed:
        rep = pl.walk_match_report(glaw, params, 4)
        witnesses += rep["status"] == "DIFFER" and rep["witness"] is not None
    report(3, matches == 4 and witnesses == 20,
           f"geometric level law reproduces the walk exactly on {matches}/4 "
           f"parameter cells (t<=6); {witnesses}/20 perturbed laws produced a witness by t=4")


# -- 4: conditioning identity ----------------------------------------------------


def test_criterion_4_conditioning_identity():
    worst = F(0)
    cells = 0
    for part, rhos in (("I", [F(1, 2), F(2, 3)]), ("II", [F(3, 2), F(2)])):
        for rho, sigma in itertools.product(rhos, SIGMA_GRID):
            params = pl.Params(rho, sigma)
            q_eff = params.q if part == "I" else 1 / params.q
            laws = [pl.PointMass(n) for n in range(4)]
            laws.append(pl.QNegativeBinomial(params.q, F(1, 2) if params.q <= 1 else 1 / (2 * params.q)))
            for law in laws:
                vlaw = pl.v_law_from_initial(law, params, part)
                for t in range(1, 6):
                    cond = pl.conditioned_walk_law(t, vlaw, params, part)
                    chain = pl.chain_increment_law(t, law, params)
                    d, _ = cond.max_abs_diff(chain)
                    worst = max(worst, d)
                    cells += 1

    params = pl.Params(F(1, 2), F(0))
    law = pl.PointMass(1)
    vlaw = pl.v_law_from_initial(law, params, "I")
    res = pl.rejection_oracle(3, vlaw, params, "I", horizon_pad=200,
                              n_samples=200000, rng=pl.RngStream(11))
    exact = pl.chain_increment_law(3, law, params)
    mc_ok = True
    worst_mc = 0.0
    for path, p in exact.entries.items():
        p = float(p)
        se = math.sqrt(p * (1 - p) / res["accepted"])
        gap = abs(res["table"][path] - p)
        worst_mc = max(worst_mc, gap - 4.5 * se)
        mc_ok &= gap <= 4.5 * se + res["truncation_bound"] + 1e-12
    report(4, worst == 0 and mc_ok,
           f"conditioned law == chain law on {cells} cells with |diff| = {worst}; "
           f"rejection oracle (T=t+200, {res['accepted']} accepted) within "
           f"4.5 sigma + {res['truncation_bound']:.2e}")


# -- 5: the two-sided identity ----------------------------------------------------


def test_criterion_5_two_sided_identity():
    settings = []
    rho, rho0 = F(3, 2), F(1, 2)
    for sigma in SIGMA_GRID:
        settings.append((pl.QNegativeBinomial(rho**2, rho0 / rho), pl.Params(rho, sigma)))
        settings.append((pl.NegativeBinomial(F(1, 2)), pl.Params(F(1), sigma)))
        settings.append((pl.PointMass(2), pl.Params(F(2, 3), sigma)))
    worst = F(0)
    for law, params in settings:
        rep = pl.verify_two_sided(5, law, params)
        worst = max(worst, pl.parse_rat(rep["max_abs_diff"]["value"]))
    report(5, worst == 0,
           f"plain and sign-flipped representations agree exactly on "
           f"{len(settings)} settings (t<=5), max |diff| = {worst}")


# -- 6: max-plus operator identities ------------------------------------------------


def test_criterion_6_tropical_identities():
    violations = 0
    for t in range(8):
        vals = np.array([p.values for p in pl.enumerate_paths(t)], dtype=np.int64)
        vals = vals.reshape(-1, t + 1)
        for g1 in range(t + 2):
            for g2 in range(t + 2):
                rep = pl.tropical_identities_batch(vals, g1, g2)
                violations += sum(v for k, v in rep.items() if k != "ok")
    rng = pl.RngStream(2024).generator()
    n_random = 10000
    for _ in range(20):
        steps = rng.integers(-1, 2, size=(n_random // 20, 50))
        vals = np.concatenate(
            [np.zeros((n_random // 20, 1), dtype=np.int64), np.cumsum(steps, axis=1)],
            axis=1,
        )
        g1, g2 = (int(g) for g in rng.integers(0, 11, size=2))
        rep = pl.tropical_identities_batch(vals, g1, g2)
        violations += sum(v for k, v in rep.items() if k != "ok")
    report(6, violations == 0,
           f"exhaustive t<=7 plus {n_random} random paths at t=50: "
           f"{violations} violations")


# -- 7: Poisson example and damage factorization --------------------------------------


def test_criterion_7_poisson_and_damage():
    psn = pl.poisson_split_check(mmax=20, trunc_n=200)
    dmg = [pl.damage_check(q, th, nmax=60)
           for q, th in ((F(1, 4), F(1, 2)), (F(1), F(1, 2)), (F(4), F(1, 5)))]
    ok = psn["status"] == "PASS" and all(d["status"] == "PASS" for d in dmg)
    report(7, ok,
           f"shifted-Poisson level law error {psn['sup_level_law_error']:.2e} "
           f"(<= 1e-12, m<=20, truncation 200); damage factorization exact on "
           f"n<=60 for 3 parameter pairs")


# -- 8: continuity of the level law under scaling ---------------------------------------


def test_criterion_8_continuity():
    t0 = time.time()
    grid = [x / 10 for x in range(1, 31)]
    sups = {}
    sups["trunc-exp"] = pl.continuity_check(10**4, F(1, 2), "point", grid)["sup_distance"]
    sups["uniform"] = pl.continuity_check(10**4, F(0), "point", grid)["sup_distance"]
    sups["escape"] = pl.continuity_check(10**4, F(1, 2), "power", grid)["sup_distance"]
    sups["corollary"] = pl.continuity_check(
        10**4, F(-3, 10), "corollary", grid, u=F(1)
    )["sup_distance"]
    elapsed = time.time() - t0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in sups.items())
    report(8, max(sups.values()) <= 0.02 and elapsed < 60,
           f"sup CDF distance at N=1e4: {detail} (tol 0.02) [{elapsed:.1f}s]")


# -- 9: kernel limit ----------------------------------------------------------------------


def test_criterion_9_kernel_limit():
    errs = {100: [], 10**4: []}
    worst = 0.0
    for v in (0.0, 0.5):
        for x, y in itertools.product((0.5, 1.0, 2.0), repeat=2):
            for N in (100, 10**4):
                e = pl.kernel_limit_check(N, 1.0, x, y, v)["rel_error"]
                errs[N].append(e)
                if N == 10**4:
                    worst = max(worst, e)
    mean4, mean2 = np.mean(errs[10**4]), np.mean(errs[100])
    report(9, worst <= 0.05 and mean4 < mean2,
           f"max rel error {worst:.4f} at N=1e4 (tol 0.05); "
           f"mean error {mean4:.4f} @1e4 < {mean2:.4f} @1e2")


# -- 10: Donsker marginal and drift-flip invariance --------------------------------------


def test_criterion_10_donsker_marginal():
    t0 = time.time()
    N, n, steps, sn = 2500, 20000, 4096, 50
    sigma = F(2)
    crit = pl.ks_two_sample_critical(n, n, 0.01)

    # chain from level floor(sqrt(N)) vs the Brownian functional with the
    # truncated-exponential level of the unit point measure
    v = F(2, 5)
    params = pl.Params(1 - v / sn, sigma)
    seed = pl.RngStream(0)
    chains = pl.sample_chain(N, pl.PointMass(sn), params, seed.child(1), n=n)
    k_chain = (chains[:, -1] - chains[:, 0]).astype(np.int64)
    gamma = pl.LimitLevelLaw(float(v), pl.MuMeasure.point(1.0))
    lim = pl.limit_process_sample(float(v), gamma, [1.0], steps, seed.child(2),
                                  n=n, sigma=float(sigma))[:, 0]
    # compare at the chain's lattice resolution (integer-valued, so the
    # nearest-point rounding is the local-CLT continuity correction)
    stat_a = pl.ks_distance(k_chain, np.round(lim * sn).astype(np.int64))

    # drift-flip invariance of the limit law, exercised through the
    # two-exponential catalog measure at v and -v
    u, vf = 1.0, -0.3
    mu = pl.MuMeasure.hypoexponential(u + vf, u - vf)
    s2 = pl.RngStream(103)
    a = pl.limit_process_sample(vf, pl.LimitLevelLaw(vf, mu), [1.0], steps,
                                s2.child(1), n=n, sigma=float(sigma))[:, 0]
    b = pl.limit_process_sample(-vf, pl.LimitLevelLaw(-vf, mu), [1.0], steps,
                                s2.child(2), n=n, sigma=float(sigma))[:, 0]
    stat_b = pl.ks_distance(a, b)
    elapsed = time.time() - t0
    report(10, stat_a < crit and stat_b < crit and elapsed < 300,
           f"chain (N=2500) vs limit marginal KS = {stat_a:.4f}, "
           f"v-flip KS = {stat_b:.4f} (1% critical {crit:.4f}) [{elapsed:.0f}s]")
