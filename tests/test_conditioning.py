import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from pitman_lab import (
    DistTable,
    FiniteSupport,
    LevelLaw,
    Params,
    Path,
    PointMass,
    QNegativeBinomial,
    RegimeError,
    RngStream,
    chain_increment_law,
    conditioned_walk_law,
    rejection_oracle,
    sample_walk,
    step_pmf,
    survival_prob,
    v_law_from_initial,
    verify_thm2,
)
from pitman_lab.conditioning import _REJECTION_CHUNK
from pitman_lab.sampling import block_rows


class TestSurvivalProb:
    def test_closed_form_values(self):
        assert survival_prob(0, Params(F(1, 2))) == F(3, 4)
        assert survival_prob(1, Params(F(2, 3))) == F(65, 81)

    def test_monotone_to_one(self):
        params = Params(F(1, 2), F(1))
        vals = [survival_prob(a, params) for a in range(30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert 1 - vals[-1] < F(1, 10**17)

    def test_gamblers_ruin_oracle(self):
        # P(ever dip below the start) for one barrier equals rho^2: simulate
        params = Params(F(1, 2))
        walks = sample_walk(120, params, RngStream(3), n=200000)
        dip = (walks.min(axis=1) < 0).mean()
        assert abs(dip - 0.25) < 4 * np.sqrt(0.25 * 0.75 / 200000) + 1e-9

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            survival_prob(0, Params(F(1)))
        with pytest.raises(RegimeError):
            survival_prob(0, Params(F(3, 2)))


class TestVLaw:
    def test_point_mass_is_degenerate(self):
        vlaw = v_law_from_initial(PointMass(3), Params(F(1, 2)), "I")
        assert vlaw.pmf(3) == 1

    def test_finite_support_hand_value(self):
        # weights 1/2 and (1/2)/[2]_{1/4} = 2/5 renormalize to 5/9, 4/9
        law = FiniteSupport(((0, F(1, 2)), (1, F(1, 2))))
        vlaw = v_law_from_initial(law, Params(F(1, 2)), "I")
        assert vlaw.pmf(0) == F(5, 9) and vlaw.pmf(1) == F(4, 9)

    def test_qnb_part_two_is_geometric(self):
        rho, rho0 = F(3, 2), F(1, 2)
        params = Params(rho)
        law = QNegativeBinomial(params.q, rho0 / rho)
        vlaw = v_law_from_initial(law, params, "II")
        for k in range(10):
            assert vlaw.pmf(k) == (1 - rho0 * rho) * (rho0 * rho) ** k

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            v_law_from_initial(PointMass(1), Params(F(3, 2)), "I")
        with pytest.raises(RegimeError):
            v_law_from_initial(PointMass(1), Params(F(1)), "II")


class TestConditionedWalkLaw:
    @pytest.mark.parametrize("rho", [F(1, 2), F(2, 3)])
    @pytest.mark.parametrize("sigma", [F(0), F(1)])
    def test_matches_chain_part_one(self, rho, sigma):
        params = Params(rho, sigma)
        for law in (PointMass(0), PointMass(2),
                    QNegativeBinomial(params.q, F(1, 2))):
            vlaw = v_law_from_initial(law, params, "I")
            for t in (1, 3, 4):
                cond = conditioned_walk_law(t, vlaw, params, "I")
                chain = chain_increment_law(t, law, params)
                assert cond.max_abs_diff(chain) == (0, None)
                assert cond.mass() == 1

    def test_matches_chain_part_two(self):
        params = Params(F(3, 2), F(1))
        law = QNegativeBinomial(params.q, F(1, 3))
        vlaw = v_law_from_initial(law, params, "II")
        for t in (1, 2, 4):
            cond = conditioned_walk_law(t, vlaw, params, "II")
            chain = chain_increment_law(t, law, params)
            assert cond.max_abs_diff(chain) == (0, None)

    def test_mismatched_level_gives_witness(self):
        params = Params(F(1, 2))
        cond = conditioned_walk_law(2, LevelLaw.point(0), params, "I")
        chain = chain_increment_law(2, PointMass(1), params)
        diff, witness = cond.max_abs_diff(chain)
        assert diff > 0 and witness is not None

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            conditioned_walk_law(2, LevelLaw.point(0), Params(F(1)), "I")
        with pytest.raises(RegimeError):
            conditioned_walk_law(2, LevelLaw.point(0), Params(F(1, 2)), "II")


def _reference_rejection(t, vlaw, params, horizon_pad, n_samples, rng):
    """The nested-np.where, per-row loop rejection_oracle replaced; the
    vectorized oracle must give the same table (in the same order), the same
    acceptance count and the same truncation bound."""
    gen = rng.generator()
    probs = step_pmf(params)
    p_up, p_flat = float(probs[1]), float(probs[0])
    counts, accepted, dip_mass = {}, 0, 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(50000, remaining)
        remaining -= m
        u = gen.random((m, t + horizon_pad))
        steps = np.where(u < p_up, 1, np.where(u < p_up + p_flat, 0, -1)).astype(np.int32)
        s = np.cumsum(steps, axis=1)
        v = vlaw.sample(gen, m)
        keep = (s.min(axis=1) + v) >= 0
        accepted += int(keep.sum())
        dip_mass += float(np.sum(float(params.rho) ** (2.0 * (s[keep, -1] + v[keep] + 1))))
        for row in s[keep, :t]:
            key = tuple(row.tolist())
            counts[key] = counts.get(key, 0) + 1
    entries = {Path.from_values((0,) + k): c / accepted for k, c in counts.items()}
    return {"table": DistTable(t, "approx", entries), "accepted": accepted,
            "truncation_bound": dip_mass / max(accepted, 1)}


class TestRejectionOracle:
    def test_agrees_with_exact_law(self):
        params = Params(F(1, 2))
        law = PointMass(1)
        vlaw = v_law_from_initial(law, params, "I")
        t = 3
        res = rejection_oracle(t, vlaw, params, "I", horizon_pad=200,
                               n_samples=200000, rng=RngStream(11))
        exact = chain_increment_law(t, law, params)
        assert res["acceptance_rate"] > 0.5
        n_acc = res["accepted"]
        for path, p in exact.entries.items():
            p = float(p)
            se = np.sqrt(p * (1 - p) / n_acc)
            tol = 4.5 * se + res["truncation_bound"] + 1e-12
            assert abs(res["table"][path] - p) <= tol

    @pytest.mark.parametrize("t,rho,sigma,n", [(3, F(1, 2), F(1), 200000),
                                               (4, F(1, 3), F(0), 60001), (0, F(1, 2), F(1), 500),
                                               # below one row block of t + 50 columns
                                               (3, F(2, 3), F(1), block_rows(53) - 1),
                                               (2, F(2, 3), F(1), _REJECTION_CHUNK + 1),
                                               (0, F(1, 3), F(1), 2 * block_rows(50)),
                                               (0, F(1, 2), F(0), _REJECTION_CHUNK + 1)])
    def test_same_table_as_the_per_row_loop(self, t, rho, sigma, n):
        params = Params(rho, sigma)
        vlaw = v_law_from_initial(PointMass(1), params, "I")
        got = rejection_oracle(t, vlaw, params, "I", horizon_pad=50, n_samples=n,
                               rng=RngStream(13))
        want = _reference_rejection(t, vlaw, params, 50, n, RngStream(13))
        assert list(got["table"].entries.items()) == list(want["table"].entries.items())
        assert got["accepted"] == want["accepted"]
        assert got["truncation_bound"] == want["truncation_bound"]

    def test_memory_stays_near_one_row_block(self):
        params = Params(F(1, 2))
        vlaw = v_law_from_initial(PointMass(1), params, "I")
        tracemalloc.start()
        try:
            rejection_oracle(3, vlaw, params, "I", horizon_pad=200, n_samples=200000,
                             rng=RngStream(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_samples": 0}, "n_samples"), ({"n_samples": -5}, "n_samples"),
        ({"horizon_pad": -1}, "horizon_pad"), ({"horizon_pad": -3}, "horizon_pad"),
        ({"t": 0, "horizon_pad": 0}, "horizon_pad"), ({"t": -1}, "t"),
    ])
    def test_refuses_bad_sizes(self, kwargs, name):
        params = Params(F(1, 2))
        args = {"t": 3, "vlaw": LevelLaw.point(1), "params": params, "rng": RngStream(1)}
        args.update(kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            rejection_oracle(**args)

    def test_truncation_bound_is_tiny(self):
        params = Params(F(1, 2))
        vlaw = LevelLaw.point(2)
        res = rejection_oracle(2, vlaw, params, "I", horizon_pad=60,
                               n_samples=20000, rng=RngStream(5))
        assert res["truncation_bound"] < 1e-10


class TestVerifyThm2:
    @pytest.mark.parametrize("law,rho,part", [
        (PointMass(1), F(1, 2), "I"),
        (FiniteSupport(((0, F(1, 3)), (2, F(2, 3)))), F(2, 3), "I"),
        (QNegativeBinomial(F(4), F(1, 8)), F(2), "II"),
    ], ids=repr)
    def test_routes_agree(self, law, rho, part):
        rep = verify_thm2(4, law, Params(rho, F(1)), part)
        assert rep["status"] == "PASS" and rep["max_abs_diff"] == "0/1"
        assert rep["witness"] is None and rep["initial"] == law.cli_string()

    def test_no_horizon_is_an_error(self):
        with pytest.raises(ValueError, match="t=0 compares no table"):
            verify_thm2(0, PointMass(1), Params(F(1, 2)))


def test_rejection_oracle_samples_a_geometric_level_unclipped():
    # qnb at q = rho^2 conditions on V ~ geo(theta): drawn by the law's own
    # sampler, with no level cut off
    params = Params(F(1, 2))
    law = QNegativeBinomial(params.q, F(1, 2))
    vlaw = v_law_from_initial(law, params, "I")
    assert vlaw == LevelLaw.geometric(F(1, 2))
    res = rejection_oracle(2, vlaw, params, "I", horizon_pad=80, n_samples=40000,
                           rng=RngStream(3))
    exact = chain_increment_law(2, law, params)
    for path, p in exact.entries.items():
        p = float(p)
        se = np.sqrt(p * (1 - p) / res["accepted"])
        assert abs(res["table"][path] - p) <= 4.5 * se + res["truncation_bound"] + 1e-12
