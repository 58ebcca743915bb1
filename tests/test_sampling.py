import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats as sps

from pitman_lab import (
    Geometric,
    LevelLaw,
    LimitLevelLaw,
    MuMeasure,
    Params,
    PointMass,
    QNegativeBinomial,
    RngStream,
    chain_increment_law,
    chain_transition,
    ks_distance,
    ks_two_sample_critical,
    limit_process_sample,
    sample_chain,
    sample_walk,
    step_pmf,
    walk_law,
)
from pitman_lab import sampling
from pitman_lab.sampling import block_rows


def gof_pvalue(samples_rows, table, n):
    """Chi-square against an exact table, merging thin bins."""
    emp = {}
    for row in samples_rows:
        key = tuple(row.tolist())
        emp[key] = emp.get(key, 0) + 1
    obs, exp = [], []
    for path, p in table.entries.items():
        p = float(p)
        if p * n >= 5:
            obs.append(emp.get(path.steps, 0))
            exp.append(p * n)
    obs.append(n - sum(obs))
    exp.append(n - sum(exp))
    if exp[-1] < 1e-9:
        obs, exp = obs[:-1], exp[:-1]
    return sps.chisquare(obs, exp).pvalue


class TestReproducibility:
    def test_same_key_same_draws(self):
        a = sample_walk(50, Params(F(2, 3), F(1)), RngStream(5, 2), n=20)
        b = sample_walk(50, Params(F(2, 3), F(1)), RngStream(5, 2), n=20)
        assert (a == b).all()

    def test_a_seed_alone_is_its_stream_zero(self):
        # `sample --seed 7` draws from RngStream(7): stream 0 of seed 7
        assert RngStream(7) == RngStream(7, 0)
        a = sample_chain(9, PointMass(2), Params(F(2, 3), F(1)), RngStream(7), n=5)
        b = sample_chain(9, PointMass(2), Params(F(2, 3), F(1)), RngStream(7, 0), n=5)
        assert a.tobytes() == b.tobytes()

    def test_different_streams_differ(self):
        a = sample_walk(50, Params(F(1)), RngStream(5, 0), n=20)
        b = sample_walk(50, Params(F(1)), RngStream(5, 1), n=20)
        assert (a != b).any()

    def test_stream_cross_correlation(self):
        n = 100000
        a = RngStream(5, 0).generator().random(n)
        b = RngStream(5, 1).generator().random(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4 / np.sqrt(n)


@pytest.mark.parametrize("t,samples", [(0, 10**7), (9, 10**6), (10**7 - 1, 1)])
def test_check_path_levels_allows_the_cap(t, samples):
    assert (t + 1) * samples == sampling.PATH_CAP
    sampling.check_path_levels(t, samples)


@pytest.mark.parametrize("t,samples,flag", [(0, 10**7 + 1, "--t"), (9, 10**6 + 1, "--t"),
                                            (50, 10**9, "--t-random")])
def test_check_path_levels_refuses_past_the_cap(t, samples, flag):
    with pytest.raises(ValueError, match=rf"^{flag} {t} with --samples {samples} asks for "
                                         rf"{(t + 1) * samples} path levels, more than the "
                                         rf"10000000 allowed; lower {flag} or --samples$"):
        sampling.check_path_levels(t, samples, flag)


class TestSamplers:
    def test_walk_gof(self):
        params = Params(F(2, 3), F(1))
        n = 100000
        walks = sample_walk(4, params, RngStream(1), n=n)
        assert gof_pvalue(np.diff(walks, axis=1), walk_law(4, params), n) > 0.01

    def test_walk_symmetric_mean(self):
        walks = sample_walk(30, Params(F(1)), RngStream(2), n=50000)
        end = walks[:, -1]
        assert abs(end.mean()) < 3 * end.std() / np.sqrt(len(end))

    def test_chain_gof(self):
        params = Params(F(2, 3), F(1))
        law = PointMass(1)
        n = 100000
        chains = sample_chain(3, law, params, RngStream(3), n=n)
        incs = np.diff(chains, axis=1)
        assert gof_pvalue(incs, chain_increment_law(3, law, params), n) > 0.01

    def test_chain_stays_nonnegative(self):
        chains = sample_chain(200, PointMass(0), Params(F(1)), RngStream(4), n=2000)
        assert chains.min() == 0

    def test_chain_qnb_start_gof(self):
        params = Params(F(3, 2))
        law = QNegativeBinomial(params.q, F(1, 3))
        starts = sample_chain(0, law, params, RngStream(6), n=200000)[:, 0]
        counts = np.bincount(starts, minlength=30)
        obs, exp = [], []
        for k in range(30):
            e = float(law.pmf(k)) * 200000
            if e >= 5:
                obs.append(counts[k])
                exp.append(e)
        obs.append(200000 - sum(obs))
        exp.append(200000 - sum(exp))
        assert sps.chisquare(obs, exp).pvalue > 0.01

    def test_sample_level_geometric(self):
        draws = LevelLaw.geometric(F(1, 3)).sample(RngStream(7).generator(), 100000)
        for k in range(5):
            p = (2 / 3) * (1 / 3) ** k
            assert abs((draws == k).mean() - p) < 4.5 * np.sqrt(p * (1 - p) / 100000)

    def test_sample_level_finite(self):
        lvl = LevelLaw.from_pmf({0: F(1, 4), 2: F(3, 4)})
        draws = lvl.sample(RngStream(8).generator(), 50000)
        assert set(np.unique(draws)) == {0, 2}
        assert abs((draws == 2).mean() - 0.75) < 0.01


    @pytest.mark.parametrize("law", [LevelLaw.point(3), LevelLaw.geometric(F(1, 3)),
                                     LevelLaw.from_pmf({0: F(1, 4), 2: F(3, 4)}),
                                     LevelLaw.from_pmf({1: F(1, 6), 3: F(1, 3), 4: F(1, 2)})],
                             ids=repr)
    def test_level_draws_keep_their_seeded_values(self, law):
        # the draws of the level sampler these laws replaced: one inverse-CDF
        # lookup over the pmf from level 0 (geometric: numpy's geometric)
        gen = RngStream(12).generator()
        if isinstance(law, Geometric):
            want = gen.geometric(float(1 - law.p), 5000) - 1
        else:
            top = law.support_max()
            cum = np.cumsum([float(law.pmf(n)) for n in range(top + 1)])
            want = np.searchsorted(cum, gen.random(5000), side="right").clip(0, top)
        assert np.array_equal(law.sample(RngStream(12).generator(), 5000), want)


def _reference_chain(t, law, params, rng, n, expect_ties=False, expect_exact_tie=False):
    """The per-step kernel: three expm1 calls per step on the chains' levels,
    and each step's uniform U = (H + L)/2^16 compared with up and up + dn.

    H is the step's 16-bit digit, cut from the 64-bit words of the stream
    by shifts, low bits first; L is drawn from the continuation stream only
    when some threshold p has p 2^16 in [H, H + 1), and then U < p is
    decided in exact rationals.  The table-driven sampler must draw the same
    paths from the same stream.  ``expect_ties`` asserts that some step drew
    an L, ``expect_exact_tie`` that some L met a threshold with p 2^16 = H."""
    gen = rng.generator()
    z, rho, sigma = float(params.z), float(params.rho), float(params.sigma)
    lnq = 2.0 * math.log(rho)
    c_up, c_dn = 1.0 / (rho * z), rho / z
    out = np.empty((n, t + 1), dtype=np.int64)
    k = law.sample(gen, n).astype(np.float64)
    out[:, 0] = k
    continuation = np.random.Generator(np.random.Philox(key=gen.bit_generator.random_raw(2)))
    words = gen.bit_generator.random_raw(-(-t * n // 4))
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    digits = ((words[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)[:t * n]
    digits = digits.reshape(t, n).astype(np.int64)
    ties = exact_ties = 0
    for j in range(1, t + 1):
        if lnq == 0.0:
            up = c_up * (k + 2) / (k + 1)
            dn = c_dn * k / (k + 1)
        else:
            denom = np.expm1((k + 1) * lnq)
            up = c_up * np.expm1((k + 2) * lnq) / denom
            dn = c_dn * np.expm1(k * lnq) / denom
        h = digits[j - 1]
        thresholds = [up] if sigma == 0.0 else [up, up + dn]
        below = [h + 1 <= p * 2**16 for p in thresholds]  # all of [H, H + 1) below p
        straddle = [(h <= p * 2**16) & (p * 2**16 < h + 1) for p in thresholds]
        tied = np.flatnonzero(np.logical_or.reduce(straddle))
        for i, low in zip(tied, continuation.random(len(tied))):
            u = (int(h[i]) + F(float(low))) / 2**16
            for p, b, s in zip(thresholds, below, straddle):
                if s[i]:
                    b[i] = u < F(float(p[i]))
                    exact_ties += F(float(p[i])) * 2**16 == int(h[i])
        ties += len(tied)
        if sigma == 0.0:
            k = k + np.where(below[0], 1, -1)
        else:
            k = k + np.where(below[0], 1, np.where(below[1], -1, 0))
        out[:, j] = k
    assert ties or not expect_ties, "no step drew a continuation uniform"
    assert exact_ties or not expect_exact_tie, "no tie met a threshold on a digit"
    return out


class TestChainKernelTable:
    @pytest.mark.parametrize("law", [PointMass(3), Geometric(F(1, 2)),
                                     QNegativeBinomial(F(4, 9), F(1, 2))], ids=repr)
    @pytest.mark.parametrize("rho,sigma", [(F(2, 3), F(1)), (F(1), F(1)), (F(3, 2), F(0))],
                             ids=["rho<1", "rho=1", "rho>1,sigma=0"])
    def test_same_draws_as_the_per_step_kernel(self, law, rho, sigma):
        params = Params(rho, sigma)
        got = sample_chain(80, law, params, RngStream(6), n=700)
        want = _reference_chain(80, law, params, RngStream(6), n=700)
        # starts <= 10 and 80 steps: every level fits int8, the narrowest type
        assert got.shape == want.shape and got.dtype == np.int8
        assert (got == want).all()

    @pytest.mark.parametrize("law,rho,sigma,t,n", [
        # up = 3/4 at level 1 and 5/8 at level 3: dyadic, so their ties
        # resolve on a remainder of 0
        (PointMass(1), F(1), F(0), 4, 250000),
        (Geometric(F(1, 2)), F(2, 3), F(1), 1000, 1000),
    ], ids=["rho=1,sigma=0", "rho<1"])
    def test_digit_ties_draw_the_reference_chain(self, law, rho, sigma, t, n):
        # 10^6 steps, each tying a threshold with probability 2^-16 per
        # comparison: about 15 (sigma = 0) or 30 ties to resolve
        params = Params(rho, sigma)
        got = sample_chain(t, law, params, RngStream(11), n=n)
        want = _reference_chain(t, law, params, RngStream(11), n=n, expect_ties=True,
                                expect_exact_tie=sigma == 0)
        assert (got == want).all()

    def test_a_generator_draws_as_its_stream(self):
        # the continuation key comes from the stream itself, so a Generator
        # passed in draws what its RngStream draws, ties included
        params = Params(F(2, 3), F(1))
        want = sample_chain(1000, Geometric(F(1, 2)), params, RngStream(11), n=1000)
        got = sample_chain(1000, Geometric(F(1, 2)), params, RngStream(11).generator(), n=1000)
        assert (got == want).all()

    def test_far_apart_starts_get_their_own_blocks(self):
        # starts 0 and 10^9: the table covers two windows of 2t+1 levels,
        # not the 10^9 levels between them
        law = LevelLaw.from_pmf({0: F(1, 2), 10**9: F(1, 2)})
        params = Params(F(1), F(1))
        got = sample_chain(30, law, params, RngStream(2), n=400)
        assert set(got[:, 0].tolist()) == {0, 10**9}
        assert (got == _reference_chain(30, law, params, RngStream(2), n=400)).all()

    def test_no_chains(self):
        assert sample_chain(5, PointMass(1), Params(F(1, 2)), RngStream(0), n=0).shape == (0, 6)

    @pytest.mark.parametrize("sigma", [F(1), F(0)])
    def test_high_levels_at_rho_above_one(self, sigma):
        # expm1((k+2) ln q) overflows near level 873 at rho = 3/2; the first
        # step from level 1000 must still follow the exact kernel
        params, n = Params(F(3, 2), sigma), 40000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = sample_chain(1, PointMass(1000), params, RngStream(4), n=n)
        steps = paths[:, 1] - paths[:, 0]
        for delta in (-1, 0, 1):
            p = float(chain_transition(1000, delta, params))
            assert abs((steps == delta).mean() - p) <= 4.5 * math.sqrt(p * (1 - p) / n)


class TestChainStepLaw:
    @pytest.mark.parametrize("level", range(4))
    @pytest.mark.parametrize("rho", [F(2, 3), F(1), F(3, 2)], ids=["rho<1", "rho=1", "rho>1"])
    def test_step_frequencies_follow_the_kernel(self, rho, level):
        # the exact kernel, not a second reading of the digits: a digit
        # mapping error the reference chain shares shows here
        params, n = Params(rho, F(1)), 40000
        paths = sample_chain(1, PointMass(level), params, RngStream(13), n=n)
        steps = paths[:, 1] - paths[:, 0]
        for delta in (-1, 0, 1):
            p = float(chain_transition(level, delta, params))
            assert abs((steps == delta).mean() - p) <= 4.5 * math.sqrt(p * (1 - p) / n)


class TestMoveThreshold:
    @pytest.mark.parametrize("sigma", [F(0), F(1), F(2)])
    @pytest.mark.parametrize("rho", [F(2, 3), F(1), F(3, 2)], ids=["rho<1", "rho=1", "rho>1"])
    def test_up_plus_down_is_one_minus_hold_at_every_level(self, rho, sigma):
        # (1/rho)[k+2]_q + rho[k]_q = (rho + 1/rho)[k+1]_q: the move
        # probability does not depend on the level, so the sampler reads
        # one move threshold for every chain
        params = Params(rho, sigma)
        move = 1 - params.sigma / params.z
        for k in range(65):
            assert chain_transition(k, 1, params) + chain_transition(k, -1, params) == move

    def test_level_zero_follows_the_exact_move_threshold(self):
        # the Donsker check's parameters: the expm1 value of up(0) rounds
        # below 1 - sigma/z, so a level-0 threshold read from it would leave
        # a sliver [up(0), 1 - sigma/z) where a chain at 0 steps down
        params = Params(1 - F(2, 5) / 50, F(2))
        z, rho = float(params.z), float(params.rho)
        lnq = 2.0 * math.log(rho)
        up0 = 1.0 / (rho * z) * math.expm1(2 * lnq) / math.expm1(lnq)  # as the table
        assert up0 != float(1 - params.sigma / params.z)
        n = 200000
        paths = sample_chain(1, PointMass(0), params, RngStream(14), n=n)
        assert paths.min() == 0
        steps = paths[:, 1] - paths[:, 0]
        for delta in (-1, 0, 1):
            p = float(chain_transition(0, delta, params))
            assert abs((steps == delta).mean() - p) <= 4.5 * math.sqrt(p * (1 - p) / n)
        assert sample_chain(400, PointMass(0), params, RngStream(15), n=5000).min() == 0

    @pytest.mark.parametrize("shift", [2**15, -2**15], ids=["lifted", "lowered"])
    def test_up_table_off_the_move_threshold_keeps_steps_in_range(self, monkeypatch, shift):
        # a float up(k) rounded past 1 - sigma/z (possible where dn(k) is
        # below its ulp, as at rho = 10^-9, sigma = 5) must not make a +2
        # step, and a float up(0) rounded below it (as above) must not step
        # down from 0: shift every digit of the up table by 2^15 either way
        split = sampling._digit_split
        monkeypatch.setattr(sampling, "_digit_split", lambda p: (split(p)[0] + shift, split(p)[1]))
        paths = sample_chain(50, PointMass(0), Params(F(1), F(1)), RngStream(16), n=2000)
        assert paths.min() == 0
        assert set(np.unique(np.diff(paths, axis=1)).tolist()) <= {-1, 0, 1}


class TestChainRing:
    @pytest.mark.parametrize("law", [PointMass(50), Geometric(F(1, 2)),
                                     LevelLaw.from_pmf({0: F(1, 2), 10**9: F(1, 2)})],
                             ids=repr)
    @pytest.mark.parametrize("t", [0, 1, 2, 151])
    def test_two_row_ring_ends_where_the_paths_end(self, law, t):
        # the Donsker check keeps the starts and two rows; its draws are the
        # path array's, chain bases added (far-apart starts) or not
        params = Params(1 - F(2, 5) / 50, F(2))
        paths = sample_chain(t, law, params, RngStream(8), n=900)
        start, ring = sampling._chain_rows(t, law, params, RngStream(8), 900, 2)
        assert ring.shape == (min(2, t + 1), 900) and ring.dtype == paths.dtype
        assert (start == paths[:, 0]).all() and (ring[t % 2] == paths[:, -1]).all()


class TestLevelDtype:
    T = 30

    @pytest.mark.parametrize("law,dtype", [
        (PointMass(127 - T), np.int8),
        (PointMass(128 - T), np.int16),
        (PointMass(32767 - T), np.int16),
        (PointMass(32768 - T), np.int32),
        (LevelLaw.from_pmf({0: F(1, 2), 10**9: F(1, 2)}), np.int32),
        (PointMass(2**31 - 1), np.int64),
    ], ids=repr)
    def test_narrowest_type_holding_the_top_level(self, law, dtype):
        # no level can exceed max(start) + t, whatever the steps
        params = Params(F(1), F(1))
        got = sample_chain(self.T, law, params, RngStream(2), n=400)
        want = _reference_chain(self.T, law, params, RngStream(2), n=400)
        assert got.dtype == dtype and (got == want).all()
        # a signed type holding max(start) + t holds the difference of two levels
        assert (got[:, -1] - got[:, 0] == want[:, -1] - want[:, 0]).all()

    # t = 700 draws block_rows(700) = 187 walks at a time: 300 walks cross a block edge
    @pytest.mark.parametrize("t,dtype", [(0, np.int8), (127, np.int8), (128, np.int16),
                                         (700, np.int16)])
    def test_walk_values_are_their_int64_cumsum(self, t, dtype):
        params = Params(F(2, 3), F(1))
        got = sample_walk(t, params, RngStream(3), n=300)
        pm = step_pmf(params)
        u = RngStream(3).generator().random((300, t))
        steps = np.where(u < float(pm[1]), 1, np.where(u < float(pm[1] + pm[0]), 0, -1))
        want = np.concatenate([np.zeros((300, 1), np.int64), np.cumsum(steps, axis=1)], axis=1)
        assert got.dtype == dtype and (got == want).all()
        assert (got[:, -1] - got[:, 0] == want[:, -1] - want[:, 0]).all()

    def test_walk_draw_peaks_at_its_path_array(self):
        # uniforms come block_rows(t) walks at a time, not all n * t at once
        tracemalloc.start()
        try:
            out = sample_walk(120, Params(F(1, 2)), RngStream(3), n=200000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4 * 2**20

    def test_no_chains_take_the_horizon_type(self):
        assert sample_chain(200, PointMass(1), Params(F(1)), RngStream(0), n=0).dtype == np.int16

    def test_donsker_call_peaks_at_its_path_array(self):
        # a Donsker-size chain call: levels <= 550 take two bytes each, and
        # the working buffers beside the paths stay within 4 MiB
        t, n = 500, 20000
        tracemalloc.start()
        try:
            out = sample_chain(t, PointMass(50), Params(1 - F(2, 5) / 50, F(2)),
                               RngStream(1), n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 2 * n * (t + 1)
        assert peak <= out.nbytes + 4 * 2**20


class TestChainBlocks:
    BLOCK = block_rows(700)

    @pytest.mark.parametrize("n", [0, 1, 700])
    @pytest.mark.parametrize("t", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    def test_block_edges_draw_the_reference_chain(self, t, n):
        params = Params(F(2, 3), F(1))
        got = sample_chain(t, Geometric(F(1, 2)), params, RngStream(9), n=n)
        want = _reference_chain(t, Geometric(F(1, 2)), params, RngStream(9), n=n)
        assert got.shape == want.shape == (n, t + 1) and (got == want).all()

    @pytest.mark.parametrize("n", [1, 5, 700])
    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch, n, rows):
        params = Params(F(1), F(1))
        want = sample_chain(40, PointMass(2), params, RngStream(4), n=n)
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", 8 * n * rows)
        assert block_rows(n) == rows
        assert (sample_chain(40, PointMass(2), params, RngStream(4), n=n) == want).all()


class TestKsDistance:
    def test_identical_samples(self):
        x = np.linspace(0, 1, 500)
        assert ks_distance(x, x) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance(np.zeros(200), np.ones(200)) == 1.0

    def test_uniform_against_cdf(self):
        u = RngStream(9).generator().random(100000)
        assert ks_distance(u, cdf=lambda x: min(max(x, 0.0), 1.0)) < 0.01

    def test_array_cdf_gives_the_per_point_statistic(self):
        lll = LimitLevelLaw(-0.3, MuMeasure.hypoexponential(0.7, 1.3))
        draws = lll.sample(RngStream(8), 500)
        per_point = lambda x: float(lll.cdf(x))  # float() refuses an array
        want = ks_distance(draws, cdf=per_point)
        assert ks_distance(draws, cdf=lll.cdf) == want
        # one number for the whole array: ks_distance asks per point instead
        assert ks_distance(draws, cdf=lambda x: 0.5 if np.ndim(x) else per_point(x)) == want

    def test_scalar_cdf_gives_the_per_numpy_scalar_statistic(self):
        def pitman_cdf(r):  # CDF of 2 M_1 - B_1; `r <= 0` refuses an array
            if r <= 0:
                return 0.0
            return math.erf(r / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * r * math.exp(-r * r / 2.0)

        gamma = LimitLevelLaw(0.0, MuMeasure.point(0.0))
        x = limit_process_sample(0.0, gamma, [1.0], 400, RngStream(5), n=4000)[:, 0]
        a = np.sort(x)
        f = np.array([pitman_cdf(v) for v in a])  # np.float64 arguments, one per point
        n = len(a)
        want = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
        assert ks_distance(x, cdf=pitman_cdf) == want

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            ks_distance(np.zeros(50), np.ones(200))
        with pytest.raises(ValueError):
            ks_distance(np.zeros(200), np.ones(50))
        with pytest.raises(ValueError):
            ks_distance(np.zeros(200))

    def test_critical_value(self):
        # 1.63 / sqrt(n) shape at 1%
        assert ks_two_sample_critical(10**5, 10**5, 0.01) == pytest.approx(
            1.6276 * np.sqrt(2 / 10**5), rel=1e-3
        )
