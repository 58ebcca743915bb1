from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats as sps

from pitman_lab import (
    Geometric,
    LevelLaw,
    Params,
    PointMass,
    QNegativeBinomial,
    RngStream,
    chain_increment_law,
    empirical_table,
    ks_distance,
    ks_two_sample_critical,
    sample_chain,
    sample_walk,
    walk_law,
)


def gof_pvalue(samples_rows, table, n):
    """Chi-square against an exact table, merging thin bins."""
    emp = {}
    for row in samples_rows:
        key = tuple(row.tolist())
        emp[key] = emp.get(key, 0) + 1
    obs, exp = [], []
    for path, p in table.as_float().items():
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


class TestKsDistance:
    def test_identical_samples(self):
        x = np.linspace(0, 1, 500)
        assert ks_distance(x, x) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance(np.zeros(200), np.ones(200)) == 1.0

    def test_uniform_against_cdf(self):
        u = RngStream(9).generator().random(100000)
        assert ks_distance(u, cdf=lambda x: min(max(x, 0.0), 1.0)) < 0.01

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


def test_empirical_table():
    rows = np.array([[1, 0], [1, 0], [0, -1], [1, 1]])
    table = empirical_table(rows)
    assert table[(1, 0)] == 0.5 and table[(0, -1)] == 0.25
