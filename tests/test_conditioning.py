import itertools
import time
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
from pitman_lab import conditioning
from pitman_lab.conditioning import _PIECE_STEPS, _REJECTION_CHUNK, _GuideTable, _piece_laws


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
    """The step-by-step oracle: one uniform per step of the whole window,
    nested np.where steps, a per-row tally.  rejection_oracle draws the
    window past the head by pieces, so the two agree in law, not draw for
    draw."""
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


def _enumerated_piece_law(n, params):
    """{(a, e): P} over all 3^n paths: a = -min_{k<=n} S_k, e = S_n, exact."""
    probs = step_pmf(params)
    law = {}
    for incs in itertools.product((-1, 0, 1), repeat=n):
        p, s, low = F(1), 0, 0
        for d in incs:
            p *= probs[d]
            s += d
            low = min(low, s)
        law[(-low, s)] = law.get((-low, s), 0) + p
    return law


class TestPieceLaws:
    @pytest.mark.parametrize("params", [Params(F(1, 2)), Params(F(2, 3), F(1)),
                                        Params(F(3), F(2)).tilde(), Params(F(5, 2)).tilde()],
                             ids=["I-rho=1/2", "I-rho=2/3,sigma=1", "II-rho=3,sigma=2",
                                  "II-rho=5/2"])
    def test_matches_path_enumeration(self, params):
        # every cell is a sum of n-fold products of rounded step probabilities,
        # each step rounding one product and two sums: off by at most
        # gamma_{4n} = 4nu / (1 - 4nu) relative, u = 2^-53; a zero cell is 0.0
        top = 8
        laws = _piece_laws(set(range(top + 1)), step_pmf(params))
        assert sorted(laws) == list(range(top + 1))
        u = F(1, 2**53)
        for n, law in laws.items():
            exact = _enumerated_piece_law(n, params)
            gamma = 4 * n * u / (1 - 4 * n * u)
            for a in range(top + 1):
                for e in range(-top, top + 1):
                    want = exact.get((a, e), 0)
                    got = law[a, top + e]
                    if want == 0:
                        assert got == 0.0, (n, a, e)
                    else:
                        assert abs(F(got) - want) <= gamma * want, (n, a, e)

    @pytest.mark.parametrize("params", [Params(F(1, 2)), Params(F(2, 3), F(1)),
                                        Params(F(1), F(1)), Params(F(3, 2), F(2))],
                             ids=["rho=1/2", "rho=2/3,sigma=1", "rho=1,sigma=1",
                                  "rho=3/2,sigma=2"])
    def test_window_gives_the_full_grid_bit_for_bit(self, params):
        # the full-grid update of every cell at every step, against the
        # update of the reachable window only
        probs = step_pmf(params)
        p_up, p_flat, p_dn = (float(probs[s]) for s in (1, 0, -1))
        top = _PIECE_STEPS
        law = np.zeros((top + 1, 2 * top + 1))
        law[0, top] = 1.0
        low_rows = np.arange(top)
        below_low = top - 1 - low_rows
        want = {}
        for n in range(top + 1):
            if n in (72, top):
                want[n] = law.copy()
            step = law * p_flat
            step[:, 1:] += law[:, :-1] * p_up
            step[:, :-1] += law[:, 1:] * p_dn
            step[low_rows + 1, below_low] += step[low_rows, below_low]
            step[low_rows, below_low] = 0.0
            law = step
        got = _piece_laws({top, 72}, probs)
        assert sorted(got) == [72, top]
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)

    def test_zero_steps_is_the_start(self):
        laws = _piece_laws({0}, step_pmf(Params(F(1, 2), F(1))))
        assert list(laws) == [0] and laws[0].tolist() == [[1.0]]


def _piece_cdf():
    law = _piece_laws({_PIECE_STEPS}, step_pmf(Params(F(1, 2), F(1))))[_PIECE_STEPS]
    return np.cumsum(law[law > 0])[:-1]


class TestGuideTable:
    """The guide table finds the cell np.searchsorted(cdf, u, side="right") does."""

    @staticmethod
    def check(cdf):
        cdf = np.asarray(cdf, dtype=np.float64)
        guide = _GuideTable(cdf)
        edges = np.arange(guide.scale) / guide.scale  # every bucket's lower edge, exactly
        inside = cdf[(cdf >= 0) & (cdf < 1)]
        u = np.concatenate([
            edges, np.nextafter(edges[1:], 0), inside, np.nextafter(inside, 0),
            np.nextafter(inside, 1)[np.nextafter(inside, 1) < 1],
            np.random.default_rng(3).random(20000), [0.0, np.nextafter(1.0, 0)]])
        assert np.array_equal(guide(u), np.searchsorted(cdf, u, side="right"))
        assert guide.scale >= len(cdf)

    @pytest.mark.parametrize("cdf", [[], [0.5], [0.0], [1.0], [0.25, 0.25, 0.25, 0.75],
                                     [0.0, 0.0, 0.5, 1.0, 1.0]], ids=str)
    def test_short_and_repeated_cdfs(self, cdf):
        self.check(cdf)

    def test_thousands_of_cells_inside_one_bucket(self):
        # 5000 cells within 2^-39 above 0.3: all in one bucket
        tiny = 0.3 + np.arange(5000) * 2.0**-52
        self.check(np.concatenate([[0.1], tiny, [0.9]]))

    def test_a_piece_law(self):
        self.check(_piece_cdf())

    def test_most_draws_need_no_search(self):
        cdf = _piece_cdf()
        guide = _GuideTable(cdf)
        u = np.random.default_rng(5).random(100000)
        assert np.mean(guide.guide[(u * guide.scale).astype(np.intp)] < 0) < 0.05


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
                                               (3, F(2, 3), F(1), 2472),
                                               (2, F(2, 3), F(1), _REJECTION_CHUNK + 1),
                                               (0, F(1, 3), F(1), 5242),
                                               (0, F(1, 2), F(0), _REJECTION_CHUNK + 1)])
    def test_same_table_as_the_per_row_loop(self, t, rho, sigma, n):
        # the same table in law, not draw for draw: two independent samples,
        # every cell and the acceptance count within 4.5 combined standard
        # errors; the window is one full piece and a shorter one
        params = Params(rho, sigma)
        vlaw = v_law_from_initial(PointMass(1), params, "I")
        pad = _PIECE_STEPS + 22
        got = rejection_oracle(t, vlaw, params, "I", horizon_pad=pad, n_samples=n,
                               rng=RngStream(13))
        want = _reference_rejection(t, vlaw, params, pad, n, RngStream(13, 1))
        r1, r2 = got["accepted"] / n, want["accepted"] / n
        assert abs(r1 - r2) <= 4.5 * np.sqrt((r1 * (1 - r1) + r2 * (1 - r2)) / n)
        n1, n2 = got["accepted"], want["accepted"]
        for path in set(got["table"].entries) | set(want["table"].entries):
            p1, p2 = got["table"][path], want["table"][path]
            se = np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2)
            assert abs(p1 - p2) <= 4.5 * se, path
        assert got["table"].horizon == t

    def test_wrong_level_law_is_caught(self):
        # V from point:0 conditions the walk for a chain started at 0, not 1:
        # the comparison that passes above must fail here
        params = Params(F(1, 2))
        vlaw = v_law_from_initial(PointMass(0), params, "I")
        res = rejection_oracle(3, vlaw, params, "I", horizon_pad=200, n_samples=200000,
                               rng=RngStream(11))
        exact = chain_increment_law(3, PointMass(1), params)
        misses = []
        for path, p in exact.entries.items():
            p = float(p)
            se = np.sqrt(p * (1 - p) / res["accepted"])
            if abs(res["table"][path] - p) > 4.5 * se + res["truncation_bound"] + 1e-12:
                misses.append(path)
        assert misses

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

    def test_long_window_is_drawn_by_pieces(self):
        # 10^4 walks of 10^4 steps: 79 piece draws per walk, tables of
        # (B + 1)(2B + 1) floats, never a step-by-step window
        params = Params(F(1, 2), F(1))
        vlaw = v_law_from_initial(PointMass(1), params, "I")
        start = time.perf_counter()
        tracemalloc.start()
        try:
            res = rejection_oracle(2, vlaw, params, "I", horizon_pad=10_000, n_samples=10_000,
                                   rng=RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        table_bytes = 8 * (_PIECE_STEPS + 1) * (2 * _PIECE_STEPS + 1)
        assert peak < 8 * table_bytes + 2 * 2**20
        assert res["accepted"] > 0 and res["truncation_bound"] < 1e-12

    def test_reads_no_exact_route(self, monkeypatch):
        # the oracle witnesses the exact routes, so it must not call them
        from pitman_lab import conditioning, exact, paths, processes, representation

        params = Params(F(2, 3), F(1))
        vlaw = v_law_from_initial(QNegativeBinomial(params.q, F(1, 2)), params, "I")

        def refuse(*args, **kwargs):
            raise AssertionError("rejection_oracle reached an exact route")

        for mod in (conditioning, exact, paths, processes, representation):
            for name in ("survival_prob", "q_bracket", "path_classes", "bracket_tail",
                         "conditioned_walk_law"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        res = rejection_oracle(2, vlaw, params, "I", horizon_pad=300, n_samples=2000,
                               rng=RngStream(4))
        assert res["accepted"] > 0

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_samples": 0}, "n_samples"), ({"n_samples": -5}, "n_samples"),
        ({"horizon_pad": -1}, "horizon_pad"), ({"horizon_pad": -3}, "horizon_pad"),
        ({"t": 0, "horizon_pad": 0}, "horizon_pad"), ({"t": -1}, "t"), ({"t": 40}, "t"),
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
        with pytest.raises(ValueError, match="t=0 compares no table"):
            verify_thm2(4, PointMass(1), Params(F(1, 2)), t_values=[])

    def test_chosen_horizons_alone(self, monkeypatch):
        """``t_values`` builds the tables of the chosen horizons only, past
        the default cap too."""
        monkeypatch.setenv("PITMAN_LAB_CAP", "20")
        params = Params(F(2, 3), F(1))
        law = QNegativeBinomial(params.q, F(1, 2))
        built = []
        real = conditioning.conditioned_walk_law
        monkeypatch.setattr(conditioning, "conditioned_walk_law",
                            lambda t, *args: built.append(t) or real(t, *args))
        rep = verify_thm2(20, law, params, "I", t_values=[20, 7])
        assert rep["status"] == "PASS" and rep["max_abs_diff"] == "0/1"
        assert rep["witness"] is None and built == [20, 7]


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
