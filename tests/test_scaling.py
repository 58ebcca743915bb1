import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats
from scipy.integrate import quad

from pitman_lab import (
    LimitLevelLaw,
    MuMeasure,
    Params,
    PointMass,
    RngStream,
    continuity_check,
    donsker_check,
    g_law_from_initial,
    heat_kernel,
    kernel_limit_check,
    kernel_limit_ladder,
    ks_distance,
    limit_process_sample,
    parse_initial_law,
    q_bracket,
    sample_chain,
    step_pmf,
    walk_law,
)
from pitman_lab.exact import geometric_bracket_tail
from pitman_lab.scaling import (
    _dbinom,
    _em_coef,
    _even_floor,
    exp1,
    limit_measure,
    scaled_params,
    scaled_rho,
)

CATALOG = [
    ("delta0", MuMeasure.point(0.0)),
    ("delta1", MuMeasure.point(1.0)),
    ("delta2.5", MuMeasure.point(2.5)),
    ("exp1", MuMeasure.exponential(1.0)),
    ("hypo", MuMeasure.hypoexponential(0.7, 1.3)),
]


class TestLimitLevelLaw:
    def test_point_mass_at_zero_is_all_atom(self):
        lll = LimitLevelLaw(0.7, MuMeasure.point(0.0))
        assert lll.atom == 1.0
        for x in (0.01, 1.0, 10.0):
            assert lll.cdf(x) == 1.0

    def test_unit_point_mass_driftless_is_uniform(self):
        lll = LimitLevelLaw(0.0, MuMeasure.point(1.0))
        for x in (0.1, 0.5, 0.99):
            assert lll.cdf(x) == pytest.approx(x, abs=1e-12)
        assert lll.cdf(1.5) == pytest.approx(1.0, abs=1e-12)

    def test_unit_point_mass_with_drift_is_truncated_exponential(self):
        v = 0.5
        lll = LimitLevelLaw(v, MuMeasure.point(1.0))
        for x in (0.2, 0.7, 1.0):
            want = -math.expm1(-2 * v * x) / -math.expm1(-2 * v)
            assert lll.cdf(x) == pytest.approx(want, abs=1e-12)

    def test_hypoexponential_collapses_to_exponential(self):
        # the convolution measure with rates u+v, u-v has level law Exp(u+v)
        for u, v in ((1.0, -0.3), (1.0, 0.3), (2.0, 0.8)):
            lll = LimitLevelLaw(v, MuMeasure.hypoexponential(u + v, u - v))
            for x in (0.3, 1.0, 2.7):
                assert lll.cdf(x) == pytest.approx(-math.expm1(-(u + v) * x), abs=1e-9)

    def test_cdf_at_and_below_zero(self):
        lll = LimitLevelLaw(0.5, MuMeasure.hypoexponential(0.7, 1.3))
        assert lll.cdf(-1.0) == 0.0
        assert lll.cdf(0.0) == lll.atom

    @pytest.mark.parametrize("name,mu", CATALOG)
    @pytest.mark.parametrize("v", [-0.8, -0.3, 0.0, 0.4, 1.0])
    def test_cdf_properties(self, name, mu, v):
        lll = LimitLevelLaw(v, mu)
        grid = np.linspace(1e-3, 12.0, 300)
        vals = [lll.cdf(float(x)) for x in grid]
        assert all(0 <= a <= 1 for a in vals)
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        assert 1 - lll.cdf(40.0) < 1e-6

    @pytest.mark.parametrize("name,mu", CATALOG[1:])
    @pytest.mark.parametrize("v", [-1.0, -0.3, 0.4, 1.0])
    def test_density_positive_and_mass_complements_atom(self, name, mu, v):
        lll = LimitLevelLaw(v, mu)
        for x in (0.05, 0.4, 1.1, 3.0):
            assert lll.pdf(x) >= 0
        integral, _ = quad(lll.pdf, 1e-12, np.inf, limit=300)
        assert abs(integral + lll.atom - 1.0) < 1e-8

    def test_density_matches_cdf_derivative(self):
        lll = LimitLevelLaw(0.4, MuMeasure.exponential(1.0))
        for x in (0.3, 0.9, 2.0):
            h = 1e-6
            num = (lll.cdf(x + h) - lll.cdf(x - h)) / (2 * h)
            assert num == pytest.approx(lll.pdf(x), rel=1e-5)

    def test_sampling_matches_cdf(self):
        lll = LimitLevelLaw(-0.3, MuMeasure.hypoexponential(0.7, 1.3))
        draws = lll.sample(RngStream(17), 50000)
        from pitman_lab import ks_distance
        assert ks_distance(draws, cdf=lll.cdf) < 0.012

    def test_atom_sampling(self):
        lll = LimitLevelLaw(0.5, MuMeasure.point(0.0))
        assert (lll.sample(RngStream(1), 1000) == 0.0).all()


ACCURACY_X = [1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.9, 1.0, 1.7, 2.5, 4.0, 9.0, 17.0, 40.0]


@mp.workdps(18)
def _reference_law(v, mu, x):
    """(F(x), f(x)) in mpmath at 18 digits, from the defining integrals in
    the scaling module docstring: int_x^inf c e^(-l y)/(1 - e^(-2vy)) dy by
    tanh-sinh quadrature, c E1(l x) at v = 0."""
    x, v = mp.mpf(x), mp.mpf(v)

    def kernel(y):  # 1/(1 - e^(-2vy)), or 1/y at v = 0
        return 1 / y if v == 0 else 1 / -mp.expm1(-2 * v * y)

    tail = sum(mp.mpf(w) * kernel(loc) for loc, w in mu.atoms if loc > x)
    at_x = sum(mp.mpf(w) * kernel(loc) for loc, w in mu.atoms if loc == x)
    mass = sum(mp.mpf(w) for loc, w in mu.atoms if loc <= x)
    for c, l in mu.exp_terms:
        c, l = mp.mpf(c), mp.mpf(l)
        if v == 0:
            tail += c * mp.e1(l * x)
        else:
            # up to 1 in y = x e^u, past it in y = y0 + s; each piece scaled
            # to 1 at its start, since mpmath's quad stops at an absolute error
            f = lambda y: c * mp.exp(-l * y) * kernel(y)
            y0 = max(x, 1)
            if x < 1:
                top = mp.log(1 / x)
                tail += f(x) * x * mp.quad(lambda u: f(x * mp.exp(u)) * mp.exp(u) / f(x),
                                           mp.linspace(0, top, int(top / 8) + 2))
            cuts = [0] + [2**i / (l + 2 * max(-v, 0)) for i in range(-2, 6)] + [mp.inf]
            tail += f(y0) * mp.quad(lambda s: f(y0 + s) / f(y0), cuts)
        mass += c / l * -mp.expm1(-l * x)
    scale = x if v == 0 else -mp.expm1(-2 * v * x)
    slope = 1 if v == 0 else 2 * v * mp.exp(-2 * v * x)
    return mp.mpf(min(mass + scale * tail, 1)), slope * (tail + at_x)


class TestLevelLawKernel:
    @pytest.mark.parametrize("name,mu", CATALOG)
    @pytest.mark.parametrize("v", [-0.8, -0.3, 0.0, 0.4, 1.0])
    def test_cdf_and_pdf_match_mpmath(self, name, mu, v):
        lll = LimitLevelLaw(v, mu)
        cdf, pdf = lll.cdf(np.array(ACCURACY_X)), lll.pdf(np.array(ACCURACY_X))
        for x, got_cdf, got_pdf in zip(ACCURACY_X, cdf, pdf):
            want_cdf, want_pdf = _reference_law(v, mu, x)
            assert abs(got_cdf - want_cdf) <= 1e-12 * want_cdf, (x, got_cdf, want_cdf)
            assert abs(got_pdf - want_pdf) <= 1e-12 * want_pdf, (x, got_pdf, want_pdf)

    @pytest.mark.parametrize("name,mu", CATALOG)
    @pytest.mark.parametrize("v", [-0.8, 0.0, 0.4])
    def test_array_call_is_the_scalar_calls(self, name, mu, v):
        lll = LimitLevelLaw(v, mu)
        xs = np.concatenate([np.geomspace(1e-9, 40.0, 200), [0.0, -1.0, 1.0, 2.5]])
        cdf = lll.cdf(xs.reshape(2, -1))
        assert cdf.shape == (2, 102)
        assert cdf.ravel().tolist() == [lll.cdf(x) for x in xs]
        pdf = lll.pdf(xs[:200])
        assert pdf.tolist() == [lll.pdf(x) for x in xs[:200]]

    def test_scalar_in_float_out(self):
        lll = LimitLevelLaw(0.4, MuMeasure.hypoexponential(0.7, 1.3))
        for x in (0.7, np.float64(0.7), 3, -1.0, 0.0):
            assert type(lll.cdf(x)) is float
        assert type(lll.pdf(0.7)) is float
        assert lll.cdf(0.7) == lll.cdf(np.array([0.7]))[0]

    def test_pdf_refuses_points_off_the_half_line(self):
        lll = LimitLevelLaw(0.4, MuMeasure.exponential(1.0))
        with pytest.raises(ValueError, match="density lives on"):
            lll.pdf(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("v", [0.0, 1e-7])
    def test_sampling_refuses_to_clip_mass_past_the_grid(self, v):
        # mu = Exp(1e-7) leaves 0.71 (v = 0) or 0.62 (v = 1e-7) of the level's
        # mass above 2^20, where the tabulated inverse CDF ends
        lll = LimitLevelLaw(v, MuMeasure.exponential(1e-7))
        with pytest.raises(ValueError, match=r"leaves mass 0\.(7|6)"):
            lll.sample(RngStream(1), 10000)

    def test_laws_that_have_sampled_compare_equal(self):
        a, b = (LimitLevelLaw(0.5, MuMeasure.point(1.0)) for _ in range(2))
        a.sample(RngStream(1), 10), b.sample(RngStream(2), 10)
        assert a == b

    @pytest.mark.parametrize("measure", [
        lambda: MuMeasure.point(float("nan")),
        lambda: MuMeasure.point(float("inf")),
        lambda: MuMeasure(atoms=((1.0, float("nan")),)),
        lambda: MuMeasure(exp_terms=((float("inf"), float("inf")),)),
    ])
    def test_measure_refuses_a_non_finite_atom_or_term(self, measure):
        # a nan weight would pass the mass check, as abs(nan - 1) > 1e-12 is False
        with pytest.raises(ValueError, match="needs finite atoms and terms"):
            measure()

    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 0.0])
    def test_hypoexponential_refuses_rates_that_nearly_meet(self, gap):
        # the two density terms cancel, and the CDF's error grows like 1/gap
        with pytest.raises(ValueError, match="rates must differ by at least 0.001"):
            MuMeasure.hypoexponential(1.0, 1.0 + gap)

    def test_large_rate_over_drift(self):
        # b = rate/(2|v|) = 5e4: Euler-Maclaurin from the first term on
        lll = LimitLevelLaw(1e-5, MuMeasure.exponential(1.0))
        for x in (1e-3, 0.5, 3.0):
            want_cdf, want_pdf = _reference_law(1e-5, lll.mu, x)
            assert lll.cdf(x) == pytest.approx(float(want_cdf), rel=1e-12)
            assert lll.pdf(x) == pytest.approx(float(want_pdf), rel=1e-12)


class TestContinuity:
    GRID = [x / 10 for x in range(1, 31)]

    def test_truncated_exponential_regime(self):
        rep = continuity_check(10000, F(1, 2), "point", self.GRID)
        assert rep["sup_distance"] <= 0.02

    def test_report_carries_its_verdict_last(self):
        rep = continuity_check(400, F(1, 2), "point", self.GRID)
        assert list(rep)[-3:] == ["sup_distance", "status", "tol"]
        assert rep["tol"] == 0.02
        assert rep["status"] == ("PASS" if rep["sup_distance"] <= 0.02 else "FAIL")

    @pytest.mark.parametrize("u", [F(11), F(101, 10)])
    def test_corollary_refuses_u_above_sqrt_n(self, u):
        with pytest.raises(ValueError, match=r"needs --u <= sqrt\(N\) = 10"):
            continuity_check(100, F(1, 2), "corollary", [1.0], u=u)

    def test_corollary_allows_u_at_sqrt_n(self):
        # u = sqrt(N): rho0 = 0, so theta = 0 and the start is the point mass at 0
        rep = continuity_check(100, F(1, 2), "corollary", [1.0], u=F(10))
        assert rep["initial"].startswith("qnb:") and rep["initial"].endswith("theta=0/1")

    def test_uniform_regime(self):
        rep = continuity_check(10000, F(0), "point", self.GRID)
        assert rep["sup_distance"] <= 0.02

    def test_escaping_regime(self):
        rep = continuity_check(10000, F(1, 2), "power", self.GRID)
        assert rep["sup_distance"] <= 0.02

    def test_corollary_regime(self):
        rep = continuity_check(10000, F(-3, 10), "corollary", self.GRID, u=F(1))
        assert rep["sup_distance"] <= 0.02

    def test_distance_shrinks_with_n(self):
        small = continuity_check(400, F(1, 2), "point", self.GRID)
        big = continuity_check(40000, F(1, 2), "point", self.GRID)
        assert big["sup_distance"] < small["sup_distance"]

    def test_corollary_refuses_rates_that_nearly_meet(self):
        # u +- v = 1 +- 1e-14: the limit CDF would cancel to 0.6328125
        with pytest.raises(ValueError, match="the corollary regime needs --v != 0"):
            continuity_check(10**4, F(1, 10**14), "corollary", [1.0], u=F(1))

    def test_rows_are_self_describing(self):
        rep = continuity_check(2500, F(1, 2), "point", [0.5, 1.0])
        assert {"x", "exact", "limit", "diff"} <= set(rep["rows"][0])

    @pytest.mark.parametrize("N", [400, 2500])
    @pytest.mark.parametrize("v,regime,kw", [(F(1, 2), "point", {}), (F(1, 2), "power", {}),
                                             (F(-3, 10), "corollary", {"u": F(1)})])
    def test_exact_column_is_the_cumulative_pmf(self, N, v, regime, kw):
        # the oracle: the running Fraction sum of the level law's pmf up to
        # floor(x sqrt N), converted to a float once
        rep = continuity_check(N, v, regime, self.GRID, **kw)
        sn = math.isqrt(N)
        glaw = g_law_from_initial(parse_initial_law(rep["initial"]), Params(1 - v / sn), "G")
        cum = list(itertools.accumulate(glaw.pmf(n) for n in range(3 * sn + 1)))
        assert [row["exact"] for row in rep["rows"]] == [
            float(cum[math.floor(x * sn)]) for x in self.GRID]

    @pytest.mark.parametrize("N", [100, 10**4, 10**6])
    @pytest.mark.parametrize("v,regime,kw", [(F(1, 2), "point", {}), (F(0), "point", {}),
                                             (F(-1, 2), "point", {}), (F(1, 2), "power", {}),
                                             (F(-3, 10), "corollary", {"u": F(1)})])
    def test_rows_have_the_bits_of_per_point_evaluation(self, N, v, regime, kw):
        # the per-point loop the check ran before it evaluated the limit CDF
        # once on the whole grid: x = 0, the point atom at 1, points past it
        # and, for the power regime, past its atom at N^0.2
        grid = [0.0, 0.05, 0.7, 1.0, 1.3, 2.9] + ([16.5] if regime == "power" else [])
        rep = continuity_check(N, v, regime, grid, **kw)
        sn, params = scaled_params(N, v)
        law, vf = parse_initial_law(rep["initial"]), float(v)
        if regime == "power":
            limit_fn = lambda x: -math.expm1(-2 * vf * x)  # noqa: E731
        else:
            limit_fn = LimitLevelLaw(vf, limit_measure(law, params, sn, regime)).cdf
        glaw = g_law_from_initial(law, params, "G")
        rows, sup = [], 0.0
        for x in grid:
            exact = float(1 - glaw.tail(math.floor(x * sn) + 1))
            lim = limit_fn(float(x))
            rows.append({"x": float(x), "exact": exact, "limit": lim, "diff": exact - lim})
            sup = max(sup, abs(exact - lim))
        def bits(rows):
            return [{k: float.hex(val) for k, val in row.items()} for row in rows]

        assert bits(rep["rows"]) == bits(rows)
        assert float.hex(rep["sup_distance"]) == float.hex(sup)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 1000), st.sampled_from([
        (F(1, 2), "point", {}), (F(0), "point", {}), (F(-1, 2), "point", {}),
        (F(1, 2), "power", {}), (F(1, 3), "power", {}),
        (F(-3, 10), "corollary", {"u": F(1)}), (F(1, 2), "corollary", {"u": F(1)})]),
        st.lists(st.sampled_from([0.0, 0.01, 1.0, 5.0, 40.0])
                 | st.floats(0, 40, allow_nan=False), min_size=1, max_size=4))
    def test_exact_rows_are_one_minus_the_fraction_tail(self, sn, case, grid):
        # the oracle: P(G >= m) = P(X0 >= m) - [m]_q S(m) in normalized
        # Fractions, S(m) = sum over j >= m of P(X0 = j)/[j+1]_q, converted
        # once; grid points include 0 and points past the point atoms at
        # x = 1 and N^0.2; the corollary's tails, whose Fractions grow with
        # m, are read up to x = 3
        v, regime, kw = case
        N = sn * sn
        if regime == "corollary":
            grid = [min(x, 3.0) for x in grid]
        rep = continuity_check(N, v, regime, grid, **kw)
        q = scaled_params(N, v)[1].q
        law = parse_initial_law(rep["initial"])

        def tail(m):
            if isinstance(law, PointMass):
                mass, ratio = (F(1), 1 / q_bracket(law.n + 1, q)) if m <= law.n else (F(0), F(0))
            else:
                c = (1 - law.theta) * (1 - law.theta * q)
                mass = c * geometric_bracket_tail(law.theta, m, 0, q)
                ratio = c * law.theta**m / (1 - law.theta)
            return mass - q_bracket(m, q) * ratio

        want = [float(1 - tail(math.floor(x * sn) + 1)) for x in grid]
        assert [float.hex(row["exact"]) for row in rep["rows"]] == list(map(float.hex, want))


# every scaling command, with a blocked scipy: an import of it raises
NO_SCIPY_ARGVS = [
    "scaling continuity --N 10000 --v 1/2 --regime point",
    "scaling continuity --N 10000 --v 1/2 --regime power",
    "scaling continuity --N 10000 --v=-3/10 --regime corollary --u 1",
    "scaling kernel --N 100,10000 --t 1 --x 1 --y 1 --v 0.5",
    "scaling donsker --N 100 --samples 200 --seed 0",
]
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
import numpy as np
from pitman_lab import LimitLevelLaw, MuMeasure, RngStream
from pitman_lab.cli import main
for argv in {argvs!r}:
    assert main(argv.split()) == 0, argv
for atoms, exp_terms in {measures!r}:
    for v in (-0.3, 0.0, 0.4):
        law = LimitLevelLaw(v, MuMeasure(atoms, exp_terms))
        law.cdf(np.linspace(-1.0, 5.0, 13)), law.cdf(0.5), law.pdf(np.array([0.5, 2.0]))
        law.sample(RngStream(1), 10)
print("ran without scipy")
"""


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = pathlib.Path(__import__("pitman_lab").__file__).parents[1]
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_importing_the_package_leaves_scipy_unloaded():
    out = _run_python("import sys, pitman_lab, pitman_lab.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.stdout.strip() == "[]"
    # and the scaling layer runs with no scipy at all
    measures = [(mu.atoms, mu.exp_terms) for _, mu in CATALOG]
    out = _run_python(NO_SCIPY_RUN.format(argvs=NO_SCIPY_ARGVS, measures=measures))
    assert out.stdout.endswith("ran without scipy\n")


def _ulps(got: float, want) -> float:
    return float(abs(mp.mpf(got) - want) / math.ulp(float(want)))


class TestSpecialFunctions:
    # either side of the switch from the series to the continued fraction at
    # 1, and of each change of continued-fraction depth
    EXP1_EDGES = [b + k * math.ulp(b) for b in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
                  for k in range(-3, 4)] + [1 - 1e-9, 1 + 1e-9, 0.999, 1.001]

    def test_exp1_is_within_16_ulps_of_mpmath(self):
        xs = np.concatenate([np.geomspace(1e-10, 700.0, 2000), self.EXP1_EDGES])
        got = exp1(xs)
        with mp.workdps(30):
            worst = max(_ulps(g, mp.e1(mp.mpf(float(x)))) for g, x in zip(got, xs))
        assert worst <= 16
        assert [exp1(float(x)) for x in xs] == got.tolist()

    def test_em_coef_are_the_rounded_bernoulli_ratios(self):
        # B_m from sum_(k<=m) C(m+1, k) B_k = 0, independent of the module's table
        bern = [F(1)]
        for m in range(1, 25):
            bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
        assert _em_coef() == [float(bern[2 * j] / math.factorial(2 * j)) for j in range(1, 13)]

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 200])
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.6, 0.93])
    def test_dbinom_is_the_binomial_pmf(self, n, p):
        # the saddle-point terms are O(n) before they cancel, and e^x turns an
        # absolute error in x into a relative one: 4 ulps of n + |log pmf|
        # (the worst seen is 0.65 of that, p in [0.01, 0.93], n <= 1000)
        q = 1 - p
        for k in range(-2, n + 3):
            if not 0 <= k <= n:
                assert _dbinom(k, n, p, q) == 0.0
                continue
            want = math.comb(n, k) * F(p) ** k * F(q) ** (n - k)
            room = 2.0**-51 * (n + abs(math.log(want)))
            assert abs(_dbinom(k, n, p, q) - want) <= room * want, k

    def test_dbinom_off_the_mean_keeps_its_digits(self):
        # n = 10^4, p = 1/2, k within 1000 of the mean: the deviance terms
        # take the series up to |v| = 1/2, which the log form x log(x/m) + m - x
        # cancels in (6.4e-13 relative there against 6.3e-14)
        n, c = 10**4, math.comb(10**4, 4000)
        for k in range(4000, 6001):
            want = F(c, 2**n)
            assert abs(F(_dbinom(k, n, 0.5, 0.5)) - want) <= F(1e-13) * want, k
            c = c * (n - k) // (k + 1)


class TestScalingConfig:
    def test_exact_rho(self):
        assert scaled_params(10000, F(1, 2)) == (100, Params(F(199, 200)))
        assert scaled_rho(10000, F(1, 2)) == pytest.approx(0.995)

    def test_non_square_rejected_for_exact(self):
        with pytest.raises(ValueError):
            scaled_params(1000, F(1, 2))


class TestHeatKernel:
    def test_symmetry_and_value(self):
        assert heat_kernel(1.0, 1.0, 1.0) == pytest.approx(
            (1 - math.exp(-2)) / math.sqrt(2 * math.pi)
        )
        for t, x, y in ((0.5, 0.3, 1.7), (2.0, 1.1, 0.4)):
            assert heat_kernel(t, x, y) == heat_kernel(t, y, x)
            assert heat_kernel(t, x, y) > 0

    def test_vanishes_at_the_wall(self):
        assert heat_kernel(1.0, 1.0, 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            heat_kernel(1.0, -1.0, 1.0)


class TestKernelLimit:
    def test_headline_point(self):
        rep = kernel_limit_check(10000, 1.0, 1.0, 1.0, 0.5)
        assert rep["rel_error"] <= 0.05

    def test_v_zero_branch(self):
        rep = kernel_limit_check(10000, 1.0, 0.5, 2.0, 0.0)
        assert rep["rel_error"] <= 0.05

    def test_ladder_improves(self):
        rep = kernel_limit_ladder([100, 10000], 1.0, 1.0, 1.0, 0.5)
        assert rep["rel_errors"][1] < rep["rel_errors"][0]

    def test_ladder_judges_its_last_rung(self):
        # relative error 0.044 at N = 10^4 and 0.070 at N = 16 (even-rounded coordinates)
        rep = kernel_limit_ladder([10000, 16], 1.0, 1.0, 1.0, 0.5)
        assert list(rep)[-2:] == ["status", "tol"] and rep["tol"] == 0.05
        assert rep["rel_errors"][0] <= 0.05 < rep["rel_errors"][1]
        assert rep["status"] == "FAIL"

    def test_empty_ladder_is_refused(self):
        with pytest.raises(ValueError, match="ladder holds no N"):
            kernel_limit_ladder([], 1.0, 1.0, 1.0, 0.5)

    @staticmethod
    def _exact_finite(N, t, x, y, v):
        """kernel_limit_check's finite value from the same float coordinates
        and rho, over exact path counts, in mpmath at 50 digits."""
        rho, sn = scaled_rho(N, v), math.sqrt(N)
        T, x0, xt = _even_floor(t * N), _even_floor(x * sn), _even_floor(y * sn)
        with mp.workdps(50):
            r = mp.mpf(rho)
            counts = [math.comb(T, k) if 0 <= k <= T else 0
                      for k in ((T + xt - x0) // 2, (T + xt + x0 + 2) // 2)]
            lr = mp.log(1 / r)
            ratio = (mp.mpf(xt + 1) / (x0 + 1) if rho == 1.0 else
                     mp.sinh((xt + 1) * lr) / mp.sinh((x0 + 1) * lr))
            return mp.sqrt(N) * (counts[0] - counts[1]) / (r + 1 / r) ** T * ratio

    @pytest.mark.parametrize("N", [100, 10**4])
    @pytest.mark.parametrize("v", [-0.5, 0.0, 0.5])
    def test_finite_value_matches_exact_path_counts(self, N, v):
        for x, y in itertools.product((0.5, 1.0, 2.0), repeat=2):
            got = kernel_limit_check(N, 1.0, x, y, v)["finite"]
            want = self._exact_finite(N, 1.0, x, y, v)
            assert abs(got - want) <= 1e-13 * abs(want), (x, y, got)

    # at N = 16: both binomials off [0, T] (T = 4, x0 = 8), the first at
    # k = 0 (T = 8, x0 = 8) and at k = T (T = 8, x0 = 2, xt = 10)
    @pytest.mark.parametrize("t,x,y", [(0.25, 2.0, 0.1), (0.5, 2.0, 0.1), (0.5, 0.5, 2.5)])
    def test_finite_value_at_the_binomial_edges(self, t, x, y):
        got = kernel_limit_check(16, t, x, y, 0.5)["finite"]
        want = self._exact_finite(16, t, x, y, 0.5)
        assert got == 0.0 if want == 0 else abs(got - want) <= 1e-13 * abs(want)


class TestLimitProcessSample:
    def test_nonnegative_when_level_is_zero(self):
        lll = LimitLevelLaw(0.0, MuMeasure.point(0.0))
        vals = limit_process_sample(0.0, lll, [0.25, 1.0], 512, RngStream(2), n=2000)
        assert (vals >= -1e-12).all()

    def test_reproducible(self):
        lll = LimitLevelLaw(0.3, MuMeasure.exponential(1.0))
        a = limit_process_sample(0.3, lll, [1.0], 256, RngStream(9), n=500)
        b = limit_process_sample(0.3, lll, [1.0], 256, RngStream(9), n=500)
        assert (a == b).all()

    def test_marginal_moments(self):
        # 2*sup(W) - W_tau at tau = 1/2: mean of sup is sqrt(tau*2/pi), and
        # E[2M - W] = 2 E[M] since E[W] = 0
        lll = LimitLevelLaw(0.0, MuMeasure.point(0.0))
        vals = limit_process_sample(0.0, lll, [1.0], 4096, RngStream(4), n=40000,
                                    sigma=2.0)[:, 0]
        want = 2 * math.sqrt(0.5 * 2 / math.pi)
        assert vals.mean() == pytest.approx(want, abs=0.02)

    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    @pytest.mark.parametrize("v", [0.0, 0.4, -0.7])
    def test_marginals_match_closed_form(self, v, sigma):
        # at gamma = 0 the marginal at time t is 2M - B of a BM with drift v
        # at time s = tau t, with density sinh(vr)/v e^(-v^2 s/2) 2r
        # e^(-r^2/2s)/(s sqrt(2 pi s)) (Pitman 1975; Rogers & Pitman 1981)
        lll = LimitLevelLaw(v, MuMeasure.point(0.0))
        n, grid = 100000, [0.25, 1.0]
        vals = limit_process_sample(v, lll, grid, 1024, RngStream(40), n=n, sigma=sigma)
        tau = 2.0 / (2.0 + sigma)
        for col, t in enumerate(grid):
            cdf = _two_max_minus_b_cdf(v, tau * t)
            x = 0.7 * math.sqrt(tau * t)
            density = lambda r: (math.sinh(v * r) / v if v else r) * math.exp(
                -v * v * tau * t / 2 - r * r / (2 * tau * t)) * 2 * r / (
                tau * t * math.sqrt(2 * math.pi * tau * t))
            assert cdf(x) == pytest.approx(quad(density, 0, x)[0], abs=1e-12)
            # 12 tests: each at level 1e-4
            assert stats.kstest(vals[:, col], cdf).pvalue > 1e-4, (col, t)

    def test_draw_does_not_depend_on_steps(self):
        lll = LimitLevelLaw(0.4, MuMeasure.exponential(1.0))
        a = limit_process_sample(0.4, lll, [0.5, 0.0, 1.0, 0.5], 1, RngStream(8), n=300,
                                 sigma=1.0)
        b = limit_process_sample(0.4, lll, [0.5, 0.0, 1.0, 0.5], 4096, RngStream(8), n=300,
                                 sigma=1.0)
        assert (a == b).all()
        assert (a[:, 0] == a[:, 3]).all()

    @pytest.mark.parametrize("grid, sigma", [([-0.5, 0.0, 0.5], 0.0), ([1.0], -2.0),
                                             ([float("nan")], 0.0), ([], 0.0)])
    def test_rejects_negative_time_or_sigma(self, grid, sigma):
        lll = LimitLevelLaw(0.0, MuMeasure.point(0.0))
        with pytest.raises(ValueError):
            limit_process_sample(0.0, lll, grid, 1, RngStream(0), n=2, sigma=sigma)


def _two_max_minus_b_cdf(v, s):
    """CDF of 2M - B at time s for a BM with drift v: Pitman's
    erf(x/sqrt(2s)) - sqrt(2/(pi s)) x e^(-x^2/2s) at v = 0; else the
    density above, whose sinh splits into two shifted Gaussians, integrated
    as (I(vs) - I(-vs))/(vs) with I(m) = int_0^x r phi_s(r - m) dr."""
    if v == 0:
        return lambda x: (special.erf(x / math.sqrt(2 * s))
                          - math.sqrt(2 / (math.pi * s)) * x * np.exp(-x * x / (2 * s)))
    rs = math.sqrt(s)

    def shifted(x, m):
        z0, z1 = -m / rs, (x - m) / rs
        return (m * (stats.norm.cdf(z1) - stats.norm.cdf(z0))
                + rs * (stats.norm.pdf(z0) - stats.norm.pdf(z1)))

    return lambda x: (shifted(x, v * s) - shifted(x, -v * s)) / (v * s)


def step_moments(params):
    """Exact mean and variance of one walk step, summed over the horizon-1
    table of the walk."""
    table = walk_law(1, params).entries
    mean = sum(p * x.end for x, p in table.items())
    return mean, sum(p * x.end**2 for x, p in table.items()) - mean**2


class TestDonskerCheck:
    def test_statistic_of_the_whole_path_array(self):
        # the check holds starts and a two-row ring, the same draws as the
        # path array sample_chain returns
        N, n = 400, 2000
        rep = donsker_check(N, F(1, 2), F(1), PointMass(20), n, seed=3)
        sn, params = scaled_params(N, F(1, 2), F(1))
        paths = sample_chain(N, PointMass(20), params, RngStream(3).child(1), n=n)
        lim = limit_process_sample(0.5, LimitLevelLaw(0.5, MuMeasure.point(1.0)), [1.0], None,
                                   RngStream(3).child(2), n=n, sigma=1.0)[:, 0]
        assert rep["ks"] == ks_distance((paths[:, -1] - paths[:, 0]).astype(np.int64),
                                        np.round(lim * sn).astype(np.int64))

    def test_memory_is_linear_in_the_samples(self):
        # 401 x 20000 levels of two bytes would take 16 MB
        donsker_check(4, F(1, 2), F(1), PointMass(2), 100, seed=0)  # imports, caches
        tracemalloc.start()
        try:
            donsker_check(400, F(2, 5), F(2), PointMass(20), 20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestStepMoments:
    @pytest.mark.parametrize("sigma", [F(0), F(1), F(2)])
    def test_asymptotics(self, sigma):
        N, v = 10**4, F(1, 2)
        params = Params(1 - v / 100, sigma)
        mean, var = step_moments(params)
        s = float(sigma)
        assert float(mean) == pytest.approx(2 * 0.5 / ((s + 2) * 100), abs=3e-5)
        assert float(var) == pytest.approx(2 / (s + 2), abs=2e-3)

    def test_exact_formulas(self):
        params = Params(F(2, 3), F(1))
        pm = step_pmf(params)
        mean, var = step_moments(params)
        assert mean == pm[1] - pm[-1]
        assert var == pm[1] + pm[-1] - mean**2

    def test_monte_carlo_three_sigma(self):
        from pitman_lab import sample_walk

        N, v, sigma = 10**4, F(1, 2), F(1)
        params = Params(1 - v / 100, sigma)
        steps = np.diff(sample_walk(100, params, RngStream(21), n=10000), axis=1).ravel()
        mean, var = step_moments(params)
        n = steps.size  # 10^6 draws
        se_mean = math.sqrt(float(var) / n)
        assert abs(steps.mean() - float(mean)) < 3 * se_mean
        se_var = math.sqrt(2.0 / n)  # loose bound for a bounded variable
        assert abs(steps.var() - float(var)) < 3 * se_var
