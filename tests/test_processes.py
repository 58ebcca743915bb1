import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special

from pitman_lab import (
    FiniteSupport,
    Geometric,
    InitialLaw,
    LevelLaw,
    NegativeBinomial,
    Params,
    Path,
    PointMass,
    QNegativeBinomial,
    ShiftedPoisson,
    UnsupportedExactModeError,
    chain_increment_law,
    chain_transition,
    conditioned_walk_law,
    enumerate_paths,
    g_law_from_initial,
    parse_initial_law,
    q_bracket,
    rhs_law_enumeration,
    step_pmf,
    v_law_from_initial,
    walk_law,
    walk_path_prob,
)
from pitman_lab.exact import geometric_bracket_tail

RHOS = [F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]


class TestStepPmf:
    def test_symmetric_case(self):
        pm = step_pmf(Params(F(1)))
        assert pm[1] == pm[-1] == F(1, 2) and pm[0] == 0

    def test_direct_substitution(self):
        pm = step_pmf(Params(F(2), F(1)))  # z = 7/2
        assert pm == {1: F(1, 7), 0: F(2, 7), -1: F(4, 7)}

    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("sigma", [F(0), F(1), F(5, 2)])
    def test_mass_one(self, rho, sigma):
        assert sum(step_pmf(Params(rho, sigma)).values()) == 1


class TestWalkPathProb:
    def test_symmetric_cube(self):
        params = Params(F(1))
        for p in enumerate_paths(3, allow_flat=False):
            assert walk_path_prob(p, params) == F(1, 8)

    def test_product_oracle(self):
        params = Params(F(2), F(1))
        p = Path.from_values((0, 1, 1, 0))
        assert walk_path_prob(p, params) == F(1, 7) * F(2, 7) * F(4, 7) == F(8, 343)
        pm = step_pmf(params)
        for path in enumerate_paths(4):
            assert walk_path_prob(path, params) == math.prod(
                (pm[s] for s in path.steps), start=F(1)
            )

    def test_flat_step_impossible_without_weight(self):
        assert walk_path_prob(Path((1, 0)), Params(F(2))) == 0

    @pytest.mark.parametrize("rho", [F(1, 2), F(1), F(2)])
    @pytest.mark.parametrize("sigma", [F(0), F(1)])
    def test_total_mass(self, rho, sigma):
        params = Params(rho, sigma)
        for t in (1, 4, 8):
            assert walk_law(t, params).mass() == 1


class TestChainTransition:
    def test_classic_kernel(self):
        # rho = 1, sigma = 0: up-probability (k+2)/(2(k+1))
        params = Params(F(1))
        assert chain_transition(1, 1, params) == F(3, 4)
        assert chain_transition(0, -1, params) == 0

    def test_forced_up_step(self):
        assert chain_transition(0, 1, Params(F(2))) == 1

    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("sigma", [F(0), F(1)])
    def test_row_sums(self, rho, sigma):
        params = Params(rho, sigma)
        for k in range(21):
            assert sum(chain_transition(k, d, params) for d in (-1, 0, 1)) == 1

    @pytest.mark.parametrize("rho", [F(1, 2), F(2, 3), F(3, 2)])
    def test_rho_inversion_symmetry(self, rho):
        a, b = Params(rho, F(1)), Params(1 / rho, F(1))
        for k in range(15):
            for d in (-1, 0, 1):
                assert chain_transition(k, d, a) == chain_transition(k, d, b)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            chain_transition(-1, 1, Params(F(1)))

    @given(k=st.integers(0, 60), delta=st.sampled_from([-1, 0, 1]),
           rho=st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(5, 2)]),
           sigma=st.sampled_from([F(0), F(1, 2), F(1), F(2)]))
    @example(k=0, delta=-1, rho=F(2, 3), sigma=F(1))  # the down step from 0: exactly 0
    @example(k=0, delta=1, rho=F(1), sigma=F(0))  # q = 1
    @example(k=60, delta=-1, rho=F(1), sigma=F(1, 2))
    @example(k=60, delta=1, rho=F(5, 2), sigma=F(2))
    def test_entry_is_its_definition(self, k, delta, rho, sigma):
        # the entry from int brackets against p_delta [k+delta+1]_q / [k+1]_q in Fractions
        params = Params(rho, sigma)
        q = params.q
        want = step_pmf(params)[delta] * q_bracket(k + delta + 1, q) / q_bracket(k + 1, q)
        got = chain_transition(k, delta, params)
        assert type(got) is F and got == want
        assert (got == 0) == (k == 0 and delta == -1 or sigma == 0 and delta == 0)
        assert sum(chain_transition(k, d, params) for d in (-1, 0, 1)) == 1


class TestInitialLaws:
    def test_pmf_examples(self):
        q, theta = F(1, 4), F(1, 2)
        assert QNegativeBinomial(q, theta).pmf(0) == (1 - theta) * (1 - theta * q)
        assert NegativeBinomial(F(1, 2)).pmf(3) == F(1, 4) * 4 * F(1, 8)
        assert ShiftedPoisson(1.0).pmf(1) == pytest.approx(math.exp(-1))
        assert ShiftedPoisson(1.0).pmf(0) == 0

    def test_mass_one(self):
        for law in (
            PointMass(3),
            FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2)))),
            Geometric(F(1, 3)),
            QNegativeBinomial(F(9, 4), F(2, 9)),
            NegativeBinomial(F(1, 2)),
        ):
            assert law.tail(0) == 1
        assert ShiftedPoisson(1.0).tail(0) == pytest.approx(1.0, abs=1e-12)

    def test_qnb_is_two_geometric_convolution(self):
        q, theta = F(1, 4), F(1, 2)
        law = QNegativeBinomial(q, theta)
        a, b = q * theta, theta
        for m in range(12):
            conv = sum(
                (1 - a) * a**i * (1 - b) * b ** (m - i) for i in range(m + 1)
            )
            assert law.pmf(m) == conv

    @pytest.mark.parametrize("law", [
        QNegativeBinomial(F(1, 4), F(1, 2)),
        QNegativeBinomial(F(4, 9), F(0)),
        NegativeBinomial(F(2, 3)),
        QNegativeBinomial(F(9, 4), F(2, 9)),
        QNegativeBinomial(F(4), F(1, 5)),
    ], ids=repr)
    def test_qnb_tail_is_the_bracket_tail(self, law):
        # the per-law constants give c * sum_(k>=n) theta^k [k+1]_q exactly
        c = (1 - law.theta) * (1 - law.theta * law.q)
        for n in range(-2, 61):
            assert law.tail(n) == c * geometric_bracket_tail(law.theta, max(n, 0), 0, law.q)

    def test_finite_support_must_normalize(self):
        with pytest.raises(ValueError):
            FiniteSupport(((0, F(1, 2)),))

    def test_parse_round_trip(self):
        for text in ("point:2", "finite:0=1/3,2=2/3", "geo:1/3",
                     "qnb:q=1/4,theta=1/2", "nb:rho0=1/2", "spoisson:1"):
            law = parse_initial_law(text)
            assert parse_initial_law(law.cli_string()).cli_string() == law.cli_string()
        with pytest.raises(ValueError):
            parse_initial_law("bogus:1")
        with pytest.raises(ValueError):
            parse_initial_law("finite:0=1/2")


FLOAT_LAWS = [
    Geometric(F(1, 3)),
    Geometric(F(99, 100)),
    QNegativeBinomial(F(1, 4), F(1, 2)),
    QNegativeBinomial(F(9, 4), F(2, 9)),
    QNegativeBinomial(F(1), F(3, 4)),
    NegativeBinomial(F(1, 2)),
    FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2)))),
]


class TestFloatTwins:
    @pytest.mark.parametrize("law", FLOAT_LAWS, ids=repr)
    def test_within_stated_relative_error(self, law):
        for n in (0, 1, 2, 5, 17, 60, 200):
            eta = F(law.float_rel_err(n))
            for got, want in ((law.pmf_float(n), law.pmf(n)),
                              (law.tail_float(n), law.tail(n))):
                assert abs(F(got) - want) <= eta * want, n
            assert law.tail_bound(n) >= law.tail(n)

    @pytest.mark.parametrize("law", FLOAT_LAWS + [ShiftedPoisson(1.0)], ids=repr)
    def test_truncation_point_is_first_light_tail(self, law):
        tol = 1e-15
        n = law.truncation_point(tol)
        if law.support_max() is None:
            assert law.tail_float(n + 1) < tol
            assert n == 0 or law.tail_float(n) >= tol


class TestShiftedPoissonTail:
    # tail(n) = P(Poisson(lam) >= n-1), the regularized lower incomplete
    # gamma function P(n-1, lam)
    @pytest.mark.parametrize("lam", [1.0, 760.0, 1e5])
    def test_matches_incomplete_gamma(self, lam):
        law = ShiftedPoisson(lam)
        sd = math.sqrt(lam)
        for n in sorted({2, 3, int(lam / 2) + 1, int(lam), int(lam) + 1, int(lam) + 2,
                         int(lam + 3 * sd) + 1, int(lam + 10 * sd) + 1}):
            if n < 2:
                continue
            want = special.gammainc(n - 1, lam)
            assert abs(law.tail(n) - want) <= law.tail_err(n) + 1e-12 * want, n

    @pytest.mark.parametrize("lam", [760.0, 1e5])
    def test_truncation_point_passes_the_mean(self, lam):
        n = ShiftedPoisson(lam).truncation_point(1e-15)
        assert lam + 5 * math.sqrt(lam) < n < lam + 10 * math.sqrt(lam)

    def test_truncation_point_reaches_the_tail_at_the_largest_mean(self):
        # P(X0 > n) = P(Poisson(lam) >= n), the regularized gammainc(n, lam)
        law = ShiftedPoisson(1e7)
        n = law.truncation_point()
        assert law.tail_float(n + 1) < 1e-15
        assert special.gammainc(n, 1e7) < 1e-15


class TestChainIncrementLaw:
    def test_reflecting_start(self):
        tbl = chain_increment_law(1, PointMass(0), Params(F(1)))
        assert tbl[Path((1,))] == 1
        assert tbl[Path((-1,))] == 0

    def test_kernel_product_hand_check(self):
        # from level 1 at rho=1: P(up)=3/4 then from 2: P(up)=2/3
        tbl = chain_increment_law(2, PointMass(1), Params(F(1)))
        assert tbl[Path((1, 1))] == F(3, 4) * F(2, 3)
        assert tbl[Path((1, -1))] == F(3, 4) * F(1, 3)
        assert tbl[Path((-1, 1))] == F(1, 4) * 1

    @pytest.mark.parametrize("rho", [F(1, 2), F(1), F(3, 2)])
    @pytest.mark.parametrize("sigma", [F(0), F(1)])
    def test_mass_one(self, rho, sigma):
        params = Params(rho, sigma)
        laws = [PointMass(2), FiniteSupport(((0, F(1, 2)), (3, F(1, 2))))]
        if params.q != 1:
            laws.append(QNegativeBinomial(params.q, F(1, 5)))
        else:
            laws.append(NegativeBinomial(F(1, 3)))
        for law in laws:
            for t in (1, 3, 4):
                assert chain_increment_law(t, law, params).mass() == 1

    @pytest.mark.parametrize("rho", [F(1, 2), F(2, 3), F(1), F(3, 2)])
    @pytest.mark.parametrize("sigma", [F(0), F(1)])
    def test_formula_equals_product_route_finite(self, rho, sigma):
        params = Params(rho, sigma)
        for law in [PointMass(n) for n in range(5)] + [
            FiniteSupport(((1, F(1, 4)), (4, F(3, 4))))
        ]:
            for t in (1, 2, 4, 6):
                a = chain_increment_law(t, law, params, route="formula")
                b = chain_increment_law(t, law, params, route="product")
                diff, _ = a.max_abs_diff(b)
                assert diff == 0

    @pytest.mark.parametrize("rho,sigma,t", [
        (F(1, 2), F(0), 3), (F(2, 3), F(1), 3), (F(1), F(1), 3),
        (F(3, 2), F(0), 5),
    ])
    def test_formula_vs_truncated_product_qnb(self, rho, sigma, t):
        # infinite support: the product route truncates; the exact formula
        # value must sit inside the certified interval
        params = Params(rho, sigma)
        q = params.q
        law = QNegativeBinomial(q, F(1, 2) if q <= 1 else 1 / (2 * q))
        exact = chain_increment_law(t, law, params, route="formula")
        trunc = chain_increment_law(t, law, params, route="product", mode="approx")
        for p, v in exact.entries.items():
            assert abs(v - F(trunc[p])) <= F(trunc.err)

    @pytest.mark.parametrize("text", ["geo:1/3", "geo:2/3"])
    def test_product_err_covers_the_leftover_mass(self, text):
        law = parse_initial_law(text)
        table = chain_increment_law(3, law, Params(F(1, 2), F(1)), route="product")
        assert table.mode == "approx"
        assert F(table.err) >= law.tail(law.truncation_point() + 1)

    def test_product_route_exact_needs_finite_support(self):
        params = Params(F(1, 2))
        with pytest.raises(UnsupportedExactModeError):
            chain_increment_law(2, Geometric(F(1, 3)), params,
                                route="product", mode="exact")

    def test_approx_table_mass_within_err(self):
        tbl = chain_increment_law(5, Geometric(F(9, 10)), Params(F(1, 2), F(1)))
        assert tbl.mode == "approx"
        assert 0 < tbl.err < 1e-12
        assert abs(math.fsum(tbl.entries.values()) - 1) <= tbl.err

    def test_approx_formula_at_rho_above_one_stays_finite(self):
        # q = 9/4 and ~3400 initial levels: each [k+1]_q alone overflows a float
        tbl = chain_increment_law(2, Geometric(F(99, 100)), Params(F(3, 2), F(1)))
        assert all(math.isfinite(v) for v in tbl.entries.values())
        assert abs(math.fsum(tbl.entries.values()) - 1) <= tbl.err

    def test_approx_route_geometric_initial(self):
        params = Params(F(2, 3))
        tbl = chain_increment_law(3, Geometric(F(1, 2)), params)
        assert tbl.mode == "approx"
        assert tbl.mass() == pytest.approx(1.0, abs=1e-12)


# -- one law type -----------------------------------------------------------------

rationals = st.fractions(min_value=0, max_value=1, max_denominator=50)
unit_open = rationals.filter(lambda p: p < 1)


@st.composite
def finite_laws(draw):
    levels = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    weights = [draw(st.integers(1, 20)) for _ in levels]
    return FiniteSupport(tuple((n, F(w, sum(weights))) for n, w in zip(levels, weights)))


@st.composite
def qnb_laws(draw):
    q = draw(st.fractions(min_value=F(1, 50), max_value=4, max_denominator=50))
    theta = draw(unit_open.filter(lambda th: th * q < 1))
    return QNegativeBinomial(q, theta)


CATALOG_LAWS = st.one_of(
    st.builds(PointMass, st.integers(0, 10**6)),
    finite_laws(),
    st.builds(Geometric, unit_open),
    qnb_laws(),
    st.builds(NegativeBinomial, unit_open),
    st.builds(ShiftedPoisson, st.floats(min_value=1e-6, max_value=1e7, allow_nan=False)),
)


@given(CATALOG_LAWS)
def test_law_string_round_trip(law):
    assert parse_initial_law(law.cli_string()) == law


def test_spoisson_string_is_exact():
    law = ShiftedPoisson(1 / 3)
    assert parse_initial_law(law.cli_string()) == law
    assert ShiftedPoisson(1.0).cli_string() == "spoisson:1"


@given(st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda r: r < 1))
def test_nb_is_the_q_one_qnb(rho0):
    nb, qnb = NegativeBinomial(rho0), QNegativeBinomial(F(1), rho0)
    assert parse_initial_law(nb.cli_string()) == nb
    for n in (0, 1, 2, 7, 40):
        assert (nb.pmf(n), nb.tail(n)) == (qnb.pmf(n), qnb.tail(n))
        assert (nb.pmf_float(n), nb.tail_float(n), nb.float_rel_err(n)) == (
            qnb.pmf_float(n), qnb.tail_float(n), qnb.float_rel_err(n))
    for q in (F(1), F(1, 4), F(4)):
        assert nb.ratio_geometric_form(q) == qnb.ratio_geometric_form(q)
    assert nb.truncation_point() == qnb.truncation_point()
    nb_draws, qnb_draws = (law.sample(np.random.default_rng(7), 64) for law in (nb, qnb))
    assert nb_draws.dtype == qnb_draws.dtype and (nb_draws == qnb_draws).all()


def test_nb_refuses_rho0_outside_the_unit_interval():
    for rho0 in (F(-1, 2), F(1)):
        with pytest.raises(ValueError, match=r"rho0 must be in \[0, 1\)"):
            NegativeBinomial(rho0)


def _every_kind_of_law():
    params = Params(F(1, 2), F(1))
    return [
        PointMass(2), FiniteSupport(((0, F(1, 3)), (4, F(2, 3)))), Geometric(F(1, 2)),
        QNegativeBinomial(F(1, 4), F(1, 2)), QNegativeBinomial(F(9, 4), F(2, 9)),
        NegativeBinomial(F(1, 2)), ShiftedPoisson(1.0),
        LevelLaw.point(1), LevelLaw.geometric(F(1, 3)), LevelLaw.from_pmf({0: F(1, 2), 3: F(1, 2)}),
        g_law_from_initial(QNegativeBinomial(params.q, F(1, 2)), params, "G"),
        g_law_from_initial(Geometric(F(1, 3)), params, "Gtilde"),
    ]


@pytest.mark.parametrize("law", _every_kind_of_law(), ids=repr)
def test_every_law_is_zero_below_and_whole_at_the_bottom(law):
    assert isinstance(law, InitialLaw)
    for n in (-3, -2, -1):
        assert law.pmf(n) == 0
    for n in (-3, -1, 0):
        assert law.tail(n) == 1
    if law.exact:
        assert law.tail(1) == 1 - law.pmf(0)


def test_level_law_constructors_give_catalog_laws():
    assert LevelLaw.point(3) == PointMass(3)
    assert LevelLaw.geometric(F(1, 3)) == Geometric(F(1, 3))
    assert LevelLaw.from_pmf({2: F(3, 4), 0: F(1, 4)}) == FiniteSupport(((0, F(1, 4)), (2, F(3, 4))))


@pytest.mark.parametrize("lam", ["nan", "inf", "1e300", "-inf", "0", "-1", "10000001"])
def test_shifted_poisson_rejects_unusable_means(lam):
    with pytest.raises(ValueError, match="lam"):
        parse_initial_law(f"spoisson:{lam}")


def test_shifted_poisson_accepts_means_up_to_the_cap():
    assert parse_initial_law("spoisson:1e7") == ShiftedPoisson(1e7)


# -- finite laws summed over their atoms -------------------------------------------


@st.composite
def finite_laws_with_zero_atoms(draw):
    levels = draw(st.lists(st.integers(0, 25), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(levels), max_size=len(levels))
                   .filter(any))
    return FiniteSupport(tuple((n, F(w, sum(weights))) for n, w in zip(levels, weights)))


FINITE_LAWS = st.one_of(finite_laws_with_zero_atoms(), st.builds(PointMass, st.integers(0, 25)))
QS = st.sampled_from([F(1, 4), F(4, 9), F(1), F(9, 4), F(3)])


@given(FINITE_LAWS, QS, st.integers(0, 30))
def test_exact_sums_equal_their_per_level_definitions(law, q, a):
    # every level from a up to the top, zero masses included, as written in
    # the definitions; a may lie past the top.  The bracket sums the exact
    # routes took per level are oracles in tests/test_exact_routes.py now.
    levels = range(a, law.masses[-1][0] + 1 if isinstance(law, FiniteSupport) else law.n + 1)
    assert law.ratio_tail_exact(a, q) == sum(
        (law.pmf(j) / q_bracket(j + 1, q) for j in levels), F(0))


@given(FINITE_LAWS, st.sampled_from([(F(1, 2), "I"), (F(2, 3), "I"), (F(3, 2), "II")]))
def test_v_law_equals_its_per_level_definition(law, rho_part):
    rho, part = rho_part
    params = Params(rho, F(1))
    q = params.q if part == "I" else 1 / params.q
    top = law.support_max()
    weights = [law.pmf(k) / q_bracket(k + 1, q) for k in range(top + 1)]
    vlaw = v_law_from_initial(law, params, part)
    for k in range(top + 3):
        assert vlaw.pmf(k) == (weights[k] / sum(weights) if k <= top else 0)


def test_point_mass_exact_sums_read_one_atom(monkeypatch):
    # probing every level below the atom took ~10^5 pmf calls per sum
    calls = []
    pmf = PointMass.pmf
    monkeypatch.setattr(PointMass, "pmf", lambda self, n: calls.append(n) or pmf(self, n))
    law, params = PointMass(10**5), Params(F(1, 2), F(1))
    q = params.q
    glaw = g_law_from_initial(law, params, "G")
    assert law.ratio_tail_exact(3, q) == 1 / q_bracket(10**5 + 1, q)
    chain_increment_law(1, law, params)
    glaw.pmf(7), glaw.tail(7)
    vlaw = v_law_from_initial(law, params, "I")
    assert vlaw.pmf(10**5) == 1
    conditioned_walk_law(1, vlaw, params, "I")
    chain_increment_law(2, law, params, route="product")
    assert len(calls) <= 2


@pytest.mark.parametrize("params", [Params(F(1, 2)), Params(F(2, 3), F(1)), Params(F(2), F(1, 2))],
                         ids=lambda p: f"rho={p.rho},sigma={p.sigma}")
def test_geo_zero_is_the_point_mass_at_zero(params):
    """geo:0 puts all its mass on 0, so every table is exact and equals
    point:0's."""
    geo, point = Geometric(F(0)), PointMass(0)
    assert geo.atoms() == point.atoms() and geo.truncation_point() == 0
    for t in range(5):
        for route in ("formula", "product"):
            a, b = (chain_increment_law(t, law, params, route) for law in (geo, point))
            assert a.mode == b.mode == "exact" and (a.den, a.nums) == (b.den, b.nums)
        ga, gb = (g_law_from_initial(law, params) for law in (geo, point))
        assert ga.exact and [ga.pmf(n) for n in range(t + 2)] == [gb.pmf(n) for n in range(t + 2)]
        a, b = rhs_law_enumeration(t, ga, params), rhs_law_enumeration(t, gb, params)
        assert a.mode == b.mode == "exact" and (a.den, a.nums) == (b.den, b.nums)
    if params.rho < 1:
        assert v_law_from_initial(geo, params) == v_law_from_initial(point, params)
