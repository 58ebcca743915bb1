from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pitman_lab import (
    Approx,
    PointMass,
    QNegativeBinomial,
    Geometric,
    UnsupportedExactModeError,
    parse_rat,
    q_bracket,
    rat_str,
    tail_sum_ratio,
)
from pitman_lab import exact
from pitman_lab.exact import geometric_bracket_tail, geometric_tail


def brute_tail_sum_ratio(law, n, q, terms=400):
    """Independent oracle: literal partial sum of pmf(j)/[j+1]_q."""
    return sum((law.pmf(j) / q_bracket(j + 1, q) for j in range(n, n + terms)), F(0))


rationals = st.fractions(min_value=F(1, 50), max_value=F(100), max_denominator=50)


class TestQBracket:
    def test_small_values(self):
        assert q_bracket(3, F(2)) == 7
        assert q_bracket(0, F(2)) == 0
        assert q_bracket(4, F(1, 2)) == F(15, 8)

    def test_q_one_is_plain_integer(self):
        for n in range(65):
            assert q_bracket(n, F(1)) == n

    @given(st.integers(0, 64), rationals)
    def test_product_identity(self, n, q):
        if q != 1:
            assert q_bracket(n, q) * (q - 1) == q**n - 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_bracket(-1, F(2))


class TestGeometricSums:
    @given(st.fractions(min_value=0, max_value=F(9, 10), max_denominator=20),
           st.integers(0, 10))
    def test_tail(self, r, a):
        assert geometric_tail(r, a) == sum(r**k for k in range(a, a + 300)) + \
            r ** (a + 300) / (1 - r)

    def test_bracket_tail_matches_partial_sums(self):
        r, q = F(1, 3), F(2)
        partial = sum(r**k * q_bracket(k + 4, q) for k in range(2, 200))
        exact = geometric_bracket_tail(r, 2, 3, q)
        assert partial < exact < partial + F(1, 10**20)

    def test_bracket_tail_q_one(self):
        r = F(1, 2)
        partial = sum(r**k * (k + 1) for k in range(300))
        exact = geometric_bracket_tail(r, 0, 0, F(1))
        assert partial < exact < partial + F(1, 10**80)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            geometric_bracket_tail(F(1, 2), 0, 0, F(3))


class TestTailSumRatio:
    def test_point_mass_single_term(self):
        assert tail_sum_ratio(PointMass(2), 0, F(2)) == 1 / q_bracket(3, F(2))
        assert tail_sum_ratio(PointMass(2), 3, F(2)) == 0

    @pytest.mark.parametrize("q,theta", [(F(1, 4), F(1, 2)), (F(4), F(1, 5)), (F(1), F(1, 3))])
    def test_qnb_closed_form(self, q, theta):
        law = QNegativeBinomial(q, theta)
        for n in range(6):
            val = tail_sum_ratio(law, n, q)
            assert val == (1 - theta * q) * theta**n
            partial = brute_tail_sum_ratio(law, n, q)
            assert partial < val < partial + F(1, 10**15)

    def test_qnb_inverse_q_closed_form(self):
        q, theta = F(1, 4), F(1, 2)
        law = QNegativeBinomial(q, theta)
        for n in range(6):
            val = tail_sum_ratio(law, n, 1 / q)
            partial = brute_tail_sum_ratio(law, n, 1 / q)
            assert partial < val <= partial + F(1, 10**10)

    def test_monotone_and_bounded(self):
        law = QNegativeBinomial(F(1, 4), F(1, 2))
        vals = [tail_sum_ratio(law, n, F(1, 4)) for n in range(10)]
        assert vals[0] <= 1
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_unsupported_exact_mode(self):
        with pytest.raises(UnsupportedExactModeError):
            tail_sum_ratio(Geometric(F(1, 3)), 0, F(1, 4), mode="exact")

    def test_approx_within_bound_of_longer_truncation(self):
        law = Geometric(F(1, 2))
        short = tail_sum_ratio(law, 0, F(1, 4), mode="approx", trunc_n=30)
        long = tail_sum_ratio(law, 0, F(1, 4), mode="approx", trunc_n=300)
        assert isinstance(short, Approx)
        assert abs(short.value - long.value) <= short.err
        auto = tail_sum_ratio(law, 0, F(1, 4), mode="approx")
        assert abs(auto.value - long.value) <= max(auto.err, 1e-14)

    @pytest.mark.parametrize("trunc_n", [None, 30])
    def test_past_the_cutoff_builds_no_table(self, monkeypatch, trunc_n):
        law, q = Geometric(F(99, 100)), F(1, 4)
        top = law.truncation_point() if trunc_n is None else trunc_n
        want = [exact.TailSumTable(law, q, trunc_n).at(n) for n in (top + 1, top + 7, 4 * 10**6)]

        def refused(*args):
            raise AssertionError("a table was built past the cutoff")

        monkeypatch.setattr(exact.TailSumTable, "__init__", refused)
        got = [tail_sum_ratio(law, n, q, "approx", trunc_n) for n in (top + 1, top + 7, 4 * 10**6)]
        assert got == want and all(value == 0.0 for value, _ in got)


    @pytest.mark.parametrize("trunc_n", [None, 30])
    def test_one_table_per_law_q_and_cutoff(self, monkeypatch, trunc_n):
        from pitman_lab import Params, g_law_from_initial

        law, q = Geometric(F(99, 100)), F(1, 4)
        fresh = exact.TailSumTable(law, q, trunc_n)
        built = []
        init = exact.TailSumTable.__init__
        monkeypatch.setattr(exact.TailSumTable, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        got = [tail_sum_ratio(law, n, q, "approx", trunc_n) for n in range(12)]
        glaw = g_law_from_initial(law, Params(F(1, 2)), "G", mode="approx", trunc_n=trunc_n)
        levels = [(glaw.pmf(n), glaw.tail(n)) for n in range(12)]
        assert len(built) == 1 and all(0 < pmf < tail for pmf, tail in levels[1:])
        assert got == [fresh.at(n) for n in range(12)]  # value and err, bit for bit
        # another cutoff or another q is another table
        tail_sum_ratio(law, 0, q, "approx", 40)
        tail_sum_ratio(law, 0, F(1, 9), "approx", trunc_n)
        assert len(built) == 3


class TestApproxErrCoversRounding:
    """Approx.err must bound the distance to the exact value, rounding included."""

    def test_reference_encloses_exact_partial_sum(self, ratio_tails):
        p, q = F(1, 3), F(1, 4)
        law = Geometric(p)
        for n, (lo, hi) in enumerate(ratio_tails(p, q, 3)):
            exact_head = brute_tail_sum_ratio(law, n, q, terms=60)
            assert lo <= exact_head + p ** (n + 60) and exact_head <= hi

    @pytest.mark.parametrize("p", [F(49, 50), F(99, 100)])
    @pytest.mark.parametrize("rho", [F(1, 2), F(2, 3)])
    def test_err_bounds_distance_to_certified_value(self, p, rho, ratio_tails, within_err):
        q = rho**2
        for n, (lo, hi) in enumerate(ratio_tails(p, q, 10)):
            approx = tail_sum_ratio(Geometric(p), n, q, mode="approx")
            assert within_err(approx.value, approx.err, lo, hi), n
            # a bound that stays meaningful: far below the values summed
            assert approx.err < 1e-12


def test_rat_serialization_round_trip():
    assert rat_str(F(-3, 7)) == "-3/7"
    assert parse_rat("-3/7") == F(-3, 7)
    assert parse_rat("5") == 5
