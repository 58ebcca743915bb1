import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from pitman_lab import (
    DistTable,
    FiniteSupport,
    Geometric,
    LevelLaw,
    NegativeBinomial,
    Params,
    Path,
    PointMass,
    QNegativeBinomial,
    ShiftedPoisson,
    damage_check,
    enumerate_paths,
    g_law_from_initial,
    poisson_split_check,
    preimage,
    q_bracket,
    rhs_law_enumeration,
    rhs_law_table_formula,
    stats,
    verify_thm1,
    verify_two_sided,
    walk_match_report,
    walk_law,
    walk_path_prob,
)
from pitman_lab import exact, processes, representation, transform
from pitman_lab.exact import geometric_bracket_tail, geometric_tail, prob_json
from pitman_lab.paths import class_path, class_rows, path_classes
from pitman_lab.representation import compare_routes

FS3 = FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2))))


def brute_pushforward(t, glaw, params, g_top=40):
    """Oracle: P(T_G(S) = x) by direct mixing over (g, s), with the exact
    geometric remainder P(G > g_top) landing on the negated path."""
    from pitman_lab import apply_T

    table = {}
    for s in enumerate_paths(t, allow_flat=params.sigma > 0):
        ws = walk_path_prob(s, params)
        for g in range(g_top + 1):
            x = apply_T(g, s)
            table[x] = table.get(x, F(0)) + glaw.pmf(g) * ws
    # for g > g_top >= t >= max running max, the image is -s identically
    for s in enumerate_paths(t, allow_flat=params.sigma > 0):
        x = s.negate()
        table[x] = table.get(x, F(0)) + glaw.tail(g_top + 1) * walk_path_prob(s, params)
    return table


def member_pushforward(t, glaw, params):
    """Oracle for the counted pushforward: per class, build every sporadic
    member path and add its ``walk_path_prob`` one Fraction at a time."""
    def pushforward(key):
        pre = preimage(class_path(t, key))
        sporadic = sum((walk_path_prob(s, params) for _, s in pre.sporadic), F(0))
        val = (glaw.tail(pre.ray_g_min) * walk_path_prob(pre.ray_path, params)
               + glaw.pmf(pre.ray_g_min) * sporadic)
        return val if glaw.exact else float(val)

    return DistTable.of_classes(t, params.sigma > 0, "exact" if glaw.exact else "approx",
                                pushforward)


class TestGLaw:
    def test_point_mass_at_q_one_is_uniform(self):
        glaw = g_law_from_initial(PointMass(4), Params(F(1)), "G")
        assert all(glaw.pmf(m) == F(1, 5) for m in range(5))
        assert glaw.pmf(5) == 0

    @pytest.mark.parametrize("rho,rho0", [(F(3, 2), F(1, 2)), (F(5, 4), F(2, 5))])
    def test_qnb_gives_geometric(self, rho, rho0):
        params = Params(rho)
        law = QNegativeBinomial(params.q, rho0 / rho)
        g = g_law_from_initial(law, params, "G")
        gt = g_law_from_initial(law, params, "Gtilde")
        for n in range(30):
            assert g.pmf(n) == (1 - rho0 * rho) * (rho0 * rho) ** n
            assert gt.pmf(n) == (1 - rho0 / rho) * (rho0 / rho) ** n
            assert g.tail(n) == (rho0 * rho) ** n

    def test_tail_consistent_with_pmf(self):
        for law in (PointMass(3), FS3, QNegativeBinomial(F(1, 4), F(1, 2))):
            glaw = g_law_from_initial(law, Params(F(1, 2)), "G")
            assert glaw.tail(0) == 1
            for n in range(12):
                assert glaw.tail(n) - glaw.tail(n + 1) == glaw.pmf(n)

    def test_thinning_mixture_route(self):
        # mixing the conditional law q^m/[n+1]_q over the initial law gives
        # the same pmf as the tail-sum formula
        params = Params(F(2, 3))
        q = params.q
        glaw = g_law_from_initial(FS3, params, "G")
        for m in range(8):
            mix = sum(
                FS3.pmf(n) * q**m / q_bracket(n + 1, q)
                for n in range(m, 6)
            )
            assert glaw.pmf(m) == mix

    def test_complement_matches_flipped_law(self):
        # X0 - G (under the thinning coupling) has the law built at 1/q
        params = Params(F(2, 3))
        q = params.q
        glaw_t = g_law_from_initial(FS3, params, "Gtilde")
        for k in range(8):
            conv = sum(
                FS3.pmf(n) * q ** (n - k) / q_bracket(n + 1, q)
                for n in range(k, 6)
            )
            assert glaw_t.pmf(k) == conv

    @pytest.mark.parametrize("which", ["G", "Gtilde"])
    def test_approx_level_law_within_err(self, which, ratio_tails, within_err):
        p, params = F(49, 50), Params(F(2, 3), F(1))
        q = params.q if which == "G" else 1 / params.q
        glaw = g_law_from_initial(Geometric(p), params, which)
        assert not glaw.exact
        if q < 1:
            # P(G = n) = q^n S(n) and P(G >= n) = p^n - [n]_q S(n)
            for n, (lo, hi) in enumerate(ratio_tails(p, q, 8)):
                qn, br = q**n, q_bracket(n, q)
                assert within_err(glaw.pmf(n), glaw.pmf_err(n), qn * lo, qn * hi), n
                assert within_err(glaw.tail(n), glaw.tail_err(n),
                                  p**n - br * hi, p**n - br * lo), n
        mass = math.fsum(glaw.pmf(n) for n in range(5000))
        assert abs(mass - 1) <= sum(glaw.pmf_err(n) for n in range(5000)) + 1e-15

    @pytest.mark.parametrize("rho", [F(2, 3), F(1), F(3, 2)])
    @pytest.mark.parametrize("which", ["G", "Gtilde"])
    def test_exact_values_are_those_of_the_per_level_closures(self, rho, which):
        # the closures as they were when each level rebuilt every part:
        # q^n S(n) and P(X0 >= n) - [n]_q S(n), S(n) = sum over j >= n of
        # p_j/[j+1]_q from the atoms or the geometric form, per level
        def ratio_sum(law, n, q):
            if (atoms := law.atoms()) is not None:
                return sum((p / q_bracket(j + 1, q) for j, p in atoms if j >= n), F(0))
            c, r = law.ratio_geometric_form(q)
            return c * geometric_tail(r, n)

        params = Params(rho, F(1))
        q = params.q if which == "G" else 1 / params.q
        finite = FiniteSupport(((1, F(1, 3)), (4, F(0)), (9, F(2, 3))))
        laws = [PointMass(0), PointMass(7), FS3, finite, Geometric(F(0)), Geometric(F(1, 3)),
                QNegativeBinomial(params.q, F(1, 3)),
                QNegativeBinomial(1 / params.q, F(1, 3)), NegativeBinomial(F(2, 5))]
        exact = 0
        for law in laws:
            glaw = g_law_from_initial(law, params, which)
            assert glaw.exact == law.exact_capable(q)
            if not glaw.exact:  # geo:1/3 everywhere, nb off q = 1
                continue
            exact += 1
            for n in range(41):
                s = ratio_sum(law, n, q)
                assert glaw.pmf(n) == q**n * s, (law, n)
                assert glaw.tail(n) == law.tail(n) - q_bracket(n, q) * s, (law, n)
        assert exact == (len(laws) - 1 if rho == 1 else len(laws) - 2)

    @pytest.mark.parametrize("rho", [F(2, 3), F(1), F(3, 2)])
    @pytest.mark.parametrize("which", ["G", "Gtilde"])
    def test_int_pairs_are_the_per_level_fractions(self, rho, which):
        # every pair has a positive denominator and is, as a Fraction, the
        # value the Fraction formulas give: the law's tail (its masses, or
        # c times the bracket tail of a qnb law) and ratio tail, and the
        # level law's pmf and tail at q and at 1/q; and a qnb pmf is the
        # product of its Fraction factors
        def ratio_sum(law, n, q):
            if (atoms := law.atoms()) is not None:
                return sum((p / q_bracket(j + 1, q) for j, p in atoms if j >= n), F(0))
            c, r = law.ratio_geometric_form(q)
            return c * geometric_tail(r, n)

        def law_tail(law, n):
            if (atoms := law.atoms()) is not None:
                return sum((p for j, p in atoms if j >= n), F(0))
            c = (1 - law.theta) * (1 - law.theta * law.q)
            return c * geometric_bracket_tail(law.theta, max(n, 0), 0, law.q)

        def value(pair):
            assert pair[1] > 0
            return F(*pair)

        params = Params(rho, F(1))
        q = params.q if which == "G" else 1 / params.q
        finite = FiniteSupport(((1, F(1, 3)), (4, F(0)), (9, F(2, 3))))
        laws = [PointMass(0), PointMass(7), FS3, finite, Geometric(F(0)),
                QNegativeBinomial(params.q, F(1, 3)),
                QNegativeBinomial(1 / params.q, F(1, 3)), QNegativeBinomial(params.q, F(0)),
                NegativeBinomial(F(2, 5))]
        for law in laws:
            for n in range(-2, 41):
                assert value(law.tail_pair(n)) == law_tail(law, n), (law, n)
            if isinstance(law, QNegativeBinomial):
                for n in range(-2, 41):
                    assert law.pmf(n) == (
                        q_bracket(n + 1, law.q) * law.theta**n * (1 - law.theta)
                        * (1 - law.theta * law.q) if n >= 0 else 0), (law, n)
            if not law.exact_capable(q):  # nb off q = 1
                continue
            glaw = g_law_from_initial(law, params, which)
            for n in range(41):
                s = ratio_sum(law, n, q)
                assert value(law.ratio_tail_pair(n, q)) == s == law.ratio_tail_exact(n, q)
                assert q**n * s == glaw.pmf(n), (law, n)
                assert value(glaw.tail_pair(n)) == law_tail(law, n) - q_bracket(n, q) * s, (law, n)
            assert glaw.tail_pair(0) == (1, 1)

    def test_an_atom_bracket_is_built_once_per_law(self, monkeypatch):
        calls = []
        bracket = processes.q_bracket
        monkeypatch.setattr(processes, "q_bracket",
                            lambda n, q: calls.append(n) or bracket(n, q))
        glaw = g_law_from_initial(PointMass(630), Params(F(2, 3)), "G")
        for n in range(31):
            glaw.pmf(n), glaw.tail(n)
        assert calls == [631]

    def test_shifted_poisson_gives_poisson(self):
        glaw = g_law_from_initial(ShiftedPoisson(1.0), Params(F(1)), "G",
                                  mode="approx", trunc_n=200)
        for m in range(21):
            assert abs(glaw.pmf(m) - math.exp(-1) / math.factorial(m)) <= 1e-12


class TestRhsLaw:
    def test_formula_examples(self):
        params = Params(F(1))
        g0 = LevelLaw.point(0)
        table = rhs_law_table_formula(1, g0, params)
        assert table[Path.parse("0,1")] == 1
        assert table[Path.parse("0,-1")] == 0

    @pytest.mark.parametrize("rho", [F(1, 2), F(2, 3)])
    @pytest.mark.parametrize("sigma", [F(0), F(1)])
    def test_geometric_level_gives_walk_law(self, rho, sigma):
        params = Params(rho, sigma)
        glaw = LevelLaw.geometric(params.q)
        for t in (1, 3, 5):
            wl, form = walk_law(t, params), rhs_law_table_formula(t, glaw, params)
            for x in wl.entries:
                assert form[x] == wl[x]

    @pytest.mark.parametrize("glaw", [
        LevelLaw.point(0),
        LevelLaw.point(2),
        LevelLaw.geometric(F(1, 3)),
        LevelLaw.from_pmf({0: F(1, 2), 3: F(1, 2)}),
    ])
    @pytest.mark.parametrize("rho,sigma", [(F(1, 2), F(0)), (F(1), F(1)), (F(3, 2), F(1))])
    def test_enumeration_equals_formula_and_mass(self, glaw, rho, sigma):
        params = Params(rho, sigma)
        for t in (1, 2, 4):
            enum = rhs_law_enumeration(t, glaw, params)
            form = rhs_law_table_formula(t, glaw, params)
            assert enum.max_abs_diff(form) == (0, None)
            assert enum.mass() == 1

    @pytest.mark.parametrize("glaw", [LevelLaw.point(1), LevelLaw.geometric(F(1, 4))])
    def test_against_brute_force_pushforward(self, glaw):
        params = Params(F(2, 3), F(1))
        for t in (1, 2, 3):
            enum = rhs_law_enumeration(t, glaw, params)
            brute = brute_pushforward(t, glaw, params)
            assert set(brute) == set(enum.entries)
            for x, v in brute.items():
                assert enum[x] == v

    @pytest.mark.parametrize("route", [rhs_law_enumeration, rhs_law_table_formula],
                             ids=lambda route: route.__name__)
    @pytest.mark.parametrize("kind", ["qnb", "finite"])
    @pytest.mark.parametrize("rho,sigma", [(F(1, 2), F(0)), (F(2, 3), F(1)), (F(3, 2), F(1))])
    def test_approx_err_bounds_the_distance_to_the_exact_table(self, route, kind, rho, sigma):
        """The level law of an exact-capable law, forced to floats: the summed
        distance over every path of the approx table to the exact one is
        within its ``err``."""
        params = Params(rho, sigma)
        law = QNegativeBinomial(params.q, F(1, 5)) if kind == "qnb" else FS3
        exact_g = g_law_from_initial(law, params, "G")
        approx_g = g_law_from_initial(law, params, "G", mode="approx")
        for t in range(1, 7):
            exact_table, approx = route(t, exact_g, params), route(t, approx_g, params)
            assert (exact_table.mode, approx.mode) == ("exact", "approx")
            distance = sum(size * abs(F(approx.values[key]) - exact_table.values[key])
                           for key, size in approx.sizes.items())
            assert distance <= approx.err < 1e-12


class TestCountedPushforward:
    """``rhs_law_enumeration`` counts the sporadic members from the flips of
    ``preimage``; the member-building pushforward is its oracle."""

    @pytest.mark.parametrize("case", ["qnb", "point"])
    def test_equals_the_member_oracle(self, case):
        if case == "qnb":
            params = Params(F(2, 3), F(1))
            law = QNegativeBinomial(params.q, F(1, 2))
        else:
            params, law = Params(F(1, 2), F(0)), PointMass(3)
        glaw = g_law_from_initial(law, params, "G")
        for t in range(1, 11):
            counted = rhs_law_enumeration(t, glaw, params)
            oracle = member_pushforward(t, glaw, params)
            assert list(counted.values.items()) == list(oracle.values.items())
            assert all(type(v) is F for v in counted.values.values())

    @pytest.mark.parametrize("law", [ShiftedPoisson(1.5), NegativeBinomial(F(1, 3))])
    @pytest.mark.parametrize("rho,sigma", [(F(2, 3), F(1)), (F(3, 2), F(1, 2)), (F(1), F(0))])
    def test_float_values_have_the_oracles_bits(self, law, rho, sigma):
        params = Params(rho, sigma)
        glaw = g_law_from_initial(law, params, "G", mode="approx")
        for t in range(1, 7):
            counted = rhs_law_enumeration(t, glaw, params)
            oracle = member_pushforward(t, glaw, params)
            assert counted.mode == oracle.mode == "approx"
            assert ([(x, v.hex()) for x, v in counted.values.items()]
                    == [(x, v.hex()) for x, v in oracle.values.items()])

    def test_reaches_no_closed_form_code(self, monkeypatch):
        params = Params(F(2, 3), F(1))
        glaws = [LevelLaw.geometric(F(1, 3)),
                 g_law_from_initial(QNegativeBinomial(params.q, F(1, 2)), params, "G")]
        want = [rhs_law_enumeration(6, glaw, params) for glaw in glaws]  # fills the level caches

        def refuse(*args):
            raise AssertionError("closed-form code reached")

        monkeypatch.setattr(representation, "rhs_law_table_formula", refuse)
        monkeypatch.setattr(transform, "preimage_stats", refuse)
        for module in (exact, processes, representation):
            monkeypatch.setattr(module, "q_bracket", refuse)
            monkeypatch.setattr(module, "bracket_int", refuse)
        for glaw, table in zip(glaws, want):
            assert rhs_law_enumeration(6, glaw, params).values == table.values

    @staticmethod
    def mutated(monkeypatch, mutate):
        """``preimage_flips`` with each block's flip array passed through
        ``mutate``, with the value rows it was read from."""
        real = representation.preimage_flips
        monkeypatch.setattr(representation, "preimage_flips",
                            lambda vals: mutate(real(vals).copy(), vals))

    def test_a_flip_onto_a_plus_one_step_raises(self, monkeypatch):
        def onto_an_up_step(flips, vals):  # a lone flip moved to the ray's first +1 step
            for row, x in zip(flips, vals):
                ups = np.flatnonzero(np.diff(x) == -1)
                if row.sum() == 1 and len(ups):
                    row[:] = False
                    row[ups[0]] = True
            return flips

        self.mutated(monkeypatch, onto_an_up_step)
        glaw = LevelLaw.geometric(F(1, 3))
        with pytest.raises(ArithmeticError, match=r"class \(-3, -2, 0\): 1 flips, 0 on -1 steps "
                                                  "of the ray, not x_t - K0 = 1"):
            rhs_law_enumeration(4, glaw, Params(F(2, 3), F(1)))

    def test_a_repeated_flip_raises(self, monkeypatch):
        """In the flip array a step cannot flip twice; the analogue is one
        flip more than x_t - K0, on a further -1 step of the ray."""
        def one_more(flips, vals):
            for row, x in zip(flips, vals):
                spare = np.flatnonzero((np.diff(x) == 1) & ~row)
                if row.any() and len(spare):
                    row[spare[-1]] = True
            return flips

        self.mutated(monkeypatch, one_more)
        glaw = LevelLaw.geometric(F(1, 3))
        with pytest.raises(ArithmeticError, match=r"class \(-1, 0, 0\): 2 flips, 2 on -1 steps "
                                                  "of the ray, not x_t - K0 = 1"):
            rhs_law_enumeration(4, glaw, Params(F(2, 3), F(1)))

    def test_reads_the_rows_not_the_key(self, monkeypatch):
        """Fed the rows of other classes, each key gets the value of the class
        whose row it was given: K0, x_t, H and the flip count come from the
        row.  A route that took any of them from the key would not."""
        params = Params(F(2, 3), F(1))
        glaw = g_law_from_initial(QNegativeBinomial(params.q, F(1, 2)), params, "G")
        honest = rhs_law_enumeration(6, glaw, params)
        keys = list(honest.sizes)
        swap = dict(zip(keys, reversed(keys)))
        real = representation.class_rows
        monkeypatch.setattr(representation, "class_rows",
                            lambda t, block: real(t, [swap[key] for key in block]))
        lied = rhs_law_enumeration(6, glaw, params)
        assert lied.values == {key: honest.values[swap[key]] for key in keys}

    @pytest.mark.parametrize("allow_flat", [True, False])
    def test_rows_and_flips_equal_the_per_path_preimage(self, allow_flat):
        """Every class at t <= 10: the step array's rows are the
        representatives ``class_path`` builds, and the flips read off their
        values are the flips of ``preimage``."""
        for t in range(11):
            keys = [key for key, _ in path_classes(t, allow_flat)]
            rows = class_rows(t, keys)
            assert rows.dtype == np.int8 and rows.shape == (len(keys), t)
            vals = np.concatenate([np.zeros((len(keys), 1), np.int16),
                                   np.cumsum(rows, axis=1, dtype=np.int16)], axis=1)
            flips = transform.preimage_flips(vals)
            for key, row, flip in zip(keys, rows.tolist(), flips):
                x = class_path(t, key)
                assert tuple(row) == x.steps
                assert tuple(np.flatnonzero(flip).tolist()) == preimage(x).flips, (t, key)


class TestVerify:
    def test_forward_pass(self):
        rep = verify_thm1(4, PointMass(1), Params(F(1, 2)), "I")
        assert rep["status"] == "PASS" and rep["max_abs_diff"]["float"] == 0.0

    def test_wrong_candidate_gives_witness(self):
        rep = verify_thm1(2, PointMass(1), Params(F(1, 2)), "I",
                          candidate=LevelLaw.point(0))
        assert rep["status"] == "FAIL"
        assert rep["witness"] is not None

    def test_qnb_geometric_candidate_passes(self):
        rho, rho0 = F(3, 2), F(1, 2)
        params = Params(rho)
        law = QNegativeBinomial(params.q, rho0 / rho)
        rep = verify_thm1(3, law, params, "I",
                          candidate=LevelLaw.geometric(rho0 * rho))
        assert rep["status"] == "PASS"

    def test_part_two(self):
        rep = verify_thm1(4, FS3, Params(F(2, 3), F(1)), "II")
        assert rep["status"] == "PASS"

    def test_an_exact_horizon_past_the_default_cap(self, monkeypatch):
        monkeypatch.setenv("PITMAN_LAB_CAP", "24")
        params = Params(F(2, 3), F(1))
        law = QNegativeBinomial(params.q, F(1, 2))
        rep = verify_thm1(24, law, params, "I", t_values=[24])
        assert rep["status"] == "PASS" and rep["exact"] is True
        assert rep["max_abs_diff"]["value"] == "0/1" and rep["witness"] is None

    def test_each_table_mass_is_checked_once(self, monkeypatch):
        from pitman_lab import DistTable

        calls = []
        mass = DistTable.mass
        monkeypatch.setattr(DistTable, "mass", lambda self: calls.append(self) or mass(self))
        rep = verify_thm1(3, FS3, Params(F(2, 3), F(1)), "I")
        assert rep["status"] == "PASS"
        assert len(calls) == len({id(table) for table in calls}) == 3 * 3

    def test_approx_initial_law(self):
        rep = verify_thm1(3, Geometric(F(1, 3)), Params(F(2, 3)), "I")
        assert rep["status"] == "PASS" and rep["exact"] is False

    def test_approx_report_names_its_tolerance(self):
        law, params = Geometric(F(1, 3)), Params(F(2, 3))
        rep = verify_thm1(3, law, params, "I")
        assert rep["status"] == "PASS" and rep["witness"] is None
        assert "tolerance_parts" not in rep
        # the largest pair bound: the sum of the pair's two tables' err, widened by 4u
        glaw = g_law_from_initial(law, params, "G")
        bounds = []
        for t in (1, 2, 3):
            chain = processes.chain_increment_law(t, law, params, mode="approx")
            enum, form = rhs_law_enumeration(t, glaw, params), rhs_law_table_formula(t, glaw, params)
            bounds += [(a.err + b.err) * (1 + 4 * exact.UNIT_ROUNDOFF)
                       for a, b in ((chain, enum), (chain, form), (enum, form))]
        assert rep["tolerance"] == max(bounds)
        assert rep["max_abs_diff"]["float"] <= rep["tolerance"] < 1e-12

    def test_exact_report_has_no_tolerance(self):
        rep = verify_thm1(2, PointMass(1), Params(F(1, 2)), "I")
        assert rep["exact"] is True and "tolerance" not in rep

    @pytest.mark.parametrize("t, law, params", [
        (3, Geometric(F(1, 3)), Params(F(1, 2))),
        (3, Geometric(F(9, 10)), Params(F(3, 2), F(1, 2))),
        (4, ShiftedPoisson(2.0), Params(F(2, 3), F(1)))])
    def test_approx_two_sided_passes_within_its_tolerance(self, t, law, params):
        rep = verify_two_sided(t, law, params)
        assert rep["status"] == "PASS" and rep["witness"] is None
        assert 0 < rep["max_abs_diff"]["float"] <= rep["tolerance"] < 1e-12

    def test_exact_two_sided_and_walk_match_state_no_tolerance(self):
        assert "tolerance" not in verify_two_sided(3, PointMass(2), Params(F(2, 3)))
        params = Params(F(1, 2))
        assert "tolerance" not in walk_match_report(LevelLaw.geometric(params.q), params, 3)

    def test_approx_candidate_builds_every_horizon(self, monkeypatch):
        law, params = Geometric(F(1, 3)), Params(F(2, 3), F(1))
        built = []
        chain = representation.chain_increment_law
        monkeypatch.setattr(representation, "chain_increment_law",
                            lambda t, *args, **kw: built.append(t) or chain(t, *args, **kw))
        candidate = g_law_from_initial(law, params, "G", mode="approx")
        rep = verify_thm1(6, law, params, "I", candidate=candidate)
        assert rep["status"] == "PASS" and rep["witness"] is None and built == [1, 2, 3, 4, 5, 6]
        built.clear()
        wrong = g_law_from_initial(Geometric(F(1, 4)), params, "G", mode="approx")
        rep = verify_thm1(6, law, params, "I", candidate=wrong)
        assert rep["status"] == "FAIL" and rep["witness"]["horizon"] == 1 and built == [1]

    def test_approx_verify_sweeps_the_levels_once(self, monkeypatch):
        # one level sweep per call, at its largest horizon, read by every table
        law, params = Geometric(F(1, 3)), Params(F(2, 3), F(1))
        sweeps = []
        sweep = representation._chain_level_sweep
        monkeypatch.setattr(representation, "_chain_level_sweep",
                            lambda t_max, *args: sweeps.append(t_max) or sweep(t_max, *args))
        assert verify_thm1(5, law, params, "I")["status"] == "PASS" and sweeps == [5]
        sweeps.clear()
        assert verify_thm1(5, law, params, "I", t_values=[2, 4])["status"] == "PASS"
        assert sweeps == [4]

    def test_an_approx_pair_past_its_bound_fails(self, monkeypatch):
        # the closed form's table with mass moved between its two largest
        # classes: the mass holds, and the two classes move far past the pair bound
        formula = representation.rhs_law_table_formula

        def moved(t, glaw, params):
            table = formula(t, glaw, params)
            (k1, v1), (k2, _) = sorted(table.values.items(), key=lambda kv: -kv[1])[:2]
            shift = 10 * v1 * 1e-12
            keys = list(table.sizes)  # the order of the float array
            table.floats[keys.index(k1)] += shift / table.sizes[k1]
            table.floats[keys.index(k2)] -= shift / table.sizes[k2]
            return table

        monkeypatch.setattr(representation, "rhs_law_table_formula", moved)
        rep = verify_thm1(3, Geometric(F(1, 3)), Params(F(2, 3)), "I")
        assert rep["status"] == "FAIL" and rep["max_abs_diff"]["float"] > rep["tolerance"]
        assert rep["witness"]["pair"] == "chain_vs_formula" and rep["witness"]["horizon"] == 1

    def test_an_approx_table_short_of_a_class_raises(self, monkeypatch):
        formula = representation.rhs_law_table_formula

        def dropped(t, glaw, params):
            table = formula(t, glaw, params)  # the largest class reads 0.0, as a missing one
            table.floats[list(table.sizes).index(max(table.values, key=table.values.get))] = 0.0
            return table

        monkeypatch.setattr(representation, "rhs_law_table_formula", dropped)
        with pytest.raises(ArithmeticError, match="has mass"):
            verify_thm1(2, Geometric(F(1, 3)), Params(F(2, 3)), "I")

    def test_no_horizon_is_an_error(self):
        with pytest.raises(ValueError, match="t=0"):
            verify_thm1(0, PointMass(1), Params(F(1, 2)), "I")
        with pytest.raises(ValueError, match="t=0"):
            verify_two_sided(0, PointMass(1), Params(F(1, 2)))

    def test_two_sided(self):
        assert verify_two_sided(4, PointMass(2), Params(F(2, 3)))["status"] == "PASS"
        assert verify_two_sided(3, NegativeBinomial(F(1, 2)), Params(F(1), F(1)))["status"] == "PASS"
        params = Params(F(3, 2))
        law = QNegativeBinomial(params.q, F(1, 3))
        assert verify_two_sided(3, law, params)["status"] == "PASS"

    def test_walk_match_both_directions(self):
        params = Params(F(1, 2), F(1))
        assert walk_match_report(LevelLaw.geometric(params.q), params, 4)["status"] == "MATCH"
        rep = walk_match_report(LevelLaw.geometric(F(1, 3)), params, 4)
        assert rep["status"] == "DIFFER" and rep["witness"]

    def test_walk_match_refuses_an_empty_horizon_range(self):
        with pytest.raises(ValueError, match="t=0 compares no table"):
            walk_match_report(Geometric(F(1, 2)), Params(F(1, 2)), 0)

    @pytest.mark.parametrize("verify", [lambda law, p: verify_thm1(0, law, p),
                                        lambda law, p: verify_two_sided(0, law, p)])
    def test_refuses_t0_before_building_a_float_level_law(self, verify):
        # geo:99999/100000 at rho = 1 has a float tail table of ~3.5M levels
        # (several seconds); the horizon refusal must not wait for it
        start = time.perf_counter()
        with pytest.raises(ValueError, match="t=0 compares no table"):
            verify(Geometric(F(99999, 100000)), Params(F(1)))
        assert time.perf_counter() - start < 1.0


class TestDamage:
    @pytest.mark.parametrize("q,theta", [(F(1, 4), F(1, 2)), (F(1), F(1, 2)), (F(4), F(1, 5))])
    def test_factorization(self, q, theta):
        rep = damage_check(q, theta, nmax=40)
        assert rep["status"] == "PASS"
        assert rep["factorization_violations"] == 0
        assert rep["rao_rubin_holds"] and rep["marginals_match"]

    def test_q_one_iid_marginals(self):
        rep = damage_check(F(1), F(1, 2), nmax=30)
        assert rep["survivor_law"] == rep["damaged_law"]

    def test_note_flags_assignment(self):
        assert "other way round" in damage_check(F(1, 4), F(1, 2), nmax=5)["note"]

    @pytest.mark.parametrize("q,theta", [(F(1, 4), F(1, 2)), (F(4), F(1, 5))])
    def test_violations_are_those_of_the_fraction_cells(self, monkeypatch, q, theta):
        pmf = QNegativeBinomial.pmf
        monkeypatch.setattr(QNegativeBinomial, "pmf",
                            lambda law, n: pmf(law, n) * (1 + F(n % 3, n + 5)))
        nmax = 20
        law = QNegativeBinomial(q, theta)
        violations, worst = 0, F(0)
        for n in range(nmax + 1):  # each cell as a normalized Fraction difference
            for r in range(n + 1):
                joint = law.pmf(n) / q_bracket(n + 1, q) * q**r
                split = (1 - q * theta) * (q * theta)**r * (1 - theta) * theta**(n - r)
                if d := abs(joint - split):
                    violations, worst = violations + 1, max(worst, d)
        rep = damage_check(q, theta, nmax=nmax)
        assert 0 < violations < (nmax + 1) * (nmax + 2) // 2
        assert rep["factorization_violations"] == violations
        assert rep["max_abs_diff"]["value"] == prob_json(worst)
        assert rep["status"] == "FAIL"

    @pytest.mark.parametrize("q,theta", [(F(1, 4), F(1, 2)), (F(1), F(1, 2)), (F(4), F(1, 5))])
    @pytest.mark.parametrize("level,side", [(0, "R"), (7, "R"), (0, "D"), (5, "D")])
    def test_marginal_and_rao_rubin_flags_are_those_of_the_fraction_check(
            self, monkeypatch, q, theta, level, side):
        ratio_tail_exact = QNegativeBinomial.ratio_tail_exact
        at = q if side == "R" else 1 / q

        def perturbed(law, n, q_):
            value = ratio_tail_exact(law, n, q_)
            return value * F(8, 7) if (n, q_) == (level, at) else value

        monkeypatch.setattr(QNegativeBinomial, "ratio_tail_exact", perturbed)
        nmax = 12
        law = QNegativeBinomial(q, theta)
        # the check in normalized Fractions, as it was before it compared ints
        q_pow = [q**r for r in range(nmax + 1)]
        survivor = [(1 - q * theta) * (q * theta)**r for r in range(nmax + 1)]
        damaged = [(1 - theta) * theta**d for d in range(nmax + 1)]
        per_n = [law.pmf(n) / q_bracket(n + 1, q) for n in range(nmax + 1)]
        marg_r = [q_pow[r] * law.ratio_tail_exact(r, q) for r in range(nmax + 1)]
        marg_ok = marg_r == survivor and all(
            law.ratio_tail_exact(d, 1 / q) / q_pow[d] == damaged[d] for d in range(nmax + 1))
        p_d0 = law.ratio_tail_exact(0, 1 / q)
        rao_rubin = all(per_n[r] * q_pow[r] / p_d0 == marg_r[r] for r in range(nmax + 1))
        rep = damage_check(q, theta, nmax=nmax)
        assert not marg_ok
        assert (rep["marginals_match"], rep["rao_rubin_holds"]) == (marg_ok, rao_rubin)
        assert rep["factorization_violations"] == 0 and rep["status"] == "FAIL"

    def test_poisson_split(self):
        rep = poisson_split_check()
        assert rep["status"] == "PASS"
        assert rep["sup_level_law_error"] <= 1e-12
        assert rep["sup_marginal_error"] <= 1e-12


class _FixedDiff:
    """A float table of mass 1 and ``err``, whose difference to any table is
    (diff, witness)."""
    mode, sizes = "approx", {}

    def __init__(self, diff, witness, err=0.0):
        self.diff, self.witness, self.err = diff, witness, err

    def mass(self):
        return 1.0

    def max_abs_diff(self, other):
        return self.diff, self.witness


def _pairs(rounds):
    """pairs_at for compare_routes: horizon t compares rounds[t - 1], a list
    of (difference, witness) or (difference, witness, err of each table),
    each pair labelled by its witness."""
    return lambda t: [(w, _FixedDiff(d, w, *err), _FixedDiff(d, w, *err))
                      for d, w, *err in rounds[t - 1]]


class TestWorstDifference:
    def test_first_strict_maximum_keeps_its_witness(self):
        rounds = [[(F(1, 3), "a"), (F(1, 2), "b")], [(F(1, 2), "c")], [(F(0), "d")]]
        assert compare_routes("test", [1, 2, 3], _pairs(rounds)) == (
            F(1, 2), 0.0, {"pair": "b", "path": "b", "horizon": 1})

    def test_no_difference_has_no_witness(self):
        rounds = [[(F(0), "a")], [(0.0, "b")]]
        assert compare_routes("test", [1, 2], _pairs(rounds)) == (F(0), 0.0, None)

    def test_a_pair_within_its_tables_err_holds(self):
        u = exact.UNIT_ROUNDOFF
        bound = (1e-15 + 1e-15) * (1 + 4 * u)
        rounds = [[(2e-15, "a", 1e-15)], [(bound, "b", 1e-15)]]
        assert compare_routes("test", [1, 2], _pairs(rounds), stop_at_witness=True) == (
            bound, bound, None)
        # past the bound by one ulp
        rounds = [[(math.nextafter(bound, 1), "c", 1e-15)]]
        assert compare_routes("test", [1], _pairs(rounds)) == (
            math.nextafter(bound, 1), bound, {"pair": "c", "path": "c", "horizon": 1})

    def test_an_exact_entry_met_by_a_float_one_adds_its_rounding(self):
        u = exact.UNIT_ROUNDOFF
        exact_table, float_table = _FixedDiff(1e-16, "a"), _FixedDiff(1e-16, "a", 1e-15)
        exact_table.mode = "exact"
        bound = 1e-15 * (1 + 4 * u) + 2 * u
        assert compare_routes("test", [1], lambda t: [("a", exact_table, float_table)]) == (
            1e-16, bound, None)
        no_err = _FixedDiff(1e-16, "a")  # a float table, err 0
        assert compare_routes("test", [1], lambda t: [("a", no_err, float_table)]) == (
            1e-16, 1e-15 * (1 + 4 * u), None)

    def test_the_witness_is_the_largest_broken_difference(self):
        # "a" differs most but holds; "b" and "c" break, "c" by more
        rounds = [[(1e-13, "a", 1e-13), (1e-16, "b"), (2e-16, "c"), (2e-16, "d")]]
        assert compare_routes("test", [1], _pairs(rounds)) == (
            1e-13, 2e-13 * (1 + 4 * exact.UNIT_ROUNDOFF),
            {"pair": "c", "path": "c", "horizon": 1})

    def test_stop_at_witness_builds_no_later_round(self):
        built = []

        def pairs_at(t):
            built.append(t)
            return [(t, _FixedDiff(F(t - 1, 10), t), _FixedDiff(F(t - 1, 10), t))]

        assert compare_routes("test", range(1, 5), pairs_at, stop_at_witness=True) == (
            F(1, 10), 0.0, {"pair": 2, "path": "2", "horizon": 2})
        assert built == [1, 2]

    @pytest.mark.parametrize("horizons", [[], [0], [3, 0, 2], [-1]])
    def test_refuses_a_horizon_below_one_naming_the_check(self, horizons):
        with pytest.raises(ValueError, match="^two-sided needs.*t=0 compares no table"):
            compare_routes("two-sided", horizons, _pairs([]))
