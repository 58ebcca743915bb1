"""The float level tables against their scalar loops, bit for bit.

``TailSumTable`` and the float chain formula route build their sums as numpy
array kernels.  The loops below are the scalar form they replaced, one level
at a time: the kernels must give the same float64 values and errs, with no
tolerance, since both round the same operations in the same order.
"""

import builtins
import math
from fractions import Fraction as F

import numpy as np
import pytest

from pitman_lab import (
    FiniteSupport,
    Geometric,
    NegativeBinomial,
    Params,
    PointMass,
    QNegativeBinomial,
    ShiftedPoisson,
    chain_increment_law,
    processes,
)
from pitman_lab.exact import (
    TERM_FLOOR,
    UNIT_ROUNDOFF,
    TailSumTable,
    bracket_floats,
    bracket_ratio_float,
    bracket_ratio_rel_err,
    bracket_rel_err,
    rel_err,
)
from pitman_lab.paths import class_path, stats


def scalar_brackets(q, count):
    """[1]_q, ..., [count]_q by the recurrence, every step taken."""
    qf, b, out = float(q), 0.0, []
    for _ in range(count):
        b = 1.0 + qf * b
        out.append(b)
    return out


def scalar_tail_sums(law, q, trunc_n=None, lo=0):
    """(values, errs) of ``TailSumTable`` at levels >= lo, level by level
    from the top down, stopping at lo."""
    top = trunc_n if trunc_n is not None else law.truncation_point()
    leftover = law.tail_bound(top + 1)
    brackets = scalar_brackets(q, top + 1)
    u = UNIT_ROUNDOFF
    values, errs = [], []
    s = e = r = 0.0
    for j in range(top, lo - 1, -1):
        t = law.pmf_float(j) / brackets[j]
        if t:
            e += rel_err(law.float_rel_err(j), bracket_rel_err(j + 1, q), u) * t
        e += TERM_FLOOR
        s += t
        r += s
        values.append(s)
        errs.append(leftover + 1.1 * (e + u * r))
    return values[::-1], errs[::-1]


def scalar_chain_formula(t, law, params):
    """({class key: value}, err) of the float formula route, one suffix sum
    per end value, level by level from the top down, reading each class's
    statistics off its representative path."""
    u = UNIT_ROUNDOFF
    top = law.truncation_point()
    pmfs = [law.pmf_float(k) for k in range(top + 1)]
    pmf_errs = [law.float_rel_err(k) for k in range(top + 1)]
    q_is_one = params.q == 1
    log_q = math.log(float(params.q))
    sig, zf, rhof = float(params.sigma), float(params.z), float(params.rho)

    def suffix_sums(xt):
        lo = max(0, -xt)
        kept, s, e, r = [], 0.0, 0.0, 0.0
        for k in range(top, lo - 1, -1):
            a, b = xt + k + 1, k + 1
            term = pmfs[k] * bracket_ratio_float(a, b, log_q)
            ratio_err = u if q_is_one else bracket_ratio_rel_err(max(a, b), log_q)
            if term:
                e += rel_err(pmf_errs[k], ratio_err, u) * term
            e += TERM_FLOOR
            s += term
            r += s
            if k <= t:
                kept.append((s, 1.1 * (e + u * r)))
        return lo, kept[::-1]

    by_end, values, rounding = {}, {}, {}
    table = chain_increment_law(t, law, params, mode="approx")
    for key in table.sizes:
        x = class_path(t, key)
        st = stats(x)
        a = -st.K0
        if x.end not in by_end:
            by_end[x.end] = suffix_sums(x.end)
        lo, kept = by_end[x.end]
        s, s_err = kept[a - lo] if a <= top else (0.0, 0.0)
        pref = sig**st.H / (zf**t * rhof**x.end)
        rounding[key] = pref * s_err + rel_err((st.H + t + abs(x.end) + 9) * u) * pref * s
        values[key] = pref * s
    total = 0
    for key, r in rounding.items():  # left to right, as Python's sum up to 3.11
        total += table.sizes[key] * r
    return values, law.tail_bound(top + 1) + 1.1 * total


def same_floats(got, want):
    """Equal float64 bit patterns, entry by entry."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(np.all(got.view(np.uint64) == want.view(np.uint64)))


LAWS = [
    Geometric(F(49, 50)),
    Geometric(F(1, 3)),
    QNegativeBinomial(F(1, 4), F(1, 2)),
    QNegativeBinomial(F(4), F(1, 5)),
    NegativeBinomial(F(2, 3)),
    ShiftedPoisson(1.0),
    ShiftedPoisson(7.5),
    PointMass(3),
    FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2)))),
]
QS = [F(1, 4), F(1), F(9, 4)]


def law_id(law):
    return law.cli_string()


def test_rel_err_adds_left_to_right():
    # 0.1 + 0.2 + 0.3 left to right is 0.6000000000000001; a compensated sum
    # (Python >= 3.12's builtin sum) gives 0.6.  Scaled by 2^-10 to stay <= 0.01.
    a, b, c = 0.1 / 1024, 0.2 / 1024, 0.3 / 1024
    want = 1.05 * ((a + b) + c)
    assert rel_err(a, b, c) == want
    assert same_floats(rel_err(np.array([a, a]), b, c), [want, want])


def compensated_sum(values, start=0):
    """``sum`` with float sums compensated, as Python's builtin from 3.12 on."""
    values = list(values)
    if values and all(type(v) is float for v in values):
        return start + math.fsum(values)
    return builtins.sum(values, start)


def test_errs_and_float_mass_add_left_to_right(monkeypatch):
    # with ``sum`` in processes compensating, as on Python >= 3.12, every err
    # and float mass must keep the bits of left-to-right addition
    monkeypatch.setattr(processes, "sum", compensated_sum, raising=False)
    law, params = FiniteSupport(((0, F(1, 3)), (3, F(2, 3)))), Params(F(2, 3), F(1))
    table = chain_increment_law(4, law, params, route="product", mode="approx")
    # m = 1 (one rounded Fraction sum per entry), no truncation, exact weights
    terms = [size * (4 * UNIT_ROUNDOFF * table.values[x] + TERM_FLOOR)
             for x, size in table.sizes.items()]
    masses = [v * table.sizes[x] for x, v in table.values.items()]
    rounding = mass = 0
    for term, part in zip(terms, masses):
        rounding, mass = rounding + term, mass + part
    assert same_floats([table.err], [1.1 * rounding])
    assert 1.1 * math.fsum(terms) != table.err  # a compensated sum differs here
    assert same_floats([table.mass()], [mass]) and math.fsum(masses) != mass
    formula = chain_increment_law(4, law, params, mode="approx")
    assert same_floats([formula.err], [scalar_chain_formula(4, law, params)[1]])


@pytest.mark.parametrize("q", [F(1, 4), F(99, 100), F(1), F(1, 10**20) + 1, F(9, 4), F(1001, 1000)],
                         ids=str)
def test_bracket_run_is_the_full_recurrence(q):
    count = 20_000
    head = bracket_floats(q, count)
    assert 1 <= len(head) <= count
    table = TailSumTable(PointMass(count - 1), q)
    assert same_floats(table._bracket_run(1, count + 1), scalar_brackets(q, count))
    assert [table.bracket(n)[0] for n in (1, 2, count)] == [
        scalar_brackets(q, count)[n - 1] for n in (1, 2, count)]


class TestTailSumTable:
    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    @pytest.mark.parametrize("q", QS, ids=str)
    @pytest.mark.parametrize("lo", [0, 3])
    def test_bit_identical_to_scalar_loop(self, law, q, lo):
        # the table runs down to 0; its levels >= lo keep the bits of a loop
        # that stopped at lo
        table = TailSumTable(law, q)
        values, errs = scalar_tail_sums(law, q, lo=lo)
        assert same_floats(table._values[lo:], values)
        assert same_floats(table._errs[lo:], errs)

    @pytest.mark.parametrize("law", [Geometric(F(99, 100)), ShiftedPoisson(1.0)], ids=law_id)
    @pytest.mark.parametrize("trunc_n", [0, 1, 40, 200])
    def test_explicit_truncation(self, law, trunc_n):
        table = TailSumTable(law, F(1, 2), trunc_n)
        for lo in (0, 2):
            values, errs = scalar_tail_sums(law, F(1, 2), trunc_n, lo=lo)
            assert same_floats(table._values[lo:], values)
            assert same_floats(table._errs[lo:], errs)

    def test_underflowed_terms_still_carry_term_floor(self):
        # past level ~650 the terms of geo:1/3 underflow to 0: each level adds
        # TERM_FLOOR alone to the bound
        law = Geometric(F(1, 3))
        table = TailSumTable(law, F(1, 4), 1000)
        values, errs = scalar_tail_sums(law, F(1, 4), 1000)
        assert same_floats(table._values, values) and same_floats(table._errs, errs)
        top = table.at(1000)
        assert top.value == 0.0 and top.err == law.tail_bound(1001) + 1.1 * TERM_FLOOR

    def test_table_longer_than_one_block(self):
        # geo:9999/10000 sums about 345 000 levels: several blocks, so the
        # carried sums meet at every block edge
        law, q = Geometric(F(9999, 10000)), F(4, 9)
        table = TailSumTable(law, q)
        values, errs = scalar_tail_sums(law, q)
        assert table.top > 300_000
        assert same_floats(table._values, values)
        assert same_floats(table._errs, errs)

    def test_reads_plain_floats(self):
        approx = TailSumTable(Geometric(F(1, 3)), F(1, 4)).at(2)
        assert type(approx.value) is float and type(approx.err) is float


class TestChainFormulaFloat:
    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    @pytest.mark.parametrize("rho", [F(1, 2), F(1), F(3, 2)], ids=str)
    def test_bit_identical_to_scalar_loop(self, law, rho):
        for t, sigma in ((1, F(1)), (4, F(0)), (6, F(1, 2))):
            params = Params(rho, sigma)
            table = chain_increment_law(t, law, params, mode="approx")
            values, err = scalar_chain_formula(t, law, params)
            assert list(table.values) == list(values)
            assert same_floats(list(table.values.values()), list(values.values()))
            assert same_floats([table.err], [err])

    def test_table_longer_than_one_block(self):
        law, params = Geometric(F(9999, 10000)), Params(F(2, 3), F(1))
        table = chain_increment_law(2, law, params, mode="approx")
        values, err = scalar_chain_formula(2, law, params)
        assert same_floats(list(table.values.values()), list(values.values()))
        assert same_floats([table.err], [err])


def same_table(got, want):
    """The same keys in the same order, and the same value and err bits."""
    return (list(got.values) == list(want.values)
            and same_floats(list(got.values.values()), list(want.values.values()))
            and same_floats([got.err], [want.err]))


class TestChainLevelSweep:
    """The float chain route sums each level block as one 2-D array, a row
    per end value, and one sweep serves every horizon of a verifier call.
    Neither the block length nor the horizon the sweep was built for may
    move a bit: each row adds its levels in sequence, and s(a, x_t) does not
    depend on t."""

    @pytest.mark.parametrize("law", [Geometric(F(99, 100)), ShiftedPoisson(2.0)], ids=law_id)
    @pytest.mark.parametrize("block", [7, 100])
    def test_block_length_moves_no_bit(self, monkeypatch, law, block):
        cases = [(t, Params(rho, sigma)) for t in range(1, 7) for sigma in (F(0), F(1, 2))
                 for rho in (F(1, 2), F(1), F(3, 2))]
        want = [chain_increment_law(t, law, params, mode="approx") for t, params in cases]
        monkeypatch.setattr(processes, "_BLOCK_LEVELS", block)
        for (t, params), table in zip(cases, want):
            assert same_table(chain_increment_law(t, law, params, mode="approx"), table), (t, params)

    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    @pytest.mark.parametrize("rho, sigma", [(F(1, 2), F(0)), (F(1), F(1, 2)), (F(3, 2), F(0)),
                                            (F(2, 3), F(1))], ids=str)
    def test_a_larger_sweep_gives_each_table_alone(self, law, rho, sigma):
        params = Params(rho, sigma)
        sweep = processes._chain_level_sweep(7, law, params)
        for t in range(1, 8):
            assert same_table(processes._chain_law_formula_float(t, law, params, sweep),
                              chain_increment_law(t, law, params, mode="approx")), t

    @pytest.mark.parametrize("law", [Geometric(F(99, 100)), ShiftedPoisson(2.0)], ids=law_id)
    @pytest.mark.parametrize("rho, sigma", [(F(1, 2), F(0)), (F(3, 2), F(0)), (F(1), F(1, 2))],
                             ids=str)
    @pytest.mark.parametrize("horizons", [[7], [2, 4, 6], [3, 4]], ids=str)
    def test_horizons_of_one_parity_sum_only_their_rows(self, law, rho, sigma, horizons):
        # at sigma = 0, x_t has the parity of t: the other rows are NaN, and
        # every row summed keeps the bits of a sweep of all rows
        params = Params(rho, sigma)
        _, all_sums, all_errs = processes._chain_level_sweep(7, law, params)
        _, sums, errs = processes._chain_level_sweep(7, law, params, horizons)
        parities = {t % 2 for t in horizons} if sigma == 0 else {0, 1}
        read = [x % 2 in parities for x in range(-7, 8)]
        assert same_floats(sums[read], all_sums[read]) and same_floats(errs[read], all_errs[read])
        assert np.isnan(sums[np.logical_not(read)]).all()
        assert np.isnan(errs[np.logical_not(read)]).all()
