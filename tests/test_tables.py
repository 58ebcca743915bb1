"""DistTable's mass and max_abs_diff against the plain loops they replace:
exact mass as a left-to-right Fraction sum, approx mass as the same float sum
bit for bit, and the difference and witness of subtracting every class value
(the witness is the class's representative path).  A class table takes one
value per class in the key order of its ``sizes``; an exact table holds int
numerators over one denominator, in the list it was given."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import math

import pytest

from pitman_lab import DistTable
from pitman_lab.paths import class_path, class_sizes, path_classes

# dyadic and non-dyadic denominators, so some exact entries equal a float
exact_values = st.builds(F, st.integers(0, 10**12),
                         st.one_of(st.sampled_from([1, 2, 8, 1024, 3**20]),
                                   st.integers(1, 10**12)))
approx_values = st.one_of(st.floats(0, 1), exact_values.map(float))


def values(mode):
    return exact_values if mode == "exact" else approx_values


@st.composite
def keys_and_sizes(draw):
    """The horizon, keys and sizes of a class table."""
    t = draw(st.integers(0, 9))
    sizes = dict(path_classes(t, draw(st.booleans())))
    return t, list(sizes), sizes


@st.composite
def tables(draw):
    t, keys, sizes = draw(keys_and_sizes())
    mode = draw(st.sampled_from(["exact", "approx"]))
    return DistTable(t, mode, [draw(values(mode)) for _ in keys], sizes=sizes)


def float_sum(table):
    return sum(v * table.sizes[x] for x, v in table.values.items())


@settings(max_examples=60, deadline=None)
@given(tables())
def test_mass_equals_the_entry_sum(table):
    mass = table.mass()
    if table.mode == "exact":
        total = F(0)
        for x, v in table.values.items():
            total = total + v * table.sizes[x]
        assert isinstance(mass, F) and mass == total
    else:
        assert mass.hex() == float(float_sum(table)).hex()


def test_exact_mass_of_an_empty_table():
    assert DistTable(0, "exact", [], sizes={}).mass() == 0


@st.composite
def table_pairs(draw):
    """Two tables over the same keys: per key the entries agree, differ (by
    less than a float can show, for "nearly"), or one or both sides are 0
    (a class a table leaves out); each side exact or approx."""
    t, keys, sizes = draw(keys_and_sizes())
    mode_a, mode_b = (draw(st.sampled_from(["exact", "approx"])) for _ in "ab")
    # a few kinds per pair, so the small differences are often the largest
    kinds = draw(st.lists(st.sampled_from(["equal", "nearly", "differ", "only a", "only b",
                                           "neither"]), min_size=1, max_size=3, unique=True))
    zero = {"exact": F(0), "approx": 0.0}
    a, b = dict.fromkeys(keys, zero[mode_a]), dict.fromkeys(keys, zero[mode_b])
    for x in keys:
        kind = draw(st.sampled_from(kinds))
        if kind == "equal":
            a[x] = draw(values(mode_a))
            b[x] = a[x] if mode_a == mode_b else (F(a[x]) if mode_b == "exact"
                                                  else float(a[x]))
        if kind == "nearly":
            a[x] = draw(values(mode_a))
            near = F(a[x]) + F(1, 10**40)
            b[x] = near if mode_b == "exact" else float(near)
        if kind in ("differ", "only a"):
            a[x] = draw(values(mode_a))
        if kind in ("differ", "only b"):
            b[x] = draw(values(mode_b))
    return (DistTable(t, mode_a, list(a.values()), sizes=sizes),
            DistTable(t, mode_b, list(b.values()), sizes=sizes))


def subtract_every_entry(ta, tb):
    def zero(table):
        return F(0) if table.mode == "exact" else 0.0

    worst, witness = F(0) if ta.mode == "exact" == tb.mode else 0.0, None
    for p in {**ta.values, **tb.values}:
        d = abs(ta.values.get(p, zero(ta)) - tb.values.get(p, zero(tb)))
        if d > worst:
            worst, witness = d, p
    return worst, witness and class_path(ta.horizon, witness)


@settings(max_examples=80, deadline=None)
@given(table_pairs())
def test_max_abs_diff_equals_subtracting_every_entry(pair):
    ta, tb = pair
    for x, y in ((ta, tb), (tb, ta)):
        got, expected = x.max_abs_diff(y), subtract_every_entry(x, y)
        assert got == expected
        assert type(got[0]) is type(expected[0])


def test_an_exact_table_keeps_the_list_it_was_given():
    """The numerators are divided in place, and Fractions go over their lcm
    in place: no second list of numerators."""
    sizes = class_sizes(2, False)
    nums = [6, 12, 18, 0]
    table = DistTable(2, "exact", nums, sizes=sizes, den=36)
    assert table.nums is nums and nums == [1, 2, 3, 0] and table.den == 6
    assert table.values == dict(zip(sizes, (F(1, 6), F(1, 3), F(1, 2), F(0))))
    fractions = [F(1, 4), F(1, 2), F(1, 8), F(1, 8)]
    table = DistTable(2, "exact", fractions, sizes=sizes)
    assert table.nums is fractions and fractions == [2, 4, 1, 1]
    assert table.den == 8 and table.mass() == 1


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_a_class_table_refuses_a_dict(mode):
    """Values in key order only: a dict of class values is refused."""
    sizes = class_sizes(2, False)
    with pytest.raises((TypeError, AttributeError)):
        DistTable(2, mode, dict.fromkeys(sizes, F(1, 4)), sizes=sizes)


@st.composite
def int_table_pairs(draw):
    """Two exact class tables of ints over one horizon's classes, a class
    left out (a 0 numerator) on either side: independent, the first's
    numerators over another denominator, or the first's values over a
    multiple of its denominator with some numerators moved."""
    t = draw(st.integers(0, 7))
    sizes = dict(path_classes(t, draw(st.booleans())))
    nums, dens = st.integers(-10**6, 10**30), st.integers(1, 10**30)

    def kept(table):
        return {k: n if draw(st.integers(0, 9)) else 0 for k, n in table.items()}

    a, den_a = kept({k: draw(nums) for k in sizes}), draw(dens)
    kind = draw(st.sampled_from(["independent", "same numerators", "moved"]))
    if kind == "independent":
        b, den_b = kept({k: draw(nums) for k in sizes}), draw(dens)
    elif kind == "same numerators":
        b, den_b = dict(a), draw(dens)
    else:
        m = draw(st.integers(1, 4))
        b = kept({k: n * m + draw(st.sampled_from([0, 0, 0, 1, -7])) for k, n in a.items()})
        den_b = den_a * m
    return (DistTable(t, "exact", list(a.values()), sizes=sizes, den=den_a),
            DistTable(t, "exact", list(b.values()), sizes=sizes, den=den_b),
            (t, a, den_a, b, den_b, sizes))


@settings(max_examples=80, deadline=None)
@given(int_table_pairs())
def test_tables_of_ints_compare_and_sum_as_their_fractions(pair):
    """mass and max_abs_diff of two tables of ints against the Fraction tables
    of the same values: the same Fraction sum, difference and witness."""
    ta, tb, (t, a, den_a, b, den_b, sizes) = pair
    for table, nums, den in ((ta, a, den_a), (tb, b, den_b)):
        assert math.gcd(table.den, *table.nums) == 1  # canonical
        assert table.values == {k: F(n, den) for k, n in nums.items()}
        assert all(type(v) is F for v in table.values.values())
        assert table.mass() == F(sum(n * sizes[k] for k, n in nums.items()), den)
    fa = DistTable(t, "exact", [F(n, den_a) for n in a.values()], sizes=sizes)
    fb = DistTable(t, "exact", [F(n, den_b) for n in b.values()], sizes=sizes)
    for x, y, fx, fy in ((ta, tb, fa, fb), (tb, ta, fb, fa)):
        got, expected = x.max_abs_diff(y), subtract_every_entry(fx, fy)
        assert got == expected and type(got[0]) is F


@given(st.integers(0, 6), st.booleans(), st.integers(1, 10**20), st.integers(1, 10**6),
       st.lists(st.integers(0, 10**20), min_size=1))
def test_tables_of_scaled_numerators_are_equal(t, allow_flat, den, scale, draws):
    """The canonical form: the same values over a scaled denominator give the
    same den and nums, so the tables compare equal without a per-class
    Fraction."""
    sizes = dict(path_classes(t, allow_flat))
    nums = [draws[i % len(draws)] for i in range(len(sizes))]
    a = DistTable(t, "exact", list(nums), sizes=sizes, den=den)
    b = DistTable(t, "exact", [n * scale for n in nums], sizes=sizes, den=den * scale)
    assert (a.den, a.nums) == (b.den, b.nums)
    assert a.max_abs_diff(b) == b.max_abs_diff(a) == (0, None)
    assert a.mass() == b.mass()
    assert "values" not in vars(a) and "values" not in vars(b)  # no Fraction was built
    if any(nums):  # the same numerators over another denominator differ
        c = DistTable(t, "exact", list(nums), sizes=sizes, den=den + 1)
        assert a.max_abs_diff(c)[0] > 0
