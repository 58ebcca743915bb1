"""DistTable's mass and max_abs_diff against the plain loops they replace:
exact mass as a left-to-right Fraction sum, approx mass as the same float sum
bit for bit, and the difference and witness of subtracting every stored
value (between class tables the witness class's representative path); a
class table against a per-path one is compared path by path."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import math

from pitman_lab import DistTable, Params, enumerate_paths, walk_law
from pitman_lab.paths import class_path, path_classes

# dyadic and non-dyadic denominators, so some exact entries equal a float
exact_values = st.builds(F, st.integers(0, 10**12),
                         st.one_of(st.sampled_from([1, 2, 8, 1024, 3**20]),
                                   st.integers(1, 10**12)))
approx_values = st.one_of(st.floats(0, 1), exact_values.map(float))


def values(mode):
    return exact_values if mode == "exact" else approx_values


@st.composite
def keys_and_sizes(draw):
    """The horizon and keys of a class table (with its sizes) or of a
    per-path table."""
    allow_flat = draw(st.booleans())
    if draw(st.booleans()):
        t = draw(st.integers(0, 9))
        sizes = dict(path_classes(t, allow_flat))
        return t, list(sizes), sizes
    t = draw(st.integers(0, 4))
    return t, list(enumerate_paths(t, allow_flat)), None


@st.composite
def tables(draw):
    t, keys, sizes = draw(keys_and_sizes())
    mode = draw(st.sampled_from(["exact", "approx"]))
    entries = {x: draw(values(mode)) for x in keys}
    return DistTable(t, mode, entries, sizes=sizes)


def float_sum(table):
    return sum(v * (table.sizes or {}).get(x, 1) for x, v in table.values.items())


@settings(max_examples=60, deadline=None)
@given(tables())
def test_mass_equals_the_entry_sum(table):
    mass = table.mass()
    if table.mode == "exact":
        total = F(0)
        for x, v in table.values.items():
            total = total + v * (table.sizes or {}).get(x, 1)
        assert isinstance(mass, F) and mass == total
    else:
        assert mass.hex() == float(float_sum(table)).hex()


def test_exact_mass_of_an_empty_table():
    assert DistTable(0, "exact", {}).mass() == 0


@st.composite
def table_pairs(draw):
    """Two tables over the same keys: per key the entries agree, differ (by
    less than a float can show, for "nearly"), or one or both sides lack it;
    each side exact or approx."""
    t, keys, sizes = draw(keys_and_sizes())
    mode_a, mode_b = (draw(st.sampled_from(["exact", "approx"])) for _ in "ab")
    # a few kinds per pair, so the small differences are often the largest
    kinds = draw(st.lists(st.sampled_from(["equal", "nearly", "differ", "only a", "only b",
                                           "neither"]), min_size=1, max_size=3, unique=True))
    a, b = {}, {}
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
    return DistTable(t, mode_a, a, sizes=sizes), DistTable(t, mode_b, b, sizes=sizes)


def subtract_every_entry(ta, tb):
    def zero(table):
        return F(0) if table.mode == "exact" else 0.0

    worst, witness = F(0) if ta.mode == "exact" == tb.mode else 0.0, None
    for p in {**ta.values, **tb.values}:
        d = abs(ta.values.get(p, zero(ta)) - tb.values.get(p, zero(tb)))
        if d > worst:
            worst, witness = d, p
    if witness is not None and ta.sizes is not None:
        witness = class_path(ta.horizon, witness)
    return worst, witness


@settings(max_examples=80, deadline=None)
@given(table_pairs())
def test_max_abs_diff_equals_subtracting_every_entry(pair):
    ta, tb = pair
    for x, y in ((ta, tb), (tb, ta)):
        got, expected = x.max_abs_diff(y), subtract_every_entry(x, y)
        assert got == expected
        assert type(got[0]) is type(expected[0])


def test_a_class_table_against_a_per_path_table_compares_paths():
    classes = walk_law(3, Params(F(1, 2), F(1)))
    paths = DistTable(3, "exact", dict(classes.entries))
    assert paths.entries is paths.values  # no sizes: the stored dict is the view
    assert classes.max_abs_diff(paths) == paths.max_abs_diff(classes) == (0, None)
    # a path that is not its class's representative
    representatives = {class_path(3, key) for key in classes.sizes}
    x = next(p for p in paths.values if p not in representatives)
    paths.values[x] += F(1, 7)
    assert classes.max_abs_diff(paths) == paths.max_abs_diff(classes) == (F(1, 7), x)


@st.composite
def int_table_pairs(draw):
    """Two exact class tables of ints over one horizon's classes, a class
    missing on either side: independent, the first's numerators over another
    denominator, or the first's values over a multiple of its denominator
    with some numerators moved."""
    t = draw(st.integers(0, 7))
    sizes = dict(path_classes(t, draw(st.booleans())))
    nums, dens = st.integers(-10**6, 10**30), st.integers(1, 10**30)

    def kept(table):
        return {k: n for k, n in table.items() if draw(st.integers(0, 9))}

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
    return (DistTable(t, "exact", a, sizes=sizes, den=den_a),
            DistTable(t, "exact", b, sizes=sizes, den=den_b),
            (t, a, den_a, b, den_b, sizes))


@settings(max_examples=80, deadline=None)
@given(int_table_pairs())
def test_tables_of_ints_compare_and_sum_as_their_fractions(pair):
    """mass and max_abs_diff of two tables of ints against the Fraction tables
    of the same values: the same Fraction sum, difference and witness."""
    ta, tb, (t, a, den_a, b, den_b, sizes) = pair
    for table, nums, den in ((ta, a, den_a), (tb, b, den_b)):
        assert math.gcd(table.den, *table.nums.values()) == 1  # canonical
        assert table.values == {k: F(n, den) for k, n in nums.items()}
        assert all(type(v) is F for v in table.values.values())
        assert table.mass() == F(sum(n * sizes[k] for k, n in nums.items()), den)
    fa = DistTable(t, "exact", {k: F(n, den_a) for k, n in a.items()}, sizes=sizes)
    fb = DistTable(t, "exact", {k: F(n, den_b) for k, n in b.items()}, sizes=sizes)
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
    nums = {k: draws[i % len(draws)] for i, k in enumerate(sizes)}
    a = DistTable(t, "exact", nums, sizes=sizes, den=den)
    b = DistTable(t, "exact", {k: n * scale for k, n in nums.items()}, sizes=sizes,
                  den=den * scale)
    assert (a.den, a.nums) == (b.den, b.nums)
    assert a.max_abs_diff(b) == b.max_abs_diff(a) == (0, None)
    assert a.mass() == b.mass()
    assert "values" not in vars(a) and "values" not in vars(b)  # no Fraction was built
    if any(nums.values()):  # the same numerators over another denominator differ
        c = DistTable(t, "exact", nums, sizes=sizes, den=den + 1)
        assert a.max_abs_diff(c)[0] > 0
