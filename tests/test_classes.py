"""The class-lumped engine against per-path enumeration, its oracle at small t.

Every route reads a path only through its class (K0, x_t, H).  Feeding the
same route every path with weight 1 in place of ``class_sizes``, each path
as a key of its own that ``class_path`` (and ``class_rows``, for the
pushforward's step rows) turns back into the path, evaluates it path by
path; the class table must give each path exactly that value, and its
per-path view ``entries`` must equal it.
"""

import math
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pitman_lab import (
    DistTable,
    FiniteSupport,
    Geometric,
    HorizonCapError,
    LevelLaw,
    NegativeBinomial,
    Params,
    Path,
    PointMass,
    QNegativeBinomial,
    ShiftedPoisson,
    chain_increment_law,
    conditioned_walk_law,
    conditioning,
    enumerate_paths,
    g_law_from_initial,
    paths,
    processes,
    representation,
    rhs_law_enumeration,
    rhs_law_table_formula,
    stats,
    v_law_from_initial,
    verify_thm1,
    verify_thm2,
    verify_two_sided,
    walk_law,
    walk_match_report,
)
from pitman_lab.exact import prob_json
from pitman_lab.paths import class_path, path_classes


def class_key(path):
    """(K0, x_t, H) of a path, without the running extrema of ``stats``."""
    return min(path.values), path.end, path.steps.count(0)


class PathKey(tuple):
    """The class key (K0, x_t, H) of one path, carrying the path: as table
    keys two paths of one class stay apart."""

    def __new__(cls, x):
        key = super().__new__(cls, class_key(x))
        key.path = x
        return key

    def __eq__(self, other):
        return isinstance(other, PathKey) and self.path == other.path

    def __hash__(self):
        return hash(self.path)


def every_path(t, allow_flat=True):
    return {PathKey(x): 1 for x in enumerate_paths(t, allow_flat)}


def path_of_key(t, key):
    return key.path


def rows_of_keys(t, keys):
    return np.array([key.path.steps for key in keys], dtype=np.int8).reshape(len(keys), t)


def representative_classes(t, allow_flat=True):
    """(representative Path, size) per class, in the order and with the
    representatives ``path_classes`` and ``class_path`` must give: the class
    generator as it was when it built the representatives itself."""
    def ending_at(n, y):
        return math.comb(n, (n + y) // 2) if abs(y) <= n else 0

    for h in range(t + 1 if allow_flat else 1):
        n = t - h
        for end in range(-n, n + 1, 2):
            for k0 in range(min(0, end), (end - n) // 2 - 1, -1):
                size = ending_at(n, 2 * k0 - end) - ending_at(n, 2 * k0 - 2 - end)
                yield (Path((0,) * h + (-1,) * -k0 + (1,) * (end - k0)
                            + (1, -1) * ((n + 2 * k0 - end) // 2)),
                       size * math.comb(t, h))


class TestPathClasses:
    @pytest.mark.parametrize("allow_flat", [True, False])
    def test_sizes_are_the_enumerated_counts(self, allow_flat):
        for t in range(11):
            counts = Counter(class_key(x) for x in enumerate_paths(t, allow_flat))
            classes = list(path_classes(t, allow_flat))
            assert len(classes) == len(counts)  # one key per class
            assert dict(classes) == counts
            assert sum(n for _, n in classes) == (3 if allow_flat else 2) ** t

    def test_class_counts(self):
        assert sum(len(list(path_classes(t))) for t in range(1, 9)) == 294
        assert len(list(path_classes(12, allow_flat=False))) == 49

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=30))
    def test_class_key_reads_the_statistics(self, steps):
        x = Path(steps)
        s = stats(x)
        assert class_key(x) == (s.K0, x.end, s.H)

    @pytest.mark.parametrize("allow_flat", [True, False])
    def test_keys_round_trip_through_their_representatives(self, allow_flat):
        for t in range(9):
            classes = list(path_classes(t, allow_flat))
            oracle = list(representative_classes(t, allow_flat))
            assert [key for key, _ in classes] == [class_key(x) for x, _ in oracle]  # order too
            assert [n for _, n in classes] == [n for _, n in oracle]
            assert sum(n for _, n in classes) == (3 if allow_flat else 2) ** t
            for (key, _), (x, _) in zip(classes, oracle):
                representative = class_path(t, key)
                assert class_key(representative) == key and representative.steps == x.steps

    def test_cap_as_for_enumeration(self, monkeypatch):
        with pytest.raises(HorizonCapError, match="14348907"):
            next(path_classes(15))
        monkeypatch.setenv("PITMAN_LAB_CAP", "15")
        next(path_classes(15))


def per_path_oracle(build):
    """The class table ``build()`` against its per-path evaluation: every
    path gets the value of its class, and the class table's per-path view
    ``entries`` equals the evaluation.  The evaluation is read through its
    stored values; its own ``entries`` would lump the paths back into
    classes."""
    classes = build()
    with mock.patch.object(processes, "class_sizes", every_path), \
            mock.patch.object(representation, "class_sizes", every_path), \
            mock.patch.object(conditioning, "class_sizes", every_path), \
            mock.patch.object(processes, "class_path", path_of_key), \
            mock.patch.object(representation, "class_rows", rows_of_keys):
        oracle = build()
    assert len(oracle.values) == sum(classes.sizes.values())
    for key, v in oracle.values.items():
        assert v == classes.values[tuple(key)], key.path
    assert oracle.mode == classes.mode
    if classes.mode == "exact":
        assert classes.mass() == oracle.mass() == 1
    else:
        assert classes.err == pytest.approx(oracle.err, rel=1e-9, abs=0)
    assert list(classes.entries.items()) == [  # order too
        (key.path, v) for key, v in oracle.values.items()]


@pytest.mark.parametrize("allow_flat", [True, False])
def test_per_path_view_is_in_enumeration_order(allow_flat):
    params = Params(F(2, 3), F(1) if allow_flat else F(0))
    law = QNegativeBinomial(params.q, F(1, 2))
    for t in range(7):
        table = chain_increment_law(t, law, params)
        order = list(enumerate_paths(t, allow_flat))
        assert list(table.entries) == order
        want = {str(p): prob_json(table.values[class_key(p)]) for p in order}
        assert list(table.to_json()["entries"].items()) == list(want.items())


def make_law(kind, params):
    return {
        "point": lambda: PointMass(2),
        "finite": lambda: FiniteSupport(((0, F(1, 3)), (3, F(2, 3)))),
        "geo": lambda: Geometric(F(1, 3)),
        "qnb": lambda: QNegativeBinomial(params.q, F(1, 5)),
        "nb": lambda: NegativeBinomial(F(1, 3)),
        "spoisson": lambda: ShiftedPoisson(1.5),
    }[kind]()


@settings(max_examples=15, deadline=None)
@given(t=st.integers(0, 7),
       rho=st.sampled_from([F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]),
       sigma=st.sampled_from([F(0), F(1, 2), F(1)]),
       kind=st.sampled_from(["point", "finite", "geo", "qnb", "nb", "spoisson"]))
@example(t=7, rho=F(2, 3), sigma=F(1), kind="qnb")
@example(t=7, rho=F(3, 2), sigma=F(1, 2), kind="finite")
@example(t=7, rho=F(1), sigma=F(1), kind="spoisson")
@example(t=7, rho=F(1, 2), sigma=F(0), kind="geo")
def test_every_route_is_constant_on_every_class(t, rho, sigma, kind):
    params = Params(rho, sigma)
    law = make_law(kind, params)

    # chain formula in its own mode (exact where the law allows) and in floats
    per_path_oracle(lambda: chain_increment_law(t, law, params))
    per_path_oracle(lambda: chain_increment_law(t, law, params, mode="approx"))
    # chain product: exact over a finite support, truncated in floats otherwise
    mode = "exact" if law.support_max() is not None and law.exact else "approx"
    per_path_oracle(lambda: chain_increment_law(t, law, params, route="product", mode=mode))

    glaw = g_law_from_initial(law, params, "G")
    per_path_oracle(lambda: rhs_law_enumeration(t, glaw, params))
    per_path_oracle(lambda: rhs_law_table_formula(t, glaw, params))
    per_path_oracle(lambda: walk_law(t, params))

    if rho != 1 and (law.support_max() is not None or kind == "qnb"):
        part = "I" if rho < 1 else "II"
        vlaw = v_law_from_initial(law, params, part)
        per_path_oracle(lambda: conditioned_walk_law(t, vlaw, params, part))


@settings(max_examples=40, deadline=None)
@given(t=st.integers(0, 8), allow_flat=st.booleans(), path_keyed=st.booleans(),
       exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_combine_is_pref_times_level_per_key(t, allow_flat, path_keyed, exact, seed):
    """``combine_factors`` against the per-key product pref[H, x_t] *
    level[-K0, x_t] of two random grids, on a horizon's class set and on the
    path-keyed mapping of ``per_path_oracle``: big ints give ints, floats
    give the float64 products' bits."""
    rng = np.random.default_rng(seed)
    grids = rng.integers(1, 2**62, size=(2, t + 1, 2 * t + 1))
    if exact:  # past int64, so no product fits a machine word
        pref_grid, level_grid = (grid.astype(object) << 70 for grid in grids)
    else:
        pref_grid, level_grid = grids / 2.0**62
    sizes = every_path(t, allow_flat) if path_keyed else paths.class_sizes(t, allow_flat)
    pairs = paths.factor_pairs(sizes)
    assert paths.factor_pairs(sizes) is pairs  # kept with the mapping
    pref_pairs, level_pairs = (list(zip(*cols.tolist())) for cols in (pairs.prefs, pairs.levels))
    assert pref_pairs == list(dict.fromkeys((h, e) for _, e, h in sizes))  # each pair once
    assert level_pairs == list(dict.fromkeys((-k0, e) for k0, e, _ in sizes))
    pref = np.array([pref_grid[h, e + t] for h, e in pref_pairs], dtype=pref_grid.dtype)
    level = np.array([level_grid[a, e + t] for a, e in level_pairs], dtype=level_grid.dtype)
    got = paths.combine_factors(sizes, pref, level)
    want = [pref_grid[h, e + t] * level_grid[-k0, e + t] for k0, e, h in sizes]
    if exact:
        assert type(got) is list and got == want
        assert all(type(v) is int for v in got)
    else:
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


def test_a_dropped_class_fails_the_mass_check(monkeypatch):
    params, law = Params(F(1, 2), F(1)), PointMass(1)
    assert verify_thm1(3, law, params)["status"] == "PASS"
    build = representation.rhs_law_table_formula

    def dropping_a_class(t, glaw, walk_params):
        table = build(t, glaw, walk_params)  # a table of ints: zero its largest numerator
        table.nums[table.nums.index(max(table.nums))] = 0
        return table

    monkeypatch.setattr(representation, "rhs_law_table_formula", dropping_a_class)
    with pytest.raises(ArithmeticError, match="mass"):
        verify_thm1(3, law, params)


def test_witness_is_a_class_representative_at_the_worst_difference():
    params = Params(F(1, 2), F(1))
    law = QNegativeBinomial(params.q, F(1, 2))
    rep = verify_thm1(4, law, params, candidate=Geometric(F(1, 3)))
    assert rep["status"] == "FAIL"
    t, witness = rep["witness"]["horizon"], Path.parse(rep["witness"]["path"])
    key = class_key(witness)
    assert key in dict(path_classes(t)) and class_path(t, key) == witness
    glaw = Geometric(F(1, 3))
    tables = {"chain": chain_increment_law(t, law, params),
              "enumeration": rhs_law_enumeration(t, glaw, params),
              "formula": rhs_law_table_formula(t, glaw, params)}
    a, b = rep["witness"]["pair"].split("_vs_")
    assert abs(tables[a].values[key] - tables[b].values[key]) == F(
        rep["max_abs_diff"]["value"])


def test_verifiers_build_no_per_path_table():
    """Class tables walk no path until a caller reads ``entries`` (or
    ``to_json``): the per-path view is the one walk over every path."""
    params = Params(F(1, 2), F(1))
    law = QNegativeBinomial(params.q, F(1, 2))
    glaw = g_law_from_initial(law, params, "G")
    refuse = AssertionError("per-path walk")
    with mock.patch.object(DistTable, "_lex_walk", side_effect=refuse) as walk_mock:
        tables = [chain_increment_law(4, law, params),
                  rhs_law_enumeration(4, glaw, params),
                  conditioned_walk_law(4, v_law_from_initial(law, params, "I"), params, "I")]
        assert verify_thm1(4, law, params)["status"] == "PASS"
        walk_mock.assert_not_called()
        for table in tables:
            with pytest.raises(AssertionError, match="per-path walk"):
                table.entries
        assert walk_mock.call_count == len(tables)


def count_calls(monkeypatch, owner, name, key, calls=None):
    """Replace ``owner.name`` with a wrapper counting its calls by ``key(*args)``,
    in ``calls`` when given."""
    calls = Counter() if calls is None else calls
    original = getattr(owner, name)

    def counted(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def twice(build, calls):
    """The calls of two identical ``build()``s, one Counter each: equal when no
    cache outlived the first."""
    build()
    first = Counter(calls)
    calls.clear()
    return first, build()


def test_product_route_builds_each_kernel_entry_once_per_table(monkeypatch):
    law = FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2))))
    params = Params(F(2, 3), F(1))
    calls = count_calls(monkeypatch, processes, "chain_transition", lambda k, d, _: (k, d))
    first, table = twice(lambda: chain_increment_law(6, law, params, route="product"), calls)
    assert set(first.values()) == {1}
    paths = [class_path(6, key) for key in table.values]
    assert set(first) == {(k + a, b - a) for x in paths for k, _ in law.atoms()
                          if k + min(x.values) >= 0 for a, b in zip(x.values, x.values[1:])}
    assert calls == first


@pytest.mark.parametrize("route", ["chain formula", "closed form", "conditioned walk"])
def test_level_sums_once_per_k0_and_end(monkeypatch, route):
    """The level parts are ints each route builds once per (K0, x_t) inside
    one call, from law inputs read once per table: the chain formula reads
    the initial law's geometric form, the conditioned walk V's atoms, and the
    closed form P(G = n) and P(G >= n) once per n = -K0 <= t.  A second
    identical build reads them again, so no cache outlives a call."""
    params = Params(F(2, 3), F(1))
    law = QNegativeBinomial(params.q, F(1, 2))
    if route == "chain formula":
        reads = [(QNegativeBinomial, "ratio_geometric_form")]
        build = lambda: chain_increment_law(6, law, params, mode="exact")  # noqa: E731
        want = Counter({("ratio_geometric_form", params.q): 1})
    elif route == "closed form":
        reads = [(Geometric, "pmf"), (Geometric, "tail")]
        build = lambda: rhs_law_table_formula(6, Geometric(F(1, 3)), params)  # noqa: E731
        want = Counter({(name, n): 1 for name in ("pmf", "tail") for n in range(7)})
    else:
        vlaw = v_law_from_initial(FiniteSupport(((0, F(1, 3)), (3, F(2, 3)))), params, "I")
        reads = [(FiniteSupport, "atoms")]
        build = lambda: conditioned_walk_law(6, vlaw, params, "I")  # noqa: E731
        want = Counter({("atoms",): 1})
    calls = Counter()
    for owner, name in reads:
        count_calls(monkeypatch, owner, name, lambda _, *a, name=name: (name, *a), calls)
    first, table = twice(build, calls)
    if route == "closed form":  # each level n = -K0 <= t has classes
        assert {-k0 for k0, _, _ in table.values} == set(range(7))
    assert first == want and calls == want


def test_to_json_formats_each_class_value_once(monkeypatch):
    params = Params(F(2, 3), F(1))
    table = chain_increment_law(5, QNegativeBinomial(params.q, F(1, 2)), params)
    want = {str(x): prob_json(v) for x, v in table.entries.items()}
    calls = count_calls(monkeypatch, processes, "prob_json", lambda v: "calls")
    assert table.to_json()["entries"] == want
    assert calls["calls"] == len(table.values) < len(want)


def count_built_paths(monkeypatch):
    """A Counter whose "paths" counts every Path built from here on, through
    the validating constructor or ``Path._trusted``."""
    built = Counter()
    init, trusted = Path.__init__, Path._trusted.__func__

    def counted_init(self, *args, **kwargs):
        built["paths"] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, steps):
        built["paths"] += 1
        return trusted(cls, steps)

    monkeypatch.setattr(Path, "__init__", counted_init)
    monkeypatch.setattr(Path, "_trusted", classmethod(counted_trusted))
    return built


@pytest.mark.parametrize("route,per_class", [
    ("chain formula", 0), ("chain formula in floats", 0), ("closed form", 0),
    ("conditioned walk", 0), ("chain product", 1), ("walk", 1),
    ("pushforward", 0),  # its representatives are the rows of a step array
])
def test_paths_built_per_class(monkeypatch, route, per_class):
    """Routes that read a path only through its class key build no path; the
    product route and the walk build each class's representative once, and
    the pushforward reads the representatives as rows of ``class_rows``."""
    t = 8
    params = Params(F(2, 3), F(1))
    law = QNegativeBinomial(params.q, F(1, 2))
    glaw = g_law_from_initial(law, params, "G")
    finite = FiniteSupport(((0, F(1, 6)), (2, F(1, 3)), (5, F(1, 2))))
    vlaw = v_law_from_initial(law, params, "I")
    build = {
        "chain formula": lambda: chain_increment_law(t, law, params),
        "chain formula in floats": lambda: chain_increment_law(t, law, params, mode="approx"),
        "closed form": lambda: rhs_law_table_formula(t, glaw, params),
        "conditioned walk": lambda: conditioned_walk_law(t, vlaw, params, "I"),
        "chain product": lambda: chain_increment_law(t, finite, params, route="product"),
        "walk": lambda: walk_law(t, params),
        "pushforward": lambda: rhs_law_enumeration(t, glaw, params),
    }[route]
    classes = len(list(path_classes(t)))
    built = count_built_paths(monkeypatch)
    table = build()
    assert len(table.values) == classes == 95
    assert built["paths"] == per_class * classes


# verify_thm1 against wrong candidate level laws for qnb:q=4/9,theta=1/2 at
# rho=2/3, sigma=1: (candidate, t, part, witness path, horizon, difference),
# each witness the representative of the first class at the worst difference
WRONG_CANDIDATES = [
    (Geometric(F(5, 9)), None, "I", "0,-1", 1, "3/19"),
    (Geometric(F(1, 9)), None, "II", "0,-1", 1, "14/171"),
    (LevelLaw.from_pmf({0: F(7, 9), 3: F(2, 9)}), 8, "I",
     "0,-1,-2,-3,-2,-1,0,1,2", 8, "16427906/16983563041"),
    (LevelLaw.from_pmf({0: F(7, 9), 1: F(14, 81), 4: F(4, 81)}), 6, "I",
     "0,-1,-2,-3,-4,-3,-2", 6, "41380/47045881"),
    (LevelLaw.from_pmf({0: F(7, 9), 1: F(14, 81), 2: F(4, 81)}), 8, "I",
     "0,-1,-2,-1,0,1,2,3,4", 8, "44408/893871739"),
    (LevelLaw.from_pmf({0: F(7, 9), 3: F(2, 9)}), 6, "II", "0,1,2,3,4,5,6", 6, "55510/22284891"),
]


@pytest.mark.parametrize("candidate,t,part,path,horizon,diff", WRONG_CANDIDATES)
def test_wrong_candidate_witnesses(candidate, t, part, path, horizon, diff):
    """A FAIL names its witness by the representative's values: the same
    strings as when the class tables were keyed by representative paths."""
    params = Params(F(2, 3), F(1))
    law = QNegativeBinomial(params.q, F(1, 2))
    rep = verify_thm1(t or 4, law, params, part, candidate=candidate,
                      t_values=t and [t])
    assert rep["status"] == "FAIL" and rep["max_abs_diff"]["value"] == diff
    assert rep["witness"] == {"pair": "chain_vs_enumeration", "path": path, "horizon": horizon}


# a route whose table of ints has two numerators moved, the mass kept, at
# horizon 4 of verify_thm1(5, ..., "II") for qnb:q=4/9,theta=1/2 at rho=2/3,
# sigma=1: (route, scale, pair, difference).  The differences and witnesses
# are those of the Fraction tables before class tables held ints.
MOVED_NUMERATORS = [
    ("rhs_law_table_formula", 1, "chain_vs_formula", "4/130321"),
    ("rhs_law_table_formula", 2, "chain_vs_formula", "2/130321"),
    ("rhs_law_enumeration", 1, "chain_vs_enumeration", "4/130321"),
    ("rhs_law_enumeration", 2, "chain_vs_enumeration", "2/130321"),
]


@pytest.mark.parametrize("route,scale,pair,diff", MOVED_NUMERATORS)
def test_wrong_numerators_fail_with_the_fraction_tables_witness(monkeypatch, route, scale,
                                                                  pair, diff):
    """Class a gains size(b) and class b loses size(a) over scale times the
    table's denominator.  At scale 1 the two tables share a denominator and
    differ in two numerators; at scale 2 the denominators differ and every
    class is cross-multiplied.  Either FAILs with the same witness string."""
    params = Params(F(2, 3), F(1))
    law = QNegativeBinomial(params.q, F(1, 2))
    build = getattr(representation, route)

    def moved(t, glaw, walk_params):
        table = build(t, glaw, walk_params)
        if t != 4:
            return table
        nums = [n * scale for n in table.nums]
        keys = list(table.sizes)
        a, b = len(keys) // 3, 2 * len(keys) // 3
        nums[a] += table.sizes[keys[b]]
        nums[b] -= table.sizes[keys[a]]
        return DistTable(t, "exact", nums, sizes=table.sizes, den=table.den * scale)

    monkeypatch.setattr(representation, route, moved)
    rep = verify_thm1(5, law, params, "II")
    assert rep["status"] == "FAIL" and rep["max_abs_diff"]["value"] == diff
    assert rep["witness"] == {"pair": pair, "path": "0,-1,0,1,2", "horizon": 4}


# ---------------------------------------------------------------------------
# one class set per horizon
# ---------------------------------------------------------------------------


QNB_CELL = Params(F(2, 3), F(1))
VERIFIERS = {
    "thm1 exact": lambda: verify_thm1(4, QNegativeBinomial(QNB_CELL.q, F(1, 2)), QNB_CELL),
    "thm1 exact, part II": lambda: verify_thm1(4, QNegativeBinomial(QNB_CELL.q, F(1, 2)),
                                               QNB_CELL, "II"),
    "thm1 approx": lambda: verify_thm1(4, ShiftedPoisson(1.5), QNB_CELL),
    "thm1 approx, no flat step": lambda: verify_thm1(4, Geometric(F(1, 3)), Params(F(1, 2))),
    "thm2": lambda: verify_thm2(4, QNegativeBinomial(QNB_CELL.q, F(1, 2)), QNB_CELL),
    "two-sided": lambda: verify_two_sided(4, QNegativeBinomial(QNB_CELL.q, F(1, 2)), QNB_CELL),
    "walk-match": lambda: walk_match_report(Geometric(QNB_CELL.q), QNB_CELL, 4),
}


@pytest.mark.parametrize("check", VERIFIERS)
def test_each_verifier_builds_one_class_set_per_horizon(monkeypatch, check):
    """Every route of a horizon reads one ``class_sizes``: ``path_classes``
    runs once per horizon, whichever tables the verifier builds."""
    built = Counter()
    real = paths.path_classes

    def counted(t, allow_flat=True):
        built[t] += 1
        return real(t, allow_flat)

    monkeypatch.setattr(paths, "path_classes", counted)
    paths._class_set.cache_clear()
    report = VERIFIERS[check]()
    assert report["status"] in ("PASS", "MATCH"), report
    assert built == {t: 1 for t in range(1, 5)}


def test_the_tables_of_a_horizon_share_one_read_only_class_set():
    t, params = 5, QNB_CELL
    law = QNegativeBinomial(params.q, F(1, 2))
    glaw, vlaw = g_law_from_initial(law, params, "G"), v_law_from_initial(law, params, "I")
    float_glaw = g_law_from_initial(law, params, "G", mode="approx")
    tables = [chain_increment_law(t, law, params),
              chain_increment_law(t, law, params, mode="approx"),
              chain_increment_law(t, PointMass(2), params, route="product"),
              rhs_law_enumeration(t, glaw, params), rhs_law_table_formula(t, glaw, params),
              rhs_law_enumeration(t, float_glaw, params),
              rhs_law_table_formula(t, float_glaw, params),
              walk_law(t, params), conditioned_walk_law(t, vlaw, params, "I")]
    sizes = tables[0].sizes
    assert all(table.sizes is sizes for table in tables)
    assert list(sizes.items()) == list(path_classes(t))
    with pytest.raises(TypeError):
        sizes[0, 0, t] = 2
    with pytest.raises(AttributeError):
        sizes.pop((0, 0, t))


def test_tables_of_another_class_set_do_not_compare():
    """A table of another horizon, or of the other flat mode, has other
    classes: comparing it raises, in either mode.  The same classes built
    again, as another mapping, still compare."""
    law = PointMass(1)
    flat, no_flat = Params(F(2, 3), F(1)), Params(F(2, 3), F(0))
    four = chain_increment_law(4, law, flat)
    others = [chain_increment_law(5, law, flat), chain_increment_law(4, law, no_flat),
              chain_increment_law(3, law, flat, mode="approx")]
    for other in others:
        for a, b in ((four, other), (other, four)):
            with pytest.raises(ValueError, match="different classes"):
                a.max_abs_diff(b)
    again = chain_increment_law(4, law, flat, mode="approx")
    assert again.sizes is not four.sizes and again.sizes == four.sizes
    assert four.max_abs_diff(again)[0] < 1e-15
