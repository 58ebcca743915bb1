"""The exact chain formula, closed form and conditioned walk in integers.

Each route builds its level parts and prefactors as ints over one
denominator per table and forms one Fraction per class.  The per-operation
Fraction forms they replace live here as oracles: every table must equal its
oracle item for item (keys, order, exact Fraction values, or float bits for a
float level law), every refusal must be the oracle's, no route may reach
another route's level code, and a table takes O(t) Fraction operations, not
one or more per class.
"""

import functools
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pitman_lab import (
    DistTable,
    FiniteSupport,
    Geometric,
    LevelLaw,
    NegativeBinomial,
    Params,
    PointMass,
    QNegativeBinomial,
    ShiftedPoisson,
    UnsupportedExactModeError,
    chain_increment_law,
    conditioned_walk_law,
    g_law_from_initial,
    q_bracket,
    rhs_law_table_formula,
    v_law_from_initial,
)
from pitman_lab import conditioning, exact, paths, processes, representation, transform
from pitman_lab.conditioning import _effective_params
from pitman_lab.exact import TERM_FLOOR, UNIT_ROUNDOFF, geometric_bracket_tail, left_sum
from pitman_lab.paths import class_path, path_classes

# ---------------------------------------------------------------------------
# the per-operation oracles
# ---------------------------------------------------------------------------


def bracket_ratio_sum(law, a, b, q):
    """Sum of pmf(k) [k+b+1]_q / [k+1]_q over k >= a, one Fraction per step."""
    atoms = law.atoms()
    if atoms is not None:
        return sum((p * q_bracket(k + b + 1, q) / q_bracket(k + 1, q)
                    for k, p in atoms if k >= a), F(0))
    form = law.ratio_geometric_form(q)
    if form is None:
        raise UnsupportedExactModeError(
            f"{law.cli_string()!r} has no exact bracket sum at q={q}; use approx mode")
    c, r = form
    return c * geometric_bracket_tail(r, a, b, q)


def bracket_tail(law, a, b, q):
    """Sum of pmf(j) [j+b+1]_q over j >= a, one Fraction per step."""
    if isinstance(law, Geometric):
        return (1 - law.p) * geometric_bracket_tail(law.p, a, b, q)
    atoms = law.atoms()
    if atoms is None:
        raise UnsupportedExactModeError(f"no closed-form bracket sum for {law.cli_string()!r}")
    return sum((p * q_bracket(j + b + 1, q) for j, p in atoms if j >= a), F(0))


def chain_formula_oracle(t, law, params):
    q, z_t = params.q, params.z**t
    level_sum = functools.cache(lambda a, b: bracket_ratio_sum(law, a, b, q))
    pref = functools.cache(lambda h, e: params.sigma**h / (z_t * params.rho**e))

    def formula(key):
        k0, end, h = key
        return pref(h, end) * level_sum(-k0, end)

    return DistTable.of_classes(t, params.sigma > 0, "exact", formula)


def closed_form_oracle(t, glaw, params):
    q, z_t = params.q, params.z**t
    pref = functools.cache(lambda h, e: params.sigma**h * params.rho**e / z_t)

    @functools.cache
    def level(k0, end):
        factor = end - k0 if q == 1 else (1 - q ** (k0 - end)) / (q - 1)
        return glaw.tail(-k0) + glaw.pmf(-k0) * factor

    def formula(key):
        k0, end, h = key
        value = pref(h, end) * level(k0, end)
        return value if glaw.exact else float(value)

    return DistTable.of_classes(t, params.sigma > 0, "exact" if glaw.exact else "approx",
                                formula)


def conditioned_oracle(t, vlaw, params, part):
    eff = _effective_params(params, part)
    q, z_t = eff.q, eff.z**t
    c = bracket_tail(vlaw, 0, 0, q)
    level_sum = functools.cache(lambda a, b: bracket_tail(vlaw, a, b, q))
    pref = functools.cache(lambda h, e: eff.sigma**h / (eff.rho**e * z_t))

    def conditioned(key):
        k0, end, h = key
        return pref(h, end) * level_sum(-k0, end) / c

    return DistTable.of_classes(t, eff.sigma > 0, "exact", conditioned)


def product_oracle(t, law, params, mode):
    """The product route as a Fraction loop: one Fraction multiply per step
    and atom, the kernel entries built once per table; a truncated law's
    float weights times the rounded products, summed in floats."""
    atoms, err = law.atoms(), 0.0
    finite = atoms is not None
    if not finite:
        top = law.truncation_point()
        err = law.tail_bound(top + 1)
        atoms = [(k, w) for k in range(top + 1) if (w := law.pmf_float(k))]
    kernel = functools.cache(lambda k, d: processes.chain_transition(k, d, params))

    def product(key):
        x, total = class_path(t, key), F(0)
        for k, w in atoms:
            if k + min(x.values) >= 0:
                prod = F(1)
                for a, b in zip(x.values, x.values[1:]):
                    prod *= kernel(k + a, b - a)
                total += w * prod
        return total if mode == "exact" else float(total)

    table = DistTable.of_classes(t, params.sigma > 0, mode, product)
    if mode != "exact":
        m = 1 if finite else len(atoms)
        rounding = left_sum(size * ((m + 3) * UNIT_ROUNDOFF * table.values[key] + m * TERM_FLOOR)
                            for key, size in table.sizes.items())
        weights = 0.0 if finite else left_sum(law.float_rel_err(k) * w for k, w in atoms)
        table.err = err + 1.1 * (weights + rounding)
    return table


FINITE_LAWS = st.one_of(
    st.lists(st.integers(0, 25), min_size=1, max_size=6, unique=True).flatmap(
        lambda levels: st.lists(st.integers(0, 5), min_size=len(levels),
                                max_size=len(levels)).filter(any).map(
            lambda w: FiniteSupport(tuple((n, F(x, sum(w))) for n, x in zip(levels, w))))),
    st.builds(PointMass, st.integers(0, 25)))


@given(FINITE_LAWS, st.sampled_from([F(1, 4), F(4, 9), F(1), F(9, 4), F(3)]),
       st.integers(0, 30), st.integers(0, 4))
def test_oracle_sums_equal_their_per_level_definitions(law, q, a, b):
    levels = range(a, law.support_max() + 1)
    for b_shift in (b, -min(a, b)):  # [k+b+1]_q with k >= a needs b >= -a
        assert bracket_ratio_sum(law, a, b_shift, q) == sum(
            (law.pmf(k) * q_bracket(k + b_shift + 1, q) / q_bracket(k + 1, q) for k in levels),
            F(0))
        assert bracket_tail(law, a, b_shift, q) == sum(
            (law.pmf(j) * q_bracket(j + b_shift + 1, q) for j in levels), F(0))


# ---------------------------------------------------------------------------
# equal to the oracles at every t <= 10
# ---------------------------------------------------------------------------

T_MAX = 10


def same_table(table, oracle):
    assert table.horizon == oracle.horizon and table.mode == oracle.mode
    assert list(table.values) == list(oracle.values)  # the same keys in the same order
    if oracle.mode == "exact":
        assert list(table.values.values()) == list(oracle.values.values())
        assert all(type(v) is F for v in table.values.values())
    else:  # a float level law: the oracle's bits
        assert [v.hex() for v in table.values.values()] == [
            v.hex() for v in oracle.values.values()]
    assert table.sizes == oracle.sizes


def every_horizon(build, oracle):
    for t in range(T_MAX + 1):
        same_table(build(t), oracle(t))


def law_of(kind, params):
    return {
        "point": lambda: PointMass(2),
        "finite": lambda: FiniteSupport(((0, F(1, 3)), (3, F(2, 3)))),
        "geo": lambda: Geometric(F(1, 3)),
        "qnb": lambda: QNegativeBinomial(params.q, F(1, 5)),
        "qnb-inverse": lambda: QNegativeBinomial(1 / params.q, F(1, 5) * min(params.q, 1)),
        "nb": lambda: NegativeBinomial(F(1, 3)),
    }[kind]()


# (law, rho, sigma): rho < 1, = 1 and > 1, sigma = 0 and > 0.  The chain formula
# is exact where the law has atoms or a geometric form at q = rho^2: nb only at
# rho = 1, geo nowhere (its refusal is below).
CHAIN_CASES = [
    ("point", F(1, 2), F(0)), ("point", F(2), F(1)),
    ("finite", F(1), F(1)), ("finite", F(2, 3), F(0)), ("finite", F(3, 2), F(1, 2)),
    ("qnb", F(2, 3), F(1)), ("qnb", F(3, 2), F(0)), ("qnb", F(1), F(1, 2)),
    ("qnb-inverse", F(1, 2), F(1)), ("qnb-inverse", F(2), F(0)),
    ("nb", F(1), F(0)), ("nb", F(1), F(1)),
]


@pytest.mark.parametrize("kind,rho,sigma", CHAIN_CASES)
def test_chain_formula_equals_its_oracle(kind, rho, sigma):
    params = Params(rho, sigma)
    law = law_of(kind, params)
    every_horizon(lambda t: chain_increment_law(t, law, params),
                  lambda t: chain_formula_oracle(t, law, params))


# (law, mode, rho, sigma): finite laws exact and in floats; truncated laws in
# floats, with float weights from exact laws (geo, qnb) and a float law (spoisson)
PRODUCT_CASES = [
    ("point", "exact", F(1, 2), F(0)), ("finite", "exact", F(2, 3), F(1)),
    ("finite", "exact", F(1), F(1, 2)), ("finite", "exact", F(3, 2), F(0)),
    ("finite", "approx", F(2, 3), F(1)), ("geo", "approx", F(1, 2), F(1)),
    ("qnb", "approx", F(2), F(1, 2)), ("spoisson", "approx", F(1), F(1)),
    ("spoisson", "approx", F(2, 3), F(0)),
]


@pytest.mark.parametrize("kind,mode,rho,sigma", PRODUCT_CASES)
def test_product_route_equals_the_fraction_loop(kind, mode, rho, sigma):
    """The product route multiplies int numerators and denominators per
    (level, step): the same exact values, the same float bits and err."""
    params = Params(rho, sigma)
    law = ShiftedPoisson(1.5) if kind == "spoisson" else law_of(kind, params)
    for t in range(8):
        table = chain_increment_law(t, law, params, route="product", mode=mode)
        oracle = product_oracle(t, law, params, mode)
        same_table(table, oracle)
        assert table.err.hex() == oracle.err.hex()


def test_product_route_from_a_long_truncated_law_is_within_err_of_the_formula():
    """geo:99/100 truncates past three thousand levels: the product route
    sums their float weights (summed exactly over a running lcm, the atoms
    of geo:39/40 alone took 35 s), and each entry lies within the two
    tables' err of the formula route's."""
    params, law = Params(F(1, 2)), Geometric(F(99, 100))
    product = chain_increment_law(1, law, params, route="product")
    formula = chain_increment_law(1, law, params)
    assert product.mode == formula.mode == "approx" and law.truncation_point() > 3000
    assert 0 < product.err < 1e-12
    difference, _ = product.max_abs_diff(formula)
    assert difference <= product.err + formula.err


@pytest.mark.parametrize("spec", ["finite:0=1/2,40=1/2", "finite:0=1/6,2=1/3,5=1/2"])
@pytest.mark.parametrize("rho,sigma", [(F(2, 3), F(1)), (F(1), F(0)), (F(3, 2), F(1, 2))])
def test_product_route_equals_the_formula_at_depth(spec, rho, sigma):
    """At t = 10, from starts up to level 40, the kernel products equal the
    chain formula in canonical form (the six cases take about 0.02 s)."""
    params, law = Params(rho, sigma), processes.parse_initial_law(spec)
    product = chain_increment_law(10, law, params, route="product")
    formula = chain_increment_law(10, law, params, route="formula")
    assert product.mode == formula.mode == "exact" and product.sizes is formula.sizes
    assert (product.den, product.nums) == (formula.den, formula.nums)
    assert product.mass() == 1


# the closed form on both parts' level laws: G at (rho, sigma) and Gtilde on
# the flipped walk; geo's level laws are float laws, whose bits must match
CLOSED_CASES = [
    ("point", F(1, 2), F(0)), ("finite", F(1), F(1)), ("finite", F(2), F(0)),
    ("geo", F(2, 3), F(1)), ("geo", F(1), F(0)),
    ("qnb", F(2, 3), F(1)), ("qnb", F(3, 2), F(1, 2)), ("nb", F(1), F(0)),
]


@pytest.mark.parametrize("part", ["I", "II"])
@pytest.mark.parametrize("kind,rho,sigma", CLOSED_CASES)
def test_closed_form_equals_its_oracle(kind, rho, sigma, part):
    params = Params(rho, sigma)
    law = law_of(kind, params)
    glaw = g_law_from_initial(law, params, "G" if part == "I" else "Gtilde")
    walk = params if part == "I" else params.tilde()
    every_horizon(lambda t: rhs_law_table_formula(t, glaw, walk),
                  lambda t: closed_form_oracle(t, glaw, walk))


@pytest.mark.parametrize("glaw", [LevelLaw.geometric(F(1, 3)), LevelLaw.point(0),
                                  LevelLaw.from_pmf({0: F(1, 2), 3: F(1, 2)}),
                                  ShiftedPoisson(1.5)])
@pytest.mark.parametrize("rho,sigma", [(F(1, 2), F(1)), (F(1), F(0)), (F(3, 2), F(1, 2))])
def test_closed_form_on_candidate_levels(glaw, rho, sigma):
    params = Params(rho, sigma)
    every_horizon(lambda t: rhs_law_table_formula(t, glaw, params),
                  lambda t: closed_form_oracle(t, glaw, params))


# V from each part's initial law (rho < 1 for part I, rho > 1 for part II),
# and Geometric and finite V given directly
CONDITIONED_CASES = [
    ("point", F(1, 2), F(0), "I"), ("point", F(2), F(1), "II"),
    ("finite", F(2, 3), F(1), "I"), ("finite", F(3, 2), F(0), "II"),
    ("qnb", F(2, 3), F(1), "I"), ("qnb", F(3, 2), F(1, 2), "II"),
    ("qnb-inverse", F(1, 2), F(0), "I"), ("qnb-inverse", F(2), F(1), "II"),
]


@pytest.mark.parametrize("kind,rho,sigma,part", CONDITIONED_CASES)
def test_conditioned_walk_equals_its_oracle(kind, rho, sigma, part):
    params = Params(rho, sigma)
    vlaw = v_law_from_initial(law_of(kind, params), params, part)
    every_horizon(lambda t: conditioned_walk_law(t, vlaw, params, part),
                  lambda t: conditioned_oracle(t, vlaw, params, part))


@pytest.mark.parametrize("vlaw", [Geometric(F(1, 3)), Geometric(F(0)), PointMass(0),
                                  FiniteSupport(((1, F(1, 4)), (4, F(3, 4))))])
@pytest.mark.parametrize("rho,sigma,part", [(F(1, 2), F(1), "I"), (F(3, 2), F(0), "II")])
def test_conditioned_walk_on_given_levels(vlaw, rho, sigma, part):
    params = Params(rho, sigma)
    every_horizon(lambda t: conditioned_walk_law(t, vlaw, params, part),
                  lambda t: conditioned_oracle(t, vlaw, params, part))


def raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("law,rho", [(Geometric(F(1, 3)), F(2, 3)),
                                     (NegativeBinomial(F(1, 3)), F(1, 2)),
                                     (QNegativeBinomial(F(1, 4), F(1, 2)), F(2, 3)),
                                     (ShiftedPoisson(1.5), F(1))])
def test_chain_formula_refuses_as_its_oracle(law, rho):
    params = Params(rho, F(1))
    for t in (0, 3):
        got = raised(lambda: chain_increment_law(t, law, params, mode="exact"))
        assert got == raised(lambda: chain_formula_oracle(t, law, params))
        assert got[0] is UnsupportedExactModeError


def test_closed_form_refuses_as_its_oracle():
    params = Params(F(2, 3), F(1))
    glaw = g_law_from_initial(Geometric(F(1, 3)), params, "G", mode="exact")
    got = raised(lambda: rhs_law_table_formula(3, glaw, params))
    assert got == raised(lambda: closed_form_oracle(3, glaw, params))
    assert got[0] is UnsupportedExactModeError


@pytest.mark.parametrize("vlaw", [QNegativeBinomial(F(1, 4), F(1, 2)), NegativeBinomial(F(1, 3)),
                                  g_law_from_initial(PointMass(1), Params(F(1, 2)), "G")])
def test_conditioned_walk_refuses_as_its_oracle(vlaw):
    for t in (0, 3):
        got = raised(lambda: conditioned_walk_law(t, vlaw, Params(F(1, 2)), "I"))
        assert got == raised(lambda: conditioned_oracle(t, vlaw, Params(F(1, 2)), "I"))
        assert got[0] is UnsupportedExactModeError
    for rho, part in ((F(1), "I"), (F(1, 2), "II"), (F(2), "III")):
        got = raised(lambda: conditioned_walk_law(2, PointMass(1), Params(rho), part))
        assert got == raised(lambda: conditioned_oracle(2, PointMass(1), Params(rho), part))


# ---------------------------------------------------------------------------
# no route reaches another route's level code
# ---------------------------------------------------------------------------

MODULES = (conditioning, exact, paths, processes, representation, transform)
LAW_CLASSES = (processes.InitialLaw, FiniteSupport, PointMass, Geometric, QNegativeBinomial,
               LevelLaw)


#: level sums the package no longer has: the oracles above keep them
REMOVED = {"bracket_ratio_sum_exact", "bracket_tail"}


def refuse(monkeypatch, names):
    """Make each of ``names`` raise wherever the package holds it: as a module
    function and as a method of a law class."""
    def refused(*args, **kwargs):
        raise AssertionError("another route's level code reached")

    found = set()
    for owner in MODULES + LAW_CLASSES:
        for name in names:
            if name in vars(owner):
                monkeypatch.setattr(owner, name, refused)
                found.add(name)
    assert found == set(names) - REMOVED and not found & REMOVED


#: the entry points of the three factored routes: the routes share
#: ``paths.combine_factors``, and none may reach another's factors
CHAIN_FORMULA = ["chain_increment_law", "_chain_law_formula_exact", "_chain_law_formula_float",
                 "_chain_level_sweep"]
CLOSED_FORM = ["rhs_law_table_formula"]
CONDITIONED_WALK = ["conditioned_walk_law"]


def test_chain_formula_reaches_no_other_level_code(monkeypatch):
    params = Params(F(2, 3), F(1))
    laws = [QNegativeBinomial(params.q, F(1, 2)), FiniteSupport(((0, F(1, 3)), (3, F(2, 3))))]
    float_laws = [QNegativeBinomial(params.q, F(1, 2)), Geometric(F(1, 3))]  # closed-form floats
    want = [chain_increment_law(6, law, params) for law in laws]
    want_float = [chain_increment_law(6, law, params, mode="approx") for law in float_laws]
    refuse(monkeypatch, ["pmf", "tail", "ratio_tail_exact", "bracket_tail", "preimage",
                         "q_bracket", "chain_transition", "tail_pair", "ratio_tail_pair",
                         "bracket_int", *CLOSED_FORM, *CONDITIONED_WALK])
    for law, table in zip(laws, want):
        assert chain_increment_law(6, law, params).values == table.values
    for law, table in zip(float_laws, want_float):
        got = chain_increment_law(6, law, params, mode="approx")
        assert got.floats.tobytes() == table.floats.tobytes() and got.err == table.err


def test_closed_form_reaches_no_other_level_code(monkeypatch):
    params = Params(F(2, 3), F(1))
    glaws = [LevelLaw.geometric(F(1, 3)), LevelLaw.from_pmf({0: F(1, 2), 3: F(1, 2)}),
             g_law_from_initial(QNegativeBinomial(params.q, F(1, 2)), params, "G"),
             g_law_from_initial(Geometric(F(1, 3)), params, "G", mode="approx")]
    want = [rhs_law_table_formula(6, glaw, params) for glaw in glaws]
    assert want[-1].mode == "approx"
    refuse(monkeypatch, ["bracket_ratio_sum_exact", "bracket_tail", "chain_transition",
                         "preimage", "atoms", "ratio_geometric_form", *CHAIN_FORMULA,
                         *CONDITIONED_WALK])
    for glaw, table in zip(glaws, want):
        got = rhs_law_table_formula(6, glaw, params)
        assert got.values == table.values and got.err == table.err


def test_conditioned_walk_reaches_no_other_level_code(monkeypatch):
    params = Params(F(2, 3), F(1))
    vlaws = [v_law_from_initial(QNegativeBinomial(params.q, F(1, 2)), params, "I"),
             v_law_from_initial(FiniteSupport(((0, F(1, 3)), (3, F(2, 3)))), params, "I")]
    want = [conditioned_walk_law(6, vlaw, params, "I") for vlaw in vlaws]
    refuse(monkeypatch, ["bracket_ratio_sum_exact", "ratio_tail_exact", "pmf", "tail",
                         "q_bracket", "chain_transition", "preimage", "tail_pair",
                         "ratio_tail_pair", "bracket_int", *CHAIN_FORMULA, *CLOSED_FORM])
    for vlaw, table in zip(vlaws, want):
        assert conditioned_walk_law(6, vlaw, params, "I").values == table.values


# ---------------------------------------------------------------------------
# O(t) Fraction operations per table
# ---------------------------------------------------------------------------


def count_fraction_ops(monkeypatch):
    calls = Counter()
    for name in ("__mul__", "__truediv__", "__add__", "__sub__", "__pow__"):
        original = getattr(F, name)

        def counted(a, b, *rest, _name=name, _original=original):
            calls[_name] += 1
            return _original(a, b, *rest)

        monkeypatch.setattr(F, name, counted)
    return calls


@pytest.mark.parametrize("route", ["chain formula", "closed form", "conditioned walk"])
@pytest.mark.parametrize("kind", ["qnb", "finite"])
def test_fraction_operations_per_table_are_o_of_t(monkeypatch, route, kind):
    t = 8
    params = Params(F(2, 3), F(1))
    law = law_of(kind, params)
    glaw = Geometric(F(1, 3)) if kind == "qnb" else LevelLaw.from_pmf({0: F(1, 2), 3: F(1, 2)})
    vlaw = v_law_from_initial(law, params, "I")
    build = {"chain formula": lambda: chain_increment_law(t, law, params),
             "closed form": lambda: rhs_law_table_formula(t, glaw, params),
             "conditioned walk": lambda: conditioned_walk_law(t, vlaw, params, "I")}[route]
    classes = len(list(path_classes(t)))
    calls = count_fraction_ops(monkeypatch)
    table = build()
    assert len(table.values) == classes == 95
    # the closed form reads P(G >= n) and P(G = n) for each n <= t, a few
    # operations each for a catalog law; the other routes only derive q and z
    assert sum(calls.values()) <= 4 * (t + 1) < classes, calls
