"""Level laws and the law of the level-shifted max transform of the walk.

The central identity under test: the chain increment law coincides with the
law of 2*(M_t - G)_+ - S_t for an independent level G whose pmf is
q^n * sum_{j>=n} P(X0=j)/[j+1]_q (and, for the sign-flipped walk, the same
formula at 1/q).  Both sides are built as exact tables and compared entry by
entry; the transform side is computed twice, by pushforward over the preimage
sets and by the closed-form expression, so every comparison is dual-route.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .exact import (
    UNIT_ROUNDOFF,
    Approx,
    bracket_int,
    left_sum,
    prob_json,
    q_bracket,
    rat,
    rel_err,
)
from .paths import class_rows, class_sizes, combine_factors, factor_pairs, horizon_cap
from .processes import (
    DistTable,
    FiniteSupport,
    Geometric,
    InitialLaw,
    Params,
    PointMass,
    _chain_level_sweep,
    chain_increment_law,
    walk_law,
)
from .sampling import _level_dtype, block_rows
from .transform import preimage_flips


class LevelLaw(InitialLaw):
    """The law of a level G derived from an initial law by
    :func:`g_law_from_initial`: pmf and tail are closures, cached per level
    on this object.  Exact closures return Fractions, and the exact
    ``tail_pair`` closure, read uncached, the tails as int pairs (numerator,
    denominator); float ones return :class:`Approx`, whose value
    ``pmf``/``tail`` give and whose certified error ``pmf_err``/``tail_err`` give.

    Every other level law is a catalog law; ``point``, ``from_pmf`` and
    ``geometric`` build the catalog's PointMass, FiniteSupport and Geometric.
    """

    point = staticmethod(PointMass)
    geometric = staticmethod(Geometric)

    @staticmethod
    def from_pmf(masses: dict) -> FiniteSupport:
        return FiniteSupport(tuple(masses.items()))

    def __init__(self, pmf_fn, tail_fn, exact: bool, label: str, tail_pair=None):
        self.exact, self._label, self._tail_pair = exact, label, tail_pair
        self._pmf_entry = functools.lru_cache(maxsize=None)(pmf_fn)
        self._tail_entry = functools.lru_cache(maxsize=None)(tail_fn)

    def pmf(self, n: int):
        if n < 0:
            return Fraction(0) if self.exact else 0.0
        return _value(self._pmf_entry(n))

    def tail(self, n: int):
        """P(level >= n)."""
        if n <= 0:
            return Fraction(1) if self.exact else 1.0
        return _value(self._tail_entry(n))

    def tail_pair(self, n: int):
        """Exact mode: P(level >= n) as an int pair (numerator, denominator
        > 0), not always in lowest terms; not cached."""
        return self._tail_pair(n) if n > 0 else (1, 1)

    def pmf_err(self, n: int) -> float:
        return _err(self._pmf_entry(n)) if n >= 0 else 0.0

    def tail_err(self, n: int) -> float:
        return _err(self._tail_entry(n)) if n > 0 else 0.0

    def cli_string(self) -> str:
        """The law it derives from, as G[...] or Gtilde[...]; not a law
        string of the parser."""
        return self._label


def _value(v):
    return v.value if isinstance(v, Approx) else v


def _err(v):
    return v.err if isinstance(v, Approx) else 0.0


def g_law_from_initial(law: InitialLaw, params: Params, which: str = "G",
                       mode: str = None, trunc_n: int = None) -> LevelLaw:
    """Level law induced by an initial law: pmf(n) = q^n * tail_sum_ratio(law, n, q).

    ``which="G"`` uses q = rho^2 (plain walk side); ``which="Gtilde"`` uses
    1/rho^2 (sign-flipped walk side).  The tail comes from the same sums:
    P(G >= n) = P(X0 >= n) - [n]_q * tail_sum_ratio(law, n, q).

    In exact mode the initial law builds the parts of its sums once per q
    (``InitialLaw.ratio_tail_pair``), and a level value is an int pair: with
    q = a/b, S(n) the ratio tail sn/sd, P(X0 >= n) = tn/td and [n]_q =
    ``bracket_int(n, a, b)``/b^(n-1), P(G = n) is (a^n sn, b^n sd) and
    P(G >= n) is (tn b^(n-1) sd - td bracket_int(n) sn, td b^(n-1) sd).  So
    a level costs a few int products and no gcd (``LevelLaw.tail_pair``).
    ``pmf`` and ``tail`` keep Fractions: for a law with a geometric form,
    each pair normalised once; for a law with atoms, whose reduced suffix
    sums carry the top atom's bracket, q^n S(n) and P(X0 >= n) - [n]_q S(n)
    in Fractions, whose cross gcds cost O(n k) bit operations for an atom at
    k, where one gcd of the pair costs O(k^2).

    In approx mode the initial law's one :class:`TailSumTable` at q (the
    one ``tail_sum_ratio`` reads), fetched at the first read (so a verifier
    refuses its arguments before paying for it), serves every level of both
    pmf and tail.  Their errors add to the table's the rounding of the
    float factors q^n (float(q) to the power n, pow within one ulp, the product)
    and, for the tail, of P(X0 >= n) (the law's ``float_rel_err``), of [n]_q
    (``bracket_rel_err``), of the product and of the difference; the factor
    1.1 covers second-order terms and the rounding of the bound itself.
    """
    if which not in ("G", "Gtilde"):
        raise ValueError("which must be 'G' or 'Gtilde'")
    q = params.q if which == "G" else 1 / params.q
    if mode is None:
        mode = "exact" if (law.exact and law.exact_capable(q)) else "approx"
    label = f"{which}[{law.cli_string()}]"

    if mode == "exact":
        a, b = q.numerator, q.denominator

        def pmf_pair(n):
            sn, sd = law.ratio_tail_pair(n, q)
            return a**n * sn, b**n * sd

        def tail_pair(n):
            tn, td = law.tail_pair(n)
            sn, sd = law.ratio_tail_pair(n, q)
            if not sn:  # past the last atom
                return tn, td
            den = b ** (n - 1) * sd
            return tn * den - td * (bracket_int(n, a, b) * sn), td * den

        if law.atoms() is None:  # parts of O(n) bits: one gcd normalises a pair
            fractions = [lambda n, pair=pair: Fraction(*pair(n)) for pair in (pmf_pair, tail_pair)]
        else:  # an atom's bracket may be far longer than the level's: cross gcds of the parts
            fractions = [lambda n: q**n * law.ratio_tail_exact(n, q),
                         lambda n: law.tail(n) - q_bracket(n, q) * law.ratio_tail_exact(n, q)]
        return LevelLaw(*fractions, exact=True, label=label, tail_pair=tail_pair)

    table = functools.cache(lambda: law._tail_sum_table(q, trunc_n))
    qf, u = float(q), UNIT_ROUNDOFF
    log_q = math.log(qf)

    def bounded_by_initial_tail(n):
        # P(G = n) and P(G >= n) both lie in [0, P(X0 >= n)], as
        # q^n <= [j+1]_q for j >= n; used past the table's top (where
        # P(X0 >= n) < APPROX_TAIL_TOL) and where q^n or [n]_q overflows
        return Approx(0.0, law.tail_bound(n))

    def pmf_fn(n):
        if n > table().top or n * log_q > 700:
            return bounded_by_initial_tail(n)
        s = table().at(n)
        qn = qf**n
        value = qn * s.value
        return Approx(value, 1.1 * (qn * s.err + rel_err((n + 4) * u) * value))

    def tail_fn(n):
        if n > table().top:
            return bounded_by_initial_tail(n)
        s = table().at(n)
        br, br_err = table().bracket(n)
        removed = br * s.value
        if not math.isfinite(removed):
            return bounded_by_initial_tail(n)
        mass = law.tail_float(n)
        value = mass - removed
        err = (law.float_rel_err(n) * mass + br * s.err
               + rel_err(br_err, u) * removed + u * abs(value))
        return Approx(value, 1.1 * err)

    return LevelLaw(pmf_fn, tail_fn, exact=False, label=label)


# ---------------------------------------------------------------------------
# the transformed-walk law, two routes
# ---------------------------------------------------------------------------


def rhs_law_table_formula(t: int, glaw: InitialLaw, params: Params) -> DistTable:
    """Closed form for P(2(M-G)_+ - S follows x) on horizon t, per class
    (K0, x_t, H), with n = -K and m = x_t - K <= t:

        sigma^H rho^(x_t) / z^t * (P(G >= n) + P(G = n) (1 - q^-m)/(q - 1))

    The factor is q^-1 + ... + q^-m (m at q = 1), the int F(m) = sum over
    1 <= j <= m of qd^j qn^(t-j) over qn^t, for q = rho^2 = qn/qd in lowest
    terms; the prefactor is the int sn^H sd^(t-H) rn^(t+x_t) rd^(t-x_t)
    zd^t over (sd rn rd zn)^t.  Both modes take one path: the prefactor and
    the level part P(G >= n) + P(G = n) F(m) are arrays over the pair
    columns of ``paths.factor_pairs``, which ``paths.combine_factors``
    multiplies.  An exact level law's values go over the lcm L of their
    denominators, so a level part L P(G >= n) qn^t + L P(G = n) F(m) is an
    int; for a float level law the prefactor and F(m) / qn^t are each one
    correctly rounded int quotient.
    """
    (rn, rd), (sn, sd), (zn, zd) = (
        v.as_integer_ratio() for v in (params.rho, params.sigma, params.z))
    qn, qd = rn * rn, rd * rd
    qn_t = qn**t
    sizes = class_sizes(t, params.sigma > 0)
    pairs = factor_pairs(sizes)
    pref = np.array([sn**h * sd ** (t - h) * rn ** (t + e) * rd ** (t - e) * zd**t
                     for h, e in zip(*pairs.prefs.tolist())], dtype=object)
    den = (sd * rn * rd * zn) ** t
    factors = np.array(list(itertools.accumulate(
        (qd**j * qn ** (t - j) for j in range(1, t + 1)), initial=0)), dtype=object)
    tails, pmfs = ([value(n) for n in range(t + 1)] for value in (glaw.tail, glaw.pmf))
    if glaw.exact:
        lcm = math.lcm(*(v.denominator for v in tails + pmfs))
        tails = np.array([v.numerator * (lcm // v.denominator) * qn_t for v in tails], dtype=object)
        pmfs = np.array([v.numerator * (lcm // v.denominator) for v in pmfs], dtype=object)
        den *= lcm * qn_t
    else:
        tails, pmfs = np.array(tails), np.array(pmfs)
        pref, factors = (pref / den).astype(float), (factors / qn_t).astype(float)
    a, e = pairs.levels
    values = combine_factors(sizes, pref, tails[a] + pmfs[a] * factors[a + e])
    return _with_level_err(DistTable(t, "exact" if glaw.exact else "approx", values,
                                     sizes=sizes, den=den), glaw)


def rhs_law_enumeration(t: int, glaw: InitialLaw, params: Params) -> DistTable:
    """Pushforward over each path's preimage set:

        P(x) = P(G >= -K) * walk_prob(-x)
               + P(G = -K) * sum over sporadic members of walk_prob(s^(r)),

    counted, not built, on the class representatives: blocks of rows of one
    step array (``paths.class_rows``).  A row's running sums are its values,
    and K = min x, x_t, H and the flips (``transform.preimage_flips``) are
    read off them, not off the key.  A flip turns a -1 step of the ray -x
    into +1, so with D - U = e on the ray the i-th member has D - U = e - 2i.
    walk_prob is sigma^H rho^(D-U) / z^t, an int numerator over one
    denominator per table, and the members' sum is a difference of two
    prefix sums of those numerators over e per H.  A flip off a -1 step of
    the ray, or other than x_t - K flips, raises ArithmeticError.  The class
    values go by row, in key order, into a list of ints or, for a float
    level law, an array.
    """
    rn, rd = params.rho.numerator, params.rho.denominator
    sn, sd = params.sigma.numerator, params.sigma.denominator
    z = params.z
    zd_t = z.denominator**t
    denom = (sd * rn * rd * z.numerator) ** t
    allow_flat = params.sigma > 0
    sizes = class_sizes(t, allow_flat)
    # walk numerators per H over D - U = -n, -n+2, ..., n (n = t - H), and their prefix sums
    walk = [[sn**h * sd ** (t - h) * rn ** (t + e) * rd ** (t - e) * zd_t
             for e in range(h - t, t - h + 1, 2)] for h in range(t + 1 if allow_flat else 1)]
    prefix = [list(itertools.accumulate(row, initial=0)) for row in walk]
    tails, pmfs = [glaw.tail(n) for n in range(t + 1)], [glaw.pmf(n) for n in range(t + 1)]
    if glaw.exact:  # over the lcm of their denominators
        lcm = math.lcm(*(v.denominator for v in tails + pmfs))
        tails, pmfs = ([v.numerator * (lcm // v.denominator) for v in vs] for vs in (tails, pmfs))
    keys = list(sizes)
    values = [0] * len(keys) if glaw.exact else np.empty(len(keys))  # in key order
    step, dtype = block_rows(t + 1), _level_dtype(t)  # |x_j| <= t
    for start in range(0, len(keys), step):
        block = keys[start:start + step]
        steps = class_rows(t, block)
        vals = np.zeros((len(block), t + 1), dtype=dtype)
        np.add.accumulate(steps, axis=1, dtype=dtype, out=vals[:, 1:])  # x_1, ..., x_t
        flips = preimage_flips(vals)
        per_row = (np.minimum.reduce(vals, axis=1), vals[:, -1], (steps == 0).sum(axis=1),
                   flips.sum(axis=1), (flips & (steps == 1)).sum(axis=1))
        for row, (key, k0, e, h, m, on_ray) in enumerate(
                zip(block, *(column.tolist() for column in per_row)), start):
            if not m == on_ray == e - k0:
                raise ArithmeticError(f"preimage of class {key}: {m} flips, {on_ray} on -1 steps "
                                      f"of the ray, not x_t - K0 = {e - k0}")
            i = (e + t - h) // 2
            ray, members = walk[h][i], prefix[h][i] - prefix[h][i - m]
            if not glaw.exact:  # each walk probability rounded once, as float(Fraction) does
                ray, members = ray / denom, members / denom
            values[row] = tails[-k0] * ray + pmfs[-k0] * members
    return _with_level_err(DistTable(t, "exact" if glaw.exact else "approx", values,
                                     sizes=sizes, den=denom * lcm if glaw.exact else None), glaw)


def _with_level_err(table: DistTable, glaw: InitialLaw) -> DistTable:
    """The table; an approx one gets ``err``.  Its entries are
    P(G >= n) w0 + P(G = n) W with n = -K0 <= t, w0 the walk probability of
    the ray -x and W that of the sporadic members.  Summed over every path:

    * x -> -x is a bijection, so the w0 sum to 1: the tails add at most the
      max over n <= t of tail_err(n);
    * with G = n a.s. the entries, w0 where -K0 < n and w0 + W where
      -K0 = n, form a probability law, so the W with -K0 = n sum to at most
      1: the pmfs add at most the sum over n <= t of pmf_err(n);
    * an entry takes at most five roundings of a sum of nonnegative terms
      (closed form: the factor's quotient, its product, the sum, the
      prefactor's quotient, the product): 6u times the float mass.

    The factor 1.1 covers the float sums that form ``err`` and the mass.
    """
    if table.mode == "exact":
        return table
    levels = range(table.horizon + 1)
    table.err = 1.1 * (max(map(glaw.tail_err, levels)) + left_sum(map(glaw.pmf_err, levels))
                       + 6 * UNIT_ROUNDOFF * table.mass())
    return table


# ---------------------------------------------------------------------------
# verification engines
# ---------------------------------------------------------------------------


def _diff_json(diff):
    if isinstance(diff, Fraction):
        return {"exact": True, "value": prob_json(diff), "float": float(diff)}
    return {"exact": False, "value": float(diff), "float": float(diff)}


def compare_routes(check: str, horizons, pairs_at, stop_at_witness: bool = False):
    """The one loop and the one verdict of every table verifier.  For each
    horizon t, ``pairs_at(t)`` gives labelled table pairs (label, table_a,
    table_b).  A pair holds when its largest class difference is within the
    sum of its tables' ``err`` times 1 + 4u, for the roundings of that sum,
    its product and the subtraction, plus 2u where an exact entry (below 1)
    is rounded to meet a float one; exact tables carry ``err`` 0, so they
    must agree exactly.  Returns (largest difference, largest bound,
    witness), the witness {"pair", "path", "horizon"} naming the first class
    of the largest difference among broken pairs, None when every pair holds.

    A table whose mass is off 1 raises ArithmeticError, as a route that lost
    or double-counted paths must not PASS: an exact mass must be 1, a float
    one within ``err`` plus (classes + 1) u mass for its sum's rounding.  A
    table in several pairs of one horizon is checked once.  The tables of a
    horizon share its ``class_sizes`` and hold their values in its key
    order: a float mass sums left to right, and a pair with a float table
    is one array pass (``DistTable.mass``, ``DistTable.max_abs_diff``).
    ``stop_at_witness`` ends the loop after the first horizon with a
    witness, which settles a converse question; later tables are not built.
    """
    horizons = list(horizons)
    if not horizons or min(horizons) < 1:
        raise ValueError(f"{check} needs horizons t >= 1 (--t >= 1), got "
                         f"{horizons or 'none'}: t=0 compares no table")
    worst, bound, witness, broken = Fraction(0), 0.0, None, 0
    for t in horizons:
        checked = set()
        for label, ta, tb in pairs_at(t):
            for table in (ta, tb):
                if id(table) not in checked:
                    checked.add(id(table))
                    mass = table.mass()
                    room = 0 if table.mode == "exact" else (
                        table.err + (len(table.sizes) + 1) * UNIT_ROUNDOFF * mass)
                    if abs(mass - 1) > room:
                        raise ArithmeticError(f"{label}: a table of horizon {t} has mass {mass}")
            d, w = ta.max_abs_diff(tb)
            allowed = ((ta.err + tb.err) * (1 + 4 * UNIT_ROUNDOFF)
                       + 2 * UNIT_ROUNDOFF * (ta.mode != tb.mode))
            worst, bound = max(worst, d), max(bound, allowed)
            if d > allowed and d > broken:
                broken, witness = d, {"pair": label, "path": str(w), "horizon": t}
        if witness is not None and stop_at_witness:
            break
    return worst, bound, witness


def _verdict(compared, exact: bool, held: str = "PASS", broke: str = "FAIL") -> dict:
    """Report fields of a :func:`compare_routes` result; the status holds when
    the witness is None, and float tables state their largest pair bound as
    ``tolerance``."""
    worst, bound, witness = compared
    fields = {"max_abs_diff": _diff_json(worst), "witness": witness,
              "status": held if witness is None else broke}
    if not exact:
        fields["tolerance"] = bound
    return fields


def verify_thm1(t_max: int, law: InitialLaw, params: Params, part: str = "I",
                candidate: InitialLaw = None, t_values=None) -> dict:
    """Check the representation identity on every horizon up to t_max.

    Forward direction (candidate=None): derive the level law from the initial
    law and require the chain table, the preimage pushforward and the closed
    form to agree, each pair within its tables' certified ``err`` (exactly,
    in exact mode; see :func:`compare_routes`).  The tables are class tables
    (:class:`DistTable`); a witness is the representative of the
    first class that reaches the worst difference of a broken pair.  Passing
    a candidate level law instead turns this into the converse test: a wrong
    candidate produces a witness path.  ``t_values`` restricts the horizons,
    so a caller can verify chosen horizons without the ones below them.  In
    approx mode the chain route sweeps the initial law's levels once per
    call, for its largest horizon, and every horizon's table reads that
    sweep (:func:`processes._chain_level_sweep`).
    """
    if part not in ("I", "II"):
        raise ValueError("part must be 'I' or 'II'")
    walk_params = params if part == "I" else params.tilde()
    which = "G" if part == "I" else "Gtilde"
    glaw = candidate if candidate is not None else g_law_from_initial(law, params, which)

    exact = glaw.exact and law.exact and law.exact_capable(params.q)
    horizons = list(t_values if t_values is not None else range(1, t_max + 1))
    # the float chain route's level sums, built when the first table reads them,
    # for the largest horizon a table can have (and the rows its horizons read)
    sweep = functools.cache(
        lambda: _chain_level_sweep(min(max(horizons), horizon_cap()), law, params, horizons))

    def routes(t):
        chain = chain_increment_law(t, law, params, mode="exact" if exact else "approx",
                                    sweep=None if exact else sweep())
        enum = rhs_law_enumeration(t, glaw, walk_params)
        form = rhs_law_table_formula(t, glaw, walk_params)
        return (("chain_vs_enumeration", chain, enum), ("chain_vs_formula", chain, form),
                ("enumeration_vs_formula", enum, form))

    compared = compare_routes("thm1", horizons, routes, stop_at_witness=candidate is not None)
    return {
        "check": "thm1",
        "part": part,
        "direction": "candidate" if candidate is not None else "forward",
        "params": params.to_json(),
        "initial": law.cli_string(),
        "level_law": glaw.cli_string(),
        "t_max": t_max,
        "exact": exact,
        **_verdict(compared, exact),
    }


def verify_two_sided(t_max: int, law: InitialLaw, params: Params) -> dict:
    """Both transform representations (plain and sign-flipped walk) give one law."""
    g = g_law_from_initial(law, params, "G")
    gt = g_law_from_initial(law, params, "Gtilde")
    tilde = params.tilde()
    compared = compare_routes(
        "two-sided", range(1, t_max + 1),
        lambda t: [("plain_vs_flipped", rhs_law_enumeration(t, g, params),
                    rhs_law_enumeration(t, gt, tilde))])
    return {
        "check": "two-sided",
        "params": params.to_json(),
        "initial": law.cli_string(),
        "t_max": t_max,
        **_verdict(compared, g.exact and gt.exact),
    }


def walk_match_report(glaw: InitialLaw, params: Params, t_max: int) -> dict:
    """Does 2(M-G)_+ - S reproduce the plain walk law?  (It should exactly when
    G is geometric with parameter rho^2 and rho < 1, and for no other law.)"""
    compared = compare_routes(
        "walk-match", range(1, t_max + 1),
        lambda t: [("transform_vs_walk", rhs_law_enumeration(t, glaw, params),
                    walk_law(t, params))],
        stop_at_witness=True)
    return {
        "check": "walk-match",
        "level_law": glaw.cli_string(),
        "params": params.to_json(),
        "t_max": t_max,
        **_verdict(compared, glaw.exact, "MATCH", "DIFFER"),
    }


# ---------------------------------------------------------------------------
# damage-model and Poisson splitting checks
# ---------------------------------------------------------------------------


def damage_check(q, theta, nmax: int = 60) -> dict:
    """Split a q-negative-binomial count N into the surviving part R (with the
    q-thinned conditional law q^r/[n+1]_q given N = n) and the damaged part
    D = N - R; verify, all in exact rationals on r + d <= nmax:

    * the joint pmf factorizes as geo(q*theta) x geo(theta);
    * the marginals computed from the unfactorized joint via the exact tail
      sums equal those geometrics;
    * the partial-independence property P(R = r | D = 0) = P(R = r).

    Every per-level factor is built once, as an int numerator and
    denominator from running int products (powers of q, of q theta and of
    theta, and [n+1]_q qd^n by its recurrence), and every identity compares
    a/b == c/d as a*d == c*b on the ints; Fractions are formed only for a
    factorization cell that fails.
    """
    from .processes import QNegativeBinomial

    if nmax < 0:
        raise ValueError(f"--nmax must be >= 0, got {nmax}: no level would be checked")
    q, theta = rat(q), rat(theta)
    law = QNegativeBinomial(q, theta)  # validates 0 <= theta < 1, q*theta < 1
    levels = range(nmax + 1)

    def runs(x, first=Fraction(1)):  # first * x^k for k <= nmax: numerators, denominators
        return [list(itertools.accumulate([step] * nmax, operator.mul, initial=start))
                for start, step in ((first.numerator, x.numerator),
                                    (first.denominator, x.denominator))]

    (qn, qd), (sn, sd), (dn, dd) = runs(q), runs(q * theta, 1 - q * theta), runs(theta, 1 - theta)
    # the joint P(R=r, D=n-r) is pmf(n)/[n+1]_q times q^r, the product
    # geo(q theta)(r) x geo(theta)(n-r); [n+1]_q qd^n = qd^n + qn [n]_q qd^(n-1)
    brackets = itertools.accumulate(qd[1:], lambda b, d: d + q.numerator * b, initial=1)
    pmfs = [law.pmf(n) for n in levels]
    pn = [p.numerator * qd[n] for n, p in enumerate(pmfs)]
    pd = [p.denominator * b for p, b in zip(pmfs, brackets)]
    violations, worst = 0, Fraction(0)
    # the cross products per r, built once: q^r's numerator times the
    # survivor's denominator, and the other way round
    q_s = [x * y for x, y in zip(qn, sd)]
    s_q = [x * y for x, y in zip(sn, qd)]
    for n in levels:
        for r in range(n + 1):
            if pn[n] * q_s[r] * dd[n - r] != s_q[r] * dn[n - r] * pd[n]:
                violations += 1
                worst = max(worst, abs(Fraction(pn[n] * qn[r], pd[n] * qd[r])
                                       - Fraction(sn[r] * dn[n - r], sd[r] * dd[n - r])))

    # marginals straight from the joint: summing out d gives
    # P(R=r) = q^r * sum_{n>=r} pmf(n)/[n+1]_q, and summing out r gives
    # P(D=d) = q^-d * sum_{n>=d} pmf(n)/[n+1]_{1/q}
    q_inv = 1 / q
    sums_r = [law.ratio_tail_exact(r, q) for r in levels]
    sums_d = (law.ratio_tail_exact(d, q_inv) for d in levels)
    marg_ok = (all(qn[r] * m.numerator * sd[r] == sn[r] * qd[r] * m.denominator
                   for r, m in zip(levels, sums_r))
               and all(m.numerator * qd[d] * dd[d] == dn[d] * qn[d] * m.denominator
                       for d, m in zip(levels, sums_d)))

    # Rao-Rubin: P(R=r, D=0)/P(D=0) against the marginal of R, both over q^r
    p_d0 = law.ratio_tail_exact(0, q_inv)
    rao_rubin = all(pn[r] * p_d0.denominator * m.denominator == m.numerator * pd[r] * p_d0.numerator
                    for r, m in zip(levels, sums_r))

    ok = violations == 0 and marg_ok and rao_rubin
    return {
        "check": "damage",
        "q": prob_json(q),
        "theta": prob_json(theta),
        "nmax": nmax,
        "factorization_violations": violations,
        "max_abs_diff": _diff_json(worst),
        "survivor_law": f"geo({prob_json(q * theta)})",
        "damaged_law": f"geo({prob_json(theta)})",
        "marginals_match": marg_ok,
        "rao_rubin_holds": rao_rubin,
        "note": (
            "assignment pinned by the factorization: the surviving part follows "
            "geo(q*theta) and the damaged part geo(theta); beware descriptions "
            "that state the two the other way round"
        ),
        "status": "PASS" if ok else "FAIL",
    }


def poisson_split_check(mmax: int = 20, trunc_n: int = 200) -> dict:
    """Shift-by-one Poisson(1) initial level at rho = 1 splits into a Poisson(1)
    level; the complementary part is Poisson(1) too, with joint pmf
    e^-1 (i+j)/(i+j+1)!."""
    from .processes import ShiftedPoisson

    law = ShiftedPoisson(1.0)
    glaw = g_law_from_initial(law, Params(Fraction(1)), "G", mode="approx", trunc_n=trunc_n)
    sup_g = max(abs(glaw.pmf(m) - math.exp(-1) / math.factorial(m)) for m in range(mmax + 1))

    # the joint pmf at (i, j) depends on s = i + j alone, so it is evaluated
    # once per s; it is symmetric, so each row sum is its column sum too
    joint = [0.0] + [math.exp(-1 + math.log(s) - math.lgamma(s + 2))
                     for s in range(1, mmax + trunc_n)]
    sup_marginal = 0.0
    for i in range(mmax + 1):
        row = sum(joint[i:i + trunc_n])
        sup_marginal = max(sup_marginal, abs(row - math.exp(-1) / math.factorial(i)))

    ok = sup_g <= 1e-12 and sup_marginal <= 1e-12
    return {
        "check": "poisson-split",
        "mmax": mmax,
        "trunc_n": trunc_n,
        "sup_level_law_error": sup_g,
        "sup_marginal_error": sup_marginal,
        "status": "PASS" if ok else "FAIL",
    }
