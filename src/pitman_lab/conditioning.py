"""The walk conditioned to stay above an independent random level.

For a downward-unlikely walk (rho < 1) the future infimum is geometric with
parameter rho^2, which turns the infinite-horizon conditioning event into the
closed form used here: no simulation enters the exact route.  The conditional
path law is

    P(path x | inf_u (S_u + V) >= 0)
        = rho^(-x_t) sigma^H / (c z^t) * sum_{j >= -K} P(V=j) [j + x_t + 1]_q

with normalizer c = sum_j P(V=j) [j+1]_q.  The sign-flipped regime (rho > 1)
reduces to the same formulas at 1/rho.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import Rat, RegimeError, UnsupportedExactModeError, prob_json, q_bracket
from .paths import Path, class_sizes, combine_factors, factor_pairs
from .processes import (
    DistTable,
    FiniteSupport,
    Geometric,
    InitialLaw,
    Params,
    chain_increment_law,
    step_pmf,
)
from .representation import compare_routes
from .sampling import _gen, _level_dtype

_REJECTION_CHUNK = 50000  # walks per batch of rejection_oracle; its draws depend on it
_PIECE_STEPS = 128  # window steps per (minimum, endpoint) draw of rejection_oracle; likewise
_MAX_KEYED_T = 39  # the largest t whose 3^t head keys fit an int64


def _effective_params(params: Params, part: str) -> Params:
    if part == "I":
        if params.rho >= 1:
            raise RegimeError("part I requires rho < 1 (walk drifts upward)")
        return params
    if part == "II":
        if params.rho <= 1:
            raise RegimeError("part II requires rho > 1 (sign-flipped walk drifts upward)")
        return params.tilde()
    raise ValueError("part must be 'I' or 'II'")


def survival_prob(a: int, params: Params) -> Rat:
    """P(the walk never drops below -a) = 1 - rho^(2(a+1)), for rho < 1.

    The amount by which the walk ever falls below its start is geometric with
    parameter rho^2.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    if params.rho >= 1:
        raise RegimeError("survival probability degenerates unless rho < 1")
    return 1 - params.rho ** (2 * (a + 1))


def v_law_from_initial(law: InitialLaw, params: Params, part: str = "I") -> InitialLaw:
    """The level law making the conditioned walk match the chain:
    P(V = k) proportional to P(X0 = k) / [k+1]_q with q = rho^2 (part I) or
    1/rho^2 (part II)."""
    eff = _effective_params(params, part)
    q = eff.q
    atoms = law.atoms()
    if atoms is not None:
        weights = {k: p / q_bracket(k + 1, q) for k, p in atoms}
        total = sum(weights.values())
        return FiniteSupport(tuple((k, w / total) for k, w in weights.items()))
    form = law.ratio_geometric_form(q)
    if form is None:
        raise RegimeError(
            f"no exact level law for {law.cli_string()!r} at q={q}"
        )
    _, r = form
    # weights c * r^k normalize to a geometric law outright
    return Geometric(r)


def conditioned_walk_law(t: int, vlaw: InitialLaw, params: Params, part: str = "I") -> DistTable:
    """Exact law of the first t steps of the walk conditioned on
    inf_u (S_u + V) >= 0 (sign-flipped walk for part II), one value per
    class (K0, x_t, H).

    The entry is pref(H, x_t) V(-K0, x_t) / V(0, 0) with pref = sigma^H /
    (rho^(x_t) z^t) and V(a, e) the sum of P(V=j) [j+e+1]_q over j >= a, all
    as ints over one denominator per table, from the integer parts of the
    effective rho, sigma and z (q = rho^2 = qn/qd < 1 in lowest terms): pref
    is sn^H sd^(t-H) rd^(t+e) rn^(t-e) zd^t over (sd rn rd zn)^t, and V(a, e)
    V(0, 0) share their denominator, which cancels:

    * atoms (top the largest): [m]_q = (qd^m - qn^m) / (qd^(m-1) (qd - qn)),
      so V(a, e) is sum over j >= a of P_j (qd^(top+t+1) - qn^(j+e+1)
      qd^(top+t-j-e)) over L qd^(top+t) (qd - qn), P_j = L P(V=j) for the lcm
      L of the masses' denominators;
    * Geometric(p), p = gn/gd: V(0, 0) = 1/(1 - pq) and V(a, e) / V(0, 0) =
      p^a ((1 - pq) - (1 - p) q^(a+e+1)) / (1 - q), the int gn^a gd^(t-a)
      ((gd qd - gn qn) qd^t - (gd - gn) qn^(a+e+1) qd^(t-a-e)) over
      gd^(t+1) qd^t (qd - qn).

    Each factor is an int per pair of ``paths.factor_pairs``, and
    ``paths.combine_factors`` multiplies them."""
    eff = _effective_params(params, part)
    (rn, rd), (sn, sd), (zn, zd) = (v.as_integer_ratio() for v in (eff.rho, eff.sigma, eff.z))
    qn, qd = rn * rn, rd * rd
    atoms = vlaw.atoms()
    if atoms is None and not isinstance(vlaw, Geometric):
        raise UnsupportedExactModeError(f"no closed-form bracket sum for {vlaw.cli_string()!r}")
    sizes = class_sizes(t, eff.sigma > 0)
    pairs = factor_pairs(sizes)
    if atoms is not None:
        top = atoms[-1][0]
        lcm = math.lcm(*(p.denominator for _, p in atoms))
        masses = [(j, p.numerator * (lcm // p.denominator)) for j, p in atoms]
        full = qd ** (top + t + 1)

        def level_num(a, e):
            return sum(w * (full - qn ** (j + e + 1) * qd ** (top + t - j - e))
                       for j, w in masses if j >= a)

        level = [level_num(a, e) for a, e in zip(*pairs.levels.tolist())]
        level_den = level_num(0, 0)
    else:
        gn, gd = vlaw.p.numerator, vlaw.p.denominator
        level = [gn**a * gd ** (t - a) * ((gd * qd - gn * qn) * qd**t
                                          - (gd - gn) * qn ** (a + e + 1) * qd ** (t - a - e))
                 for a, e in zip(*pairs.levels.tolist())]
        level_den = gd ** (t + 1) * qd**t * (qd - qn)
    pref = np.array([sn**h * sd ** (t - h) * rd ** (t + e) * rn ** (t - e) * zd**t
                     for h, e in zip(*pairs.prefs.tolist())], dtype=object)
    return DistTable(t, "exact", combine_factors(sizes, pref, np.array(level, dtype=object)),
                     sizes=sizes, den=(sd * rn * rd * zn) ** t * level_den)


def verify_thm2(t_max: int, law: InitialLaw, params: Params, part: str = "I",
                t_values=None) -> dict:
    """Check on every horizon up to t_max, or on ``t_values`` alone, that the
    chain law equals the law of the walk conditioned to stay above V.  The
    two sides are independent closed forms, each with its own integer code:
    the chain route sums over the initial law's atoms or geometric form, the
    conditioned walk over V's atoms or geometric parameter."""
    vlaw = v_law_from_initial(law, params, part)
    worst, _, witness = compare_routes(
        "thm2", t_values if t_values is not None else range(1, t_max + 1),
        lambda t: [("chain_vs_conditioned", chain_increment_law(t, law, params),
                    conditioned_walk_law(t, vlaw, params, part))])
    return {
        "check": "thm2",
        "part": part,
        "params": params.to_json(),
        "initial": law.cli_string(),
        "t_max": t_max,
        "max_abs_diff": prob_json(worst),
        "witness": witness and witness["path"],
        "status": "PASS" if witness is None else "FAIL",
    }


def _piece_laws(lengths, probs: dict) -> dict:
    """Joint law of (a, e) = (-min_{0<=k<=n} S_k, S_n) for an n-step walk
    from 0 with the float step law ``probs`` ({+1, 0, -1: p}), for each n in
    ``lengths``: {n: array P of shape (N+1, 2N+1), P[a, N + e]}, N =
    max(lengths).

    One dynamic program over (a, e) up to N steps, snapshotting each length
    on the way: O(N^2) cells, O(N^3) work.  After n steps only the cells
    a <= n, |e| <= n can hold mass, so step n + 1 updates that window grown
    by one and leaves the zeros outside it alone; the cells come out as a
    full-grid update would give them, bit for bit.  Every cell is a sum of
    products of the three step probabilities, each product and sum rounded
    once, so a cell is off its exact value by at most gamma_{4n} (n steps of
    one product and two sums, plus the rounding of the inputs) relative.
    """
    p_up, p_flat, p_dn = (float(probs[s]) for s in (1, 0, -1))
    top = max(lengths)
    law = np.zeros((top + 1, 2 * top + 1))
    law[0, top] = 1.0
    step = np.zeros_like(law)  # zero outside the window, as law is
    out = {}
    for n in range(top + 1):
        if n in lengths:
            out[n] = law.copy()
        if n == top:
            return out
        # the window after n + 1 steps: rows a <= n + 1, columns |e| <= n + 1
        window = np.s_[:n + 2, top - n - 1:top + n + 2]
        src, dst = law[window], step[window]
        np.multiply(src, p_flat, out=dst)
        dst[:, 1:] += src[:, :-1] * p_up
        dst[:, :-1] += src[:, 1:] * p_dn
        # a down step from the minimum e = -a makes a new minimum: row a + 1;
        # e = -a - 1 is window column n - a
        low_rows = np.arange(n + 1)
        dst[low_rows + 1, n - low_rows] += dst[low_rows, n - low_rows]
        dst[low_rows, n - low_rows] = 0.0
        law, step = step, law


class _GuideTable:
    """``np.searchsorted(cdf, u, side="right")`` for uniforms u in [0, 1),
    mostly without a search: the guide-table method of Chen and Asau (1974;
    Devroye, Non-Uniform Random Variate Generation, 1986, sec. III.2.4).

    The 2^b buckets [i/2^b, (i+1)/2^b), 2^b >= 4 len(cdf), each know
    start[i], the count of cdf entries <= i/2^b.  The count for any u in
    bucket i lies in [start[i], start[i+1]], so a bucket whose two ends
    agree answers outright; u 2^b is exact, so the bucket is too.  Only a
    draw in a bucket that holds a cdf entry is searched for."""

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        self.scale = float(1 << max(0, 4 * len(cdf) - 1).bit_length())
        edges = np.arange(self.scale + 1) / self.scale
        start = np.searchsorted(cdf, edges, side="right").astype(np.int32)
        self.guide = np.where(start[:-1] == start[1:], start[:-1], np.int32(-1))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        cell = self.guide[(u * self.scale).astype(np.intp)]
        miss = np.flatnonzero(cell < 0)
        cell[miss] = np.searchsorted(self.cdf, u[miss], side="right")
        return cell


def rejection_oracle(t: int, vlaw: InitialLaw, params: Params, part: str = "I",
                     horizon_pad: int = 200, n_samples: int = 200000,
                     rng=None) -> dict:
    """Monte Carlo cross-check: sample V and a length-(t+pad) walk, keep the
    walks with S_k + V >= 0 at every k <= t + pad, and tabulate the first t
    increments.

    Conditioning on a finite window instead of all time inflates acceptance;
    the leftover is estimated from the accepted sample itself via the exact
    later-dip probability rho^(2(S_T + V + 1)), reported as
    ``truncation_bound``.

    Only each walk's first t steps, window minimum and last value matter,
    so only the head is drawn step by step, one uniform per step, and read
    one column (step) at a time over the batch: the running value, the
    minimum and the head's key, its steps + 1 as base-3 digits with the
    first step highest, in the narrowest signed type holding 3^t - 1.  The
    window past the head is cut into pieces of at most _PIECE_STEPS steps,
    and each piece's (minimum, endpoint) pair is drawn with one uniform by
    inverse CDF on its joint law (``_piece_laws``, a float dynamic program
    over the same step probabilities the head compares its uniforms with; no
    survival or level formula of the exact routes enters it), looked up in a
    guide table (``_GuideTable``), which finds the cell a binary search
    would.  Walks come in batches of _REJECTION_CHUNK, each batch drawing
    its head uniforms, then one uniform per piece and walk, then its levels
    V.  Seeded results therefore depend on _PIECE_STEPS and
    _REJECTION_CHUNK only, not on how a draw is looked up.
    """
    eff = _effective_params(params, part)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t > _MAX_KEYED_T:
        raise ValueError(f"t must be <= {_MAX_KEYED_T}, got {t}: each head is tallied by its "
                         "steps as base-3 digits of an int64, which 3^t overflows past "
                         f"t = {_MAX_KEYED_T}")
    if horizon_pad < 0 or t + horizon_pad < 1:
        raise ValueError(f"horizon_pad must be >= 0 and t + horizon_pad >= 1, got "
                         f"horizon_pad={horizon_pad} at t={t}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    gen = _gen(rng)
    probs = step_pmf(eff)
    p_up, p_flat = float(probs[1]), float(probs[0])
    full, rest = divmod(horizon_pad, _PIECE_STEPS)
    pieces = [_PIECE_STEPS] * full + [rest] * (rest > 0)
    laws = _piece_laws(set(pieces), probs) if pieces else {}
    draws = {}  # piece length -> (a, e, guide) over the cells of positive mass
    for n, law in laws.items():
        a, col = np.nonzero(law)
        cdf = np.cumsum(law[a, col])
        # the last cell takes whatever the rounded cdf leaves above cdf[-2]
        draws[n] = a, col - (law.shape[1] // 2), _GuideTable(cdf[:-1])
    key_dtype = _level_dtype(3**t - 1)

    keys = []  # per batch, the accepted heads' keys
    dip_mass = 0.0
    rho_f = float(eff.rho)
    remaining = n_samples
    while remaining > 0:
        m = min(_REJECTION_CHUNK, remaining)
        remaining -= m
        u = gen.random((m, t))
        # +1 below p_up, -1 at or above p_up + p_flat, 0 between
        steps = (u < p_up).view(np.int8) - (u >= p_up + p_flat).view(np.int8)
        pos, low = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        key = np.zeros(m, dtype=key_dtype)
        for step in steps.T:
            pos += step
            np.minimum(low, pos, out=low)
            key *= 3
            key += step
        key += (3**t - 1) // 2  # the steps + 1 as digits: each digit up by one
        for n in pieces:
            a, e, guide = draws[n]
            cell = guide(gen.random(m))
            np.minimum(low, pos - a[cell], out=low)
            pos += e[cell]
        v = vlaw.sample(gen, m)
        keep = (low + v) >= 0
        dip_mass += float(np.sum(rho_f ** (2.0 * (pos[keep] + v[keep] + 1))))
        keys.append(key[keep])

    keys = np.concatenate(keys)
    accepted = len(keys)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)  # first-seen order
    digits = keys[first[order], None] // 3 ** np.arange(t - 1, -1, -1, dtype=np.int64) % 3
    entries = {Path._trusted(tuple(row)): int(c) / accepted
               for row, c in zip((digits - 1).tolist(), counts[order])}
    return {
        "table": DistTable(t, "approx", entries),
        "accepted": accepted,
        "n_samples": n_samples,
        "acceptance_rate": accepted / n_samples,
        "truncation_bound": dip_mass / max(accepted, 1),
    }
