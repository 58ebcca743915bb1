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

import numpy as np

from .exact import Rat, RegimeError, prob_json, q_bracket
from .paths import Path, stats
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
from .sampling import _gen, block_rows

_REJECTION_CHUNK = 50000  # walks per batch of rejection_oracle; its draws depend on it


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
    inf_u (S_u + V) >= 0 (sign-flipped walk for part II), evaluated once per
    class (K0, x_t, H)."""
    eff = _effective_params(params, part)
    q, z, rho = eff.q, eff.z, eff.rho
    c = vlaw.bracket_tail(0, 0, q)

    def conditioned(x):
        st = stats(x)
        pref = eff.sigma**st.H / (rho**x.end * z**t)
        return pref * vlaw.bracket_tail(-st.K0, x.end, q) / c

    return DistTable.of_classes(t, eff.sigma > 0, "exact", conditioned)


def verify_thm2(t_max: int, law: InitialLaw, params: Params, part: str = "I") -> dict:
    """Check on every horizon up to t_max that the chain law equals the law of
    the walk conditioned to stay above V.  The two sides are independent
    closed forms: the chain route sums over the initial law
    (``bracket_ratio_sum_exact``), the conditioned walk over V
    (``bracket_tail``)."""
    vlaw = v_law_from_initial(law, params, part)
    worst, witness = compare_routes(
        "thm2", range(1, t_max + 1),
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
        "status": "PASS" if worst == 0 else "FAIL",
    }


def rejection_oracle(t: int, vlaw: InitialLaw, params: Params, part: str = "I",
                     horizon_pad: int = 200, n_samples: int = 200000,
                     rng=None) -> dict:
    """Monte Carlo cross-check: sample V and a length-(t+pad) walk, keep the
    paths with min(S + V) >= 0 over the whole window, and tabulate the first t
    increments.

    Conditioning on a finite window instead of all time inflates acceptance;
    the leftover is estimated from the accepted sample itself via the exact
    later-dip probability rho^(2(S_T + V + 1)), reported as
    ``truncation_bound``.

    Walks are drawn in batches of _REJECTION_CHUNK, each batch's uniforms in
    blocks of about 1 MiB of rows (``sampling.block_rows``) and then the
    batch's levels V.  Only each walk's minimum, last value and first t
    values are kept, so memory stays near one block.  A block of rows is the
    same stretch of the stream as the whole batch's array, so seeded results
    do not depend on the block size.
    """
    eff = _effective_params(params, part)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if horizon_pad < 0 or t + horizon_pad < 1:
        raise ValueError(f"horizon_pad must be >= 0 and t + horizon_pad >= 1, got "
                         f"horizon_pad={horizon_pad} at t={t}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    gen = _gen(rng)
    T = t + horizon_pad
    probs = step_pmf(eff)
    p_up, p_flat = float(probs[1]), float(probs[0])
    rows = block_rows(T)
    batch = min(_REJECTION_CHUNK, n_samples)
    low, last = np.empty(batch, dtype=np.int32), np.empty(batch, dtype=np.int32)
    head = np.empty((batch, t), dtype=np.int32)
    s = np.empty((min(rows, batch), T), dtype=np.int32)

    heads = []
    dip_mass = 0.0
    rho_f = float(eff.rho)
    remaining = n_samples
    while remaining > 0:
        m = min(_REJECTION_CHUNK, remaining)
        remaining -= m
        for r in range(0, m, rows):
            u = gen.random((min(rows, m - r), T))
            walks, at = s[:len(u)], slice(r, r + len(u))
            # +1 below p_up, -1 at or above p_up + p_flat, 0 between
            steps = (u < p_up).view(np.int8) - (u >= p_up + p_flat).view(np.int8)
            np.cumsum(steps, axis=1, dtype=np.int32, out=walks)
            walks.min(axis=1, out=low[at])
            last[at] = walks[:, -1]
            head[at] = walks[:, :t]
        v = vlaw.sample(gen, m)
        keep = (low[:m] + v) >= 0
        dip_mass += float(np.sum(rho_f ** (2.0 * (last[:m][keep] + v[keep] + 1))))
        heads.append(head[:m][keep])

    heads = np.concatenate(heads)
    accepted = len(heads)
    # each row as one fixed-width byte string: a 1-d np.unique, ~6x faster than axis=0
    rows = heads.view(np.dtype((np.void, heads.itemsize * t)))[:, 0] if t else np.zeros(accepted)
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    entries = {Path.from_values((0,) + tuple(heads[first[i]].tolist())): int(counts[i]) / accepted
               for i in np.argsort(first)}  # first-seen order
    return {
        "table": DistTable(t, "approx", entries),
        "accepted": accepted,
        "n_samples": n_samples,
        "acceptance_rate": accepted / n_samples,
        "truncation_bound": dip_mass / max(accepted, 1),
    }
