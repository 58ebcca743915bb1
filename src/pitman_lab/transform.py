"""The level-shifted max transform, its complete preimage structure, and the
max-plus (tropical) operator identities.

``apply_T(g, s)`` sends a path s to 2*(running_max(s) - g)_+ - s.  For a
target path x with global minimum K = K0(x), the full inverse image consists
of finitely many "sporadic" members at level g = -K plus an infinite ray
{(g, -x) : g >= -K}; the ray is kept symbolic (lower endpoint only).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .paths import Path, enumerate_paths, stats
from .sampling import RngStream, shard_sizes


def apply_T(g: int, s: Path) -> Path:
    """2*(max_{i<=j} s_i - g)_+ - s_j, defined for integer g >= 0.

    Collapses to -s whenever g dominates the running maximum.
    """
    if g < 0:
        raise ValueError("the transform level g must be >= 0")
    out, m = [], 0
    for v in s.values:
        m = max(m, v)
        out.append(2 * max(m - g, 0) - v)
    return Path.from_values(out)


def preimage_member(x: Path, r: int) -> Path:
    """The preimage path s^(r), r in [K0(x), x_t]:
    s^(r)_j = 2*(min(r, K_j) - K0) - x_j."""
    st = stats(x)
    if not st.K0 <= r <= x.end:
        raise ValueError(f"r must lie in [{st.K0}, {x.end}], got {r}")
    return Path.from_values(
        2 * (min(r, st.K[j]) - st.K0) - x.values[j] for j in range(x.horizon + 1)
    )


@dataclass(frozen=True)
class PreimageSet:
    """The complete inverse image of a path under the transform.

    ``sporadic`` lists the finitely many members (g = -K0, s^(r)) for
    r = K0+1 .. x_t; the ray holds (g, -x) for every g >= -K0 and is never
    materialized.
    """

    K0: int
    end: int
    ray_path: Path
    ray_g_min: int
    sporadic: tuple  # ((g, Path), ...)

    def members(self, g_max: int):
        """All members with level <= g_max (finite truncation of the ray)."""
        for g, s in self.sporadic:
            if g <= g_max:
                yield g, s
        for g in range(self.ray_g_min, g_max + 1):
            yield g, self.ray_path

    def to_json(self):
        return {
            "K0": self.K0,
            "end": self.end,
            "ray": {"s": str(self.ray_path), "g_min": self.ray_g_min},
            "sporadic": [{"g": g, "s": str(s)} for g, s in self.sporadic],
        }


def preimage(x: Path) -> PreimageSet:
    """The inverse image with one ``stats`` call.  s^(K0) = -x, and s^(r) exceeds
    s^(r-1) by 2 exactly where K_j >= r: K is non-decreasing, so that is a
    suffix of the values, and only the step into it changes, from -1 to +1."""
    st = stats(x)
    k0 = st.K0
    ray = x.negate()
    steps, sporadic = list(ray.steps), []
    for r in range(k0 + 1, x.end + 1):
        steps[bisect.bisect_left(st.K, r) - 1] = 1
        sporadic.append((-k0, Path._trusted(tuple(steps))))
    return PreimageSet(
        K0=k0,
        end=x.end,
        ray_path=ray,
        ray_g_min=-k0,
        sporadic=tuple(sporadic),
    )


def preimage_stats(x: Path, r: int):
    """(U, D, H) of s^(r) without constructing it:
    U = r - K0 + D(x), D = K0 - r + U(x), H = H(x)."""
    st = stats(x)
    if not st.K0 <= r <= x.end:
        raise ValueError(f"r must lie in [{st.K0}, {x.end}], got {r}")
    return (r - st.K0 + st.D, st.K0 - r + st.U, st.H)


# ---------------------------------------------------------------------------
# tropical operator identities
# ---------------------------------------------------------------------------


def _tilde_batch(vals: np.ndarray, m: np.ndarray, g: int, out: np.ndarray) -> np.ndarray:
    """tilde_T_g over a batch, vals - 2*(m - g)_+ for value rows ``vals`` with
    running max ``m``, written into ``out``."""
    np.subtract(m, g, out=out)
    np.maximum(out, 0, out=out)
    out *= 2
    return np.subtract(vals, out, out=out)


def tropical_identities_batch(vals: np.ndarray, g1, g2) -> dict:
    """Pointwise check of the three max-plus identities on a batch of paths.

    1. running_max(tilde_T_g(x)) == min(g, running_max(x))
    2. tilde_T_g2(tilde_T_g1(x)) == tilde_T_{min(g1,g2)}(x)
    3. 2*running_max - id applied after tilde_T_g equals 2*running_max - id

    Returns violation counts per identity (expected all zero).  ``g1`` and
    ``g2`` are levels or 1-d arrays of distinct levels; with arrays each
    count is summed over every pair (g1, g2) of their product, as a loop
    over the pairs would sum it.  Each level's running max is taken once,
    and the work runs in four arrays the size of ``vals``.
    """
    vals = np.asarray(vals)
    levels1, levels2 = np.atleast_1d(g1).tolist(), np.atleast_1d(g2).tolist()
    g1, g2 = set(levels1), set(levels2)
    if len(g1) < len(levels1) or len(g2) < len(levels2):
        raise ValueError(f"level arrays must not repeat a level, got {levels1} and {levels2}")
    m = np.maximum.accumulate(vals, axis=1)
    y, my, a, b = (np.empty_like(m) for _ in range(4))
    report = {f"{key}[{tag}]": 0 for tag in ("g1", "g2")
              for key in ("max_of_transform", "two_max_minus_id")}
    report["composition"] = 0
    for g in sorted(g1 | g2):
        _tilde_batch(vals, m, g, out=y)
        np.maximum.accumulate(y, axis=1, out=my)
        wrong_max = int(np.count_nonzero(my != np.minimum(m, g, out=a)))
        np.multiply(my, 2, out=a)
        a -= y
        np.multiply(m, 2, out=b)
        b -= vals
        wrong_two_max = int(np.count_nonzero(a != b))
        # g is in len(g2) pairs as g1 and in len(g1) pairs as g2
        for tag, n_pairs in (("g1", len(g2) * (g in g1)), ("g2", len(g1) * (g in g2))):
            report[f"max_of_transform[{tag}]"] += n_pairs * wrong_max
            report[f"two_max_minus_id[{tag}]"] += n_pairs * wrong_two_max
        for h in sorted(g2) if g in g1 else ():
            # tilde_T_h(y) through y's running max my, taken once above
            lhs, rhs = _tilde_batch(y, my, h, out=a), _tilde_batch(vals, m, min(g, h), out=b)
            report["composition"] += int(np.count_nonzero(lhs != rhs))
    report["ok"] = all(v == 0 for k, v in report.items() if k != "ok")
    return report


def verify_tropical(t_exhaustive: int, t_random: int, samples: int, g_max: int,
                    seed: int, streams: int) -> dict:
    """The max-plus identities on every path up to t_exhaustive at every pair
    of levels g1, g2 <= t + 1, then on ``samples`` random paths of horizon
    t_random, split over ``streams`` shards with one rng stream and one
    random (g1, g2) <= g_max each."""
    if min(t_exhaustive, t_random, samples, g_max) < 0:
        raise ValueError("t_exhaustive, t_random, samples and g_max must be >= 0, got "
                         f"{t_exhaustive}, {t_random}, {samples}, {g_max}")
    sizes = shard_sizes(samples, streams)  # refuses streams < 1 before any work
    violations = 0

    def count(vals, g1, g2):
        rep = tropical_identities_batch(vals, g1, g2)
        return sum(v for k, v in rep.items() if k != "ok")

    for t in range(t_exhaustive + 1):
        vals = np.array([p.values for p in enumerate_paths(t)], dtype=np.int64).reshape(-1, t + 1)
        violations += count(vals, np.arange(t + 2), np.arange(t + 2))
    for i, m in enumerate(sizes):
        gen = RngStream(seed, i).generator()
        steps = gen.integers(-1, 2, size=(m, t_random))
        vals = np.concatenate([np.zeros((m, 1), dtype=np.int64), np.cumsum(steps, axis=1)],
                              axis=1)
        g1, g2 = (int(g) for g in gen.integers(0, g_max + 1, size=2))
        violations += count(vals, g1, g2)
    return {
        "check": "tropical",
        "t_exhaustive": t_exhaustive,
        "random": {"samples": samples, "t": t_random, "g_max": g_max,
                   "seed": seed, "streams": streams},
        "violations": violations,
        "status": "PASS" if violations == 0 else "FAIL",
    }
