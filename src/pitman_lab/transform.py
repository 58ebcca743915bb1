"""The level-shifted max transform, its complete preimage structure, and the
max-plus (tropical) operator identities.

``apply_T(g, s)`` sends a path s to 2*(running_max(s) - g)_+ - s.  For a
target path x with global minimum K = K0(x), the full inverse image consists
of finitely many "sporadic" members at level g = -K plus an infinite ray
{(g, -x) : g >= -K}; the ray is kept symbolic (lower endpoint only).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .paths import Path, _refuse_beyond_cap, path_rows, stats
from .sampling import RngStream, _level_dtype, block_rows, check_path_levels


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

    The sporadic members (g = -K0, s^(r)) for r = K0+1 .. x_t are kept as
    ``flips``: s^(r) is s^(r-1) with the step at index ``flips[r - K0 - 1]``
    turned from -1 to +1, starting from s^(K0) = ``ray_path``.  ``sporadic``
    builds the member paths on first read.  The ray holds (g, -x) for every
    g >= -K0 and is never materialized.
    """

    K0: int
    end: int
    ray_path: Path
    ray_g_min: int
    flips: tuple  # (step index, ...), one per sporadic member

    @functools.cached_property
    def sporadic(self) -> tuple:
        """((g, Path), ...) for r = K0+1 .. x_t."""
        steps, members = list(self.ray_path.steps), []
        for j in self.flips:
            steps[j] = 1
            members.append((self.ray_g_min, Path._trusted(tuple(steps))))
        return tuple(members)

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
    """The inverse image, read off x's values in one pass.  s^(K0) = -x, and
    s^(r) exceeds s^(r-1) by 2 exactly where K_j >= r: K is non-decreasing,
    so that is a suffix of the values, and only the step into it changes,
    from -1 to +1.  That step leaves the last visit of x to r - 1."""
    last = dict(zip(x.values, range(len(x.values))))  # later visits overwrite
    k0 = min(last)
    return PreimageSet(
        K0=k0,
        end=x.end,
        ray_path=x.negate(),
        ray_g_min=-k0,
        flips=tuple(map(last.__getitem__, range(k0, x.end))),
    )


def preimage_flips(vals: np.ndarray) -> np.ndarray:
    """``preimage``'s flips of each row x_0 = 0, ..., x_t of ``vals``, as a
    bool array of shape (rows, t): x_j is the last visit of a value below x_t
    exactly when it is below every later value."""
    later_min = np.minimum.accumulate(vals[:, :0:-1], axis=1)[:, ::-1]  # min of x_(j+1..t)
    return vals[:, :-1] < later_min


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


def _tilde_batch(vals: np.ndarray, m: np.ndarray, g) -> np.ndarray:
    """tilde_T_g over a batch, vals - 2*(m - g)_+ for value rows ``vals`` with
    running max ``m``, broadcast against the level(s) ``g``."""
    out = np.maximum(m - g, 0)
    out *= 2
    return np.subtract(vals, out, out=out)


def tropical_identities_batch(vals: np.ndarray, g1, g2) -> dict:
    """Pointwise check of the three max-plus identities on a batch of paths.

    1. running_max(tilde_T_g(x)) == min(g, running_max(x))
    2. tilde_T_g2(tilde_T_g1(x)) == tilde_T_{min(g1,g2)}(x)
    3. 2*running_max - id applied after tilde_T_g equals 2*running_max - id

    Returns violation counts per identity (expected all zero).  The levels
    ``g1`` and ``g2`` broadcast against the (rows, t+1) array ``vals``:
    scalars check every row at one pair, shape (rows, 1) each row at its own
    pair, and shapes (L, 1, 1) and (L, 1, 1, 1) every row at each of the L x L
    pairs.  Identities 1 and 3 count wrong entries once per row and level of
    their tag, the composition once per row and pair.  The work runs in the
    type of ``vals`` and the levels, which must hold the levels and 5 max|vals|.
    """
    m = np.maximum.accumulate(vals, axis=-1)
    report = {}
    for tag, g in (("g1", g1), ("g2", g2)):
        y = _tilde_batch(vals, m, g)
        my = np.maximum.accumulate(y, axis=-1)
        report[f"max_of_transform[{tag}]"] = int(np.count_nonzero(my != np.minimum(m, g)))
        report[f"two_max_minus_id[{tag}]"] = int(np.count_nonzero(2 * my - y != 2 * m - vals))
        if tag == "g1":  # tilde_T_g2(y) through y's running max my
            lhs = _tilde_batch(y, my, g2)
    rhs = _tilde_batch(vals, m, np.minimum(g1, g2))
    report["composition"] = int(np.count_nonzero(lhs != rhs))
    report["ok"] = not any(report.values())
    return report


def verify_tropical(t_exhaustive: int, t_random: int, samples: int, g_max: int,
                    seed: int) -> dict:
    """The max-plus identities on every path up to t_exhaustive at every pair
    of levels g1, g2 <= t + 1, then on ``samples`` random paths of horizon
    t_random with uniform steps in {-1, 0, 1}, each at its own random pair
    (g1, g2) <= g_max, all drawn from the one stream ``RngStream(seed)``.
    The exhaustive paths are the rows of ``path_rows``, not Path objects;
    a t_exhaustive past the horizon cap is refused before any work.

    Both parts run in row blocks of ``block_rows`` of their widest broadcast
    row, in the narrowest integer type holding every value (|value| <= 5t).
    A path of horizon t from 0 has running max <= t, so a level above t + 1
    acts as t + 1 does: the levels are clipped there.
    """
    if min(t_exhaustive, t_random, samples, g_max) < 0:
        raise ValueError("t_exhaustive, t_random, samples and g_max must be >= 0, got "
                         f"{t_exhaustive}, {t_random}, {samples}, {g_max}")
    if g_max >= 2**63:
        # levels are drawn as int64 in [0, g_max]; clipping them would change their law
        raise ValueError(f"--g-max must be < 2^63, got {g_max}")
    check_path_levels(t_random, samples, "--t-random")
    _refuse_beyond_cap(t_exhaustive, True)  # before the horizons below it run
    stream = RngStream(seed)  # refuses a bad seed before the exhaustive part runs
    violations = 0

    def count(vals, g1, g2):
        return sum(v for k, v in tropical_identities_batch(vals, g1, g2).items() if k != "ok")

    for t in range(t_exhaustive + 1):
        dtype = _level_dtype(5 * t + 1)
        vals = np.zeros((3**t, t + 1), dtype=dtype)
        np.cumsum(path_rows(t), axis=1, dtype=dtype, out=vals[:, 1:])
        g = np.arange(t + 2, dtype=dtype)[:, None, None]
        rows = block_rows((t + 2) ** 2 * (t + 1))
        for i in range(0, len(vals), rows):
            violations += count(vals[i:i + rows], g, g[..., None])
    dtype, gen = _level_dtype(5 * t_random + 1), stream.generator()
    rows = block_rows(t_random + 1)
    for i in range(0, samples, rows):
        n = min(rows, samples - i)
        levels = gen.integers(0, g_max + 1, size=(2, n, 1))
        g1, g2 = np.minimum(levels, t_random + 1).astype(dtype)
        vals = np.zeros((n, t_random + 1), dtype=dtype)
        np.cumsum(gen.integers(-1, 2, size=(n, t_random), dtype=np.int8), axis=1,
                  dtype=dtype, out=vals[:, 1:])
        violations += count(vals, g1, g2)
    return {"check": "tropical", "t_exhaustive": t_exhaustive,
            "random": {"samples": samples, "t": t_random, "g_max": g_max, "seed": seed},
            "violations": violations, "status": "PASS" if violations == 0 else "FAIL"}
