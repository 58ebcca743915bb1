"""Reproducible sampling and empirical statistics.

All randomness flows through counter-based Philox streams keyed by
(seed, stream index): identical keys give identical sequences on any
platform, and distinct stream indices are independent, so Monte Carlo work
can be sharded across workers deterministically.

The walk sampler compares float64 uniforms with its step thresholds.  The
chain sampler reads each step's uniform as a 16-bit digit and draws the rest
of it, from a second Philox stream keyed by the first, only when the digit
ties a threshold (see ``sample_chain``): four steps per 64-bit word instead
of one, with each step's law exact to 2^-69 instead of 2^-53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import InitialLaw, Params, step_pmf

_BLOCK_BYTES = 1 << 20  # uniforms drawn per block by the samplers, in bytes of float64
_DIGITS = 1 << 16  # sample_chain reads its uniforms 16 bits at a time


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=(self.seed << 64) | self.stream))

    def child(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)


def _gen(rng) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


def shard_sizes(total: int, streams: int) -> list:
    """``total`` draws split over ``streams`` shards, the first ones one larger,
    at most max(total, 1) of them."""
    if streams < 1:
        raise ValueError(f"--streams must be >= 1, got {streams}: each shard draws "
                         "from its own stream")
    if streams > max(total, 1):
        raise ValueError(f"--streams must be <= max(samples, 1) = {max(total, 1)}, got "
                         f"{streams}: a shard past the last sample would draw nothing")
    return [total // streams + (1 if i < total % streams else 0) for i in range(streams)]


def block_rows(width: int) -> int:
    """Rows of ``width`` float64 uniforms in one block of about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _level_dtype(top: int) -> np.dtype:
    """The narrowest of int8, int16, int32 and int64 that holds ``top``."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def sample_walk(t: int, params: Params, rng, n: int = 1) -> np.ndarray:
    """n walk paths of horizon t; returns values of shape (n, t+1).

    Walk values lie in [-t, t], so the paths come in the narrowest signed
    integer type that holds t; the difference of two entries of one path is
    at most t in size and fits too.  The uniforms are drawn ``block_rows(t)``
    walks at a time, the same stretch of the stream as one draw of all n.
    """
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    gen = _gen(rng)
    pm = step_pmf(params)
    p_up, p_upflat = float(pm[1]), float(pm[1] + pm[0])
    dtype = _level_dtype(t)
    out = np.zeros((n, t + 1), dtype=dtype)
    rows = block_rows(max(t, 1))
    for i in range(0, n, rows):
        u = gen.random((min(rows, n - i), t))
        # +1 below p_up, -1 from p_upflat on, 0 between: [u < p_up] - [u >= p_upflat]
        steps = np.subtract((u < p_up).view(np.int8), (u >= p_upflat).view(np.int8))
        np.cumsum(steps, axis=1, dtype=dtype, out=out[i:i + len(u), 1:])
    return out


def _digit_split(p: np.ndarray):
    """floor(p 2^16) as int32 and the remainder p 2^16 - floor(p 2^16), both
    exact in floating point: the digit at which a threshold p ties, and where
    in that digit's interval p falls."""
    scaled = p * _DIGITS
    whole = np.floor(scaled)
    return whole.astype(np.int32), scaled - whole


def _digit_rows(bit_gen, t: int, n: int):
    """t rows of n 16-bit digits as int32, ``block_rows(n)`` rows at a time.

    Each 64-bit word of ``bit_gen.random_raw`` holds four digits, low bits
    first.  A block's unused digits start the next block, so the digit stream
    does not depend on the block size."""
    rows = block_rows(n)
    carry = np.empty(0, dtype=np.int32)
    for j0 in range(0, t, rows):
        m = min(rows, t - j0)
        words = bit_gen.random_raw(-(-(m * n - len(carry)) // 4)).astype("<u8", copy=False)
        digits = np.concatenate([carry, words.view("<u2")], dtype=np.int32)
        carry = digits[m * n:].copy()
        yield from digits[:m * n].reshape(m, n)


def sample_chain(t: int, law: InitialLaw, params: Params, rng, n: int = 1) -> np.ndarray:
    """n chain paths of horizon t (values include the random start level).

    The up/down probabilities are tabulated once, through expm1 so the q -> 1
    and level-0 cases stay exact in floating point, over one block of levels
    per run of start levels less than 2t+2 apart: the levels the chains can
    reach.  Each step is then a table lookup and a comparison of the step's
    uniform U with the thresholds up and up + dn.

    U is read only as far as the comparison needs it (the random-bit view of
    Knuth and Yao).  A step draws one 16-bit digit H, U = (H + L)/2^16, and
    compares H with floor(p 2^16) for each threshold p: below it U < p,
    above it U >= p.  Only when H equals it (probability 2^-16 per
    comparison) does the step draw L, a float64 uniform from a second
    Philox stream, and set U < p iff L < p 2^16 - H; one L serves both
    thresholds.  U is then uniform on the multiples of 2^-69, so each step
    follows the double thresholds exactly when they are multiples of 2^-69
    (every threshold >= 2^-16 is) and within 2^-69 otherwise.

    The starts come first from ``rng``, then two 64-bit words that key the
    continuation stream, then the digits, four to a word of
    ``bit_generator.random_raw``, ``block_rows(n)`` steps of n digits at a
    time.  A block's unused digits start the next one, so seeded paths do
    not depend on the block size.

    Levels are >= 0 and a chain moves at most t steps, so no level exceeds
    max(start) + t: the paths come in the narrowest signed integer type that
    holds it (t when n = 0, with no start drawn).  The difference of any two
    entries is at most that bound in size and fits too.
    """
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    if n == 0:
        return np.empty((0, t + 1), dtype=_level_dtype(t))
    gen = _gen(rng)
    z, rho = float(params.z), float(params.rho)
    lnq = 2.0 * math.log(rho)
    c_up, c_dn = 1.0 / (rho * z), rho / z

    start = law.sample(gen, n).astype(np.int64)
    continuation = np.random.Generator(np.random.Philox(key=gen.bit_generator.random_raw(2)))
    s, which = np.unique(start, return_inverse=True)
    opens = np.diff(s, prepend=s[:1] - 2 * t - 2) > 2 * t + 1
    lo = np.maximum(s[opens] - t, 0)
    size = s[np.append(opens[1:], True)] + t - lo + 1
    base = lo - (np.cumsum(size) - size)  # table index = level - base of its block
    k = (np.arange(size.sum()) + np.repeat(base, size)).astype(np.float64)
    if lnq == 0.0:
        up = c_up * (k + 2) / (k + 1)
        dn = c_dn * k / (k + 1)
    elif lnq < 0.0:
        denom = np.expm1((k + 1) * lnq)
        up = c_up * np.expm1((k + 2) * lnq) / denom
        dn = c_dn * np.expm1(k * lnq) / denom
    else:
        # q > 1 in negative exponents, finite at every level (expm1((k+2) ln q)
        # overflows near k = 709/ln q): [k+2]_q/[k+1]_q = q expm1(-(k+2) ln q)/
        # expm1(-(k+1) ln q), and [k]_q/[k+1]_q likewise over q
        denom = np.expm1(-(k + 1) * lnq)
        up = c_up * math.exp(lnq) * np.expm1(-(k + 2) * lnq) / denom
        dn = c_dn * math.exp(-lnq) * np.expm1(-k * lnq) / denom
    # at sigma = 0, up + dn = 1 up to rounding: U < 2 keeps every step +-1
    # (its digit 2^17 ties with no H)
    up_dn = up + dn if float(params.sigma) else np.full_like(up, 2.0)
    up_hi, up_lo = _digit_split(up)
    up_dn_hi, up_dn_lo = _digit_split(up_dn)

    chain_base = base[np.cumsum(opens) - 1][which]
    idx = start - chain_base
    out = np.empty((t + 1, n), dtype=_level_dtype(int(start.max()) + t))
    out[0] = start
    below_up, below_up_dn = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    at_up, at_up_dn = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    step = np.empty(n, dtype=np.int8)
    for j, h in enumerate(_digit_rows(gen.bit_generator, t, n), start=1):
        a, b = up_hi[idx], up_dn_hi[idx]
        np.less(h, a, out=below_up)
        np.less(h, b, out=below_up_dn)
        np.equal(h, a, out=at_up)
        np.equal(h, b, out=at_up_dn)
        tied = np.flatnonzero(at_up | at_up_dn)
        if len(tied):
            low = continuation.random(len(tied))  # L, in chain order
            level = idx[tied]
            below_up[tied] |= at_up[tied] & (low < up_lo[level])
            below_up_dn[tied] |= at_up_dn[tied] & (low < up_dn_lo[level])
        # +1 below up, -1 in [up, up + dn), 0 above: 2 [U < up] - [U < up + dn]
        np.subtract(below_up.view(np.int8), below_up_dn.view(np.int8), out=step)
        step += below_up
        idx += step
        # a narrowing write, like out[0] = start: idx + chain_base is a level
        # <= max(start) + t, which out's type holds by construction
        np.add(idx, chain_base, out=out[j], casting="unsafe")
    return out.T


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------


def ks_distance(samples_a, samples_b=None, cdf=None) -> float:
    """One- or two-sample Kolmogorov-Smirnov statistic.

    Pass a second sample for the two-sample form or a callable CDF for the
    one-sample form; at least 100 points per sample are required.
    """
    a = np.sort(np.asarray(samples_a, dtype=float))
    if len(a) < 100:
        raise ValueError("need at least 100 samples")
    if (samples_b is None) == (cdf is None):
        raise ValueError("pass exactly one of samples_b / cdf")
    if cdf is not None:
        try:  # one call on the array, or one per point if cdf takes scalars only
            f = np.asarray(cdf(a), dtype=float)
        except (TypeError, ValueError):
            f = None
        if f is None or f.shape != a.shape:
            f = np.array([cdf(x) for x in a])
        n = len(a)
        up = np.arange(1, n + 1) / n - f
        dn = f - np.arange(0, n) / n
        return float(max(up.max(), dn.max()))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if len(b) < 100:
        raise ValueError("need at least 100 samples")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / len(a)
    cdf_b = np.searchsorted(b, everything, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def ks_two_sample_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample rejection threshold at level alpha."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))
