"""Reproducible sampling and empirical statistics.

All randomness flows through counter-based Philox streams keyed by
(seed, stream index): identical keys give identical sequences on any
platform, and distinct stream indices are independent.

The walk sampler compares float64 uniforms with its step thresholds.  The
chain sampler reads each step's uniform as a 16-bit digit and draws the rest
of it, from a second Philox stream keyed by the first, only when the digit
ties a threshold (see ``sample_chain``): four steps per 64-bit word instead
of one, with each step's law exact to 2^-69 instead of 2^-53.  The digits
are uint16 views of the Philox words, never copied to a wider type.  The
chain's hold probability sigma/z is the same at every level, since up(k) +
dn(k) = 1 - sigma/z exactly, so a step compares its digit with one
level-dependent threshold up(k) and one move threshold shared by every chain
and level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .processes import InitialLaw, Params, step_pmf

_BLOCK_BYTES = 1 << 20  # uniforms drawn per block by the samplers, in bytes of float64
_DIGITS = 1 << 16  # sample_chain reads its uniforms 16 bits at a time
PATH_CAP = 10**7  # path levels (t + 1) * samples of one sample walk|chain or verify tropical


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream: int = 0

    def __post_init__(self):
        # Philox takes the key (seed << 64) | stream, 128 bits
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"--seed must be in [0, 2^64), got {self.seed}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=(self.seed << 64) | self.stream))

    def child(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)


def _gen(rng) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


def check_path_levels(t: int, samples: int, t_flag: str = "--t") -> None:
    """Refuse more than PATH_CAP path levels, (t + 1) * samples, naming the flags."""
    if (t + 1) * samples > PATH_CAP:
        raise ValueError(f"{t_flag} {t} with --samples {samples} asks for "
                         f"{(t + 1) * samples} path levels, more than the {PATH_CAP} "
                         f"allowed; lower {t_flag} or --samples")


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


def _exact_digit_split(p: Fraction):
    """floor(p 2^16) and a double r such that a double L in [0, 1) has
    L < r iff L < p 2^16 - floor(p 2^16): the digit and remainder of an exact
    threshold p, the remainder rounded up to the next double when it is not
    one."""
    scaled = p * _DIGITS
    whole = math.floor(scaled)
    rest = float(scaled - whole)
    return whole, rest if rest >= scaled - whole else math.nextafter(rest, math.inf)


def _digit_blocks(bit_gen, t: int, n: int):
    """t rows of n 16-bit digits as uint16, in blocks of ``block_rows(n)`` rows.

    Each 64-bit word of ``bit_gen.random_raw`` holds four digits, low bits
    first, read in place as a little-endian uint16 view.  A block's unused
    digits start the next block, so the digit stream does not depend on the
    block size."""
    rows = block_rows(n)
    carry = np.empty(0, dtype="<u2")
    for j0 in range(0, t, rows):
        m = min(rows, t - j0)
        words = bit_gen.random_raw(-(-(m * n - len(carry)) // 4)).astype("<u8", copy=False)
        digits = words.view("<u2")
        if len(carry):
            digits = np.concatenate([carry, digits])
        carry = digits[m * n:].copy()
        yield digits[:m * n].reshape(m, n)


def sample_chain(t: int, law: InitialLaw, params: Params, rng, n: int = 1) -> np.ndarray:
    """n chain paths of horizon t (values include the random start level).

    The chain moves with the same probability at every level:
    (1/rho)[k+2]_q + rho[k]_q = (rho + 1/rho)[k+1]_q, so up(k) + dn(k) =
    1 - sigma/z exactly, and dn(0) = 0.  A step is therefore +1 when its
    uniform U is below up(k), 0 when U is at or above the one move threshold
    1 - sigma/z, and -1 between.  The move threshold is split into its
    16-bit digit and remainder once, from the exact rational.  The up
    probabilities are tabulated once, through expm1 so the q -> 1 case
    stays exact in floating point, over one block of levels per run of
    start levels less than 2t+2 apart: the levels the chains can reach.
    Level 0 takes the move threshold itself (up(0) = 1 - sigma/z), so no
    rounding of up(0) can send a chain below 0; at sigma = 0 the threshold
    is 1 and every step moves.

    U is read only as far as the comparison needs it (the random-bit view of
    Knuth and Yao).  A step draws one 16-bit digit H, U = (H + L)/2^16, and
    compares H with floor(p 2^16) for each threshold p: below it U < p,
    above it U >= p.  Only when H equals it (probability 2^-16 per
    comparison) does the step draw L, a float64 uniform from a second
    Philox stream, and set U < p iff L < p 2^16 - H; one L serves both
    thresholds.  U is then uniform on the multiples of 2^-69, so each step
    follows its thresholds exactly when they are multiples of 2^-69 (every
    double up(k) >= 2^-16 is) and within 2^-69 otherwise.

    The starts come first from ``rng``, then two 64-bit words that key the
    continuation stream, then the digits, four to a word of
    ``bit_generator.random_raw``, ``block_rows(n)`` steps of n digits at a
    time.  A block's unused digits start the next one, so seeded paths do
    not depend on the block size.  The digits are read as uint16 in place,
    and at sigma > 0, where every threshold is below 1 and its digit below
    2^16, the table of up digits is uint16 too, so each comparison runs on
    16-bit lanes with no copy; at sigma = 0 level 0's threshold is 1, digit
    2^16, and the table and each block of digits are int32.

    Levels are >= 0 and a chain moves at most t steps, so no level exceeds
    max(start) + t: the paths come in the narrowest signed integer type that
    holds it (t when n = 0, with no start drawn).  The difference of any two
    entries is at most that bound in size and fits too.
    """
    return _chain_rows(t, law, params, rng, n, t + 1)[1].T


def _chain_rows(t: int, law: InitialLaw, params: Params, rng, n: int, keep: int):
    """The step loop of ``sample_chain``, keeping ``keep`` rows: returns the
    int64 starts and an array of min(keep, t + 1) rows of n levels, level j
    of every chain in row j % keep.  ``keep = t + 1`` gives the whole path
    array (one row per step); ``keep = 2`` a two-row ring that ends with the
    last level in row t % 2.  The draws do not depend on ``keep``."""
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty((min(keep, t + 1), 0), _level_dtype(t))
    gen = _gen(rng)
    z, rho = float(params.z), float(params.rho)
    lnq = 2.0 * math.log(rho)
    c_up = 1.0 / (rho * z)

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
    elif lnq < 0.0:
        up = c_up * np.expm1((k + 2) * lnq) / np.expm1((k + 1) * lnq)
    else:
        # q > 1 in negative exponents, finite at every level (expm1((k+2) ln q)
        # overflows near k = 709/ln q): [k+2]_q/[k+1]_q = q expm1(-(k+2) ln q)/
        # expm1(-(k+1) ln q)
        up = c_up * math.exp(lnq) * np.expm1(-(k + 2) * lnq) / np.expm1(-(k + 1) * lnq)
    up_hi, up_lo = _digit_split(up)
    move_hi, move_lo = _exact_digit_split(1 - params.sigma / params.z)
    # up(k) <= 1 - sigma/z, but rounding lifts a float up(k) past it where
    # dn(k) is below its ulp (rho = 10^-9, sigma = 5): cap it there, so no
    # step reads +2.  Level 0 (the first index of the first block, if
    # present) takes the threshold itself: dn(0) = 0.
    over = (up_hi > move_hi) | ((up_hi == move_hi) & (up_lo > move_lo))
    over[0] |= k[0] == 0
    up_hi[over], up_lo[over] = move_hi, move_lo
    if move_hi < _DIGITS:  # sigma > 0: every threshold digit fits the digits' type
        up_hi = up_hi.astype(np.uint16)

    # rows hold table indices, level - chain_base, until the end; both lie
    # in [0, max(start) + t], which the level type holds
    chain_base = base[np.cumsum(opens) - 1][which]
    out = np.empty((min(keep, t + 1), n), dtype=_level_dtype(int(start.max()) + t))
    out[0] = start - chain_base
    buf = np.empty(n, dtype=up_hi.dtype)
    below_up, at_up = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    up8 = below_up.view(np.int8)
    step = np.empty(n, dtype=np.int8)
    j = 0
    for block in _digit_blocks(gen.bit_generator, t, n):
        block = block.astype(up_hi.dtype, copy=False)  # one cast a block, not per compare
        below_move = block < move_hi
        at_move = block == move_hi
        for h, below_mv, at_mv, move_tie in zip(block, below_move, at_move,
                                                at_move.any(axis=1)):
            row = out[j % keep]
            j += 1
            np.take(up_hi, row, out=buf, mode="clip")  # "raise" would copy through a buffer
            np.less(h, buf, out=below_up)
            np.equal(h, buf, out=at_up)
            if move_tie or at_up.any():
                tied = np.flatnonzero(at_up | at_mv)
                low = continuation.random(len(tied))  # L, in chain order
                below_up[tied] |= at_up[tied] & (low < up_lo[row[tied]])
                below_mv[tied] |= at_mv[tied] & (low < move_lo)
            # +1 below up, -1 in [up, move), 0 above: 2 [U < up] - [U < move]
            np.subtract(up8, below_mv.view(np.int8), out=step)
            np.add(step, up8, out=step)
            np.add(row, step, out=out[j % keep])
    if chain_base.any():
        out += chain_base.astype(out.dtype)
    return start, out


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
        try:  # one call on the array, or one per point (a float) if cdf takes scalars only
            f = np.asarray(cdf(a), dtype=float)
        except (TypeError, ValueError):
            f = None
        if f is None or f.shape != a.shape:
            f = np.fromiter(map(cdf, a.tolist()), float, len(a))
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
