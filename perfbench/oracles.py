"""Reference values computed from the definitions, apart from pitman_lab.

Nothing here imports the package under test.  Each oracle restates a formula
from the model's definitions, so a check compares two computations that share
no code instead of comparing the program with itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53


def q_bracket(n: int, q: Fraction) -> Fraction:
    """[n]_q = 1 + q + ... + q^(n-1), summed term by term ([0]_q = 0)."""
    return sum((q**i for i in range(n)), Fraction(0))


def brute_force_chain_law(t: int, initial: dict, rho: Fraction, sigma: Fraction) -> dict:
    """Law of the chain increments (X_1 - X_0, ..., X_t - X_0) for a finite
    initial law, keyed by the increment tuple.

    Sums, over the initial level k, P(X_0 = k) times the product along the
    path of the one-step probabilities (1/rho : sigma : rho)/z for steps
    (+1, 0, -1), each tilted by [k+delta+1]_q / [k+1]_q with q = rho^2.
    The [0]_q = 0 factor removes every path that would leave Z>=0.
    """
    q = rho * rho
    z = rho + sigma + 1 / rho
    step = {1: 1 / (rho * z), 0: sigma / z, -1: rho / z}
    table = {}
    for incs in itertools.product((-1, 0, 1), repeat=t):
        total = Fraction(0)
        for k0, weight in initial.items():
            k, prob = k0, weight
            for d in incs:
                prob *= step[d] * q_bracket(k + d + 1, q) / q_bracket(k + 1, q)
                if not prob:
                    break
                k += d
            total += prob
        table[incs] = total
    return table


def geometric_pmf(r: Fraction, n: int) -> Fraction:
    """P(G = n) = (1 - r) r^n."""
    return (1 - r) * r**n


def geometric_tail(r: Fraction, n: int) -> Fraction:
    """P(G >= n) = r^n."""
    return r**n


def geometric_ratio_tails(p: Fraction, q: Fraction, nmax: int, bits: int = 256,
                          tol: Fraction = Fraction(1, 10**30)):
    """Certified intervals for S(n) = sum_{j>=n} (1-p) p^j / [j+1]_q, n <= nmax.

    The terms are evaluated in fixed point (scale 2^bits) with directed
    rounding, so each lower bound rounds down and each upper bound up.  The
    series is cut at the first J whose remainder bound p^(J+1)/[J+2]_q falls
    below ``tol``; that bound holds because [j+1]_q increases with j, and it
    is added to every upper end.  Returns a list of (lo, hi) Fractions.
    """
    if not (0 < p < 1 and q > 0):
        raise ValueError("need 0 < p < 1 and q > 0")
    scale = 1 << bits
    a, b = p.numerator, p.denominator
    c, d = q.numerator, q.denominator
    cnum, cden = (1 - p).numerator, (1 - p).denominator
    tol_fixed = tol * scale

    pj_lo = pj_hi = scale  # p^0
    br_lo = br_hi = scale  # [1]_q
    terms_lo, terms_hi = [], []
    while True:
        terms_lo.append((cnum * pj_lo * scale) // (cden * br_hi))
        terms_hi.append(-((-cnum * pj_hi * scale) // (cden * br_lo)))
        pj_lo, pj_hi = (pj_lo * a) // b, -((-pj_hi * a) // b)
        br_lo, br_hi = scale + (br_lo * c) // d, scale - ((-br_hi * c) // d)
        rest_hi = -((-pj_hi * scale) // br_lo)
        if len(terms_lo) > nmax and rest_hi <= tol_fixed:
            break
    suffix_lo = list(itertools.accumulate(reversed(terms_lo)))[::-1]
    suffix_hi = list(itertools.accumulate(reversed(terms_hi)))[::-1]
    return [
        (Fraction(suffix_lo[n], scale), Fraction(suffix_hi[n] + rest_hi, scale))
        for n in range(nmax + 1)
    ]


def approx_terms_bound(p: Fraction, tol: float = 1e-15) -> int:
    """Upper bound on the terms a float tail sum of the geometric(p) law adds
    before the leftover mass p^j drops below ``tol``."""
    return math.ceil(math.log(tol) / math.log(float(p))) + 2


def poisson_pmf(m: int) -> float:
    """Poisson(1) law: e^-1 / m!."""
    return math.exp(-1.0) / math.factorial(m)


def pitman_cdf(r: float) -> float:
    """CDF of 2 M_1 - B_1 for standard Brownian motion B and M its running
    maximum (Pitman 1975): the BES(3) marginal at time 1,
    erf(r/sqrt 2) - sqrt(2/pi) r e^(-r^2/2) for r >= 0."""
    if r <= 0:
        return 0.0
    return math.erf(r / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * r * math.exp(-r * r / 2.0)


def exponential_cdf(rate: float):
    return lambda x: -np.expm1(-rate * np.asarray(x, dtype=float))


def point_level_cdf(v: float, c: float):
    """Continuum level law of a point mass at c > 0: truncated exponential
    (1 - e^(-2vx)) / (1 - e^(-2vc)) on [0, c), uniform x/c at v = 0."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        body = x / c if v == 0 else np.expm1(-2 * v * x) / math.expm1(-2 * v * c)
        return np.where(x < c, body, 1.0)
    return cdf


def kernel_limit(t: float, x: float, y: float, v: float) -> float:
    """Limit of the rescaled chain kernel: the half-line absorbing heat kernel
    g_t(x, y) tilted by 2 sinh(vy)/sinh(vx) e^(-v^2 t/2) (2y/x at v = 0)."""
    g = (math.exp(-((x - y) ** 2) / (2 * t)) - math.exp(-((x + y) ** 2) / (2 * t))) \
        / math.sqrt(2 * math.pi * t)
    if v == 0:
        return 2 * (y / x) * g
    return 2 * math.sinh(v * y) / math.sinh(v * x) * math.exp(-(v**2) * t / 2) * g


def ks_critical(alpha: float, n: int, m: int = None) -> float:
    """Asymptotic Kolmogorov-Smirnov rejection threshold at level alpha,
    one-sample (m None) or two-sample."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    size = n if m is None else n * m / (n + m)
    return c / math.sqrt(size)
