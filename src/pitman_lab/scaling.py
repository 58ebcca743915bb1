"""Desk-scale checks of the Brownian limit.

Under rho = 1 - v/sqrt(N) the rescaled chain increments converge to
2*(sup B^v - gamma)_+ - B^v where B^v is a drifted, time-changed Wiener
process and gamma has the continuum level law built from the limit measure mu
of X0/sqrt(N): CDF

    F(x) = mu[0,x] + (1 - e^(-2vx)) * int_(x,inf) mu(dy)/(1 - e^(-2vy))   (v != 0)
    F(x) = mu[0,x] + x * int_(x,inf) mu(dy)/y                             (v  = 0)

with density f(x) = 2v e^(-2vx) int_[x,inf) mu(dy)/(1 - e^(-2vy)) on (0, inf)
(the 1/y kernel at v = 0) and an atom at 0 carrying the rest of the mass.
Everything here is float-mode.  The level law's CDF and density cut their
series below 1e-17 relative, so their error is float rounding: within 1e-12
relative of mpmath for the catalog measures, v in [-0.8, 1] and x in
[1e-9, 40] (tests/test_scaling.py).  The other checks report measured values.
The special functions are in-house (``exp1``, the Bernoulli constants of the
Euler-Maclaurin tail and Loader's saddle-point binomial), so the module needs
numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import rat
from .processes import InitialLaw, Params, PointMass, QNegativeBinomial
from .representation import g_law_from_initial
from .sampling import RngStream, _chain_rows, _gen, ks_distance, ks_two_sample_critical


# ---------------------------------------------------------------------------
# catalog measures on [0, inf) and the induced level law
# ---------------------------------------------------------------------------


RATE_GAP = 1e-3  # the least relative gap between the rates of a hypoexponential
DONSKER_WORK_CAP = 10**9  # chain steps N * samples of one donsker_check


@dataclass(frozen=True)
class MuMeasure:
    """A catalog measure: point masses plus a density sum_i c_i e^(-l_i x).

    Signed coefficients are allowed (they encode convolutions of exponentials)
    as long as the density stays a probability density.
    """

    atoms: tuple = ()      # ((location, weight), ...)
    exp_terms: tuple = ()  # ((coef, rate), ...)

    def __post_init__(self):
        if not all(math.isfinite(x) for pair in self.atoms + self.exp_terms for x in pair):
            raise ValueError(f"a measure needs finite atoms and terms, got atoms {self.atoms} "
                             f"and terms {self.exp_terms}")
        mass = sum(w for _, w in self.atoms) + sum(c / l for c, l in self.exp_terms)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"measure mass {mass} != 1")
        if any(loc < 0 or w < 0 for loc, w in self.atoms):
            raise ValueError("atoms must sit in [0, inf) with nonnegative weight")

    @classmethod
    def point(cls, c: float) -> "MuMeasure":
        return cls(atoms=((float(c), 1.0),))

    @classmethod
    def exponential(cls, rate: float) -> "MuMeasure":
        return cls(exp_terms=((float(rate), float(rate)),))

    @classmethod
    def hypoexponential(cls, l1: float, l2: float) -> "MuMeasure":
        """Sum of independent Exp(l1) and Exp(l2), the rates at least
        RATE_GAP apart relative to the larger: the density's two terms cancel
        as the rates meet, and the CDF's error grows like the inverse gap
        (5e-13 absolute against mpmath at rates 1 and 1.0001)."""
        if abs(l1 - l2) < RATE_GAP * max(abs(l1), abs(l2)):
            raise ValueError(f"rates must differ by at least {RATE_GAP:g} relative, "
                             f"got {l1:g} and {l2:g}")
        c = l1 * l2 / (l2 - l1)
        return cls(exp_terms=((c, l1), (-c, l2)))

    def cdf(self, x):
        """mu[0, x] at a float or at every entry of an array."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape)
        for loc, w in self.atoms:
            total += np.where(loc <= x, w, 0.0)
        for c, l in self.exp_terms:
            total += c / l * -np.expm1(-l * x)
        return np.where(x < 0, 0.0, total)

    def atom_at_zero(self) -> float:
        return sum(w for loc, w in self.atoms if loc == 0)

    def describe(self) -> str:
        parts = [f"delta({loc})*{w:g}" for loc, w in self.atoms]
        parts += [f"{c:g}*exp(-{l:g}x)dx" for c, l in self.exp_terms]
        return " + ".join(parts) or "zero"


# libm's exp and expm1 for the atom terms: numpy's SIMD loops differ from it
# in the last ulp, and `scaling continuity` prints every digit
_exp = np.vectorize(math.exp, otypes=[float])
_expm1 = np.vectorize(math.expm1, otypes=[float])


_EULER_GAMMA = 0.5772156649015329
# (-1)^k/((k+1) (k+1)!), k = 0..18: at x <= 1 the next term is below 3e-20
_E1_SERIES = tuple((-1) ** k / ((k + 1) * math.factorial(k + 1)) for k in range(19))
# continued-fraction depth on (1, 2), [2, 4), ..., [16, 32), [32, inf): each
# depth leaves a truncation error below 2e-18 relative at its band's low end
_E1_CF_DEPTH = (120, 64, 36, 22, 14, 10)


def _on_array(fn, x):
    """fn on x as a 1-d float array; a scalar x gives a Python float back."""
    arr = np.asarray(x, dtype=float)
    out = fn(arr.reshape(-1)).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def exp1(x):
    """E1(x) = int_x^inf e^(-t)/t dt for x > 0, on a float (returning one) or
    an array.

    For x <= 1 the power series -gamma - log x + x sum_k (-x)^k/((k+1) (k+1)!),
    above 1 the continued fraction e^(-x)/(x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    evaluated backward from a depth set by the power of two x falls in.  Each
    entry depends only on itself.  At most 5.4 ulps from mpmath at 5500
    log-spaced points of [1e-10, 700] (tests/test_scaling.py allows 16).
    """
    return _on_array(_exp1, x)


def _exp1(x):
    """exp1 on a 1-d array."""
    out = np.empty_like(x)
    near = x <= 1
    if near.any():
        xn = x[near]
        s = np.full_like(xn, _E1_SERIES[-1])
        for c in _E1_SERIES[-2::-1]:
            s = s * xn + c
        out[near] = (-_EULER_GAMMA - np.log(xn)) + xn * s
    if near.all():
        return out
    # deepest first, so the entries still in the recurrence at depth i are a
    # prefix; each starts from t = 0 at its own depth
    xf = x[~near]
    depth = np.array(_E1_CF_DEPTH)[np.minimum(np.frexp(xf)[1] - 1, len(_E1_CF_DEPTH) - 1)]
    order = np.argsort(-depth, kind="stable")
    xf, depth = xf[order], depth[order]
    t = np.zeros_like(xf)
    top = int(depth[0])
    live = np.searchsorted(-depth, -np.arange(top, 0, -1), side="right").tolist()
    for i, n in zip(range(top, 0, -1), live):
        t[:n] = (i * i) / (xf[:n] + (2 * i + 1) - t[:n])
    out[np.flatnonzero(~near)[order]] = np.exp(-xf) / (xf + 1 - t)
    return out


# B_2j, j = 1..12, as exact rationals
_BERNOULLI_EVEN = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                   Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
                   Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
                   Fraction(-236364091, 2730))


@functools.cache
def _em_coef() -> list:
    """B_2j/(2j)!, j = 1..12, each correctly rounded from its exact rational:
    the Euler-Maclaurin corrections of _exp_kernel."""
    return [float(b / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI_EVEN, 1)]


def _exp_kernel(rate, v, x):
    """S(x) = sum_(k>=0) e^(-rate x - wk)/(b + k) on a 1-d array x > 0, with
    w = 2|v|x and b = rate/(2|v|), plus 1 for v < 0 (v != 0).  The catalog
    term e^(-rate y) of mu enters through int_x^inf e^(-rate y) dy/(1 - e^(-2vy))
    = S/(2|v|), times -e^(-w) for v < 0.

    For w >= 1, 40 terms (the rest is below e^(-40)).  For w < 1, the first
    m = max(0, ceil(24 - b)) terms, then Euler-Maclaurin from b' = b + m >= 24:
    e^(wd) E1(wb') (d = 1 for v < 0, else 0) plus e^(-rate x - wm)/b' times
    1/2 + sum_(j<=12) B_2j/(2j)! c_(2j-1), with c_n = w^n + (n/b') c_(n-1),
    c_0 = 1; the remainder is below 1e-17 relative.  The corrections add up
    to under a fifth of the 1/2, so S carries only the rounding of its
    positive terms: a few ulps times (1 + rate x).
    """
    w = 2 * abs(v) * x
    b = rate / (2 * abs(v)) + (v < 0)
    e = rate * x
    out = np.zeros_like(x)
    far = w >= 1
    if far.any():
        wf, ef = w[far], e[far]
        out[far] = sum(np.exp(-(ef + wf * k)) / (b + k) for k in range(40))
    near = ~far
    if not near.any():
        return out
    w, e = w[near], e[near]
    m = max(0, math.ceil(24 - b))
    head = sum((np.exp(-(e + w * k)) / (b + k) for k in range(m)), np.zeros_like(w))
    bm = b + m
    c, wn, tail = np.ones_like(w), np.ones_like(w), np.full_like(w, 0.5)
    coef = _em_coef()
    for n in range(1, 2 * len(coef)):
        wn = wn * w
        c = wn + n / bm * c
        if n % 2:
            tail += coef[n // 2] * c
    out[near] = head + np.exp(w * (v < 0)) * _exp1(w * bm) + np.exp(-(e + w * m)) * tail / bm
    return out


@dataclass
class LimitLevelLaw:
    """Continuum level law (v, mu) -> (CDF F, density f, atom at 0).

    ``cdf`` and ``pdf`` take a float (and return one) or an array."""

    v: float
    mu: MuMeasure

    def _atom_cdf_term(self, x, loc, w):
        if self.v == 0:
            return x * (w / loc)
        u = abs(self.v)
        if self.v < 0:
            w = w * _exp(-2 * u * (loc - x))
        return w * -_expm1(-2 * u * x) / -math.expm1(-2 * u * loc)

    def cdf(self, x):
        return _on_array(self._cdf, x)

    def _cdf(self, x):
        out = np.where(x < 0, 0.0, self.atom)
        pos = x > 0
        x, v = x[pos], self.v
        corr = np.zeros_like(x)
        for loc, w in self.mu.atoms:
            inside = x < loc
            if inside.any():
                corr[inside] += self._atom_cdf_term(x[inside], loc, w)
        for c, l in self.mu.exp_terms:
            if v == 0:
                corr += x * (c * _exp1(l * x))
            else:
                # (1 - e^(-2vx)) int_x^inf, folded so that no exponent is positive
                corr += c / (2 * abs(v)) * -np.expm1(-2 * abs(v) * x) * _exp_kernel(l, v, x)
        out[pos] = np.minimum(self.mu.cdf(x) + corr, 1.0)
        return out

    def pdf(self, x):
        return _on_array(self._pdf, x)

    def _pdf(self, x):
        if (x <= 0).any():
            raise ValueError("density lives on (0, inf)")
        v, u = self.v, abs(self.v)
        total = np.zeros_like(x)
        for loc, w in self.mu.atoms:
            inside = x <= loc
            if not inside.any():
                continue
            d = x[inside] if v > 0 else loc - x[inside]
            total[inside] += (w / loc if v == 0 else
                              2 * u * w * _exp(-2 * u * d) / -math.expm1(-2 * u * loc))
        for c, l in self.mu.exp_terms:
            if v == 0:
                total += c * _exp1(l * x)
            else:
                total += c * _exp_kernel(l, v, x) * (np.exp(-2 * v * x) if v > 0 else 1.0)
        return total

    @property
    def atom(self) -> float:
        """Mass of the level at 0; the continuous part integrates to mu((0,inf))."""
        return self.mu.atom_at_zero()

    # -- sampling via a tabulated inverse CDF ---------------------------------

    @functools.cached_property
    def _ppf_grid(self) -> tuple:
        """(grid, CDF on it) up to the first power of two where at most 1e-10
        of the mass is left."""
        tops = 2.0 ** np.arange(21)
        top_cdf = self.cdf(tops)
        if top_cdf[-1] < 1 - 1e-10:
            raise ValueError(
                f"the level law leaves mass {1 - top_cdf[-1]:.3g} above x = {tops[-1]:g}, "
                "where its tabulated inverse CDF ends; sampling it would clip that mass")
        hi = tops[np.argmax(top_cdf >= 1 - 1e-10)]
        grid = np.linspace(1e-9, hi, 8193)
        return grid, np.maximum.accumulate(self.cdf(grid))

    def ppf(self, u):
        grid, grid_cdf = self._ppf_grid
        u = np.asarray(u, dtype=float)
        out = np.interp(u, grid_cdf, grid)
        return np.where(u <= self.atom, 0.0, out)

    def sample(self, rng, size) -> np.ndarray:
        return self.ppf(_gen(rng).random(size))


# ---------------------------------------------------------------------------
# diffusive scaling, the limit measure and the continuity check
# ---------------------------------------------------------------------------


def scaled_rho(N: int, v) -> float:
    """rho_N = 1 - v/sqrt(N) in floats: space is scaled by sqrt(N), time by N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}: space is scaled by sqrt(N)")
    rho = 1.0 - float(v) / math.sqrt(N)
    if rho <= 0:
        raise ValueError("need v < sqrt(N)")
    return rho


def scaled_params(N: int, v, sigma=0) -> tuple:
    """(sqrt(N), Params(1 - v/sqrt(N), sigma)) in exact rationals, for a
    perfect-square N and a rational v."""
    scaled_rho(N, v)
    sn = math.isqrt(N)
    if sn * sn != N:
        raise ValueError("exact mode needs N to be a perfect square")
    return sn, Params(1 - rat(v) / sn, sigma)


def limit_measure(law: InitialLaw, params: Params, sn: int, who: str) -> MuMeasure:
    """mu, the limit of X0/sqrt(N) under rho = 1 - v/sqrt(N) = ``params.rho``:
    the point mass at n/sqrt(N) for point:n, and for a qnb law with the
    chain's q the hypoexponential with rates u +- v, u = (1 - theta rho)
    sqrt(N), so v != 0 there.  ``who`` names the check in the refusals of v."""
    if isinstance(law, PointMass):
        return MuMeasure.point(law.n / sn)
    # not nb, the q = 1 member: it matches only at v = 0, where u + v = u - v
    if not (type(law) is QNegativeBinomial and law.q == params.q):
        raise ValueError(f"the scaling limit supports point:<n> and matched qnb initial "
                         f"laws, got {law.cli_string()!r}")
    u = float((1 - law.theta * params.rho) * sn)
    v = float((1 - params.rho) * sn)
    if 2 * abs(v) < RATE_GAP * (u + abs(v)):
        raise ValueError(f"{who} needs --v != 0: its limit measure, Exp(u + v) + Exp(u - v), "
                         f"has equal rates at v = 0, and that Gamma(2, u) measure is not "
                         f"supported; rates closer than {RATE_GAP:g} relative are refused "
                         f"too (got u = {u:g}, v = {v:g})")
    if not u - abs(v) > 0:
        raise ValueError(f"{who} needs u - |v| > 0, got u = {u:g}, v = {v:g}")
    return MuMeasure.hypoexponential(u + v, u - v)


CONTINUITY_REGIMES = ("point", "power", "corollary")
CONTINUITY_TOL = 0.02  # the largest sup distance continuity_check passes
KERNEL_TOL = 0.05  # the largest relative error at a ladder's last N that passes
_ENCLOSURE_BITS = 128  # fixed-point bits of continuity_check's enclosures of P(G < n)


# Enclosures are int pairs (lo, hi) with lo <= value * 2^_ENCLOSURE_BITS <= hi:
# each operation floors its lower end and ceils its upper end.

def _scale(x: tuple, num: int, den: int) -> tuple:
    """An enclosure of x * num/den for ints num and den != 0."""
    if den < 0:
        num, den = -num, -den
    ends = x[0] * num, x[1] * num
    return min(ends) // den, -(-max(ends) // den)


def _mul(x: tuple, y: tuple) -> tuple:
    """An enclosure of a product: the least and greatest corner products."""
    corners = x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]
    return min(corners) >> _ENCLOSURE_BITS, -(-max(corners) >> _ENCLOSURE_BITS)


def _powers(num: int, den: int):
    """n -> an enclosure of (num/den)^n, n >= 0, num >= 0 < den, by binary
    powering; the squares of the base are kept across calls."""
    bits = _ENCLOSURE_BITS
    squares = [_scale((1 << bits, 1 << bits), num, den)]

    def power(n):
        lo = hi = 1 << bits
        i = 0
        while n:
            if i == len(squares):
                s_lo, s_hi = squares[-1]
                squares.append((s_lo * s_lo >> bits, -(-s_hi * s_hi >> bits)))
            if n & 1:
                s_lo, s_hi = squares[i]
                lo, hi = lo * s_lo >> bits, -(-hi * s_hi >> bits)
            n, i = n >> 1, i + 1
        return lo, hi

    return power


def _level_cdf_enclosure(law: InitialLaw, q: Fraction):
    """n -> an enclosure of P(G < n) for the level law G of a start law that
    ``limit_measure`` admits (``g_law_from_initial(law, params, "G")`` with
    q = params.q).

    P(G < n) = 1 - P(X0 >= n) + [n]_q S(n), [n]_q = (q^n - 1)/(q - 1) (n at
    q = 1), read for point:k as [n]_q/[k+1]_q up to k and 1 past it, and for
    the matched qnb law from P(X0 >= n) = K1 theta^n - K2 (theta q)^n (its
    ``_tail_ints``) and S(n) = (1 - theta q) theta^n.  [k+1]_q is enclosed
    once; a point costs a few products of ints of about _ENCLOSURE_BITS bits
    (more where q > 1 and q^n is large), and no Fraction.  Both ends are
    clamped to [0, 2^_ENCLOSURE_BITS].
    """
    one = 1 << _ENCLOSURE_BITS
    a, b = q.numerator, q.denominator
    q_pow = _powers(a, b)

    def bracket(m):
        if a == b:
            return m << _ENCLOSURE_BITS, m << _ENCLOSURE_BITS
        lo, hi = q_pow(m)
        return _scale((lo - one, hi - one), b, a - b)

    if isinstance(law, PointMass):
        k, top = law.n, bracket(law.n + 1)

        def value(n):
            if n > k:
                return one, one
            if top[0] <= 0:  # too coarse to divide by: a probability's bounds
                return 0, one
            lo, hi = bracket(n)
            return lo * one // top[1], -(-hi * one // top[0])
    else:
        _, _, t, s, k1, k2, d = law._tail_ints
        theta_pow, theta_q_pow = _powers(t, s), _powers(t * a, s * b)

        def value(n):
            theta_n = theta_pow(n)
            k1_term, k2_term = _scale(theta_n, k1, d), _scale(theta_q_pow(n), k2, d)
            ratio = _scale(theta_n, s * b - t * a, s * b)
            lo, hi = _mul(bracket(n), ratio)
            return one - k1_term[1] + k2_term[0] + lo, one - k1_term[0] + k2_term[1] + hi

    def enclosure(n):
        if n < 1:
            return 0, 0
        lo, hi = value(n)
        # P(G < n) lies in [0, 1]: where q > 1 the ends' rounding grows with
        # [n]_q, and past about q^n = 2^1152 an unclamped hi has no float
        return max(lo, 0), min(hi, one)

    return enclosure


def continuity_check(N: int, v, regime: str, grid, u=None) -> dict:
    """Exact law of (level law at size N)/sqrt(N) against its continuum limit.

    Regimes:
      * ``point``   -- the initial level is fixed at sqrt(N); the limit
                       measure is the point mass at 1, giving a truncated
                       exponential (v != 0) or uniform (v = 0) level law.
      * ``power``   -- the initial level floor(N^0.7) escapes to infinity;
                       needs v > 0, the limit is Exp(2v).
      * ``corollary`` -- theta-geometric-pair initial law with rates set by
                       (u, v), v != 0; the limit measure is the two-exponential
                       convolution, whose level law collapses to Exp(u+v).

    Returns per-grid-point rows (x, exact, limit, diff) and the sup distance,
    which PASSes up to CONTINUITY_TOL.  The limit CDF is evaluated once, on
    the whole grid as an array (libm's expm1 for the power regime), with
    the bits of a point-by-point evaluation.  The exact side is P(G < n),
    n = floor(x sqrt N) + 1, correctly rounded, by Ziv's rounding test: an
    enclosure [lo, hi] of P(G < n) 2^_ENCLOSURE_BITS in ints
    (``_level_cdf_enclosure``) gives two int true divisions by
    2^_ENCLOSURE_BITS, each correctly rounded; rounding is monotone, so if
    they agree, that float is the value.  Only a point where they differ
    takes the exact tail's int pair (num, den) (``LevelLaw.tail_pair``, the
    level law built at the first such point) and returns (den - num)/den.
    So each value has the bits of float(1 - tail), with no O(n)-bit int on
    the decided path: at N = 10^8 a call takes under a millisecond in the
    point and power regimes and about 3 ms in the corollary regime (mostly
    the limit CDF), where the exact pairs took 30-39 s and 11 s (2 shared
    vCPUs).
    """
    sn, params = scaled_params(N, v)
    vf, grid = float(v), list(grid)
    if not grid:
        raise ValueError("the --grid holds no point: nothing would be compared")

    if regime == "power":
        if vf <= 0:
            raise ValueError("the power regime needs v > 0")
        law = PointMass(math.floor(N ** 0.7))
        limit_fn = lambda x: -_expm1(-2 * vf * x)
    else:
        if regime == "point":
            law = PointMass(sn)
        elif regime == "corollary":
            if u is None:
                raise ValueError("the corollary regime needs u")
            if not (u > 0 and u + v > 0 and u - v > 0):
                raise ValueError("need u > 0 and u + v > 0 and u - v > 0")
            if u > sn:
                raise ValueError(f"the corollary regime needs --u <= sqrt(N) = {sn}, got {u}: "
                                 "the start law's rho0 = 1 - u/sqrt(N) would be negative")
            # theta rho = rho0 = 1 - u/sqrt(N): the limit measure's u is this u
            law = QNegativeBinomial(params.q, (1 - rat(u) / sn) / params.rho)
        else:
            raise ValueError(f"unknown regime {regime!r}; choose from {CONTINUITY_REGIMES}")
        mu = limit_measure(law, params, sn, f"the {regime} regime")
        limit_fn = LimitLevelLaw(vf, mu).cdf

    # P(G < n), n = floor(x sqrt N) + 1: int true division rounds correctly,
    # and monotonely, so both ends of an enclosure rounding to one float
    # decide it; where they do not, the exact tail's int pair does
    one, glaw, exact = 1 << _ENCLOSURE_BITS, None, []
    enclosure = _level_cdf_enclosure(law, params.q)
    for n in (math.floor(x * sn) + 1 for x in grid):
        lo, hi = enclosure(n)
        if lo / one == hi / one:
            exact.append(lo / one)
            continue
        if glaw is None:
            glaw = g_law_from_initial(law, params, "G")
        num, den = glaw.tail_pair(n)
        exact.append((den - num) / den)
    exact = np.array(exact)
    xs = np.array(grid, dtype=float)
    lims = limit_fn(xs)
    diffs = (exact - lims).tolist()
    rows = [{"x": x, "exact": e, "limit": lim, "diff": d}
            for x, e, lim, d in zip(xs.tolist(), exact.tolist(), lims.tolist(), diffs)]
    sup = max([0.0, *map(abs, diffs)])
    return {
        "check": "continuity",
        "N": N,
        "v": float(v),
        "regime": regime,
        "initial": law.cli_string(),
        "rows": rows,
        "sup_distance": sup,
        "status": "PASS" if sup <= CONTINUITY_TOL else "FAIL",
        "tol": CONTINUITY_TOL,
    }


# ---------------------------------------------------------------------------
# kernel limit
# ---------------------------------------------------------------------------


def heat_kernel(t: float, x: float, y: float) -> float:
    """Absorbing heat kernel on the half line:
    (e^(-(x-y)^2/2t) - e^(-(x+y)^2/2t)) / sqrt(2 pi t)."""
    if t <= 0 or x <= 0 or y <= 0:
        raise ValueError("t, x, y must all be > 0")
    return (math.exp(-((x - y) ** 2) / (2 * t)) - math.exp(-((x + y) ** 2) / (2 * t))) / math.sqrt(
        2 * math.pi * t
    )


def _even_floor(x: float) -> int:
    return 2 * math.floor(x / 2)


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) at n = 0..15 (0 at n = 0)
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    """The Stirling error log(n!) - log(sqrt(2 pi n) (n/e)^n): tabulated up to
    15, above that 1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7) +
    1/(1188n^9), whose next term is below 1.1e-16 from n = 16 on (Loader 2000)."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, the deviance term, without its cancellation near
    x = m: there the series (x - m) v + 2x sum_(j>=1) v^(2j+1)/(2j+1) in
    v = (x - m)/(x + m) (Loader 2000), taken while |v| < 1/2, where each term
    falls by v^2 <= 1/4; the log form cancels up to that point (at v = 0.1,
    Loader's switch, it costs about a digit: _dbinom at n = 10^4, p = 1/2
    erred by 6.4e-13 relative, and by 6.3e-14 with the series)."""
    if abs(x - m) >= 0.5 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s, ej, v2 = (x - m) * v, 2 * x * v, v * v
    j = 1
    while True:
        ej *= v2
        s1 = s + ej / (2 * j + 1)
        if s1 == s:
            return s
        s, j = s1, j + 1


def _dbinom(k: int, n: int, p: float, q: float) -> float:
    """C(n, k) p^k q^(n-k), q = 1 - p, in Loader's saddle-point form
    e^(stirlerr(n) - stirlerr(k) - stirlerr(n-k) - bd0(k, np) - bd0(n-k, nq))
    / sqrt(2 pi k (n-k)/n): no factorial or power is formed.  0 for k outside
    [0, n]; k = 0 and k = n are q^n and p^n."""
    if k < 0 or k > n:
        return 0.0
    if k == 0:
        return math.exp(n * math.log(q) if p >= 0.1 else -_bd0(n, n * q) - n * p)
    if k == n:
        return math.exp(n * math.log(p) if q >= 0.1 else -_bd0(n, n * p) - n * q)
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return math.exp(lc - 0.5 * (math.log(2 * math.pi) + math.log(k) + math.log1p(-k / n)))


def kernel_limit_check(N: int, t: float, x: float, y: float, v: float) -> dict:
    """sqrt(N) times the flat-free chain transition over even-rounded scaled
    coordinates, against 2 sinh(vy)/sinh(vx) e^(-v^2 t/2) g_t(x, y).

    The finite-N probability is the two-binomial difference (path counts do
    not depend on the interior), each C(T, k)/z^T, z = rho + 1/rho, taken as
    dbinom(k; T, p) rho^(2k - T) with p = (1/rho)/z: within 1e-13 relative of
    mpmath at N = 100 and 10^4 (tests/test_scaling.py).
    """
    rho, sn = scaled_rho(N, v), math.sqrt(N)
    T = _even_floor(t * N)
    x0 = _even_floor(x * sn)
    xt = _even_floor(y * sn)
    if T <= 0 or x0 <= 0 or xt < 0:
        raise ValueError("scaled coordinates collapsed; increase N")
    z = rho + 1 / rho
    p, q = (1 / rho) / z, rho / z

    def binom_over_z(k):
        return _dbinom(k, T, p, q) * rho ** (2 * k - T)

    paths = binom_over_z((T + xt - x0) // 2) - binom_over_z((T + xt + x0 + 2) // 2)
    if rho == 1.0:
        ratio = (xt + 1) / (x0 + 1)
    else:
        lr = math.log(1 / rho)
        ratio = math.sinh((xt + 1) * lr) / math.sinh((x0 + 1) * lr)
    finite = sn * paths * ratio

    g = heat_kernel(t, x, y)
    if v == 0:
        limit = 2 * (y / x) * g
    else:
        limit = 2 * math.sinh(v * y) / math.sinh(v * x) * math.exp(-(v**2) * t / 2) * g
    rel = abs(finite - limit) / abs(limit)
    return {
        "check": "kernel-limit",
        "N": N, "t": t, "x": x, "y": y, "v": v,
        "finite": finite,
        "limit": limit,
        "rel_error": rel,
    }


def kernel_limit_ladder(Ns, t, x, y, v) -> dict:
    """kernel_limit_check at each N of the ladder; PASS when the relative
    error at the last N is at most KERNEL_TOL."""
    if not Ns:
        raise ValueError("the --N ladder holds no N: nothing would be compared")
    reports = [kernel_limit_check(N, t, x, y, v) for N in Ns]
    return {
        "check": "kernel-ladder",
        "Ns": list(Ns),
        "rel_errors": [r["rel_error"] for r in reports],
        "reports": reports,
        "status": "PASS" if reports[-1]["rel_error"] <= KERNEL_TOL else "FAIL",
        "tol": KERNEL_TOL,
    }


# ---------------------------------------------------------------------------
# the limiting process
# ---------------------------------------------------------------------------


def limit_process_sample(v: float, gamma_law: LimitLevelLaw, t_grid, steps: int,
                         rng, n: int = 1, sigma: float = 0.0) -> np.ndarray:
    """Exact samples of 2*(sup_(s<=t) B^v_s - gamma)_+ - B^v_t on t_grid.

    B^v_t = W_(tau t) + v tau t, tau = 2/(2+sigma), is drawn at the sorted grid
    times from its Gaussian increments, and its maximum over each interval of
    length dtau from the Brownian-bridge law given the endpoints a, b:
    (a + b + sqrt((b-a)^2 - 2 dtau log U))/2, U uniform on (0, 1], free of the
    drift (Glasserman 2004, §6.4).  gamma is drawn by inverse CDF (atom at 0
    included).  Returns an (n, len(t_grid)) array.  ``steps`` is ignored.
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if not len(t_grid):
        raise ValueError("the --grid holds no point: nothing would be sampled")
    if not (np.isfinite(t_grid).all() and (t_grid >= 0).all()):
        raise ValueError(f"grid times must be finite and >= 0, got {t_grid.tolist()}")
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    gen = _gen(rng)
    times, where = np.unique(np.append(0.0, t_grid), return_inverse=True)
    dtau = np.diff(times) * (2.0 / (2.0 + sigma))
    b = np.zeros((n, len(times)))
    np.cumsum(gen.normal(v * dtau, np.sqrt(dtau), size=(n, len(dtau))), axis=1, out=b[:, 1:])
    lo, hi = b[:, :-1], b[:, 1:]
    log_u = np.log1p(-gen.random(lo.shape))  # log U, U uniform on (0, 1]
    run_max = np.zeros_like(b)
    np.maximum.accumulate((lo + hi + np.sqrt((hi - lo) ** 2 - 2 * dtau * log_u)) / 2,
                          axis=1, out=run_max[:, 1:])
    gamma = gamma_law.sample(gen, n)[:, None]
    return (2.0 * np.maximum(run_max - gamma, 0.0) - b)[:, where[1:]]


def donsker_check(N: int, v, sigma, law: InitialLaw, samples: int, seed: int) -> dict:
    """KS test of the chain's X_N - X_0 under rho = 1 - v/sqrt(N), started
    from ``law``, against sqrt(N) times the limit process at time 1 rounded
    to the chain's lattice (the local-CLT continuity correction); PASS below
    the 1% critical value.  mu is ``limit_measure`` of ``law``.  The chain
    draws from child 1 of ``RngStream(seed)``, the limit from child 2.

    The chains are ``sample_chain``'s, drawn from the same stream, but only
    their starts and a two-row ring of levels are held: O(samples) memory.
    N * samples is capped at DONSKER_WORK_CAP chain steps, and fewer than 100
    samples are refused before any chain is drawn.
    """
    stream, vf = RngStream(seed), float(v)
    sn, params = scaled_params(N, v, sigma)
    if samples < 100:
        raise ValueError(f"--samples must be >= 100, got {samples}: the KS test needs at "
                         "least 100 samples per side")
    if N * samples > DONSKER_WORK_CAP:
        raise ValueError(f"--N {N} with --samples {samples} asks for {N * samples} chain "
                         f"steps, more than the {DONSKER_WORK_CAP} allowed; lower --N or "
                         "--samples")
    mu = limit_measure(law, params, sn, f"the donsker check of {law.cli_string()}")
    start, ring = _chain_rows(N, law, params, stream.child(1), samples, 2)
    lim = limit_process_sample(vf, LimitLevelLaw(vf, mu), [1.0], None,
                               stream.child(2), n=samples, sigma=float(sigma))[:, 0]
    stat = ks_distance(ring[N % 2] - start, np.round(lim * sn).astype(np.int64))
    crit = ks_two_sample_critical(samples, samples, 0.01)
    return {"check": "donsker", "N": N, "samples": samples, "seed": seed,
            "params": params.to_json(), "initial": law.cli_string(),
            "gamma_measure": mu.describe(), "ks": stat, "critical_1pct": crit,
            "status": "PASS" if stat < crit else "FAIL"}
