"""Desk-scale checks of the Brownian limit.

Under rho = 1 - v/sqrt(N) the rescaled chain increments converge to
2*(sup B^v - gamma)_+ - B^v where B^v is a drifted, time-changed Wiener
process and gamma has the continuum level law built from the limit measure mu
of X0/sqrt(N): CDF

    F(x) = mu[0,x] + (1 - e^(-2vx)) * int_(x,inf) mu(dy)/(1 - e^(-2vy))   (v != 0)
    F(x) = mu[0,x] + x * int_(x,inf) mu(dy)/y                             (v  = 0)

with density f(x) = 2v e^(-2vx) int_[x,inf) mu(dy)/(1 - e^(-2vy)) on (0, inf)
(the 1/y kernel at v = 0) and an atom at 0 carrying the rest of the mass.
Everything here is float-mode; tolerances are engineering choices and every
report carries the measured value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1, gammaln

from .exact import rat
from .processes import Params, PointMass, QNegativeBinomial, step_pmf
from .representation import g_law_from_initial

_SERIES_TOL = 1e-14


# ---------------------------------------------------------------------------
# catalog measures on [0, inf) and the induced level law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuMeasure:
    """A catalog measure: point masses plus a density sum_i c_i e^(-l_i x).

    Signed coefficients are allowed (they encode convolutions of exponentials)
    as long as the density stays a probability density.
    """

    atoms: tuple = ()      # ((location, weight), ...)
    exp_terms: tuple = ()  # ((coef, rate), ...)

    def __post_init__(self):
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
        """Sum of independent Exp(l1) and Exp(l2), l1 != l2."""
        if l1 == l2:
            raise ValueError("rates must differ")
        c = l1 * l2 / (l2 - l1)
        return cls(exp_terms=((c, l1), (-c, l2)))

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return sum(w for loc, w in self.atoms if loc <= x) + sum(
            c / l * -math.expm1(-l * x) for c, l in self.exp_terms
        )

    def atom_at_zero(self) -> float:
        return sum(w for loc, w in self.atoms if loc == 0)

    def density(self, x: float) -> float:
        return sum(c * math.exp(-l * x) for c, l in self.exp_terms)

    def describe(self) -> str:
        parts = [f"delta({loc})*{w:g}" for loc, w in self.atoms]
        parts += [f"{c:g}*exp(-{l:g}x)dx" for c, l in self.exp_terms]
        return " + ".join(parts) or "zero"


def _exp_kernel_series(coef, rate, v, x, shift):
    """e^(-shift*x) * int_x^inf coef e^(-rate*y) / (1 - e^(-2vy)) dy.

    Expanding the kernel geometrically (sum over e^(-2|v|ky), k >= 0 for
    v > 0 and a negated k >= 1 sum for v < 0) and folding the prefactor in
    keeps every exponent nonpositive, so the v < 0 case cannot overflow.
    Falls back to adaptive quadrature when the expansion converges too slowly
    (x very close to 0, where the prefactor is harmless anyway).
    """
    av = abs(v)

    def integrand(y):
        # 1/(1 - e^(-2vy)) written with negative exponents only
        if v > 0:
            return coef * math.exp(-rate * y) / -math.expm1(-2 * v * y)
        t = 2 * av * y
        return -coef * math.exp(-rate * y - t) / -math.expm1(-t)

    if math.exp(-2 * av * x) > 0.999:
        val, _ = quad(integrand, x, np.inf, epsabs=1e-10, epsrel=1e-10, limit=200)
        return math.exp(-shift * x) * val
    total = 0.0
    k = 0 if v > 0 else 1
    sign = 1.0 if v > 0 else -1.0
    term = math.exp(-(rate + 2 * av * k + shift) * x) / (rate + 2 * av * k)
    while abs(term) > _SERIES_TOL * (abs(total) + 1e-300):
        total += term
        k += 1
        term = math.exp(-(rate + 2 * av * k + shift) * x) / (rate + 2 * av * k)
    return sign * coef * total


@dataclass
class LimitLevelLaw:
    """Continuum level law (v, mu) -> (CDF F, density f, atom at 0)."""

    v: float
    mu: MuMeasure
    _grid: np.ndarray = field(default=None, repr=False)
    _grid_cdf: np.ndarray = field(default=None, repr=False)

    def _atom_cdf_term(self, x, loc, w):
        v = self.v
        if v > 0:
            return w * -math.expm1(-2 * v * x) / -math.expm1(-2 * v * loc)
        u = -v
        return (
            w * math.exp(-2 * u * (loc - x))
            * -math.expm1(-2 * u * x) / -math.expm1(-2 * u * loc)
        )

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        if x == 0:
            return self.atom
        if self.v != 0:
            corr = sum(self._atom_cdf_term(x, loc, w)
                       for loc, w in self.mu.atoms if loc > x)
            # (1 - e^(-2vx)) * integral, as a difference of two folded series
            # so the v < 0 case never meets a positive exponent
            corr += sum(
                _exp_kernel_series(c, l, self.v, x, 0.0)
                - _exp_kernel_series(c, l, self.v, x, 2 * self.v)
                for c, l in self.mu.exp_terms
            )
        else:
            corr = x * sum(w / loc for loc, w in self.mu.atoms if loc > x)
            corr += x * sum(c * exp1(l * x) for c, l in self.mu.exp_terms)
        return min(self.mu.cdf(x) + corr, 1.0)

    def pdf(self, x: float) -> float:
        if x <= 0:
            raise ValueError("density lives on (0, inf)")
        v = self.v
        if v == 0:
            return sum(w / loc for loc, w in self.mu.atoms if loc >= x) + sum(
                c * exp1(l * x) for c, l in self.mu.exp_terms
            )
        total = 0.0
        for loc, w in self.mu.atoms:
            if loc >= x:
                if v > 0:
                    total += 2 * v * w * math.exp(-2 * v * x) / -math.expm1(-2 * v * loc)
                else:
                    u = -v
                    total += 2 * u * w * math.exp(-2 * u * (loc - x)) / -math.expm1(-2 * u * loc)
        total += sum(
            2 * v * _exp_kernel_series(c, l, v, x, 2 * v) for c, l in self.mu.exp_terms
        )
        return total

    @property
    def atom(self) -> float:
        """Mass of the level at 0; the continuous part integrates to mu((0,inf))."""
        return self.mu.atom_at_zero()

    # -- sampling via a tabulated inverse CDF ---------------------------------

    def _ensure_grid(self):
        if self._grid is not None:
            return
        hi = 1.0
        while self.cdf(hi) < 1 - 1e-10 and hi < 1e6:
            hi *= 2
        grid = np.linspace(1e-9, hi, 8193)
        cdf = np.array([self.cdf(float(x)) for x in grid])
        cdf = np.maximum.accumulate(cdf)
        self._grid, self._grid_cdf = grid, cdf

    def ppf(self, u):
        self._ensure_grid()
        u = np.asarray(u, dtype=float)
        out = np.interp(u, self._grid_cdf, self._grid)
        return np.where(u <= self.atom, 0.0, out)

    def sample(self, rng, size) -> np.ndarray:
        gen = rng.generator() if hasattr(rng, "generator") else rng
        return self.ppf(gen.random(size))


# ---------------------------------------------------------------------------
# scaling configuration and the continuity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingConfig:
    """Diffusive-scaling bookkeeping: rho_N = 1 - v/sqrt(N), space scale
    sqrt(N), time scale N.  Exact rho_N is available when sqrt(N) is an
    integer and v is rational."""

    N: int
    v: Fraction
    sigma: Fraction = Fraction(0)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}: space is scaled by sqrt(N)")
        object.__setattr__(self, "v", rat(self.v) if not isinstance(self.v, float) else self.v)
        object.__setattr__(self, "sigma", rat(self.sigma))
        if float(self.rho_float) <= 0:
            raise ValueError("need v < sqrt(N)")

    @property
    def sqrt_n(self) -> int:
        r = math.isqrt(self.N)
        if r * r != self.N:
            raise ValueError("exact mode needs N to be a perfect square")
        return r

    @property
    def rho_exact(self) -> Fraction:
        return 1 - rat(self.v) / self.sqrt_n

    @property
    def rho_float(self) -> float:
        return 1.0 - float(self.v) / math.sqrt(self.N)

    def params_exact(self) -> Params:
        return Params(self.rho_exact, self.sigma)


CONTINUITY_REGIMES = ("point", "power", "corollary")


def continuity_check(N: int, v, regime: str, grid, u=None,
                     power_eps: float = 0.2, point_scale: float = 1.0) -> dict:
    """Exact law of (level law at size N)/sqrt(N) against its continuum limit.

    Regimes:
      * ``point``   -- the initial level is fixed at floor(point_scale*sqrt(N));
                       the limit measure is a point mass, giving a truncated
                       exponential (v != 0) or uniform (v = 0) level law.
      * ``power``   -- the initial level floor(N^(1/2+eps)) escapes to infinity;
                       needs v > 0, the limit is Exp(2v).
      * ``corollary`` -- theta-geometric-pair initial law with rates set by
                       (u, v); the limit measure is the two-exponential
                       convolution, whose level law collapses to Exp(u+v).

    Returns per-grid-point rows (x, exact, limit, diff) and the sup distance.
    """
    cfg = ScalingConfig(N, rat(v))
    sn = cfg.sqrt_n
    params = cfg.params_exact()
    vf = float(v)

    if regime == "point":
        m = math.floor(point_scale * sn)
        law = PointMass(m)
        lll = LimitLevelLaw(vf, MuMeasure.point(point_scale))
        limit_fn = lll.cdf
    elif regime == "power":
        if vf <= 0:
            raise ValueError("the power regime needs v > 0")
        m = math.floor(N ** (0.5 + power_eps))
        law = PointMass(m)
        limit_fn = lambda x: -math.expm1(-2 * vf * x)
        lll = None
    elif regime == "corollary":
        if u is None:
            raise ValueError("the corollary regime needs u")
        uf = float(u)
        if not (uf > 0 and uf + vf > 0 and uf - vf > 0):
            raise ValueError("need u > 0 and u + v > 0 and u - v > 0")
        rho0 = 1 - rat(u) / sn
        law = QNegativeBinomial(params.q, rho0 / params.rho)
        lll = LimitLevelLaw(vf, MuMeasure.hypoexponential(uf + vf, uf - vf))
        limit_fn = lll.cdf
    else:
        raise ValueError(f"unknown regime {regime!r}; choose from {CONTINUITY_REGIMES}")

    glaw = g_law_from_initial(law, params, "G")
    # cumulative sums of the exact pmf up to the largest grid index
    xs = list(grid)
    top = max(int(math.floor(x * sn)) for x in xs)
    cum, run = {}, Fraction(0)
    for n in range(top + 1):
        run += glaw.pmf(n)
        cum[n] = run

    rows = []
    sup = 0.0
    for x in xs:
        j = int(math.floor(x * sn))
        exact = float(cum[j]) if j <= top else 1.0
        lim = limit_fn(float(x))
        rows.append({"x": float(x), "exact": exact, "limit": lim,
                     "diff": exact - lim})
        sup = max(sup, abs(exact - lim))
    return {
        "check": "continuity",
        "N": N,
        "v": float(v),
        "regime": regime,
        "initial": law.cli_string(),
        "rows": rows,
        "sup_distance": sup,
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


def kernel_limit_check(N: int, t: float, x: float, y: float, v: float) -> dict:
    """sqrt(N) times the flat-free chain transition over even-rounded scaled
    coordinates, against 2 sinh(vy)/sinh(vx) e^(-v^2 t/2) g_t(x, y).

    The finite-N probability is the two-binomial difference (path counts do
    not depend on the interior) evaluated in log space.
    """
    rho = ScalingConfig(N, v).rho_float  # refuses N < 1 and v >= sqrt(N)
    sn = math.sqrt(N)
    T = _even_floor(t * N)
    x0 = _even_floor(x * sn)
    xt = _even_floor(y * sn)
    if T <= 0 or x0 <= 0 or xt < 0:
        raise ValueError("scaled coordinates collapsed; increase N")

    def log_binom(n, k):
        if k < 0 or k > n:
            return -math.inf
        return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)

    base = T * math.log(rho + 1 / rho)
    lb1 = log_binom(T, (T + xt - x0) // 2)
    lb2 = log_binom(T, (T + xt + x0 + 2) // 2)
    paths = math.exp(lb1 - base) - math.exp(lb2 - base)
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
    reports = [kernel_limit_check(N, t, x, y, v) for N in Ns]
    return {
        "check": "kernel-ladder",
        "Ns": list(Ns),
        "rel_errors": [r["rel_error"] for r in reports],
        "reports": reports,
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
    if not (np.isfinite(t_grid).all() and (t_grid >= 0).all()):
        raise ValueError(f"grid times must be finite and >= 0, got {t_grid.tolist()}")
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    gen = rng.generator() if hasattr(rng, "generator") else rng
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


def step_moments(params: Params):
    """Exact mean and variance of one walk step."""
    pm = step_pmf(params)
    mean = pm[1] - pm[-1]
    var = pm[1] + pm[-1] - mean**2
    return mean, var
