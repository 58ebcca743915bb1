"""Walk and chain laws: step pmf, the q-deformed kernel, initial-law catalog,
and exact finite-dimensional distributions over the path space.

The chain on Z>=0 moves from k by a step delta in {-1, 0, +1} with probability
``P(step = delta) * [k+delta+1]_q / [k+1]_q`` where q = rho^2 and the step law
is the three-point walk law below.  The canonical law object is the class
table of the increments (X_j - X_0), from the closed-form sum over the
initial level ("formula" route) or from kernel products ("product" route).
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .exact import (
    _BLOCK_LEVELS,
    APPROX_TAIL_TOL,
    TERM_FLOOR,
    UNIT_ROUNDOFF,
    Rat,
    TailSumTable,
    UnsupportedExactModeError,
    bracket_int,
    bracket_ratio_float,
    bracket_ratio_rel_err,
    left_sum,
    prob_json,
    q_bracket,
    rat,
    rat_str,
    rel_err,
)
from .paths import (Path, _refuse_beyond_cap, class_path, class_sizes, combine_factors,
                    factor_pairs, stats)


@dataclass(frozen=True)
class Params:
    """Walk/chain parameters (rho, sigma), both exact rationals.

    q = rho^2 and the normalizer z = rho + sigma + 1/rho are derived on
    first access and kept, once per instance; they take no part in
    equality, hashing or the repr.
    """

    rho: Rat
    sigma: Rat = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "rho", rat(self.rho))
        object.__setattr__(self, "sigma", rat(self.sigma))
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @functools.cached_property
    def q(self) -> Rat:
        return self.rho**2

    @functools.cached_property
    def z(self) -> Rat:
        return self.rho + self.sigma + 1 / self.rho

    def tilde(self) -> "Params":
        """Parameters of the sign-flipped walk (rho -> 1/rho, same sigma)."""
        return Params(1 / self.rho, self.sigma)

    def to_json(self):
        return {"rho": rat_str(self.rho), "sigma": rat_str(self.sigma)}


def step_pmf(params: Params) -> dict:
    """Exact one-step law of the walk: {+1: 1/(rho*z), 0: sigma/z, -1: rho/z}."""
    z = params.z
    return {1: 1 / (params.rho * z), 0: params.sigma / z, -1: params.rho / z}


def walk_path_prob(path: Path, params: Params) -> Rat:
    """Probability that the walk follows ``path`` exactly.

    Equals sigma^H (1/rho)^U rho^D / z^t, i.e. the product of the one-step
    probabilities along the increments.
    """
    st = stats(path)
    return (
        params.sigma**st.H
        * params.rho ** (st.D - st.U)
        / params.z ** path.horizon
    )


def chain_transition(k: int, delta: int, params: Params) -> Rat:
    """One-step chain probability from level k to k + delta.

    The [0]_q = 0 factor kills the down step at k = 0, so the chain never
    leaves Z>=0; rows sum to 1 exactly.  One Fraction of ints: the step
    law's pn/pd (1/(rho z), sigma/z, rho/z) times B(k+delta+1) qd^k over
    B(k+1) qd^(k+delta), with B(m) = [m]_q qd^(m-1) (``bracket_int``).
    """
    if k < 0:
        raise ValueError("chain level must be >= 0")
    if delta not in (-1, 0, 1):
        raise ValueError("delta must be in {-1, 0, +1}")
    (rn, rd), sigma, z = params.rho.as_integer_ratio(), params.sigma, params.z
    qn, qd = rn * rn, rd * rd
    pn, pd = {1: (rd, rn), 0: sigma.as_integer_ratio(), -1: (rn, rd)}[delta]
    return Fraction(pn * z.denominator * bracket_int(k + delta + 1, qn, qd) * qd ** (delta < 0),
                    pd * z.numerator * bracket_int(k + 1, qn, qd) * qd ** (delta > 0))


# ---------------------------------------------------------------------------
# the law catalog
# ---------------------------------------------------------------------------

#: largest Poisson mean, and the largest truncation point of float mode: ten
#: standard deviations above that mean, where its tail is far below 1e-15
POISSON_MEAN_CAP = 10**7
TRUNCATION_CAP = POISSON_MEAN_CAP + 10 * math.isqrt(POISSON_MEAN_CAP)


class InitialLaw:
    """A law on Z>=0: the chain's starting level X0, a transform level G or a
    conditioning level V.  The one law type of the package.

    Subclasses provide the pmf and upper tail (pmf(n) = 0 for n < 0 and
    tail(n) = 1 for n <= 0), plus (where a closed form exists) a geometric
    representation of pmf(k)/[k+1]_q used by the exact tail sums.  The
    exact level laws read the tail and those sums as int pairs
    (``tail_pair``, ``ratio_tail_pair``), which skip the gcd of a Fraction.
    ``exact`` marks laws with rational pmf values; ``pmf_err``/``tail_err`` bound the
    error of the values of the others.  Float mode reads
    ``pmf_float``/``tail_float`` with the relative error bound
    ``float_rel_err``; laws with closed forms override all three so that no
    Fraction power is built per term.  The float level tables read whole
    runs of levels through ``_pmf_floats``/``_float_rel_errs``, which give
    the same floats as the scalar methods, level by level.
    """

    exact = True

    def pmf(self, n: int):
        raise NotImplementedError

    def tail(self, n: int):
        """P(X >= n)."""
        raise NotImplementedError

    def pmf_err(self, n: int) -> float:
        """Certified bound on |pmf(n) - exact pmf(n)|; 0 for exact laws."""
        return 0.0 if self.exact else self.float_rel_err(n) * self.pmf_float(n)

    def tail_err(self, n: int) -> float:
        """Certified bound on |tail(n) - exact P(X >= n)|; 0 for exact laws."""
        return 0.0 if self.exact else self.float_rel_err(n) * self.tail_float(n)

    def pmf_float(self, n: int) -> float:
        return float(self.pmf(n))

    def tail_float(self, n: int) -> float:
        return float(self.tail(n))

    def float_rel_err(self, n: int) -> float:
        """Bound on the relative error of ``pmf_float(n)`` and of
        ``tail_float(n)``; here each rounds one exact rational."""
        return UNIT_ROUNDOFF

    def _pmf_floats(self, lo: int, hi: int):
        """``pmf_float(k)`` for lo <= k < hi as a float64 array."""
        return np.fromiter(map(self.pmf_float, range(lo, hi)), float, hi - lo)

    def _float_rel_errs(self, lo: int, hi: int):
        """``float_rel_err(k)`` for lo <= k < hi as a float64 array."""
        return np.fromiter(map(self.float_rel_err, range(lo, hi)), float, hi - lo)

    def tail_bound(self, n: int) -> float:
        """Certified float upper bound on P(X0 >= n).

        With eta = float_rel_err(n) <= 0.01 the exact tail is at most
        tail_float(n) (1 + 1.02 eta); the factor 1 + 2 eta + 4u leaves
        room for rounding the product, and TERM_FLOOR covers underflow.
        """
        eta = self.float_rel_err(n)
        if eta == math.inf:
            return math.inf
        return self.tail_float(n) * (1.0 + 2.0 * eta + 4 * UNIT_ROUNDOFF) + TERM_FLOOR

    def atoms(self):
        """((level, mass > 0), ...) ascending for a finite law, else None."""
        return None

    def support_max(self):
        """Largest support point, or None for infinite support."""
        atoms = self.atoms()
        return atoms[-1][0] if atoms else None

    def ratio_geometric_form(self, q: Rat):
        """(c, r) such that pmf(k)/[k+1]_q = c * r^k for all k, else None."""
        return None

    # -- exact tail machinery ------------------------------------------------

    def tail_pair(self, n: int):
        """P(X >= n) as an int pair (numerator, denominator > 0): here the
        parts of ``tail``; a law that overrides it may leave the pair
        unreduced."""
        value = self.tail(n)
        return value.numerator, value.denominator

    def ratio_tail_exact(self, n: int, q: Rat) -> Rat:
        """Sum of pmf(j)/[j+1]_q over j >= n, in closed form.

        The parts are built once per q and kept on the law: each atom's
        p_j/[j+1]_q (one q-bracket per atom) with their suffix sums, or
        c/(1 - r) of the ``ratio_geometric_form`` (c, r).  A value is then
        the suffix sum from the first atom j >= n, or c/(1 - r) r^n.
        """
        return self._ratio_tails(q).fraction(n)

    def ratio_tail_pair(self, n: int, q: Rat):
        """``ratio_tail_exact(n, q)`` as an int pair (numerator, denominator
        > 0), not always in lowest terms: the suffix sum's parts, or
        (C_num r_num^n, C_den r_den^n) for C = c/(1 - r)."""
        return self._ratio_tails(q).pair(n)

    def _ratio_tails(self, q: Rat):
        sums = self.__dict__.setdefault("_ratio_tails_by_q", {})
        key = q.numerator, q.denominator  # a tuple hashes faster than a Fraction
        if key not in sums:
            atoms = self.atoms()
            if atoms is not None:
                sums[key] = _AtomSums([j for j, _ in atoms],
                                      [p / q_bracket(j + 1, q) for j, p in atoms])
            elif (form := self.ratio_geometric_form(q)) is not None:
                c, r = form
                sums[key] = _GeometricSums(c / (1 - r), r)
            else:
                raise UnsupportedExactModeError(
                    f"{self.cli_string()!r} has no exact tail sum at q={q}; use approx mode"
                )
        return sums[key]

    def _tail_sum_table(self, q: Rat, trunc_n: int = None) -> TailSumTable:
        """The :class:`TailSumTable` at q to ``trunc_n`` (by default the
        truncation point), one per (q, cutoff), kept as ``_ratio_tails``."""
        top = trunc_n if trunc_n is not None else self.truncation_point()
        tables = self.__dict__.setdefault("_tail_sum_tables", {})
        key = q.numerator, q.denominator, top
        if key not in tables:
            tables[key] = TailSumTable(self, q, top)
        return tables[key]

    def exact_capable(self, q: Rat) -> bool:
        return self.atoms() is not None or self.ratio_geometric_form(q) is not None

    # -- misc ------------------------------------------------------------------

    def truncation_point(self, tol: float = APPROX_TAIL_TOL) -> int:
        """Smallest n with P(X > n) < tol (the top of the support when
        finite; TRUNCATION_CAP if the tail is still heavier there).

        The tail is non-increasing, so doubling then bisection finds n with
        O(log n) calls of ``tail_float``, which is closed form for the
        geometric-type laws.
        """
        top = self.support_max()
        if top is not None:
            return top

        def below(n):
            return self.tail_float(n + 1) < tol

        cap = TRUNCATION_CAP
        lo, hi = -1, 0  # below(lo) is False (lo = -1 stands for "none yet")
        while not below(hi):
            if hi >= cap:
                return cap
            lo, hi = hi, min(2 * hi + 1, cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if below(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def sample(self, rng, size):
        raise NotImplementedError

    def cli_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.cli_string()!r})"


class _AtomSums:
    """Suffix sums of per-atom Fractions: the value at n is the sum over the
    atoms at levels >= n, kept in lowest terms."""

    def __init__(self, levels, values):
        self.levels = levels
        self.suffix = list(itertools.accumulate(reversed(values), initial=Fraction(0)))[::-1]

    def fraction(self, n):
        return self.suffix[bisect.bisect_left(self.levels, n)]

    def pair(self, n):
        value = self.fraction(n)
        return value.numerator, value.denominator


class _GeometricSums:
    """C r^n for rationals C and r >= 0: the pair (C_num r_num^n, C_den r_den^n)."""

    def __init__(self, scale, r):
        self.cn, self.cd, self.rn, self.rd = (scale.numerator, scale.denominator,
                                              r.numerator, r.denominator)

    def fraction(self, n):
        return Fraction(*self.pair(n))

    def pair(self, n):
        return self.cn * self.rn**n, self.cd * self.rd**n


@dataclass(frozen=True, repr=False)
class PointMass(InitialLaw):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("point mass must sit in Z>=0")

    def pmf(self, n):
        return Fraction(1) if n == self.n else Fraction(0)

    def tail(self, n):
        return Fraction(1) if self.n >= n else Fraction(0)

    def atoms(self):
        return ((self.n, Fraction(1)),)

    def sample(self, rng, size):
        return np.full(size, self.n, dtype=np.int64)

    def cli_string(self):
        return f"point:{self.n}"


@dataclass(frozen=True, repr=False)
class FiniteSupport(InitialLaw):
    masses: tuple  # ((level, Fraction), ...)

    def __post_init__(self):
        pairs = tuple(sorted((int(n), rat(p)) for n, p in dict(self.masses).items()))
        if any(n < 0 or p < 0 for n, p in pairs):
            raise ValueError("levels must be >= 0 with nonnegative mass")
        if sum(p for _, p in pairs) != 1:
            raise ValueError("masses must sum to 1 exactly")
        object.__setattr__(self, "masses", pairs)
        object.__setattr__(self, "_pmf", dict(pairs))
        object.__setattr__(self, "_atoms", tuple((n, p) for n, p in pairs if p))

    def pmf(self, n):
        return self._pmf.get(n, Fraction(0))

    def tail(self, n):
        return sum((p for lvl, p in self.masses if lvl >= n), Fraction(0))

    def atoms(self):
        return self._atoms

    def sample(self, rng, size):
        levels = np.array([n for n, _ in self.masses])
        cum = np.cumsum([float(p) for _, p in self.masses])
        return levels[np.searchsorted(cum, rng.random(size), side="right").clip(0, len(levels) - 1)]

    def cli_string(self):
        return "finite:" + ",".join(f"{n}={rat_str(p)}" for n, p in self.masses)


@dataclass(frozen=True, repr=False)
class Geometric(InitialLaw):
    """P(X = n) = (1-p) p^n.  Exact pmf and tail, but no closed-form tail
    ratio; at p = 0 the point mass at 0, with its one atom."""

    p: Rat

    def __post_init__(self):
        object.__setattr__(self, "p", rat(self.p))
        if not 0 <= self.p < 1:
            raise ValueError("geometric parameter must be in [0, 1)")
        # float twins of p and 1 - p, each one correctly rounded conversion
        object.__setattr__(self, "_pf", float(self.p))
        object.__setattr__(self, "_cf", float(1 - self.p))

    def pmf(self, n):
        return (1 - self.p) * self.p**n if n >= 0 else Fraction(0)

    def tail(self, n):
        return self.p ** max(n, 0)

    def atoms(self):
        return ((0, Fraction(1)),) if self.p == 0 else None

    def pmf_float(self, n):
        return self._cf * self._pf**n

    def tail_float(self, n):
        return self._pf**n

    def float_rel_err(self, n):
        # float(p) raised to n (n u), pow within one ulp (2u), float(1 - p)
        # and the product; n may be an int array
        return rel_err((n + 4) * UNIT_ROUNDOFF)

    def _pmf_floats(self, lo, hi):
        # the libm pow of pmf_float per level, then its product as an array
        return self._cf * np.fromiter(map(self._pf.__pow__, range(lo, hi)), float, hi - lo)

    def _float_rel_errs(self, lo, hi):
        return self.float_rel_err(np.arange(lo, hi))

    def sample(self, rng, size):
        return rng.geometric(float(1 - self.p), size) - 1

    def cli_string(self):
        return f"geo:{rat_str(self.p)}"


@dataclass(frozen=True, repr=False)
class QNegativeBinomial(InitialLaw):
    """P(X0 = m) = [m+1]_q theta^m (1-theta)(1-theta q).

    The convolution of two independent geometrics with parameters q*theta and
    theta.  Because the [m+1]_q factor cancels, the tail ratio collapses to a
    geometric series both at q itself and at 1/q.
    """

    q: Rat
    theta: Rat

    def __post_init__(self):
        object.__setattr__(self, "q", rat(self.q))
        object.__setattr__(self, "theta", rat(self.theta))
        if self.q <= 0:
            raise ValueError("q must be > 0")
        if not 0 <= self.theta < 1 or self.theta * self.q >= 1:
            raise ValueError("need 0 <= theta < 1 and theta*q < 1")
        # float twins.  For q <= 1: pmf = c theta^n [n+1]_q and
        # P(X0 >= n) = theta^n ((1 - theta q) [n]_q + q^n), sums of positive
        # terms.  For q > 1 both are rewritten with r = q theta and
        # [m]_q = q^(m-1) [m]_{1/q}, so no factor overflows.
        big = self.q > 1
        object.__setattr__(self, "_r", float(self.q * self.theta if big else self.theta))
        object.__setattr__(self, "_log_b", math.log(float(1 / self.q if big else self.q)))
        object.__setattr__(self, "_cf", float((1 - self.theta) * (1 - self.theta * self.q)))
        object.__setattr__(self, "_df", float(1 - self.theta * self.q))
        object.__setattr__(self, "_qf", float(self.q))
        # the int parts of the exact values, built once, for q = a/b and
        # theta = t/s: the pmf c [n+1]_q theta^n with c = (1 - theta)
        # (1 - theta q), and the tail c * geometric_bracket_tail(theta, n, 0, q)
        # = K1 theta^n - K2 (theta q)^n, K1 = (1 - theta q)/(1 - q) and
        # K2 = q (1 - theta)/(1 - q), over D s^n b^n with K1 = k1/D,
        # K2 = k2/D and D = s |b - a|; at q = 1 it is theta^n (1 + n (1 - theta))
        a, b = self.q.numerator, self.q.denominator
        t, s = self.theta.numerator, self.theta.denominator
        c = (1 - self.theta) * (1 - self.theta * self.q)
        sign = 1 if b >= a else -1
        object.__setattr__(self, "_pmf_ints", (a, b, t, s, c.numerator, c.denominator))
        object.__setattr__(self, "_tail_ints", (a, b, t, s, sign * (s * b - t * a),
                                                sign * a * (s - t), sign * s * (b - a)))

    def pmf(self, n):
        if n < 0:
            return Fraction(0)
        a, b, t, s, cn, cd = self._pmf_ints
        return Fraction(bracket_int(n + 1, a, b) * t**n * cn, b**n * s**n * cd)

    def tail(self, n):
        return Fraction(*self.tail_pair(n))

    def tail_pair(self, n):
        n = max(n, 0)
        a, b, t, s, k1, k2, d = self._tail_ints
        if a == b:
            return t**n * (s + n * (s - t)), s ** (n + 1)
        bn = b**n
        return t**n * (k1 * bn - k2 * a**n), d * s**n * bn

    def pmf_float(self, n):
        return self._cf * self._r**n * bracket_ratio_float(n + 1, 1, self._log_b)

    def tail_float(self, n):
        br = self._df * bracket_ratio_float(n, 1, self._log_b)
        if self.q > 1:
            return self._r**n * (br / self._qf + 1.0)
        return self._r**n * (br + self._qf**n)

    def float_rel_err(self, n):
        # r^n and q^n (n + 2 each), four conversions, four operations, and
        # the expm1 bracket; n may be an int array
        return rel_err((2 * n + 12) * UNIT_ROUNDOFF,
                       bracket_ratio_rel_err(n + 1, self._log_b))

    def _float_rel_errs(self, lo, hi):
        return self.float_rel_err(np.arange(lo, hi))

    def ratio_geometric_form(self, q):
        c = (1 - self.theta) * (1 - self.theta * self.q)
        if q == self.q:
            # pmf(k)/[k+1]_q = c * theta^k
            return (c, self.theta)
        if q * self.q == 1:
            # [k+1]_{1/q} = [k+1]_q / q^k turns the ratio into c (q theta)^k
            return (c, self.q * self.theta)
        return None

    def sample(self, rng, size):
        a = rng.geometric(float(1 - self.q * self.theta), size) - 1
        b = rng.geometric(float(1 - self.theta), size) - 1
        return a + b

    def cli_string(self):
        return f"qnb:q={rat_str(self.q)},theta={rat_str(self.theta)}"


class NegativeBinomial(QNegativeBinomial):
    """P(X0 = n) = (1-rho0)^2 (n+1) rho0^n: the q = 1 member of the
    q-negative-binomial family, theta = rho0, written ``nb:rho0=...``."""

    def __init__(self, rho0: Rat):
        rho0 = rat(rho0)
        if not 0 <= rho0 < 1:
            raise ValueError("rho0 must be in [0, 1)")
        super().__init__(Fraction(1), rho0)

    def cli_string(self):
        return f"nb:rho0={rat_str(self.theta)}"


@dataclass(frozen=True, repr=False)
class ShiftedPoisson(InitialLaw):
    """X0 = 1 + Poisson(lam): P(X0 = n) = e^-lam lam^(n-1)/(n-1)! for n >= 1."""

    lam: float
    exact = False

    def __post_init__(self):
        # the tail series runs past k = lam, and float mode truncates at
        # TRUNCATION_CAP at most; nan fails the comparison too
        if not 0 < self.lam <= POISSON_MEAN_CAP:
            raise ValueError(f"lam must be in (0, {POISSON_MEAN_CAP:.0e}], got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))

    def pmf(self, n):
        if n < 1:
            return 0.0
        return math.exp(-self.lam + (n - 1) * math.log(self.lam) - math.lgamma(n))

    def tail(self, n):
        # P(Poisson >= m), m = n-1: for m <= lam as 1 - P(Poisson < m) summed
        # down from k = m-1, else summed up from k = m.  Either series starts
        # next to the mode, in log space, so its large terms cannot underflow.
        if n <= 1:
            return 1.0
        lam, m = self.lam, n - 1
        down = m <= lam
        k = m - 1 if down else m
        total, term = 0.0, math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        while term >= 1e-18 * (total + 1e-300):
            total += term
            term *= k / lam if down else lam / (k + 1)
            k += -1 if down else 1
        if down:
            # terms fall by k/lam <= 1 - 1/lam per step: the rest is < 1e-18 lam total
            return 1.0 - total
        return total + term / (1 - lam / (k + 1))  # the rest is below this

    def float_rel_err(self, n):
        # pmf: exp of -lam + (n-1) log lam - lgamma(n); with log and lgamma
        # within two ulps and three roundings, the exponent is off by at most
        # 6u times the sum of its parts' magnitudes, and exp adds 2u.  Either
        # tail series starts at a term with no larger parts, adds at most 3u
        # per step and stops within 2 lam + 64 steps (up: past k = 2 lam the
        # terms halve; down: at most m <= lam steps).  Down, the tail is at
        # least 1/2 (the Poisson median is >= lam - ln 2, Choi 1994), so the
        # lower sum errs by at most its relative error times the tail, and
        # 1 - sum adds u.
        lam = self.lam
        parts = lam + max(n - 1, 0) * abs(math.log(lam)) + math.lgamma(max(n, 1))
        return rel_err(UNIT_ROUNDOFF * (6 * parts + 3 + 3 * (2 * lam + 64)))

    def sample(self, rng, size):
        return 1 + rng.poisson(self.lam, size)

    def cli_string(self):
        # the short :g form where it is exact, else repr: either way
        # parse_initial_law gives this law back
        short = f"{self.lam:g}"
        return f"spoisson:{short if float(short) == self.lam else repr(self.lam)}"


def parse_initial_law(text: str) -> InitialLaw:
    """Parse a law string: point:2, finite:0=1/3,2=2/3, geo:1/3,
    qnb:q=1/4,theta=1/2, nb:rho0=1/2, spoisson:1.  One grammar for every
    law the CLI reads (--initial, --candidate, --glaw); ``cli_string`` is
    its inverse."""
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "point":
            return PointMass(int(arg))
        if kind == "finite":
            pairs = {}
            for item in arg.split(","):
                lvl, _, mass = item.partition("=")
                pairs[int(lvl)] = rat(mass)
            return FiniteSupport(tuple(pairs.items()))
        if kind == "geo":
            return Geometric(rat(arg))
        if kind == "qnb":
            kv = dict(item.split("=", 1) for item in arg.split(","))
            return QNegativeBinomial(rat(kv["q"]), rat(kv["theta"]))
        if kind == "nb":
            kv = dict(item.split("=", 1) for item in arg.split(","))
            return NegativeBinomial(rat(kv["rho0"]))
        if kind == "spoisson":
            return ShiftedPoisson(float(arg))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed law string {text!r}: {exc}") from exc
    raise ValueError(f"unknown law kind {kind!r}")


# ---------------------------------------------------------------------------
# distribution tables over the path space
# ---------------------------------------------------------------------------


def class_sum(values, sizes: Mapping) -> float:
    """The float sum of ``values[i]`` times the size of the i-th class of
    ``sizes`` (a float64 array in its key order), added left to right as
    ``left_sum`` adds: ``np.add.accumulate`` adds in sequence, where
    ``np.sum`` adds pairwise and so rounds otherwise."""
    weighted = values * np.fromiter(sizes.values(), float, len(sizes))
    return float(np.add.accumulate(weighted)[-1])


class DistTable:
    """Probability table over the paths of one horizon, one value per class
    (K0, x_t, H) in the key order of ``sizes``, the horizon's
    ``paths.class_sizes``; each of the ``sizes[key]`` paths of a class has
    the class's value.  Two forms:

    * exact: ``nums``, a list of int numerators over one ``den``, divided
      by gcd(den, *nums) in place, a form equal for equal tables.  Given no
      ``den`` (:meth:`of_classes`), the values are Fractions, put over the
      lcm of their denominators in place.  ``values`` builds Fractions when
      read, and ``floats`` each n / den, correctly rounded.
    * approx: ``floats``, a float64 array, and ``err``, a bound on the
      summed distance over every path to the exact law (truncated mass plus
      rounding), and so on each entry's.  ``values`` builds the dict when read.

    ``entries`` is the per-path view, built when read.  The one table keyed
    by path (``sizes`` None) is the rejection oracle's tally, read through
    ``entries`` and ``[path]`` only.
    """

    def __init__(self, horizon: int, mode: str, values, err: float = 0.0,
                 sizes: Mapping = None, den: int = None):
        self.horizon, self.mode, self.err, self.sizes = horizon, mode, err, sizes
        if sizes is None:  # the instance dict shadows the ``entries`` property
            self.entries = values
            return
        if mode != "exact":
            self.floats = np.asarray(values, float)
            return
        if den is None:
            den = math.lcm(*(v.denominator for v in values))
            for i, v in enumerate(values):
                values[i] = v.numerator * (den // v.denominator)
        elif (g := math.gcd(den, *values)) > 1:
            den //= g
            for i, n in enumerate(values):
                values[i] = n // g
        self.den, self.nums = den, values

    @classmethod
    def of_classes(cls, t: int, allow_flat: bool, mode: str, value) -> "DistTable":
        """The class table of ``value(key)``, one Fraction or float per class
        key (K0, x_t, H), for a route that reads a path (``class_path``)."""
        sizes = class_sizes(t, allow_flat)
        return cls(t, mode, list(map(value, sizes)), sizes=sizes)

    @functools.cached_property
    def values(self) -> dict:
        if self.mode != "exact":
            return dict(zip(self.sizes, self.floats.tolist()))
        return {key: Fraction(n, self.den) for key, n in zip(self.sizes, self.nums)}

    @functools.cached_property
    def floats(self) -> np.ndarray:
        """An exact table's values n / den (an approx table holds its own)."""
        return np.array([n / self.den for n in self.nums])

    @functools.cached_property
    def entries(self) -> dict:
        """Every path of the horizon with the value of its class, in the
        order of ``enumerate_paths``."""
        steps, prefixes, leaves = self._lex_walk(self.values)
        paths = itertools.product(steps, repeat=self.horizon)
        values = (v for key, _ in prefixes for _, v in leaves[key])
        return {Path._trusted(incs): v for incs, v in zip(paths, values)}

    def _lex_walk(self, value_of: dict):
        """(step set, prefixes, leaves): in ``enumerate_paths`` order, every
        path is a prefix (class key, values as text, "0,1") of t - 1 steps,
        then one (",x_t", value_of[class]) of leaves[the prefix's key].  A
        prefix's key is (running min, end, flat count), so its children are
        built once per key and no path is built."""
        allow_flat = any(h for _, _, h in self.sizes)
        _refuse_beyond_cap(self.horizon, allow_flat)
        steps = (-1, 0, 1) if allow_flat else (-1, 1)

        @functools.cache
        def children(key):  # [(each child's class key, suffix)] in step order
            k, e, h = key
            return [((min(k, e + d), e + d, h + (d == 0)), f",{e + d}") for d in steps]

        prefixes = [((0, 0, 0), "0")]
        for _ in range(self.horizon - 1):
            prefixes = [(kid, s + suffix) for key, s in prefixes for kid, suffix in children(key)]
        last = children if self.horizon else lambda key: [(key, "")]  # t = 0: no step
        leaves = {key: [(suffix, value_of[kid]) for kid, suffix in last(key)]
                  for key in dict.fromkeys(key for key, _ in prefixes)}
        return steps, prefixes, leaves

    def mass(self):
        if self.mode == "exact":
            return Fraction(sum(map(operator.mul, self.nums, self.sizes.values())), self.den)
        return class_sum(self.floats, self.sizes)

    def __getitem__(self, path: Path):
        return self.entries.get(path, Fraction(0) if self.mode == "exact" else 0.0)

    def max_abs_diff(self, other: "DistTable"):
        """Largest class-by-class discrepancy and the representative
        (``class_path``) of the first class, in key order, that reaches it.
        Two exact tables compare canonical forms, then cross-multiplied
        numerators, and form Fractions only where a class differs.  Any
        other pair subtracts float arrays, an exact table's ``floats`` being
        the bits Fraction - float rounds to, and a NaN difference (of two
        infinities) counts as none, as it is not above the worst.  Tables
        over different class sets raise ValueError."""
        if self.sizes is not other.sizes and self.sizes.keys() != other.sizes.keys():
            raise ValueError(f"different classes: horizons {self.horizon}, {other.horizon}")
        if self.mode == "exact" == other.mode:
            if (self.den, self.nums) == (other.den, other.nums):
                return Fraction(0), None
            worst, witness = Fraction(0), None
            for key, a, b in zip(self.sizes, self.nums, other.nums):
                if a * other.den != b * self.den:  # no Fraction where the entries agree
                    d = abs(Fraction(a, self.den) - Fraction(b, other.den))
                    if d > worst:
                        worst, witness = d, key
            return worst, witness and class_path(self.horizon, witness)
        with np.errstate(invalid="ignore"):  # fmax reads a NaN as 0
            d = np.fmax(np.abs(self.floats - other.floats), 0.0)
        i = int(np.argmax(d))  # the first class at the maximum
        if not d[i]:
            return 0.0, None
        return float(d[i]), class_path(self.horizon, next(itertools.islice(self.sizes, i, None)))

    def to_json(self):
        """Every entry keyed by its path's values as text, in entry order;
        each class value is formatted once and shared by its paths."""
        formatted = {key: prob_json(v) for key, v in self.values.items()}
        _, prefixes, leaves = self._lex_walk(formatted)
        entries = {s + suffix: v for key, s in prefixes for suffix, v in leaves[key]}
        return {"horizon": self.horizon, "mode": self.mode, "err": self.err, "entries": entries}


def walk_law(t: int, params: Params) -> DistTable:
    """Exact table of the plain walk's paths over horizon t."""
    return DistTable.of_classes(t, params.sigma > 0, "exact",
                                lambda key: walk_path_prob(class_path(t, key), params))


def chain_increment_law(t: int, law: InitialLaw, params: Params, route: str = "formula",
                        mode: str = None, sweep=None) -> DistTable:
    """Exact finite-dimensional law of the chain increments (X_j - X_0).

    formula route: per path x, sigma^H / (z^t rho^(x_t)) times the closed-form
    sum over initial levels k >= -K of pmf(k) [x_t+k+1]_q / [k+1]_q; levels
    outside the support contribute exact zeros.

    product route: mixes the kernel products P_k(x) over the levels k <= top
    directly; exact for finite-support laws, truncated at top =
    ``law.truncation_point()`` otherwise, with the float weights w_k =
    ``pmf_float(k)``.  In approx mode ``err`` bounds the summed distance of
    the entries to the exact law: ``tail_bound(top + 1)`` for the levels
    past top, the sum of float_rel_err(k) w_k for the float weights (the
    P_k(x) sum to at most 1 over the paths), and per path its entry s's
    rounding, (m + 3) u s + m TERM_FLOOR: m = 1 for one rounded Fraction
    sum over a finite support, else a float sum of m <= len(atoms) terms
    fl(w_k fl(P_k)), each within rel_err(2u) of w_k P_k, whose running sums
    stay below s.  The factor 1.1 covers the float sums that make ``err``.

    The product route reads each class's representative once
    (:meth:`DistTable.of_classes`), builds each kernel entry once per
    (level, step) and multiplies their ints.  The formula route is
    ``_chain_law_formula_exact``, or ``_chain_law_formula_float``, which
    reads its level sums from ``sweep``, a :func:`_chain_level_sweep` for a
    horizon >= t that a verifier builds once for all its horizons, or by
    default builds its own.
    """
    q = params.q
    if mode is None:
        mode = "exact" if (law.exact and law.exact_capable(q)) else "approx"

    if route == "formula":
        return (_chain_law_formula_exact(t, law, params) if mode == "exact"
                else _chain_law_formula_float(t, law, params, sweep))
    if route != "product":
        raise ValueError(f"unknown route {route!r}")

    atoms = law.atoms()
    if mode == "exact" and atoms is None:
        raise UnsupportedExactModeError(
            "product route is exact only for finite-support laws; use mode='approx'"
        )
    summed_exactly, err = atoms is not None, 0.0
    if atoms is None:  # truncated, in float weights
        top = law.truncation_point()
        err = law.tail_bound(top + 1)
        atoms = [(k, w) for k in range(top + 1) if (w := law.pmf_float(k))]

    @functools.cache
    def kernel(k, d):  # each (level, step) entry once: its int numerator and denominator
        entry = chain_transition(k, d, params)
        return entry.numerator, entry.denominator

    def product(key):
        # the kernel product is exact, so every path of a class gets one value: per
        # atom, each (level, step) entry's ints to the power of its count on the path
        x = class_path(t, key)
        moves = collections.Counter(zip(x.values, x.steps)).items()
        num, den, total = 0, 1, 0.0
        for k, w in atoms:
            if k + key[0] >= 0:  # K0 = min(x): the atom's path stays at levels >= 0
                pn = pd = 1
                for (a, d), c in moves:
                    kn, kd = kernel(k + a, d)
                    pn, pd = pn * kn**c, pd * kd**c
                if summed_exactly:  # in lowest terms, over the lcm of the atoms so far
                    pn, pd = w.numerator * pn, w.denominator * pd
                    g = math.gcd(pn, pd)
                    pn, pd = pn // g, pd // g
                    g = math.gcd(den, pd)
                    num, den = num * (pd // g) + pn * (den // g), den * (pd // g)
                else:  # fl(w fl(pn / pd)), summed left to right
                    total += w * (pn / pd)
        return total if not summed_exactly else Fraction(num, den) if mode == "exact" else num / den

    table = DistTable.of_classes(t, params.sigma > 0, mode, product)
    if mode == "exact":
        return table
    m = 1 if summed_exactly else len(atoms)
    rounding = class_sum((m + 3) * UNIT_ROUNDOFF * table.floats + m * TERM_FLOOR, table.sizes)
    weights = 0.0 if summed_exactly else left_sum(law.float_rel_err(k) * w for k, w in atoms)
    table.err = err + 1.1 * (weights + rounding)
    return table


def _chain_law_formula_exact(t, law, params):
    """Exact formula route on horizon t: entry(x) = pref(H, x_t) S(-K0, x_t)
    with pref = sigma^H / (z^t rho^(x_t)) and S(a, e) the sum of pmf(k)
    [k+e+1]_q / [k+1]_q over k >= a.

    Both factors are ints over one denominator per table, from the integer
    parts of rho, sigma and z (q = rho^2 = qn/qd in lowest terms) and from
    the law's atoms or its ``ratio_geometric_form``.  pref is sn^H sd^(t-H)
    rd^(t+e) rn^(t-e) zd^t over (sd rn rd zn)^t.  With B(m) = [m]_q qd^(m-1),
    the int (qn^m - qd^m)/(qn - qd) (m at q = 1):

    * atoms: S(a, e) = qd^(t-e) (sum over k >= a of W_k B(k+e+1)) / (L qd^t),
      where L is the lcm of the denominators of p_k / B(k+1) and
      W_k = L p_k / B(k+1);
    * pmf(k)/[k+1]_q = c r^k, r = gn/gd: S(a, e) = c r^a (1/(1-r) -
      q^(a+e+1)/(1-rq)) / (1-q), and c r^a ((a+e+1)(1-r) + r)/(1-r)^2 at
      q = 1; either is c.numerator gn^a gd^(t+1-a) inner(a+e) over a
      per-table denominator.

    Each factor is an int per pair of ``paths.factor_pairs``, and
    ``paths.combine_factors`` multiplies them.
    """
    (rn, rd), (sn, sd), (zn, zd) = (
        v.as_integer_ratio() for v in (params.rho, params.sigma, params.z))
    qn, qd = rn * rn, rd * rd
    sizes = class_sizes(t, params.sigma > 0)
    pairs = factor_pairs(sizes)
    pref = np.array([sn**h * sd ** (t - h) * rd ** (t + e) * rn ** (t - e) * zd**t
                     for h, e in zip(*pairs.prefs.tolist())], dtype=object)
    levels = list(zip(*pairs.levels.tolist()))

    @functools.cache
    def bracket(m):  # [m]_q qd^(m-1)
        return m if qn == qd else (qn**m - qd**m) // (qn - qd)

    atoms = law.atoms()
    if atoms is not None:
        dens = [p.denominator * bracket(k + 1) for k, p in atoms]
        lcm = math.lcm(*dens)
        weights = [(k, p.numerator * (lcm // d)) for (k, p), d in zip(atoms, dens)]
        level_den = lcm * qd**t
        level = [qd ** (t - e) * sum(w * bracket(k + e + 1) for k, w in weights if k >= a)
                 for a, e in levels]
    else:
        form = law.ratio_geometric_form(params.q)
        if form is None:
            raise UnsupportedExactModeError(
                f"{law.cli_string()!r} has no exact bracket sum at q={params.q}; use approx mode")
        c, r = form
        gn, gd = r.numerator, r.denominator
        if qn == qd:
            level_den = c.denominator * gd**t * (gd - gn) ** 2
            inner = [(a + e + 1) * (gd - gn) + gn for a, e in levels]  # ((m+1)(1-r) + r) gd
        else:
            top = qd**t * (gd * qd - gn * qn)
            level_den = c.denominator * (qd - qn) * gd**t * top * (gd - gn)
            # (1/(1-r) - q^(m+1)/(1-rq)) qd^(t+1) (gd-gn)(gd qd-gn qn) / gd, m = a + e
            inner = [qd * (top - qn ** (a + e + 1) * qd ** (t - a - e) * (gd - gn))
                     for a, e in levels]
        level = [c.numerator * gn**a * gd ** (t + 1 - a) * i for (a, _), i in zip(levels, inner)]
    return DistTable(t, "exact", combine_factors(sizes, pref, np.array(level, dtype=object)),
                     sizes=sizes, den=(sd * rn * rd * zn) ** t * level_den)


def _chain_level_sweep(t_max, law, params, horizons=None):
    """The level sums of the float formula route for every horizon up to
    t_max: (top, sums, errs), with ``sums[x_t + t_max, a]`` the sum s(a, x_t)
    of pmf(k) [x_t+k+1]_q / [k+1]_q over a <= k <= top and ``errs`` its
    rounding bound, for |x_t| <= t_max and max(0, -x_t) <= a <= t_max (0.0
    where a > top); top is the law's truncation point.  Neither depends on
    the horizon, so one sweep serves every table of a verifier call.  At
    sigma = 0, x_t has the parity of t: for ``horizons`` of one parity only
    its rows are summed, and the others hold NaN.

    s is within 1.1 (E + u R) of the sum of its exact terms, as in
    ``exact.TailSumTable``, with term errors rel_err(law.float_rel_err(k),
    ratio error, u).  The pmf floats are read once, and one pass from top
    down (small terms first) yields s for every a and x_t.

    Array form, bit for bit the floats of ``bracket_ratio_float`` and of a
    level-by-level pass.  The levels run in blocks from the top down, each
    block one 2-D array with a row per end value, so that a block holds at
    most ``_BLOCK_LEVELS`` cells.  A row takes its terms, term errors and
    running sums top down, accumulated with ``np.add.accumulate`` along the
    row (in sequence, row by row) from the sums carried down from the block
    above; E interleaves eta * term, or 0.0 for a zero term, with
    TERM_FLOOR, the scalar order.  A row's levels below -x_t, which no path
    reads, come after its read levels and take the term 0 ([m]_q at m = 0).
    The ratio [a]_q/[b]_q with a = x_t+k+1, b = k+1 reads expm1(-m |log q|),
    mapped once per block through libm's expm1 for every m the block needs
    and shared by all rows, times the scalar exp(x_t log q) when q > 1; at
    log q = 0 it is a/b, plain arithmetic.  Like the pmf floats, the
    transcendentals stay libm scalars: numpy's expm1 and exp differ from
    libm in the last bit for some arguments (see ``exact.TailSumTable``).
    """
    u = UNIT_ROUNDOFF
    top = law.truncation_point()
    q_is_one = params.q == 1
    log_q = math.log(float(params.q))
    ends = np.arange(-t_max, t_max + 1)[:, None]
    sums, errs = np.zeros((2, len(ends), t_max + 1))
    carried = np.zeros((3, len(ends)))  # s, e, r per row, from the blocks above
    if log_q > 0:
        scale = np.array([[math.exp(xt * log_q)] for xt in range(-t_max, t_max + 1)])
    stride, first = 1, 0  # the rows read: x_t + t_max = first, first + stride, ...
    if params.sigma == 0 and horizons and len(parity := {t % 2 for t in horizons}) == 1:
        stride, first = 2, (t_max + parity.pop()) % 2
        sums[1 - first::2] = errs[1 - first::2] = np.nan
    levels = max(1, _BLOCK_LEVELS // len(ends[first::stride]))
    for hi in range(top + 1, 0, -levels):
        b = max(0, hi - levels)
        lo = max(0, t_max + 1 - hi)  # the rows with a level here, x_t > -hi
        rows = slice(lo + (lo - first) % stride, None, stride)
        xt = ends[rows]
        k = np.arange(hi - 1, b - 1, -1)
        m = np.maximum(k + (xt + 1), 0)
        if log_q == 0.0:
            ratio = m / (k + 1)
        else:
            # expm1(m * -|log q|) for m0 <= m <= hi + t_max: every bracket read here
            m0 = max(b + 1 - t_max, 0)
            args = (np.arange(m0, hi + t_max + 1) * -abs(log_q)).tolist()
            em1 = np.fromiter(map(math.expm1, args), float, len(args))
            ratio = em1[m - m0] / em1[k + (1 - m0)]
            if log_q > 0:
                ratio = scale[rows] * ratio
        term = law._pmf_floats(b, hi)[::-1] * ratio
        ratio_err = u if q_is_one else bracket_ratio_rel_err(k + (1 + np.maximum(xt, 0)), log_q)
        eta = rel_err(law._float_rel_errs(b, hi)[::-1], ratio_err, u)
        s, e, r = carried[:, rows]
        steps = np.zeros((len(xt), 2 * len(k) + 1))
        steps[:, 0] = e
        np.multiply(eta, term, out=steps[:, 1::2], where=term != 0)
        steps[:, 2::2] = TERM_FLOOR
        e_run = np.add.accumulate(steps, axis=1, out=steps)[:, 2::2]
        # the carried sum, then the terms: S, then R over the same buffer
        run = np.concatenate((s[:, None], term), axis=1)
        s_run = np.add.accumulate(run, axis=1, out=run)[:, 1:]
        # the levels b <= a <= t_max, ascending: each row's last entries reversed
        width = max(0, min(hi, t_max + 1) - b)
        kept = np.s_[:, -1:-width - 1:-1]
        sums[rows, b:b + width] = s_run[kept]
        last_s, run[:, 0] = s_run[:, -1].copy(), r
        r_run = np.add.accumulate(run, axis=1, out=run)[:, 1:]
        errs[rows, b:b + width] = 1.1 * (e_run[kept] + u * r_run[kept])
        carried[:, rows] = last_s, e_run[:, -1], r_run[:, -1]
    return top, sums, errs


def _chain_law_formula_float(t, law, params, sweep=None):
    """Float formula route: entry(x) = pref(x) * s(-K0, x_t) with
    pref = sigma^H / (z^t rho^(x_t)) and s(a, x_t) the level sum of
    ``sweep``, a :func:`_chain_level_sweep` for a horizon >= t (by default
    built for t).

    ``err`` bounds the summed distance of all entries to the exact law.  The
    levels k > top carry total mass P(X0 > top) over all paths (the chain from
    any level has mass 1).  Each entry adds its rounding, once per path of its
    class: s is within its sweep bound of the sum of its exact terms, and
    pref is within rel_err((H + t + |x_t| + 9) u) (float sigma, z, rho, their
    powers within one ulp, the product and the quotient with s).

    The powers of sigma and rho are libm scalars, one per H and one per x_t;
    pref and its bound are arrays over the (H, x_t) of ``paths.factor_pairs``,
    s and s_err over its (-K0, x_t), and ``paths.combine_factors`` forms the
    values pref s and the bounds pref s_err + bound s, two products, whose
    sum times the class sizes adds left to right (:func:`class_sum`).
    """
    top, sums, errs = sweep or _chain_level_sweep(t, law, params, [t])
    t_sweep, u = sums.shape[1] - 1, UNIT_ROUNDOFF
    sig, zf, rhof = float(params.sigma), float(params.z), float(params.rho)
    sizes = class_sizes(t, params.sigma > 0)
    pairs = factor_pairs(sizes)
    h, e = pairs.prefs
    sig_h = np.array([sig**hh for hh in range(t + 1)])
    rho_e = np.array([rhof**ee for ee in range(-t, t + 1)])
    pref = sig_h[h] / (zf**t * rho_e[e + t])
    bound = rel_err((h + t + np.abs(e) + 9) * u) * pref
    a, e = pairs.levels
    s, s_err = sums[e + t_sweep, a], errs[e + t_sweep, a]
    err = law.tail_bound(top + 1) + 1.1 * class_sum(
        combine_factors(sizes, pref, s_err) + combine_factors(sizes, bound, s), sizes)
    return DistTable(t, "approx", combine_factors(sizes, pref, s), err=err, sizes=sizes)
