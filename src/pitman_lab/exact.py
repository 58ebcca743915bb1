"""Exact rational arithmetic: q-brackets, geometric sums, certified tail sums.

Every exact probability in this package is a ``fractions.Fraction`` (kept
normalized by the stdlib, arbitrary precision).  Approximate quantities are
floats paired with a certified error bound (truncation plus rounding), see
:class:`Approx` and :class:`TailSumTable`.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

Rat = Fraction
ProbValue = Union[Fraction, float]

#: truncation target for approximate tail sums: stop once the remaining
#: probability mass is certifiably below this
APPROX_TAIL_TOL = 1e-15


class Approx(NamedTuple):
    """Float value together with a certified bound on its distance to the
    exact value (truncation plus rounding)."""

    value: float
    err: float

    def to_json(self):
        return {"value": self.value, "err": self.err}


class UnsupportedExactModeError(ValueError):
    """Exact evaluation requested for a law with no closed-form cancellation."""


class RegimeError(ValueError):
    """Parameters violate the hypothesis of the identity being checked."""


def rat(x) -> Rat:
    """Coerce ints, strings like ``"2/3"``, or Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_rat(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted where exact rationals are required")
    return Fraction(x)


def parse_rat(s: str) -> Rat:
    """Parse "a/b", integer, or decimal strings; all three are exact."""
    return Fraction(s.strip())


def rat_str(x: Rat) -> str:
    """Serialize a rational as ``"num/den"`` (the wire format for exact values)."""
    return f"{x.numerator}/{x.denominator}"


def prob_json(p: ProbValue):
    """JSON form of a probability: ``"num/den"`` when exact, plain float otherwise."""
    if isinstance(p, Fraction):
        return rat_str(p)
    if isinstance(p, Approx):
        return p.to_json()
    return float(p)


def q_bracket(n: int, q: Rat) -> Rat:
    """The q-analog [n]_q = 1 + q + ... + q^(n-1).

    Returns 0 for n = 0 (empty sum) and n itself at q = 1; the q = 1 case is
    handled directly so no (q^n - 1)/(q - 1) division-by-zero branch exists.
    """
    if n < 0:
        raise ValueError(f"q_bracket requires n >= 0, got {n}")
    q = rat(q)
    if q <= 0:
        raise ValueError("q_bracket requires q > 0")
    if q == 1:
        return Fraction(n)
    return (q**n - 1) / (q - 1)


def bracket_int(m: int, a: int, b: int) -> int:
    """[m]_q b^(m-1) for q = a/b and m >= 0: the int (b^m - a^m)/(b - a),
    a sum of m positive terms (0 at m = 0), and m itself at q = 1.  Over
    b^(m-1) it is [m]_q, a pair in lowest terms for coprime a and b."""
    return m if a == b else (b**m - a**m) // (b - a)


def geometric_tail(r: Rat, a: int) -> Rat:
    """Sum of r^k for k >= a, requiring 0 <= r < 1."""
    r = rat(r)
    if not 0 <= r < 1:
        raise ValueError("geometric tail needs 0 <= r < 1")
    return r**a / (1 - r)


def geometric_bracket_tail(r: Rat, a: int, b: int, q: Rat) -> Rat:
    """Sum of r^k * [k+b+1]_q for k >= a, in closed form.

    Splitting [k+b+1]_q = (1 - q^(k+b+1))/(1 - q) leaves two geometric tails;
    convergence needs r < 1 and r*q < 1.  The q = 1 case sums r^k (k+b+1)
    directly.
    """
    r, q = rat(r), rat(q)
    if not 0 <= r < 1:
        raise ValueError("need 0 <= r < 1")
    if q == 1:
        return r**a * ((a + b + 1) * (1 - r) + r) / (1 - r) ** 2
    if r * q >= 1:
        raise ValueError("series diverges: r*q >= 1")
    return (geometric_tail(r, a) - q ** (b + 1) * geometric_tail(r * q, a)) / (1 - q)


# ---------------------------------------------------------------------------
# float mode: certified truncation plus rounding
# ---------------------------------------------------------------------------

#: unit roundoff u of IEEE double precision: fl(a op b) = (a op b)(1 + d), |d| <= u
UNIT_ROUNDOFF = 2.0**-53

#: absolute slack per float term: covers a term that underflows to a subnormal
#: or to zero, and a bracket that overflows to inf (the true term is then
#: below 2^-1024)
TERM_FLOOR = 2.0**-1021


def left_sum(values, start=0):
    """``start`` plus ``values`` added left to right, as ``sum`` adds floats up
    to Python 3.11 (from 3.12 it compensates them, so its bits differ)."""
    for value in values:
        start = start + value
    return start


def rel_err(*parts):
    """Relative error bound of a product or quotient of factors whose own
    relative errors are bounded by ``parts`` (one rounding counts u).

    (1+a)(1+b)/(1-c) - 1 <= 1.02 (a+b+c) while a+b+c <= 0.01; the factor 1.05
    covers that, and past 0.01 no bound is claimed (inf).  Parts may be float64
    arrays: the bound is then taken entry by entry, with the same roundings.
    The parts are added by ``left_sum``, so a bound has the same bits on
    every Python and in both forms.
    """
    total = left_sum(parts[1:], parts[0])
    if isinstance(total, np.ndarray):
        return np.where(total <= 0.01, 1.05 * total, math.inf)
    return 1.05 * total if total <= 0.01 else math.inf


def bracket_floats(q: Rat, count: int):
    """[1]_q, ..., [m]_q in floats by the recurrence [j+1]_q = 1 + q [j]_q, as
    a float64 array; m <= count, and every entry past m equals [m]_q.

    Each step adds two positive terms, so nothing cancels at any q > 0; the
    relative error of [n]_q is bounded by ``bracket_rel_err``.  The float map
    b -> fl(1 + fl(q b)) is non-decreasing and [2]_q >= [1]_q, so the run
    never falls: it rises until an entry maps to itself (near 1/(1 - q) for
    q < 1, inf after an overflow for q > 1) and stays there, and the loop
    stops at that entry.  At float(q) = 1 every step adds 1 exactly, so the
    entries are the integers 1..count.
    """
    qf = float(q)
    if qf == 1.0:
        return np.arange(1.0, count + 1)
    out, b = array("d"), 0.0
    for _ in range(count):
        step = 1.0 + qf * b
        if step == b:
            break
        out.append(step)
        b = step
    return np.frombuffer(out)


def bracket_ratio_float(a: int, b: int, log_q: float) -> float:
    """[a]_q / [b]_q in floats from L = log(float(q)), for a >= 0 and b >= 1.

    expm1(a L)/expm1(b L) has no cancellation near q = 1; for q > 1 the form
    q^(a-b) expm1(-a L)/expm1(-b L) keeps every factor finite.  At L = 0 it
    is a/b.  See ``bracket_ratio_rel_err``.
    """
    if log_q == 0.0:
        return a / b
    if log_q > 0:
        return math.exp((a - b) * log_q) * (math.expm1(-a * log_q) / math.expm1(-b * log_q))
    return math.expm1(a * log_q) / math.expm1(b * log_q)


def bracket_ratio_rel_err(span, log_q: float):
    """Relative error bound of ``bracket_ratio_float(a, b, log_q)`` as a value
    of [a]_q/[b]_q, for a, b <= span (an int, or an int array for one bound
    per entry).

    L is within 1.01u + 2u|L| of log q (float(q), then log within one ulp),
    and log([a]_q/[b]_q) moves by at most span per unit of log q; the
    products a L and b L move each expm1 by at most u (1 + span |L|)
    relatively; the two expm1 calls (one ulp each) and the division add 5u.
    For q > 1 the factor exp((a-b) L) adds at most the same again, as
    |a - b| <= span.
    """
    err = rel_err(UNIT_ROUNDOFF * (1.01 * span * (1 + 4 * abs(log_q)) + 7))
    return 2 * err if log_q > 0 else err


def bracket_rel_err(n, q: Rat):
    """Relative error bound of the float [n]_q of ``bracket_floats``, for
    n >= 1 (an int, or an int array for one bound per entry).

    [1]_q = 1 is exact, and every step adds at most 3u: one rounding each in
    float(q), the product and the sum (a sum of positive terms keeps the
    larger relative error of its parts).  At q = 1 the entries are exact
    integers.
    """
    if q == 1:
        return 0.0
    return rel_err(3 * (n - 1) * UNIT_ROUNDOFF)


#: levels per block of the float table kernels: a block's temporaries take
#: about a MiB however many levels a table sums
_BLOCK_LEVELS = 1 << 13


class TailSumTable:
    """Float suffix sums S(n) = sum of pmf(j)/[j+1]_q over n <= j <= top, for
    every n >= 0 at once, each with a certified error bound.

    ``top`` is ``trunc_n`` when given, else the law's truncation point (the
    leftover mass P(X0 > top) is below ``APPROX_TAIL_TOL``).  The sums are
    built once from top down to 0, smallest terms first, in O(top) float
    operations; ``at(n)`` then reads one entry.

    ``at(n).err`` bounds |value - sum over j >= n| by three parts:

    * truncation: the terms j > top sum to at most P(X0 > top), because
      [j+1]_q >= 1 for q > 0; the law supplies a certified float upper bound
      (``InitialLaw.tail_bound``).
    * terms: t_j = fl(pmf_float(j) / [j+1]_q) has relative error at most
      eta_j = rel_err(e_law(j), e_br(j+1), u), where e_law is the law's
      ``float_rel_err`` (the float parameter, its pow and the pmf formula)
      and e_br is ``bracket_rel_err``; TERM_FLOOR per term covers underflow.
      Summed: E(n) = sum over n <= j <= top of (eta_j t_j + TERM_FLOOR).
    * summation: writing each step as fl(a + b) = (a + b)/(1 + d), |d| <= u,
      gives |S_j - (S_{j+1} + t_j)| <= u S_j, so the float suffix sum is
      within u R(n), R(n) = sum over n <= k <= top of S_k, of the exact sum
      of the float terms (recursive summation, Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed. 2002, §4.2).  Adding the
      smallest terms first keeps R(n) near S(n)/(1-p) for a geometric decay
      with ratio p, instead of the a priori (m-1) S(n) for m terms.

    err(n) = truncation + 1.1 (E(n) + u R(n)).  The factor 1.1 covers the
    division t_j/(1 - eta_j) that turns a relative error of the true term into
    one of the float term, the float sums that form E and R (relative error
    below 1.01 m u, m <= 10^7 terms) and the rounding of err itself.

    Array form.  The levels run in blocks of ``_BLOCK_LEVELS`` from the top
    down, each block's arrays top down too.  t_j, eta_j and the err entries
    are elementwise float64 expressions, the same roundings as one level at
    a time.  S and R come from ``np.add.accumulate``, which adds strictly in
    sequence, as the recursive summation above does; each block's
    accumulation starts from the sum carried down from the block above.  The
    brackets are read from ``bracket_floats``, stored only up to the entry
    where the float recurrence stops moving.  E
    keeps the per-level order "add eta_j t_j (0.0 where t_j = 0, whose eta_j
    may be inf), then TERM_FLOOR" by accumulating the two interleaved.  So
    the table is bit for bit the one the scalar loop gives, and the
    derivation above holds as it stands.  Transcendentals stay libm scalars
    (the law's pow, exp, expm1, lgamma, mapped level by level): numpy's own
    differ from libm in the last bit for some arguments, which would move
    values off the scalar ones and void the "pow within one ulp" step of the
    laws' ``float_rel_err``.  With numpy 2.4.6 on an AVX-512 Xeon,
    np.power(float(99999/100000), n) differs from libm pow for 169552 of the
    n < 3.2M, and at x = m log(0.9999), 1 <= m <= 100000, np.expm1 differs
    from math.expm1 for 3725 of them and np.exp from math.exp for 4724.
    """

    def __init__(self, law, q: Rat, trunc_n: int = None):
        self.law, self.q = law, rat(q)
        self.top = trunc_n if trunc_n is not None else law.truncation_point()
        leftover = law.tail_bound(self.top + 1)
        self._brackets = bracket_floats(self.q, self.top + 1)
        u = UNIT_ROUNDOFF
        self._values, self._errs = np.empty(self.top + 1), np.empty(self.top + 1)
        s = e = r = 0.0  # carried down from the blocks above
        for hi in range(self.top + 1, 0, -_BLOCK_LEVELS):
            b = max(0, hi - _BLOCK_LEVELS)
            # levels hi - 1 down to b
            t = law._pmf_floats(b, hi)[::-1]
            t /= self._bracket_run(b + 1, hi + 1)[::-1]
            eta = rel_err(law._float_rel_errs(b, hi)[::-1],
                          bracket_rel_err(np.arange(hi, b, -1), self.q), u)
            steps = np.zeros(2 * len(t) + 1)
            steps[0] = e
            np.multiply(eta, t, out=steps[1::2], where=t != 0)
            del eta
            steps[2::2] = TERM_FLOOR
            e_run = np.add.accumulate(steps, out=steps)[2::2]
            # the carried sum, then the terms: S, then R over the same buffer
            run = np.concatenate(([s], t))
            del t
            np.add.accumulate(run, out=run)
            self._values[b:hi] = run[:0:-1]
            s, run[0] = run[-1], r
            r_run = np.add.accumulate(run, out=run)[1:]
            self._errs[b:hi] = (leftover + 1.1 * (e_run + u * r_run))[::-1]
            e, r = e_run[-1], r_run[-1]

    def at(self, n: int) -> Approx:
        """Approx value of the sum of pmf(j)/[j+1]_q over j >= n."""
        if n > self.top:
            return Approx(0.0, self.law.tail_bound(n))
        return Approx(float(self._values[n]), float(self._errs[n]))

    def bracket(self, n: int):
        """([n]_q as a float, its relative error bound) for 1 <= n <= top + 1,
        from the recurrence the terms used."""
        return float(self._bracket_run(n, n + 1)[0]), bracket_rel_err(n, self.q)

    def _bracket_run(self, lo: int, hi: int):
        """[n]_q for 1 <= lo <= n < hi as a float64 array: past the stored run
        of ``bracket_floats`` every entry is its last."""
        run = np.full(hi - lo, self._brackets[-1])
        stored = self._brackets[lo - 1:hi - 1]
        run[:len(stored)] = stored
        return run


def tail_sum_ratio(law, n: int, q: Rat, mode: str = "exact", trunc_n=None):
    """Sum of P(X0 = j) / [j+1]_q over j >= n.

    This is the building block of every level-law formula in the package.
    ``mode="exact"`` returns a Fraction and is available only for law classes
    whose terms collapse to a geometric series (the law decides, see
    ``InitialLaw.ratio_geometric_form``); ``mode="approx"`` truncates once the
    remaining pmf mass is below ``APPROX_TAIL_TOL`` (or at the explicit cutoff
    ``trunc_n``) and returns an :class:`Approx` whose ``err`` covers the
    truncation and the float rounding (derivation in :class:`TailSumTable`),
    read from the law's one table per (q, cutoff).  Past that cutoff the
    value is 0 within the law's tail bound, and no table is built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = rat(q)
    if mode == "exact":
        return law.ratio_tail_exact(n, q)
    if mode != "approx":
        raise ValueError(f"unknown mode {mode!r}")
    top = trunc_n if trunc_n is not None else law.truncation_point()
    if n > top:
        return Approx(0.0, law.tail_bound(n))
    return law._tail_sum_table(q, top).at(n)
