"""Shared test helpers."""

from fractions import Fraction

import pytest

from pitman_lab import preimage_member, stats


def certified_ratio_tails(p: Fraction, q: Fraction, nmax: int, bits: int = 200,
                          remainder: Fraction = Fraction(1, 2**80)):
    """Rational enclosures [lo, hi] of S(n) = sum_{j>=n} (1-p) p^j / [j+1]_q
    for n <= nmax, with 0 < p < 1 and q > 0, written from the definition.

    p^j and [j+1]_q = 1 + q [j]_q are carried as integer lower and upper
    bounds at scale 2^bits, rounded down and up at every step, so each term
    (1-p) p^j / [j+1]_q gets an exact integer enclosure.  The sum stops at the
    first J with p^(J+1) <= ``remainder``; the terms past J sum to at most
    p^(J+1), because [j+1]_q >= 1, and that bound is added to every upper end.
    """
    a, b = p.numerator, p.denominator
    c, d = q.numerator, q.denominator
    scale = 1 << bits
    p_lo = p_hi = br_lo = br_hi = scale  # p^0 and [1]_q
    lo_terms, hi_terms = [], []
    while True:
        lo_terms.append(((b - a) * p_lo * scale) // (b * br_hi))
        hi_terms.append(-((-(b - a) * p_hi * scale) // (b * br_lo)))
        p_lo, p_hi = (p_lo * a) // b, -((-p_hi * a) // b)
        br_lo, br_hi = scale + (br_lo * c) // d, scale - ((-br_hi * c) // d)
        if len(lo_terms) > nmax and Fraction(p_hi, scale) <= remainder:
            break
    rest = Fraction(p_hi, scale)
    lo_sum = sum(lo_terms[nmax + 1:])
    hi_sum = sum(hi_terms[nmax + 1:])
    out = []
    for n in range(nmax, -1, -1):
        lo_sum += lo_terms[n]
        hi_sum += hi_terms[n]
        out.append((Fraction(lo_sum, scale), Fraction(hi_sum, scale) + rest))
    return out[::-1]


def within(approx_value: float, err: float, lo: Fraction, hi: Fraction) -> bool:
    """True when every value in [lo, hi] lies within err of approx_value,
    compared exactly as rationals."""
    v, e = Fraction(approx_value), Fraction(err)
    return v - e <= lo and hi <= v + e


def running_max_identity_check(x, r: int) -> bool:
    """max_{i<=j} (s^(r)_i + K0)_+ == min(r, K_j) - K0 for every j, with
    s^(r) the preimage member of x at r."""
    st = stats(x)
    m = 0
    for j, sv in enumerate(preimage_member(x, r).values):
        m = max(m, sv + st.K0, 0)
        if m != min(r, st.K[j]) - st.K0:
            return False
    return True


@pytest.fixture
def running_max_identity():
    return running_max_identity_check


@pytest.fixture
def ratio_tails():
    return certified_ratio_tails


@pytest.fixture
def within_err():
    return within
