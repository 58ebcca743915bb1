"""Splitting a count into independent geometric pieces, and a Poisson surprise.

Thinning a q-negative-binomial count N with the q-geometric conditional law
splits it into an independent pair: the surviving part is geo(q*theta), the
damaged part geo(theta), and partial independence at D = 0 already pins the
law of N.  A separate curiosity: a shift-by-one Poisson start produces an
exactly Poisson level.

Exits 1 on a factorization violation, a damage check that does not PASS, or
a Poisson gap above 1e-12.
"""

import math
import sys
from fractions import Fraction as F

from pitman_lab import Params, ShiftedPoisson, damage_check, g_law_from_initial

POISSON_GAP = 1e-12

rep = damage_check(F(1, 4), F(1, 2), nmax=60)
print("damage split at q=1/4, theta=1/2:")
print(f"   factorization violations : {rep['factorization_violations']} (must be 0)")
print(f"   survivor part            : {rep['survivor_law']}")
print(f"   damaged part             : {rep['damaged_law']}")
print(f"   partial independence     : {rep['rao_rubin_holds']}")
print(f"   note: {rep['note']}")
print(f"   status                   : {rep['status']} (must be PASS)")

rep_q4 = damage_check(F(4), F(1, 5), nmax=60)
print("\nsame check with q > 1 (q=4, theta=1/5):", rep_q4["status"], "(must be PASS)")

glaw = g_law_from_initial(ShiftedPoisson(1.0), Params(F(1)), "G",
                          mode="approx", trunc_n=200)
print("\nlevel law of a 1+Poisson(1) start at rho=1, against Poisson(1):")
gaps = []
for m in range(6):
    target = math.exp(-1) / math.factorial(m)
    gaps.append(abs(glaw.pmf(m) - target))
    print(f"   m={m}: {glaw.pmf(m):.12f} vs {target:.12f} "
          f"(gap {gaps[-1]:.1e}, bound {POISSON_GAP:.0e})")
ok = (rep["factorization_violations"] == 0 and rep["status"] == rep_q4["status"] == "PASS"
      and max(gaps) <= POISSON_GAP)
sys.exit(0 if ok else 1)
