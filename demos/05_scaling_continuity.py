"""Diffusive scaling: level laws converge to their continuum CDFs, and the
flat-free chain kernel converges to the sinh-tilted absorbing heat kernel.

Exits 1 when a sup distance exceeds 0.02 or the kernel's relative error does
not fall as N grows.
"""

import sys
from fractions import Fraction as F

from pitman_lab import continuity_check, kernel_limit_ladder

SUP_BOUND = 0.02

grid = [x / 10 for x in range(1, 31)]
sups = []
print("exact level-law CDF at N=10^4 against the continuum limit:")
for label, kwargs in (
    ("pinned start, drift (truncated exponential)", dict(v=F(1, 2), regime="point")),
    ("pinned start, no drift (uniform)", dict(v=F(0), regime="point")),
    ("escaping start (exponential)", dict(v=F(1, 2), regime="power")),
    ("two-geometric start, u=1 v=-0.3 (exponential)",
     dict(v=F(-3, 10), regime="corollary", u=F(1))),
):
    rep = continuity_check(N=10**4, grid=grid, **kwargs)
    sups.append(rep["sup_distance"])
    print(f"   {label:48s} sup distance {sups[-1]:.4f} (bound {SUP_BOUND})")

print("\nsample rows for the drifted pinned start:")
rep = continuity_check(10**4, F(1, 2), "point", [0.25, 0.5, 0.75, 1.0, 1.5])
for row in rep["rows"]:
    print(f"   x={row['x']:4.2f}  exact {row['exact']:.5f}  "
          f"limit {row['limit']:.5f}  diff {row['diff']:+.5f}")

print("\nkernel limit ladder at (t,x,y)=(1,1,1), v=0.5:")
ladder = kernel_limit_ladder([100, 2500, 10000], 1.0, 1.0, 1.0, 0.5)
errs = ladder["rel_errors"]
for N, err in zip(ladder["Ns"], errs):
    print(f"   N={N:6d}  relative error {err:.4f}")
falling = all(a > b for a, b in zip(errs, errs[1:]))
print(f"   relative error falls with N: {falling} (must be True)")
sys.exit(0 if max(sups) <= SUP_BOUND and falling else 1)
