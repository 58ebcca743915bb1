"""End to end: the rescaled chain meets the reflected-with-level Brownian
functional, and the limit law ignores the sign of the drift.

Takes a few seconds: 2x10^4 chains of 2500 kernel steps against 2x10^4 exact
draws of the drifted Wiener functional 2*(sup B - gamma)_+ - B at time 1.
Exits 1 when either two-sample KS statistic reaches its 1% critical value.
"""

import sys
from fractions import Fraction as F

from pitman_lab import (
    LimitLevelLaw,
    MuMeasure,
    PointMass,
    RngStream,
    donsker_check,
    ks_distance,
    limit_process_sample,
)

N, n, sn = 2500, 20000, 50
sigma = F(2)
v = F(2, 5)

rep = donsker_check(N, v, sigma, PointMass(sn), n, seed=0)
stat, crit = rep["ks"], rep["critical_1pct"]
print(f"chain marginal (N={N}, start at sqrt(N)) vs Brownian functional:")
print(f"   two-sample KS = {stat:.4f}, 1% critical value {crit:.4f}")
print(f"   limit measure of X0/sqrt(N): {rep['gamma_measure']}")

u, vf = 1.0, -0.3
mu = MuMeasure.hypoexponential(u + vf, u - vf)
s2 = RngStream(103)
a = limit_process_sample(vf, LimitLevelLaw(vf, mu), [1.0], None, s2.child(1),
                         n=n, sigma=float(sigma))[:, 0]
b = limit_process_sample(-vf, LimitLevelLaw(-vf, mu), [1.0], None, s2.child(2),
                         n=n, sigma=float(sigma))[:, 0]
print(f"\ndrift-flip invariance (u={u}, v={vf}): the level trades Exp(u+v)")
print(f"for Exp(u-v) and the marginal law is unchanged:")
flip = ks_distance(a, b)
print(f"   two-sample KS = {flip:.4f}, critical {crit:.4f}")
sys.exit(0 if max(stat, flip) < crit else 1)
