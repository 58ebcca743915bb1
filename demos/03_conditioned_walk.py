"""The chain as a walk conditioned to clear a random level.

For a walk drifting upward (rho < 1), conditioning the whole future of
S + V on staying nonnegative, with V an independent level, reproduces the
chain increments exactly when V weights the starting law by 1/[k+1]_q.
The exact route uses the geometric law of the future infimum; a rejection
sampler over a long finite window cross-checks it.
"""

import math
import sys
from fractions import Fraction as F

from pitman_lab import (
    Params,
    PointMass,
    RngStream,
    chain_increment_law,
    conditioned_walk_law,
    rejection_oracle,
    survival_prob,
    v_law_from_initial,
)

params = Params(rho=F(1, 2), sigma=F(0))
law = PointMass(1)

print("survival from height a (exact, rho=1/2):")
for a in range(4):
    print(f"   P(never below -{a}) = {survival_prob(a, params)}")

vlaw = v_law_from_initial(law, params, "I")
print(f"\nconditioning level law: {vlaw.cli_string()} (degenerate at the start level)")

t = 3
cond = conditioned_walk_law(t, vlaw, params, "I")
chain = chain_increment_law(t, law, params)
print(f"\nconditioned walk vs chain, horizon {t}:")
for path, p in cond.entries.items():
    if p:
        print(f"   {str(path):12s} conditioned {str(p):10s} chain {chain[path]}")
assert cond.max_abs_diff(chain) == (0, None)
print("   tables identical, discrepancy 0")

res = rejection_oracle(t, vlaw, params, "I", horizon_pad=200,
                       n_samples=100000, rng=RngStream(1))
print(f"\nrejection sampler over a window of t+200 steps:")
print(f"   acceptance rate {res['acceptance_rate']:.3f}, "
      f"window-truncation bound {res['truncation_bound']:.1e}")
# the rule of acceptance criterion 4: each cell within 4.5 standard errors
# plus the truncation bound
misses = []
worst = 0.0
for path, p in cond.entries.items():
    p = float(p)
    se = math.sqrt(p * (1 - p) / res["accepted"])
    gap = abs(res["table"][path] - p)
    worst = max(worst, gap)
    if gap > 4.5 * se + res["truncation_bound"] + 1e-12:
        misses.append(f"{path}: gap {gap:.4f} > 4.5 * {se:.4f} + {res['truncation_bound']:.1e}")
print(f"   worst empirical gap {worst:.4f} over {res['accepted']} accepted paths")
if misses:
    sys.exit("rejection oracle misses the exact law:\n   " + "\n   ".join(misses))
print("   every path within 4.5 standard errors + truncation bound")
