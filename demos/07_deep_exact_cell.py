"""One exact horizon far past per-path enumeration: t = 32.

The three routes of the representation identity (chain formula, preimage
pushforward, closed form) are evaluated once per class (K0, x_t, H), so a
horizon of 3^32 paths costs a few thousand class entries.  The chain formula
and the closed form are factored routes: each builds its level sums once per
distinct (K0, x_t) and its prefactors sigma^H rho^(+-x_t) / z^t once per
distinct (H, x_t), as ints over one denominator per table, and one shared
combine (``paths.combine_factors``) multiplies a class's two factors into its
int numerator.  The pushforward builds no path: it reads the
representatives as rows of one step array, finds each row's flips from its
values and sums the members' walk probabilities as int numerators over one
denominator per table.  Each exact table keeps its ints over one denominator
in lowest terms, so its mass is one int sum and two equal tables compare
equal without a Fraction per class.  This script lifts the horizon cap for its own process, times each route's
class table, then verifies the single horizon t = 32 with
``verify_thm1(t_values=[32])``: the three tables must agree exactly and each
must have mass exactly 1.

Takes well under a second.  Exits 1 on FAIL.
"""

import os
import sys
import time
from fractions import Fraction as F

T = 32
os.environ["PITMAN_LAB_CAP"] = str(T)

from pitman_lab import (  # noqa: E402
    Params,
    QNegativeBinomial,
    chain_increment_law,
    g_law_from_initial,
    rhs_law_enumeration,
    rhs_law_table_formula,
    verify_thm1,
)

params = Params(F(2, 3), F(1))
law = QNegativeBinomial(params.q, F(1, 2))
glaw = g_law_from_initial(law, params, "G")
print(f"initial law {law.cli_string()}, rho={params.rho}, sigma={params.sigma}, t={T}")

ok = True
routes = (("chain formula", lambda: chain_increment_law(T, law, params)),
          ("preimage pushforward", lambda: rhs_law_enumeration(T, glaw, params)),
          ("closed form", lambda: rhs_law_table_formula(T, glaw, params)))
for name, build in routes:
    start = time.perf_counter()
    table = build()
    elapsed = time.perf_counter() - start
    mass = table.mass()
    ok &= mass == 1
    print(f"   {name:<21} {elapsed:6.2f} s  {len(table.sizes)} classes "
          f"({sum(table.sizes.values())} paths), mass {mass}")

start = time.perf_counter()
report = verify_thm1(T, law, params, "I", t_values=[T])
elapsed = time.perf_counter() - start
ok &= report["status"] == "PASS"
print(f"verify_thm1 at t={T} alone: {report['status']}, max |difference| "
      f"{report['max_abs_diff']['value']}, {elapsed:.2f} s")
sys.exit(0 if ok else 1)
