"""The headline identity, in exact arithmetic.

A lattice chain on Z>=0 that steps like a q-deformed birth-death kernel has
the same increment law as 2*(running max - G)_+ - walk, where G is an
independent level built from the chain's starting law.  Everything below is
rational arithmetic: the two tables agree entry by entry, not approximately.
"""

from fractions import Fraction as F

from pitman_lab import (
    Params,
    PointMass,
    QNegativeBinomial,
    LevelLaw,
    chain_increment_law,
    g_law_from_initial,
    rhs_law_enumeration,
    verify_thm1,
    walk_match_report,
)

params = Params(rho=F(2, 3), sigma=F(1))
law = PointMass(2)

print("chain increments vs transformed-walk law, rho=2/3 sigma=1, start at 2")
chain = chain_increment_law(2, law, params)
glaw = g_law_from_initial(law, params, "G")
rhs = rhs_law_enumeration(2, glaw, params)
for path, p in chain.entries.items():
    print(f"  path {str(path):10s}  chain {str(p):10s}  transform {rhs[path]}")
assert chain.max_abs_diff(rhs) == (0, None)

print("\nthe induced level law for a start pinned at n is uniform on {0..n} (rho=1):")
unif = g_law_from_initial(PointMass(4), Params(F(1)), "G")
print("  pmf:", [str(unif.pmf(m)) for m in range(6)])

print("\nfor the two-geometric starting law the level is geometric again:")
rho, rho0 = F(3, 2), F(1, 2)
p2 = Params(rho)
qnb = QNegativeBinomial(p2.q, rho0 / rho)
g = g_law_from_initial(qnb, p2, "G")
print("  pmf(0..4):", [str(g.pmf(m)) for m in range(5)],
      " = geo(rho0*rho) with rho0*rho =", rho0 * rho)

print("\nfull verification sweep (both parts, horizons to 5):")
for part in ("I", "II"):
    rep = verify_thm1(5, qnb, p2, part)
    print(f"  part {part}: {rep['status']} with max |diff| = {rep['max_abs_diff']['value']}")

print("\nand the one level law that makes the transform invisible:")
p3 = Params(F(1, 2))
print("  geo(rho^2):", walk_match_report(LevelLaw.geometric(p3.q), p3, 5)["status"])
print("  geo(1/3):  ", walk_match_report(LevelLaw.geometric(F(1, 3)), p3, 5)["status"])
