#!/usr/bin/env python3
"""The supremum over A_gamma for gamma > 1 is the zero-potential eigenvalue.

Members of A_gamma with gamma > 1 can carry arbitrarily little mass: the
block of height n^(1/gamma) on (0, 1/n) satisfies the constraint exactly
while its mass n^(1/gamma - 1) vanishes.  Since adding potential can only
lower the first eigenvalue, lambda1(0) is a hard ceiling; the family shows
the supremum is approached, so the ceiling is the exact supremum.
"""

from sl_extremal import RobinBC, lambda1_zero, pnorm, statement3_family, verify_thm2

GAMMA = 2.0
bc = RobinBC(1.0, 1.0)

print(f"ceiling lambda1(0) = {lambda1_zero(bc):.10f}\n")

print("== the vanishing-mass family ==")
for n in (10, 1000):
    q = statement3_family(GAMMA, n)
    print(f"  n = {n:5d}: height {q.heights[0]:.4f} on (0, 1/{n}), "
          f"int q^2 = {pnorm(q, GAMMA):.12f}, mass = {pnorm(q, 1.0):.6f}")

print("\n== eigenvalue trend (also available as `sl-extremal verify-thm2`) ==")
table = verify_thm2(GAMMA, bc, [10, 100, 1000, 10000, 100000])
print(f"{'n':>8} {'lambda1':>18} {'lambda1(0)':>18} {'gap':>10}")
for row in table.rows:
    print(f"{row.n_or_rho:8g} {row.lambda1:18.10f} {row.reference:18.10f} {row.gap:10.3e}")
print("gap shrinks monotonically toward 0; every row stays below the ceiling.")
