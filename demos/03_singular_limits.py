#!/usr/bin/env python3
"""Singular limits measured in the negative Sobolev norm.

A spike of height n and width 1/n has unit mass but gamma-norm
n^((gamma-1)/gamma), which vanishes for gamma in (0,1) as n grows -- while
the spike itself converges to a unit point mass.  The distance is measured in
the dual norm over W^1_2 test functions, exactly: the spike's distance to the
point mass is sqrt(1/(3n)) to leading order, and the square-root envelope
sqrt(max(1/n, 1/m)) controls the spike-to-spike distances.
"""

import math

from sl_extremal import (
    RobinBC,
    StepPotential,
    lambda1,
    pnorm,
    statement1_family,
    wminus1_dist,
)

ZETA = 0.5

print("== vanishing gamma-norm, unit mass, shrinking distance to the point mass ==")
delta = StepPotential([0, 1], [0.0], [(ZETA, 1.0)])  # the unit point mass at ZETA
print(f"{'n':>7} {'||q_n||_0.5':>12} {'mass':>6} {'dist to delta':>14} {'sqrt(1/(3n))':>12}")
for n in (10, 100, 1000, 10000):
    q, gnorm = statement1_family(ZETA, n, 0.5)
    dist = wminus1_dist(q, delta)
    print(f"{n:7d} {gnorm:12.6f} {pnorm(q, 1.0):6.3f} {dist:14.6f} {math.sqrt(1/(3*n)):12.6f}")

print("\n== pairwise distances obey the square-root envelope ==")
for n, m in ((100, 1000), (1000, 10000)):
    qn, _ = statement1_family(ZETA, n, 0.5)
    qm, _ = statement1_family(ZETA, m, 0.5)
    dist = wminus1_dist(qn, qm)
    bound = math.sqrt(max(1 / n, 1 / m))
    print(f"  dist(q_{n}, q_{m}) = {dist:.6f} <= {bound:.6f}")

print("\n== the eigenvalue follows the singular limit ==")
bc = RobinBC(1.0, 1.0)
lam_delta = lambda1(delta, bc).lambda1
print(f"lambda1 of the unit point mass: {lam_delta:.8f}")
for n in (10, 100, 1000, 10000):
    q, _ = statement1_family(ZETA, n, 0.5)
    lam = lambda1(q, bc).lambda1
    print(f"  n = {n:5d}: lambda1 = {lam:.8f}  (gap {abs(lam - lam_delta):.2e})")
