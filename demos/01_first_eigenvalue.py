#!/usr/bin/env python3
"""Solving for the first eigenvalue.

The problem is y'' + q y + lambda y = 0 on [0,1] with boundary conditions
y'(0) = k0^2 y(0) and y'(1) = -k1^2 y(1).  This walkthrough solves a step
potential, adds a point mass, cross-checks the shooting answer against the
finite-element discretization, and closes the loop with a Rayleigh quotient.
"""

from sl_extremal import (
    RobinBC,
    StepPotential,
    lambda1,
    lambda1_fd,
    lambda1_zero,
    rayleigh,
)

bc = RobinBC(k0sq=1.0, k1sq=4.0)

print("== zero potential ==")
print(f"characteristic-equation value: {lambda1_zero(bc):.12f}")
res = lambda1(StepPotential.constant(0.0), bc)
print(f"shooting value:                {res.lambda1:.12f}")
print(f"residual {res.residual:.2e}, bracket width {res.bracket[1] - res.bracket[0]:.2e}")

print("\n== a three-cell step potential ==")
q = StepPotential([0.0, 0.2, 0.7, 1.0], [8.0, 1.0, 3.0])
res = lambda1(q, bc)
print(f"lambda1(q)      = {res.lambda1:.10f}")
print(f"FEM cross-check = {lambda1_fd(q, bc, 4096):.10f}")

print("\n== the same potential plus a point mass at x = 0.4 ==")
qd = StepPotential(q.breakpoints, q.heights, [(0.4, 2.0)])
res_d = lambda1(qd, bc, eigenfunction_samples=512)
print(f"lambda1(q + 2*delta_0.4) = {res_d.lambda1:.10f}")
print("extra attraction lowers the eigenvalue:",
      f"{res_d.lambda1:.6f} < {res.lambda1:.6f}")

print("\n== Rayleigh quotient of the computed eigenfunction ==")
quot = rayleigh(qd, bc, res_d.eigenfunction_samples)
print(f"quotient {quot:.8f} vs eigenvalue {res_d.lambda1:.8f} "
      f"(difference {abs(quot - res_d.lambda1):.2e}: the mass at 0.4 is off the sample grid)")
