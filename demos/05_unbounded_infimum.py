#!/usr/bin/env python3
"""The infimum over A_gamma for gamma < 1 is minus infinity.

The certificate is constructive.  A train of m tall, narrow spikes over a
small floor behaves like a large constant level rho* (their difference is
small in the negative Sobolev norm), yet its gamma-norm can be pushed below 1
by raising the spike height.  Normalizing onto A_gamma divides by that small
norm, which only increases the potential -- so the eigenvalue drops below
lambda1(0) - rho* (up to the train's approximation slack), for every rho*.
"""

from sl_extremal import (
    RobinBC,
    SpikeTrainSpec,
    lambda1,
    pnorm,
    statement2_family,
    verify_thm1,
)

GAMMA = 0.5
bc = RobinBC(0.0, 0.0)

print("== anatomy of one certificate (rho* = 10) ==")
spec = SpikeTrainSpec(rho_star=10.0, floor=0.1, spikes=100, height=1e6, nu=0.75)
q, kappa = statement2_family(spec, GAMMA)
print(f"spike width {spec.spike_width:.2e}, nu-norm budget used: kappa = {kappa:.6f} < 1")
print(f"membership check: int q^{GAMMA} = {pnorm(q, GAMMA):.15f}")
print(f"lambda1(q) = {lambda1(q, bc).lambda1:.4f}  (target level was -10)")

print("\n== certified descent (also available as `sl-extremal verify-thm1`) ==")
table = verify_thm1(GAMMA, bc, [10.0, 100.0, 1000.0])
print(f"{'rho*':>8} {'lambda1':>18} {'lambda1(0)-rho*':>18} {'gap':>10}")
for row in table.rows:
    print(f"{row.n_or_rho:8g} {row.lambda1:18.10f} {row.reference:18.10f} {row.gap:10.3e}")
for detail in table.details:
    print(f"rho* = {detail['rho_star']:>6g}: spike height {detail['height']:.0e}, "
          f"kappa = {detail['kappa']:.4f}, "
          f"constraint error {detail['gamma_norm_error']:.1e}")
print("\nno floor is visible: raising rho* drives lambda1 below any bound.")
