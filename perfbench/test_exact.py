"""Checks of the benchmark's exact references.

    python3 -m pytest perfbench/test_exact.py
"""

import math
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import exact  # noqa: E402
from sl_extremal import RobinBC, lambda1_zero  # noqa: E402

BCS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (4.0, 9.0)]


@pytest.mark.parametrize("k0sq,k1sq", BCS)
def test_zero_potential_matches_characteristic_equation(k0sq, k1sq):
    ref = lambda1_zero(RobinBC(k0sq, k1sq))
    assert abs(exact.lambda1([0.0, 1.0], [0.0], [], k0sq, k1sq) - ref) <= 1e-14 * max(1.0, ref)


@pytest.mark.parametrize("k0sq,k1sq", BCS)
@pytest.mark.parametrize("c", [0.5, 3.0, 50.0, 1e6])
def test_shift_identity_on_constants(k0sq, k1sq, c):
    base = lambda1_zero(RobinBC(k0sq, k1sq))
    # split the constant into cells, so the cell propagation is exercised too
    value = exact.lambda1([0.0, 0.3, 0.55, 1.0], [c, c, c], [], k0sq, k1sq)
    assert abs(value - (base - c)) <= 1e-13 * max(1.0, abs(base - c))


def test_point_mass_matches_its_narrow_spike_limit():
    # a spike of height n on (1/2 - 1/n, 1/2) converges to the unit mass at 1/2
    mass = exact.lambda1([0.0, 1.0], [0.0], [(0.5, 1.0)], 1.0, 1.0)
    n = 1e6
    spike = exact.lambda1([0.0, 0.5 - 1.0 / n, 0.5, 1.0], [0.0, n, 0.0], [], 1.0, 1.0)
    assert abs(mass - spike) <= 1e-5


@pytest.mark.parametrize("height", [100.0, 1e4])
@pytest.mark.parametrize("order", ["high_first", "high_last"])
def test_negative_cell_matches_matching_condition(height, order):
    # Neumann ends, q = H on one half and 0 on the other: with k^2 = lam + H
    # and kappa^2 = -lam > 0 the ground state solves
    # k tan(k/2) = kappa tanh(kappa/2) for k in (0, pi).
    def g(k):
        kappa = math.sqrt(height - k * k)
        return k * math.tan(0.5 * k) - kappa * math.tanh(0.5 * kappa)

    ref = brentq(g, 1e-9, math.pi * (1.0 - 1e-12), xtol=1e-15) ** 2 - height
    hs = [height, 0.0] if order == "high_first" else [0.0, height]
    value = exact.lambda1([0.0, 0.5, 1.0], hs, [], 0.0, 0.0)
    assert ref < 0.0
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_angle_is_increasing_through_negative_cells():
    # across these lam the zero cell has c = lam < 0 and the solution
    # crosses zero inside it, so every branch of the c <= 0 update is taken
    cells, w0 = exact._cells_of([0.0, 0.5, 1.0], [100.0, 0.0])
    thetas = [exact._theta_end(cells, w0, 0.0, lam) for lam in range(-99, 0)]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    assert thetas[-1] - thetas[0] > 2.0 * math.pi


def test_pnorm_fsum_closed_forms():
    bps, hs = [0.0, 0.25, 1.0], [4.0, 1.0]
    assert exact.pnorm_fsum(bps, hs, 1.0) == pytest.approx(1.75, rel=1e-15)
    assert exact.pnorm_fsum(bps, hs, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert exact.pnorm_fsum(bps, hs, -1.0) == pytest.approx(1.0 / 0.8125, rel=1e-15)
