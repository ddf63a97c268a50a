"""Generated invariants of the shooting solver and the gamma-normalization.

Inputs are step + delta potentials with heights and weights log-uniform up to
1e6.  Runs are derandomized so the suite stays reproducible.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sl_extremal import (
    Potential,
    RobinBC,
    StepPotential,
    lambda1,
    lambda1_fd,
    lambda1_zero,
    normalize_gamma,
    pnorm,
    theta_end,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


heights = st.one_of(st.just(0.0), log_uniform(-3.0, 6.0))
positive_heights = log_uniform(-3.0, 6.0)
bcs = st.builds(RobinBC, st.sampled_from([0.0, 1.0]) | log_uniform(-2.0, 3.0),
                st.sampled_from([0.0, 1.0]) | log_uniform(-2.0, 3.0))


@st.composite
def breakpoints(draw, max_cells: int = 6):
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=max_cells - 1, unique=True))
    return [0.0, *sorted(inner), 1.0]


@st.composite
def steps(draw, height=heights):
    bps = draw(breakpoints())
    return StepPotential(bps, draw(st.lists(height, min_size=len(bps) - 1,
                                            max_size=len(bps) - 1)))


@st.composite
def deltas(draw):
    site = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    return draw(st.lists(st.tuples(site, log_uniform(-3.0, 6.0)), max_size=2))


@st.composite
def potentials(draw):
    return Potential(draw(steps()), draw(deltas()))


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b), scale)


@PROPERTY
@given(potentials(), bcs, st.floats(-1e7, 1e4), log_uniform(-6.0, 7.0))
# 0 < lambda + q << 1: an angle scaled by sqrt(lambda + q) rounded to pi
@example(Potential(StepPotential([0.0, 0.5, 1.0], [0.0, 0.0]), [(0.0, 1.0)]),
         RobinBC(0.0, 0.0), 4.7816973366192615e-46, 1.0)
def test_theta_end_is_nondecreasing_in_lambda(q, bc, lam, gap):
    # the premise of search_extremum's one-evaluation move decision
    hi = lam + gap * max(1.0, abs(lam))
    assert theta_end(q, bc, lam) <= theta_end(q, bc, hi)


@PROPERTY
@given(potentials(), bcs, st.one_of(st.just(0.0), log_uniform(-3.0, 6.0)))
def test_spectral_shift(q, bc, c):
    shifted = StepPotential(q.breakpoints, q.heights + c, q.deltas)
    lam = lambda1(q, bc).lambda1
    assert close(lambda1(shifted, bc).lambda1, lam - c, c)


@pytest.mark.xfail(strict=True, reason="forward shooting loses the solution that decays "
                   "away from a strong mass at x = 0")
def test_spectral_shift_with_strong_masses_at_both_ends():
    # lambda_1 = -10000 to 1e-39 (tunnelling splitting) and the finite-element
    # oracle converges to it; shooting reads -10000.0000688 and -10001.000186
    q = Potential(StepPotential([0.0, 1.0], [0.0]), [(0.0, 100.0), (1.0, 100.0)])
    shifted = Potential(StepPotential([0.0, 1.0], [1.0]), [(0.0, 100.0), (1.0, 100.0)])
    bc = RobinBC(0.0, 0.0)
    assert close(lambda1(shifted, bc).lambda1, lambda1(q, bc).lambda1 - 1.0, 1.0)


@PROPERTY
@given(potentials(), st.lists(heights, min_size=6, max_size=6),
       st.lists(log_uniform(-3.0, 6.0), min_size=2, max_size=2), bcs)
def test_monotone_in_the_potential_and_below_the_zero_potential(q, extra, more, bc):
    bumped = StepPotential(
        q.breakpoints,
        q.heights + extra[: q.heights.size],
        [(d.site, d.weight + w) for d, w in zip(q.deltas, more)],
    )
    lam = lambda1(q, bc).lambda1
    assert lam <= lambda1_zero(bc) + 1e-11 * max(1.0, abs(lam))
    lam_bumped = lambda1(bumped, bc).lambda1
    assert lam_bumped <= lam + 1e-11 * max(1.0, abs(lam), abs(lam_bumped))


@PROPERTY
@given(potentials(), bcs)
def test_finite_element_oracle_bounds_lambda1_from_above(q, bc):
    # P1 functions lie in H^1, so by min-max the Galerkin eigenvalue is an
    # upper bound -- unless the oracle snaps a mass site onto a node
    n = 64
    nodes = np.linspace(0.0, 1.0, n)
    sites = [d.site for d in q.deltas]
    for i, site in enumerate(sites):
        gap = np.abs(np.concatenate((nodes, sites[:i])) - site).min()
        assume(gap == 0.0 or gap > 1e-6 / (n - 1))
    lam = lambda1(q, bc).lambda1
    assert lam <= lambda1_fd(q, bc, n) + 1e-11 * max(1.0, abs(lam))


@PROPERTY
@given(steps(height=positive_heights),
       st.floats(0.1, 4.0) | st.floats(-4.0, -0.1) | st.sampled_from([0.5, 1.0, 2.0]))
@example(StepPotential([0.0, 1.0], [1e5]), -4.0)  # S = 1e-20 rounds S - 1 to -1
def test_normalize_gamma_lands_on_the_constraint_set(f, gamma):
    q, kappa = normalize_gamma(f, gamma)
    assert math.isfinite(kappa) and kappa > 0.0
    assert np.allclose(q.heights * kappa, f.heights, rtol=1e-15, atol=0.0)
    assert pnorm(q, gamma) == pytest.approx(1.0, abs=1e-12)
