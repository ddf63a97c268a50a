"""The negative norm against its definition and a 50-digit evaluation.

``SampledFunction``, ``w1_norm`` and ``pairing`` below are the definitional
cross-check of ``wminus1_norm``: the norm is the supremum of |<f, z>| over z
with ||z||_{W^1_2} <= 1, so every piecewise-linear z bounds it from below.
``mp_norm`` evaluates the same norm in 50 digits by another route.
"""

import math
from types import SimpleNamespace
import warnings

import numpy as np
import pytest

from sl_extremal import (
    Potential,
    SpikeTrainSpec,
    StepPotential,
    statement1_family,
    statement2_family,
    wminus1_dist,
    wminus1_norm,
)
from sl_extremal import cli
from sl_extremal.jsonio import dumps
from sl_extremal.sobolev import _G_SERIES, _energy

from conftest import common_cells

README_MEASURE = StepPotential([0.0, 0.2, 0.7, 1.0], [8.0, 1.0, 3.0], [(0.5, 10.0)])


class SampledFunction:
    """Values of a test function on the uniform grid i/N, i = 0..N (N >= 2),
    read as their continuous piecewise-linear interpolant, for which the
    integrals in ``w1_norm`` and ``pairing`` are exact."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 3:
            raise ValueError("need at least 3 grid values (N >= 2 intervals)")

    @classmethod
    def constant(cls, c: float, n: int = 2) -> "SampledFunction":
        return cls(np.full(n + 1, float(c)))

    @classmethod
    def from_callable(cls, fn, n: int) -> "SampledFunction":
        return cls([fn(t) for t in np.linspace(0.0, 1.0, n + 1)])

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)


def w1_norm(z: SampledFunction) -> float:
    """sqrt(int z'^2 + int z^2) of the piecewise-linear interpolant (exact)."""
    v = z.values
    h = 1.0 / (v.size - 1)
    dv = np.diff(v)
    grad2 = float(np.sum(dv * dv)) / h
    mass = float(np.sum(v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2)) * h / 3.0
    return math.sqrt(grad2 + mass)


def pairing(f: StepPotential, z: SampledFunction) -> float:
    """Duality pairing <f, z> = sum_i z_i <f, phi_i>, z being a sum of hats."""
    return float(np.dot(z.values, reference_loads(f, z.values.size - 1)))


def difference(f: StepPotential, g: StepPotential) -> StepPotential:
    """f - g built exactly on the union of both grids, the reference for the
    distance summed on merged nodes; a mass that cancels at a site is dropped."""
    grid, hf, hg = common_cells(f, g)
    return StepPotential(grid, hf - hg, [*f.deltas, *((s, -w) for s, w in g.deltas)])


def random_measure(rng: np.random.Generator) -> StepPotential:
    k = int(rng.integers(2, 7))
    inner = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
    breakpoints = np.concatenate(([0.0], inner, [1.0]))
    heights = rng.normal(scale=3.0, size=k)
    deltas = [
        (float(rng.uniform(0, 1)), float(rng.normal(scale=2.0)))
        for _ in range(int(rng.integers(0, 3)))
    ]
    return StepPotential(breakpoints, heights, deltas)


class TestW1Norm:
    def test_constant_one(self):
        assert w1_norm(SampledFunction.constant(1.0)) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("c", [-2.0, 0.5, 7.0])
    def test_homogeneity_on_constants(self, c):
        assert w1_norm(SampledFunction.constant(c)) == pytest.approx(abs(c), rel=1e-14)

    def test_linear_ramp_exact(self):
        # int z'^2 = 1, int z^2 = 1/3, both exact for the linear interpolant
        assert w1_norm(SampledFunction([0.0, 0.5, 1.0])) == pytest.approx(
            math.sqrt(4.0 / 3.0), rel=1e-14
        )

    def test_minimum_grid_enforced(self):
        with pytest.raises(ValueError):
            SampledFunction([0.0, 1.0])


class TestPairing:
    def test_delta_evaluates_the_test_function(self):
        d = StepPotential([0, 1], [0.0], [(0.5, 1.0)])
        assert pairing(d, SampledFunction.constant(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_unit_step_against_unit_function(self):
        one = StepPotential([0, 1], [1.0])
        assert pairing(one, SampledFunction.constant(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_spike_reads_the_midpoint_of_a_linear_function(self):
        n, zeta = 50, 0.7
        spike = StepPotential([0.0, zeta - 1 / n, zeta, 1.0], [0.0, float(n), 0.0])
        z = SampledFunction.from_callable(lambda x: 2.0 * x + 0.3, 4)
        expected = 2.0 * (zeta - 1.0 / (2 * n)) + 0.3
        assert pairing(spike, z) == pytest.approx(expected, rel=1e-12)

    def test_interpolated_delta_site(self):
        d = StepPotential([0, 1], [0.0], [(0.25, 2.0)])
        z = SampledFunction([0.0, 1.0, 0.0])  # hat peaking at 1/2
        assert pairing(d, z) == pytest.approx(2.0 * 0.5, rel=1e-14)

    def test_accepts_potentials_directly(self):
        pot = Potential(StepPotential.constant(1.0), [(0.5, 1.0)])
        assert pairing(pot, SampledFunction.constant(1.0)) == pytest.approx(2.0, rel=1e-14)


class TestWminus1Norm:
    def test_zero_measure(self):
        assert wminus1_norm(StepPotential.constant(0.0)) == 0.0

    @pytest.mark.parametrize("c", [1.0, -3.0, 0.25])
    def test_constant_achieved_by_constant_test_function(self, c):
        # the representer of a constant c is the constant c itself
        assert wminus1_norm(StepPotential([0, 1], [c])) == pytest.approx(abs(c), rel=1e-14)

    @pytest.mark.parametrize("zeta", [0.0, 0.25, 0.5, 1.0])
    def test_point_mass_closed_form(self, zeta):
        # ||delta_zeta||^2 = G(zeta, zeta), G(x, y) = cosh x_< cosh(1 - x_>) / sinh 1
        d = StepPotential([0, 1], [0.0], [(zeta, 1.0)])
        expected = math.cosh(zeta) * math.cosh(1.0 - zeta) / math.sinh(1.0)
        assert wminus1_norm(d) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_galerkin_values_rise_to_the_exact_norm(self):
        # the P1 Riesz value is the supremum over a subspace of the unit ball
        rng = np.random.default_rng(41)
        for f in (README_MEASURE, *(random_measure(rng) for _ in range(4))):
            exact = wminus1_norm(f)
            gaps = [exact - reference_norm(f, g) for g in (64, 128, 256, 512)]
            assert all(gap >= 0.0 for gap in gaps)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f, g = random_measure(rng), random_measure(rng)
            nf = wminus1_norm(f)
            ng = wminus1_norm(g)
            # ||f - g|| <= ||f|| + ||-g||, and ||-g|| = ||g||
            nfg = wminus1_norm(difference(f, g))
            assert nfg <= (nf + ng) * (1.0 + 1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            f = random_measure(rng)
            c = float(rng.uniform(0.2, 5.0))
            assert wminus1_norm(f.scaled(c)) == pytest.approx(c * wminus1_norm(f), rel=1e-13)

    def test_duality_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            f = random_measure(rng)
            nf = wminus1_norm(f)
            for sub in (4, 16, 64, 256):
                values = rng.normal(size=sub + 1)
                z = SampledFunction(values)
                assert abs(pairing(f, z)) <= nf * w1_norm(z) + 1e-12


def reference_loads(f: StepPotential, grid_n: int) -> list[float]:
    """<f, phi_i> by a double loop over (cell, element) pairs, in closed form.

    On the overlap [lo, hi] of a cell with element [x_j, x_j+1] the left hat
    is (x_j+1 - x)/h and the right one (x - x_j)/h, so their integrals are
    differences of squared distances to the far node.
    """
    h = 1.0 / grid_n
    loads = [0.0] * (grid_n + 1)
    for c, s in enumerate(f.heights):
        a, b = float(f.breakpoints[c]), float(f.breakpoints[c + 1])
        for j in range(grid_n):
            xl, xr = j / grid_n, (j + 1) / grid_n
            lo, hi = max(a, xl), min(b, xr)
            if hi > lo:
                loads[j] += s * ((xr - lo) ** 2 - (xr - hi) ** 2) / (2.0 * h)
                loads[j + 1] += s * ((hi - xl) ** 2 - (lo - xl) ** 2) / (2.0 * h)
    for site, w in f.deltas:
        for i in range(grid_n + 1):
            loads[i] += w * max(0.0, 1.0 - abs(site - i / grid_n) / h)
    return loads


def reference_norm(f: StepPotential, grid_n: int) -> float:
    """sqrt(b^T A^-1 b) with the W^1_2 Gram matrix A assembled element by
    element and solved densely."""
    h = 1.0 / grid_n
    gram = np.zeros((grid_n + 1, grid_n + 1))
    stiffness = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    mass = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    for j in range(grid_n):
        gram[j : j + 2, j : j + 2] += stiffness + mass
    b = np.array(reference_loads(f, grid_n))
    return math.sqrt(float(b @ np.linalg.solve(gram, b)))


def reference_cases() -> list[tuple[StepPotential, int]]:
    rng = np.random.default_rng(47)
    cases = [
        # breakpoints on nodes; masses at 0, at 1 and on the node 1/4
        (StepPotential([0.0, 0.125, 0.5, 1.0], [2.0, -1.0, 3.0],
                       [(0.0, 1.5), (1.0, -0.5), (0.25, 2.0)]), 64),
        # three breakpoints inside element 40 of 128: two cells lie in it
        (StepPotential([0.0, 40.2 / 128, 40.5 / 128, 40.9 / 128, 0.7, 1.0],
                       [1e3, -7.0, 5e5, -2.0, 0.5], [(0.0, -3.0), (0.3, 1.0)]), 128),
        # a spike n 1_(zeta - 1/n, zeta) narrower than one element, minus its limit
        (StepPotential([0.0, 0.6 - 1e-4, 0.6, 1.0], [0.0, 1e4, 0.0], [(0.6, -1.0)]), 256),
    ]
    for grid_n in (64, 100, 333, 512):
        nodes = rng.choice(np.arange(1, grid_n), size=3, replace=False) / grid_n
        inner = np.unique(np.concatenate((rng.uniform(0.01, 0.99, size=6), nodes)))
        k = inner.size + 1
        heights = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3, 6, k)
        sites = [0.0, 1.0, float(nodes[0]), float(rng.uniform())]
        deltas = [(site, float(rng.normal())) for site in sites]
        bp = np.concatenate(([0.0], inner, [1.0]))
        cases.append((StepPotential(bp, heights, deltas), grid_n))
    return cases


def mp_norm(f: StepPotential) -> float:
    """sqrt(<f, u>) in 50 digits for the float data of f.

    The representer is shot cell by cell as u = u_p + alpha cosh x, where u_p
    starts at u_p(0) = 0 and u_p' jumps by -w at a mass, as u' does;
    u'(1) = 0 fixes alpha.  The pairing <f, u> = sum s int u + sum w u(site) is the squared
    norm, a different sum from the cell energies the package adds up.
    """
    mpmath = pytest.importorskip("mpmath")
    mpf, cosh, sinh = mpmath.mpf, mpmath.cosh, mpmath.sinh
    with mpmath.workdps(50):
        masses = {mpf(site): mpf(w) for site, w in f.deltas}
        bps = [mpf(float(x)) for x in f.breakpoints]
        nodes = sorted(set(bps) | set(masses))
        cell, u, du, pieces, at_node = 0, mpf(0), mpf(0), [], {}
        for a, b in zip(nodes, nodes[1:]):
            while bps[cell + 1] <= a:
                cell += 1
            s, length = mpf(float(f.heights[cell])), b - a
            at_node[a] = u
            du -= masses.get(a, 0)
            pieces.append((s, a, length, u, du))
            u, du = (s + (u - s) * cosh(length) + du * sinh(length),
                     (u - s) * sinh(length) + du * cosh(length))
        at_node[nodes[-1]] = u
        alpha = (masses.get(nodes[-1], 0) - du) / sinh(1)
        total = mpf(0)
        for s, a, length, u, du in pieces:
            u0, du0 = u + alpha * cosh(a), du + alpha * sinh(a)
            total += s * (s * length + (u0 - s) * sinh(length) + du0 * (cosh(length) - 1))
        for site, w in masses.items():
            total += w * (at_node[site] + alpha * cosh(site))
        return float(mpmath.sqrt(total))


def assert_matches_mp(f: StepPotential, rel: float) -> None:
    got, ref = wminus1_norm(f), mp_norm(f)
    assert abs(got - ref) <= rel * ref, (got, ref)


class TestAgainstReference:
    @pytest.mark.parametrize("f, grid_n", reference_cases())
    def test_norm(self, f, grid_n):
        exact = wminus1_norm(f)
        assert exact == pytest.approx(mp_norm(f), rel=1e-13)
        assert reference_norm(f, grid_n) <= exact

    def test_readme_measure(self):
        assert_matches_mp(README_MEASURE, 1e-13)

    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4, 10**5, 10**6])
    def test_spike_minus_point_mass(self, n):
        q, _ = statement1_family(0.5, n, 0.25)
        assert_matches_mp(difference(q, StepPotential([0, 1], [0.0], [(0.5, 1.0)])), 1e-13)

    @pytest.mark.parametrize("m", [100, 1000])
    def test_spike_train_minus_its_level(self, m):
        # the README's top level rho* = 1000 with spikes of height 1e13
        q, kappa = statement2_family(SpikeTrainSpec(1000.0, 0.1, m, 1e13, 0.75), 0.5)
        assert_matches_mp(difference(q, StepPotential.constant(1000.0 / kappa)), 1e-12)

    @pytest.mark.parametrize("c", [1e-170, -1e-170, 1e300, -1e300])
    def test_homogeneity_at_extreme_scales(self, c):
        # without the power-of-two prescaling the energy under- or overflows here
        rng = np.random.default_rng(48)
        for f in (StepPotential([0, 1], [1.0]), StepPotential([0.0, 0.5, 1.0], [1.0, -1.0]),
                  random_measure(rng), random_measure(rng)):
            value = wminus1_norm(f.scaled(c))
            assert math.isfinite(value)
            expected = abs(c) * wminus1_norm(f)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_unrepresentable_norm_raises(self):
        # each mass alone has norm about 1.07e308; together they exceed the float range
        f = StepPotential([0, 1], [0.0], [(0.25, 1e308), (0.75, 1e308)])
        with pytest.raises(ValueError):
            wminus1_norm(f)
        # two masses 1e-9 apart: the error is the only report, with no numpy
        # warning before it
        g = StepPotential([0, 1], [0.0], [(0.5, 1e308), (0.5 + 1e-9, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                wminus1_norm(g)


class TestWminus1Dist:
    def test_identical_measures(self):
        rng = np.random.default_rng(45)
        f = random_measure(rng)
        assert wminus1_dist(f, f) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(46)
        f, g = random_measure(rng), random_measure(rng)
        assert wminus1_dist(f, g) == pytest.approx(wminus1_dist(g, f), rel=1e-14)

    def test_spike_converges_to_the_point_mass(self):
        delta = StepPotential([0, 1], [0.0], [(0.5, 1.0)])
        dists = []
        for n in (100, 1000, 10000):
            spike = StepPotential([0.0, 0.5 - 1.0 / n, 0.5, 1.0], [0.0, float(n), 0.0])
            d = wminus1_dist(spike, delta)
            assert d <= math.sqrt(1.0 / n)
            dists.append(d)
        assert dists[0] > dists[1] > dists[2]

    def test_sqrt_envelope_across_sites(self):
        for zeta in (0.25, 0.5, 0.9):
            delta = StepPotential([0, 1], [0.0], [(zeta, 1.0)])
            for n in (100, 1000, 10000):
                a = max(zeta - 1.0 / n, 0.0)
                spike = StepPotential([0.0, a, a + 1.0 / n, 1.0], [0.0, float(n), 0.0])
                d = wminus1_dist(spike, delta)
                # ||spike - delta||^2 = 1/(3n) + O(1/n^2): the kink of G at the site
                assert d == pytest.approx(math.sqrt(1.0 / (3 * n)), rel=0.2 / n)

    def test_equals_the_norm_of_the_difference(self):
        # read on the merged nodes, f - g is never built, and the sum is that
        # of f - g built exactly, bit for bit: every shared site here is a
        # breakpoint of f
        rng = np.random.default_rng(49)
        for _ in range(200):
            f, g = random_measure(rng), random_measure(rng)
            shared = [f.breakpoints[1], *(s for s, _ in g.deltas)]
            f = StepPotential(f.breakpoints, f.heights,
                              [*f.deltas, *((s, float(rng.normal())) for s in shared)])
            assert wminus1_dist(f, g) == wminus1_norm(difference(f, g))
            assert wminus1_dist(g, f) == wminus1_norm(difference(g, f))
        for n in (100, 10**4, 10**6):
            spike, _ = statement1_family(0.5, n, 0.25)
            delta = StepPotential([0, 1], [0.0], [(0.5, 1.0)])
            assert wminus1_dist(spike, delta) == wminus1_norm(difference(spike, delta))

    def test_masses_that_cancel_off_the_breakpoints(self):
        # f - g drops a mass that cancels at a site inside a cell, while the
        # merged nodes keep that site and split the cell there: the two sums
        # then differ by rounding only
        rng = np.random.default_rng(50)
        for _ in range(200):
            f, g = random_measure(rng), random_measure(rng)
            site, w = float(rng.uniform(0.01, 0.99)), float(rng.normal())
            f = StepPotential(f.breakpoints, f.heights, [*f.deltas, (site, w)])
            g = StepPotential(g.breakpoints, g.heights, [*g.deltas, (site, w)])
            d, ref = wminus1_dist(f, g), wminus1_norm(difference(f, g))
            assert abs(d - ref) <= 4 * math.ulp(ref)

    def test_overflowing_difference_raises(self):
        f = StepPotential([0.0, 0.5, 1.0], [1e308, 0.0])
        g = StepPotential([0.0, 0.25, 1.0], [-1e308, 1.0], [(0.5, 1e308)])
        h = StepPotential([0.0, 1.0], [0.0], [(0.5, -1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((f, g), (g, f), (g, h)):
                with pytest.raises(ValueError):
                    wminus1_dist(a, b)

    def test_exact_subtraction_cancels_shared_parts(self):
        f = StepPotential([0.0, 0.5, 1.0], [2.0, 1.0], [(0.3, 1.0)])
        g = StepPotential([0.0, 0.5, 1.0], [2.0, 1.0], [(0.3, 1.0)])
        diff = difference(f, g)
        assert np.all(diff.heights == 0.0)
        assert diff.deltas == ()


def polyval_energy(x, s, w):
    """The energy sum with g from a 12-term ``np.polyval`` of the series."""
    k = math.frexp(max(float(np.abs(s).max()), float(np.abs(w).max())))[1]
    s, w = np.ldexp(s, -k), np.ldexp(w, -k)
    length = np.diff(x)
    ex, emx = np.exp(x), np.exp(-x)
    dp, dq = -w * emx, w * ex
    dp[1:] += s * emx[:-1] * np.expm1(-length)
    dq[1:] += s * ex[:-1] * np.expm1(length)
    p, q = np.cumsum(dp), np.cumsum(dq)
    u0 = (q[-1] / math.e - p[-1] * math.e) / (2.0 * math.sinh(1.0))
    p, q = ex[:-1] * (u0 + p[:-1]), emx[:-1] * (u0 + q[:-1])
    u, du = 0.5 * (p + q), 0.5 * (p - q)
    sh = np.sinh(length)
    e = 2.0 * np.sinh(0.5 * length) ** 2
    ch = 1.0 + e
    g = np.polyval(_G_SERIES, length * length) * length**3
    energy = (sh * ch * (u * u + du * du) + 2.0 * sh * sh * u * du
              - 2.0 * s * e * (sh * u + ch * du) + s * s * g)
    return math.ldexp(math.sqrt(max(float(energy.sum()), 0.0)), k)


class TestEnergy:
    def test_in_place_series_is_the_12_term_polyval(self):
        # cell lengths in (0, 1], 1 itself included, where the top terms of
        # the series count most; x need not end at 1 for the comparison
        rng = np.random.default_rng(51)
        for trial in range(200):
            k = int(rng.integers(1, 60))
            if trial % 2:
                lengths = 10.0 ** rng.uniform(-15.0, 0.0, size=k)
            else:
                lengths = np.where(rng.random(k) < 0.3, 1.0, 1.0 - rng.random(k))
            x = np.concatenate(([0.0], np.cumsum(lengths)))
            s = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 13.0, k)
            w = np.where(rng.random(k + 1) < 0.2, rng.normal(size=k + 1), 0.0)
            assert _energy(x, s, w) == polyval_energy(x, s, w)


class TestSignedMeasureType:
    """StepPotential as a signed measure: either sign, masses merged per site."""

    def test_merges_and_drops_zero_weights(self):
        m = StepPotential([0, 1], [0.0], [(0.5, 1.0), (0.5, -1.0), (0.2, 0.5)])
        assert m.deltas == ((0.2, 0.5),)

    def test_from_potential(self):
        pot = Potential(StepPotential([0.0, 0.5, 1.0], [1.0, 2.0]), [(0.7, 3.0)])
        assert np.array_equal(pot.heights, [1.0, 2.0])
        assert pot.deltas == ((0.7, 3.0),)

    def test_round_trip(self):
        # random signed steps and masses, written as the CLI prints floats,
        # parse back bit for bit through --q-json with signed input allowed
        rng = np.random.default_rng(37)
        for _ in range(20):
            k, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            bp = [0.0, *np.sort(rng.uniform(0.0, 1.0, k - 1)).tolist(), 1.0]
            heights = (rng.normal(size=k) * 10.0 ** rng.integers(-5, 6, k)).tolist()
            deltas = [{"site": s, "weight": w}
                      for s, w in zip(rng.uniform(0.0, 1.0, n).tolist(), rng.normal(size=n).tolist())]
            text = dumps({"breakpoints": bp, "heights": heights, "deltas": deltas})
            back = cli._parse_potential(SimpleNamespace(q_json=text, q_file=None), signed=True)
            m = StepPotential(bp, heights, [(d["site"], d["weight"]) for d in deltas])
            assert np.array_equal(back.breakpoints, m.breakpoints)
            assert np.array_equal(back.heights, m.heights)
            assert back.deltas == m.deltas

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPotential([0.0, 0.5], [1.0])
        with pytest.raises(ValueError):
            StepPotential([0, 1], [0.0], [(1.5, 1.0)])

    def test_merged_weight_must_be_finite(self):
        with pytest.raises(ValueError):
            StepPotential([0, 1], [0.0], [(0.5, 1e308), (0.5, 1e308)])
        m = StepPotential([0, 1], [0.0], [(0.5, 1e308), (0.5, -1e308), (0.5, 1.0)])
        assert m.deltas == ((0.5, 1.0),)

    def test_overflowing_difference_raises_without_a_warning(self):
        # the package forms a difference only inside wminus1_dist
        high = StepPotential([0, 1], [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                wminus1_dist(high, high.scaled(-1.0))
