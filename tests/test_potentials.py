import json
import math
import warnings

import numpy as np
import pytest

from sl_extremal import (
    DeltaComponent,
    NegativeResult,
    NonPositiveExponentOnVanishingFunction,
    Potential,
    StepPotential,
    ZeroPotential,
    normalize_gamma,
    pnorm,
    refine_common,
    shift,
)
from sl_extremal.potentials import _cells

from conftest import random_positive_step


class TestConstruction:
    def test_breakpoints_must_span_unit_interval(self):
        with pytest.raises(ValueError):
            StepPotential([0.0, 0.5], [1.0])
        with pytest.raises(ValueError):
            StepPotential([0.1, 1.0], [1.0])

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError):
            StepPotential([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0])

    def test_heights_nonnegative(self):
        # a signed potential is a valid object; the A_gamma operations refuse it
        q = StepPotential([0.0, 0.5, 1.0], [-0.1, 1.0])
        for op in (lambda: pnorm(q, 1.0), lambda: normalize_gamma(q, 0.5),
                   lambda: shift(q, 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                op()

    def test_height_count(self):
        with pytest.raises(ValueError):
            StepPotential([0.0, 0.5, 1.0], [1.0])

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            StepPotential([0.0, 1.0], [0.0], [DeltaComponent(1.5, 1.0)])

    def test_equal_delta_sites_merge(self):
        pot = Potential(
            StepPotential.constant(0.0),
            [DeltaComponent(0.5, 1.0), DeltaComponent(0.25, 0.5), DeltaComponent(0.5, 2.0)],
        )
        assert [(d.site, d.weight) for d in pot.deltas] == [(0.25, 0.5), (0.5, 3.0)]

    def test_potential_builds_a_step_potential(self):
        step = StepPotential([0.0, 0.5, 1.0], [1.0, -2.0], [(0.5, 1.0)])
        pot = Potential(step, [DeltaComponent(0.5, 2.0), (0.25, -0.5)])
        assert isinstance(pot, StepPotential)
        assert pot.deltas == (DeltaComponent(0.25, -0.5), DeltaComponent(0.5, 3.0))
        assert pot.deltas[1].weight == 3.0
        # inherited constructors build a StepPotential, not a Potential
        for q in (Potential.constant(1.0), Potential.from_uniform_cells([1.0, 2.0]),
                  Potential.from_dict(pot.to_dict()), Potential.pure_delta(0.5, 1.0),
                  pot.scaled(2.0), pot - pot):
            assert type(q) is StepPotential

    def test_immutability(self):
        q = StepPotential.constant(1.0)
        with pytest.raises(ValueError):
            q.heights[0] = 2.0


class TestPnorm:
    @pytest.mark.parametrize("p", [-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    def test_constant_one_identity(self, p):
        assert pnorm(StepPotential.constant(1.0), p) == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_geometric_mean(self):
        y = StepPotential([0.0, 0.5, 1.0], [2.0, 0.5])
        assert pnorm(y, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_spike_half_exponent(self):
        # height 4 on a quarter-length cell: (4^(1/2) * 1/4)^2 = 1/4
        y = StepPotential([0.0, 0.25, 0.5, 1.0], [0.0, 4.0, 0.0])
        assert pnorm(y, 0.5) == pytest.approx(0.25, rel=1e-13)

    def test_zero_heights_allowed_for_positive_p(self):
        y = StepPotential([0.0, 0.5, 1.0], [0.0, 2.0])
        assert pnorm(y, 1.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, -0.5, -2.0])
    def test_vanishing_function_rejected_for_nonpositive_p(self, p):
        y = StepPotential([0.0, 0.5, 1.0], [0.0, 2.0])
        with pytest.raises(NonPositiveExponentOnVanishingFunction):
            pnorm(y, p)

    def test_deltas_are_a_contract_error(self):
        pot = Potential.pure_delta(0.5, 1.0)
        with pytest.raises(ValueError):
            pnorm(pot, 1.0)

    def test_potential_without_deltas_accepted(self):
        pot = Potential(StepPotential.constant(2.0))
        assert pnorm(pot, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_monotone_in_exponent(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = random_positive_step(rng)
            p, r = sorted(rng.uniform(-3.0, 3.0, size=2))
            if p == r:
                continue
            assert pnorm(y, p) <= pnorm(y, r) * (1.0 + 1e-12)

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = random_positive_step(rng)
            assert pnorm(y, 1e-6) == pytest.approx(pnorm(y, 0.0), rel=1e-4)

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            y = random_positive_step(rng)
            p = float(rng.uniform(-3.0, 3.0))
            c = float(rng.uniform(0.1, 10.0))
            assert pnorm(y.scaled(c), p) == pytest.approx(c * pnorm(y, p), rel=1e-12)

    @pytest.mark.parametrize("h, p", [
        (1e5, -4.0),      # S = 1e-20: S - 1 rounds to -1
        (1e-13, 100.0),   # S underflows
        (1e13, 100.0),    # S overflows
        (1e-13, -100.0),  # S overflows
    ])
    def test_integral_far_from_one(self, h, p):
        y = StepPotential([0.0, 0.25, 1.0], [h, 2.0 * h])
        ref = h * (0.25 + 0.75 * 2.0**p) ** (1.0 / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # handled under/overflow stays silent
            assert pnorm(y, p) == pytest.approx(ref, rel=1e-13)

    def test_nonfinite_exponent_rejected(self):
        with pytest.raises(ValueError):
            pnorm(StepPotential.constant(1.0), math.inf)


class TestNormalizeGamma:
    def test_constant_four_half_exponent(self):
        q, kappa = normalize_gamma(StepPotential.constant(4.0), 0.5)
        assert kappa == pytest.approx(4.0, rel=1e-14)
        assert np.allclose(q.heights, 1.0, rtol=1e-14)

    @pytest.mark.parametrize("c,gamma", [(0.3, -1.0), (7.0, 2.0), (2.5, 0.25)])
    def test_constants_normalize_to_one(self, c, gamma):
        q, kappa = normalize_gamma(StepPotential.constant(c), gamma)
        assert kappa == pytest.approx(c, rel=1e-13)
        assert np.allclose(q.heights, 1.0, rtol=1e-13)

    def test_two_cell_quadratic_case(self):
        # independent arithmetic: kappa^2 = 9/2 + 1/2 = 5
        f = StepPotential([0.0, 0.5, 1.0], [3.0, 1.0])
        q, kappa = normalize_gamma(f, 2.0)
        assert kappa == pytest.approx(math.sqrt(5.0), rel=1e-14)
        assert q.heights[0] == pytest.approx(3.0 / math.sqrt(5.0), rel=1e-14)
        assert q.heights[1] == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-14)
        assert pnorm(q, 2.0) == pytest.approx(1.0, rel=1e-13)

    def test_result_is_on_the_manifold(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            y = random_positive_step(rng)
            gamma = float(rng.choice([-1.5, -0.5, 0.25, 0.5, 2.0, 3.0]))
            q, _ = normalize_gamma(y, gamma)
            assert pnorm(q, gamma) == pytest.approx(1.0, abs=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            y = random_positive_step(rng)
            q, _ = normalize_gamma(y, 0.5)
            _, kappa = normalize_gamma(q, 0.5)
            assert abs(kappa - 1.0) <= 1e-12

    def test_zero_potential_rejected(self):
        with pytest.raises(ZeroPotential):
            normalize_gamma(StepPotential.constant(0.0), 2.0)

    def test_vanishing_cell_with_negative_gamma_rejected(self):
        y = StepPotential([0.0, 0.5, 1.0], [0.0, 2.0])
        with pytest.raises(ZeroPotential):
            normalize_gamma(y, -1.0)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_gamma(StepPotential.constant(1.0), 0.0)


class TestShift:
    def test_zero_up_five(self):
        q = shift(StepPotential.constant(0.0), 5.0)
        assert np.array_equal(q.heights, [5.0])

    def test_down_to_admissibility_boundary(self):
        q = shift(StepPotential([0.0, 0.5, 1.0], [1.0, 2.0]), -1.0)
        assert np.array_equal(q.heights, [0.0, 1.0])

    def test_below_zero_rejected(self):
        with pytest.raises(NegativeResult):
            shift(StepPotential([0.0, 0.5, 1.0], [1.0, 2.0]), -1.5)

    def test_breakpoints_unchanged(self):
        q0 = StepPotential([0.0, 0.3, 1.0], [1.0, 2.0])
        q = shift(q0, 2.0)
        assert np.array_equal(q.breakpoints, q0.breakpoints)


class TestValueAt:
    def test_cells_are_half_open_to_the_right(self):
        q = StepPotential([0.0, 0.25, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert q.value_at(0.0) == 1.0
        assert q.value_at(0.2) == 1.0
        assert q.value_at(0.25) == 2.0
        assert q.value_at(0.5) == 3.0
        assert q.value_at(1.0) == 3.0

    def test_outside_the_interval_takes_the_end_cells(self):
        q = StepPotential([0.0, 0.5, 1.0], [1.0, 2.0])
        assert q.value_at(-1.0) == 1.0
        assert q.value_at(2.0) == 2.0


class TestCells:
    @staticmethod
    def _reference(q, nodes):
        """The decomposition by sets and scans: sorted nodes, the height of
        the step cell holding each node's right neighbourhood, and the masses
        summed per node."""
        bps = q.breakpoints.tolist()
        x = sorted(set(bps) | {site for site, _ in q.deltas} | set(nodes))
        s = [q.heights[max(i for i, b in enumerate(bps[:-1]) if b <= a)] for a in x[:-1]]
        w = [sum(m for site, m in q.deltas if site == a) for a in x]
        return x, s, w

    @staticmethod
    def _draw(rng):
        k = int(rng.integers(1, 8))
        bps = np.unique(np.r_[0.0, rng.uniform(0.0, 1.0, k - 1), 1.0])
        special = [0.0, 1.0, *bps[1:-1], *np.nextafter(bps[1:-1], 2.0),
                   *np.nextafter(bps[1:-1], -1.0), *rng.uniform(0.0, 1.0, 3)]
        picks = rng.choice(len(special), size=int(rng.integers(0, 5)))
        q = StepPotential(bps, rng.uniform(-50.0, 50.0, bps.size - 1),
                          [(special[i], rng.uniform(-10.0, 10.0)) for i in picks])
        nodes = [*np.arange(int(rng.integers(2, 9)) + 1) / 8,
                 *[site for site, _ in q.deltas][:1], *bps[1:2]]
        return q, nodes if rng.random() < 0.7 else []

    def test_matches_the_set_and_scan_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            q, nodes = self._draw(rng)
            x, s, w = _cells(q, np.array(nodes))
            ref_x, ref_s, ref_w = self._reference(q, nodes)
            assert x.tolist() == ref_x
            assert s.tolist() == ref_s
            assert w.tolist() == ref_w

    def test_masses_on_breakpoints_ends_and_nodes(self):
        q = StepPotential([0.0, 0.3, 0.75, 1.0], [2.0, -1.0, 5.0],
                          [(0.0, 1.0), (0.3, 1.5), (0.5, 4.0), (0.75, -2.0), (1.0, 3.0)])
        x, s, w = _cells(q, np.arange(5) / 4)
        assert x.tolist() == [0.0, 0.25, 0.3, 0.5, 0.75, 1.0]
        assert s.tolist() == [2.0, 2.0, -1.0, -1.0, 5.0]
        assert w.tolist() == [1.0, 0.0, 1.5, 4.0, -2.0, 3.0]

    def test_one_ulp_from_a_breakpoint(self):
        up = float(np.nextafter(0.5, 1.0))
        q = StepPotential([0.0, 0.5, 1.0], [1.0, 2.0], [(up, 7.0)])
        x, s, w = _cells(q)
        assert x.tolist() == [0.0, 0.5, up, 1.0]
        assert s.tolist() == [1.0, 2.0, 2.0]  # the one-ulp cell keeps its height
        assert w.tolist() == [0.0, 0.0, 7.0, 0.0]

    def test_without_masses_the_arrays_are_q_s_own(self):
        q = StepPotential([0.0, 0.2, 0.7, 1.0], [3.0, 0.0, 1.0])
        x, s, w = _cells(q)
        assert x is q.breakpoints and s is q.heights
        assert w.tolist() == [0.0] * 4


class TestRefineCommon:
    def test_coarse_against_fine(self):
        a = StepPotential([0.0, 1.0], [2.0])
        b = StepPotential([0.0, 0.5, 1.0], [1.0, 3.0])
        ra, rb = refine_common(a, b)
        assert np.array_equal(ra.breakpoints, [0.0, 0.5, 1.0])
        assert np.array_equal(ra.heights, [2.0, 2.0])
        assert np.array_equal(rb.heights, [1.0, 3.0])

    def test_identical_grids_unchanged(self):
        a = StepPotential([0.0, 0.25, 1.0], [1.0, 2.0])
        ra, rb = refine_common(a, a)
        assert ra.equals(a) and rb.equals(a)

    def test_deltas_are_carried_through(self):
        a = StepPotential([0.0, 1.0], [2.0], [(0.5, 1.0)])
        b = StepPotential([0.0, 0.5, 1.0], [1.0, 3.0], [(0.0, -2.0)])
        ra, rb = refine_common(a, b)
        assert ra.deltas == a.deltas and rb.deltas == b.deltas

    def test_union_of_interior_points(self):
        a = StepPotential([0.0, 1.0 / 3.0, 1.0], [1.0, 2.0])
        b = StepPotential([0.0, 0.5, 1.0], [5.0, 6.0])
        ra, rb = refine_common(a, b)
        assert np.array_equal(ra.breakpoints, [0.0, 1.0 / 3.0, 0.5, 1.0])
        assert np.array_equal(ra.heights, [1.0, 2.0, 2.0])
        assert np.array_equal(rb.heights, [5.0, 5.0, 6.0])

    def test_one_ulp_cell_keeps_its_height(self):
        # the midpoint of a one-ulp cell rounds to its right end
        q = StepPotential([0.0, 0.3, math.nextafter(0.3, 1.0), 1.0], [1.0, 2.0, 3.0])
        assert np.array_equal((q - StepPotential.constant(0.0)).heights, [1.0, 2.0, 3.0])


class TestSerialization:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            q = random_positive_step(rng)
            pot = Potential(q, [DeltaComponent(float(rng.uniform(0, 1)), float(rng.uniform(0.1, 3)))])
            data = json.loads(json.dumps(pot.to_dict()))
            back = StepPotential.from_dict(data)
            assert back.equals(pot)
            assert back.deltas == pot.deltas

    def test_step_dict_shape(self):
        d = StepPotential([0.0, 0.5, 1.0], [1.0, 2.0]).to_dict()
        assert d == {"breakpoints": [0.0, 0.5, 1.0], "heights": [1.0, 2.0]}

    def test_from_dict_accepts_missing_deltas(self):
        pot = StepPotential.from_dict({"breakpoints": [0.0, 1.0], "heights": [3.0]})
        assert pot.deltas == ()
