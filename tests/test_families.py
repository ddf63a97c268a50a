from collections import Counter
from fractions import Fraction
import itertools
import math
import warnings

import numpy as np
import pytest

from sl_extremal import (
    ConvergenceTable,
    ExtremumSearchSpec,
    NormBudgetExceeded,
    RobinBC,
    SpikeTrainSpec,
    StepPotential,
    TableRow,
    ZeroPotential,
    lambda1,
    lambda1_fd,
    lambda1_zero,
    normalize_gamma,
    pnorm,
    search_extremum,
    statement1_family,
    statement2_family,
    statement3_family,
    theta_end,
    verify_thm1,
    verify_thm2,
)
from sl_extremal import eigensolver, families
from sl_extremal.potentials import _normalized
from sl_extremal.families import _rescaled, statement2_budget

from conftest import random_positive_step

BC00 = RobinBC(0.0, 0.0)
BC11 = RobinBC(1.0, 1.0)


class TestStatement1Family:
    def test_midpoint_spike_geometry_and_norm(self):
        q, gamma_norm = statement1_family(0.5, 4, 0.5)
        assert gamma_norm == pytest.approx(0.25, rel=1e-15)
        assert np.allclose(q.breakpoints, [0.0, 0.25, 0.5, 1.0])
        assert np.array_equal(q.heights, [0.0, 4.0, 0.0])

    def test_left_edge_clips_the_shift(self):
        q, _ = statement1_family(0.0, 10, 0.5)
        assert q.breakpoints[0] == 0.0
        assert q.heights[0] == 10.0
        assert q.breakpoints[1] == pytest.approx(0.1, rel=1e-15)

    def test_right_edge_support_stays_inside(self):
        q, _ = statement1_family(1.0, 7, 0.5)
        assert q.breakpoints[-1] == 1.0
        assert q.heights[-1] == 7.0

    def test_unit_mass(self):
        for zeta in (0.0, 0.3, 1.0):
            q, _ = statement1_family(zeta, 11, 0.5)
            assert pnorm(q, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_norm_matches_closed_form(self):
        for gamma in (0.25, 0.5, 0.75):
            for n in (2, 10, 100, 10**4):
                q, gn = statement1_family(0.5, n, gamma)
                ref = float(n) ** ((gamma - 1.0) / gamma)
                assert gn == pytest.approx(ref, rel=1e-15)
                assert pnorm(q, gamma) == pytest.approx(ref, rel=1e-12)

    def test_built_spike_width_and_norm_are_off_by_rounding_only(self):
        # the float endpoints make the width off by at most 2^-54, so the
        # returned n^((gamma-1)/gamma) and pnorm of the built spike differ by
        # at most about n * 2^-54 / gamma relative
        rng = np.random.default_rng(5)
        zetas = [0.0, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0, *rng.uniform(0.0, 1.0, 6)]
        for n in (3, 7, 100, 12345, 10**4, 10**6):
            for zeta in zetas:
                q, _ = statement1_family(zeta, n, 0.5)
                x1, x2 = (q.breakpoints[1:3] if q.heights[0] == 0.0 else q.breakpoints[:2])
                gap = Fraction(x2) - Fraction(x1) - Fraction(1.0 / n)
                assert abs(gap) <= Fraction(2.0**-54)
                for gamma in (0.1, 0.25, 0.5, 0.9):
                    q, gn = statement1_family(zeta, n, gamma)
                    rel = abs(pnorm(q, gamma) - gn) / gn
                    assert rel <= n * 2.0**-54 / gamma + 1e-14
        # the worst case the limits benchmark reads
        q, gn = statement1_family(0.5, 10**6, 0.25)
        assert abs(pnorm(q, 0.25) - gn) / gn == pytest.approx(1.07e-10, rel=0.01)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            statement1_family(0.5, 4, 1.5)
        with pytest.raises(ValueError):
            statement1_family(0.5, 1, 0.5)


class TestStatement3Family:
    def test_example_geometry(self):
        q = statement3_family(2.0, 9)
        assert q.heights[0] == pytest.approx(3.0, rel=1e-15)
        assert q.breakpoints[1] == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert pnorm(q, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert pnorm(q, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_mass_vanishes(self):
        q = statement3_family(2.0, 10**4)
        assert pnorm(q, 1.0) == pytest.approx(1e-2, rel=1e-12)

    def test_always_in_the_constraint_set(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            gamma = float(rng.uniform(1.01, 6.0))
            n = int(rng.integers(2, 10**5))
            q = statement3_family(gamma, n)
            assert np.all(q.heights >= 0.0)
            assert pnorm(q, gamma) == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            statement3_family(0.5, 10)


class TestStatement2Family:
    SPEC = SpikeTrainSpec(rho_star=10.0, floor=0.1, spikes=100, height=1e6, nu=0.75)

    def test_budget_matches_independent_arithmetic(self):
        spec = self.SPEC
        # closed form: m spikes of width d at height h+r over floor r
        d = (spec.rho_star - spec.floor) / spec.spikes / spec.height
        integral = spec.spikes * d * (spec.height + spec.floor) ** spec.nu
        integral += (1.0 - spec.spikes * d) * spec.floor**spec.nu
        expected = integral ** (1.0 / spec.nu)
        assert statement2_budget(spec) == pytest.approx(expected, rel=1e-12)
        assert expected < 1.0

    def test_example_produces_admissible_member(self):
        q, kappa = statement2_family(self.SPEC, 0.5)
        assert 0.0 < kappa < 1.0
        assert pnorm(q, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert kappa <= statement2_budget(self.SPEC)  # norm family is monotone

    def test_single_spike_degenerate_train(self):
        spec = SpikeTrainSpec(rho_star=5.0, floor=0.1, spikes=1, height=1e6, nu=0.75)
        q, kappa = statement2_family(spec, 0.5)
        assert 0.0 < kappa < 1.0
        assert pnorm(q, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_back_recovers_the_raw_train(self):
        q, kappa = statement2_family(self.SPEC, 0.5)
        spec = self.SPEC
        raw_peak = spec.height + spec.floor
        raw = np.where(q.heights * kappa > 1.0, raw_peak, spec.floor)
        assert np.allclose(kappa * q.heights, raw, rtol=1e-15)
        assert q.widths[1] == pytest.approx(spec.spike_width, rel=1e-9)

    @pytest.mark.parametrize("spikes,height,gamma", [
        (1, 1e6, 0.5), (3, 1e7, 0.5), (100, 1e6, 0.25), (10**4, 1e13, -1.0)])
    def test_arrays_match_the_loop_construction(self, spikes, height, gamma):
        # the spike-by-spike loop the arrays are built in one pass from,
        # with the same float operations, so the result is bit-identical
        spec = SpikeTrainSpec(rho_star=10.0, floor=0.1, spikes=spikes, height=height, nu=0.75)
        pts, heights = [0.0], []
        for j in range(1, spikes + 1):
            a = (j - 0.5) / spikes - 0.5 * spec.spike_width
            pts += [a, a + spec.spike_width]
            heights += [spec.floor, spec.height + spec.floor]
        expected, kappa = normalize_gamma(StepPotential(pts + [1.0], heights + [spec.floor]), gamma)
        q, got = statement2_family(spec, gamma)
        assert got == kappa
        assert np.array_equal(q.breakpoints, expected.breakpoints)
        assert np.array_equal(q.heights, expected.heights)

    def test_norm_budget_enforced(self):
        spec = SpikeTrainSpec(rho_star=10.0, floor=0.1, spikes=100, height=200.0, nu=0.75)
        with pytest.raises(NormBudgetExceeded):
            statement2_family(spec, 0.5)

    def test_spike_below_the_float_spacing_is_refused(self):
        # the height verify_thm1 tunes for rho* = 30000: spikes 3e-17 wide,
        # below half an ulp on [1/2, 1), so a + width rounds to a at 50 sites
        spec = SpikeTrainSpec(rho_star=30000.0, floor=0.1, spikes=100, height=1e19, nu=0.75)
        with pytest.raises(NormBudgetExceeded, match=r"spike width 2\.99999e-17 at rho\* = 30000"):
            statement2_family(spec, 0.5)
        with pytest.raises(NormBudgetExceeded, match=r"rho\* = 30000"):
            verify_thm1(0.5, BC00, [30000.0])

    def test_nu_window_validated(self):
        with pytest.raises(ValueError):
            statement2_family(self.SPEC, 0.8)  # nu = 0.75 not above gamma
        with pytest.raises(ValueError):
            SpikeTrainSpec(rho_star=10.0, floor=1.5, spikes=100, height=1e6, nu=0.75)

    def test_spike_width_must_fit_spacing(self):
        with pytest.raises(ValueError):
            SpikeTrainSpec(rho_star=10.0, floor=0.1, spikes=10, height=0.5, nu=0.75)


class TestVerifyThm2:
    def test_gap_tracks_the_vanishing_mass(self):
        table = verify_thm2(2.0, BC00, [100])
        row = table.rows[0]
        q = statement3_family(2.0, 100)
        mass = pnorm(q, 1.0)
        # for Neumann conditions the gap sits at the mass scale (slightly above)
        assert row.gap == pytest.approx(mass, rel=0.5)
        assert row.gap <= 1.5 * mass
        # independent discretization agrees at this row
        assert lambda1_fd(q, BC00, 4096) == pytest.approx(row.lambda1, abs=1e-4)

    def test_symmetric_robin_large_n(self):
        table = verify_thm2(2.0, BC11, [10**4])
        assert table.rows[0].gap < 0.05

    def test_smallest_admissible_n_present(self):
        table = verify_thm2(2.0, BC11, [2, 10])
        assert table.rows[0].n_or_rho == 2.0
        assert math.isfinite(table.rows[0].lambda1)

    def test_rows_sorted_and_monotone_gap(self):
        table = verify_thm2(2.0, BC11, [1000, 10, 100])
        ns = [r.n_or_rho for r in table.rows]
        assert ns == sorted(ns)
        gaps = [r.gap for r in table.rows]
        assert all(a >= b - 1e-8 for a, b in zip(gaps, gaps[1:]))

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            verify_thm2(0.5, BC11, [10])


class TestVerifyThm1:
    def test_certified_drop_below_the_target(self):
        table = verify_thm1(0.5, BC00, [10.0])
        row = table.rows[0]
        detail = table.details[0]
        assert row.lambda1 < -5.0
        assert detail["gamma_norm_error"] <= 1e-10
        assert 0.0 < detail["kappa"] < 1.0

    def test_both_protocols_share_one_table_type(self):
        thm1 = verify_thm1(0.5, BC00, [10.0])
        thm2 = verify_thm2(2.0, BC00, [10])
        assert type(thm1) is ConvergenceTable and type(thm2) is ConvergenceTable
        assert len(thm1.details) == 1 and thm2.details == ()
        assert {type(r) for r in thm1.rows + thm2.rows} == {TableRow}

    def test_levels_strictly_decreasing(self):
        table = verify_thm1(0.5, BC00, [10.0, 100.0])
        assert table.rows[1].lambda1 < table.rows[0].lambda1

    def test_works_for_negative_gamma(self):
        table = verify_thm1(-1.0, BC00, [10.0], spikes=50)
        assert table.rows[0].lambda1 < -5.0
        assert table.details[0]["gamma_norm_error"] <= 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_thm1(1.5, BC00, [10.0])
        with pytest.raises(ValueError):
            verify_thm1(0.5, BC00, [100.0, 10.0])
        with pytest.raises(ValueError):
            verify_thm1(0.5, BC00, [0.5])

    @pytest.mark.parametrize("kw", [{"spikes": 0}, {"spikes": -3}],
                             ids=["no-spikes", "negative-spikes"])
    def test_certificate_arguments_validated(self, kw):
        # a train without spikes would divide its weight by 0
        with pytest.raises(ValueError):
            verify_thm1(0.5, BC00, [10.0], **kw)


class TestSearchExtremum:
    def test_max_mode_stays_below_the_ceiling(self):
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=4, max_iters=60)
        res = search_extremum(spec, BC11)
        ceiling = lambda1_zero(BC11)
        values = [v for _, v in res.trace]
        assert all(v <= ceiling + 1e-6 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert res.best_lambda >= values[0]

    def test_stops_once_the_step_falls_below_its_floor(self):
        # max_iters is out of reach: the halved step drops below 1e-3 first
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=8, max_iters=100000)
        res = search_extremum(spec, BC11)
        assert res.evaluations == 546
        assert res.best_lambda == pytest.approx(1.3972733052564164, rel=1e-13, abs=0.0)

    def test_min_mode_with_finite_gamma_above_one(self):
        # outside the two limit theorems: iterates must simply stay finite
        spec = ExtremumSearchSpec(gamma=2.0, mode="min", cells=4, max_iters=40)
        res = search_extremum(spec, BC00)
        assert all(math.isfinite(v) for _, v in res.trace)
        assert res.best_lambda <= -1.0  # no worse than the uniform start

    def test_min_mode_trace_is_nonincreasing(self):
        spec = ExtremumSearchSpec(gamma=0.5, mode="min", cells=8, max_iters=60,
                                  step_init=2.0, height_cap=50.0)
        res = search_extremum(spec, BC00)
        values = [v for _, v in res.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_height_cap_respected(self):
        spec = ExtremumSearchSpec(gamma=0.5, mode="min", cells=8, max_iters=80,
                                  step_init=2.0, height_cap=20.0)
        res = search_extremum(spec, BC00)
        assert res.best_q.heights.max() <= 20.0

    def test_start_potential_is_renormalized(self):
        start = StepPotential.from_uniform_cells([4.0, 1.0, 1.0, 1.0])
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=4, max_iters=5,
                                  start=start)
        res = search_extremum(spec, BC11)
        assert pnorm(res.best_q, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_every_iterate_is_on_the_manifold(self):
        spec = ExtremumSearchSpec(gamma=0.5, mode="min", cells=4, max_iters=30,
                                  height_cap=100.0)
        res = search_extremum(spec, BC00)
        assert pnorm(res.best_q, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_one_theta_evaluation_decides_like_two_solves(self):
        # the move rule of search_extremum: with best the incumbent's
        # eigenvalue, sign * (theta(1; best) - target) < 0 exactly when
        # lambda_1(cand) lies beyond best in the search direction
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(30):
            bc = RobinBC(*rng.uniform(0.0, 4.0, size=2))
            gamma = float(rng.choice([0.5, 2.0]))
            q, _ = normalize_gamma(random_positive_step(rng), gamma)
            heights = q.heights.copy()
            heights[rng.integers(heights.size)] *= rng.uniform(0.5, 2.0)
            cand, _ = normalize_gamma(StepPotential(q.breakpoints, heights), gamma)
            lam_q = lambda1(q, bc).lambda1
            lam_c = lambda1(cand, bc).lambda1
            scale = max(1.0, abs(lam_c))
            for best in (lam_q, *(lam_c + r * scale for r in (-1e-2, -1e-11, 1e-11, 1e-2))):
                if abs(lam_c - best) <= 1e-12 * max(1.0, abs(best)):
                    continue
                gap = theta_end(cand, bc, best) - bc.theta_target
                for sign in (1.0, -1.0):
                    assert (sign * gap < 0.0) == (sign * (lam_c - best) > 0.0)
                checked += 1
        assert checked >= 140

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_trace_is_strictly_monotone(self, mode, seeded):
        rng = np.random.default_rng(3)
        if mode == "max":
            cells, kw, bc = 8, dict(gamma=2.0, max_iters=500), BC11
        else:
            cells, kw, bc = 16, dict(gamma=0.5, max_iters=150, step_init=2.0, height_cap=32.0), BC00
        start = StepPotential.from_uniform_cells(rng.uniform(0.2, 5.0, size=cells)) if seeded else None
        res = search_extremum(ExtremumSearchSpec(mode=mode, cells=cells, start=start, **kw), bc)
        values = [v for _, v in res.trace]
        steps = np.diff(values) if mode == "max" else -np.diff(values)
        assert len(values) > 10 and np.all(steps > 0.0)
        assert res.best_lambda == values[-1]
        assert res.best_lambda == pytest.approx(lambda1(res.best_q, bc).lambda1, rel=1e-12)

    def test_readme_search_theta_evaluations(self, monkeypatch):
        calls = Counter()

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        # the move decisions and the solves both walk through the shot
        monkeypatch.setattr(eigensolver._Shot, "miss", counted("theta", eigensolver._Shot.miss))
        monkeypatch.setattr(families, "_normalized", counted("array", families._normalized))
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=8, max_iters=500)
        res = search_extremum(spec, BC11)
        assert res.evaluations == 501
        # a rejected proposal costs one theta-evaluation, and a solve starts
        # from the one its decision computed at best_lambda
        assert calls["theta"] <= 1357
        # a proposal is renormalised on floats unless |S - 1| > 1/2, which
        # here is 52 of 500: a cell near the top height 2.8 doubled or halved
        assert calls["array"] <= 52

    # the trajectories of a max-mode search (the README's) and of a capped
    # min-mode search from a seeded start: any change to the order or the
    # arithmetic of the loop moves one of these
    @pytest.mark.parametrize("mode,evaluations,entries,best", [
        ("max", 501, 179, 1.3972733052564164),
        ("min", 111, 41, -2.67681098364678),
    ])
    def test_trajectory_is_pinned(self, mode, evaluations, entries, best):
        if mode == "max":
            spec, bc = ExtremumSearchSpec(gamma=2.0, mode="max", cells=8, max_iters=500), BC11
        else:
            start = StepPotential.from_uniform_cells(
                np.random.default_rng(3).uniform(0.2, 5.0, size=16))
            spec = ExtremumSearchSpec(gamma=0.5, mode="min", cells=16, max_iters=150,
                                      step_init=2.0, height_cap=16.0, start=start)
            bc = BC00
        res = search_extremum(spec, bc)
        assert res.evaluations == evaluations
        assert len(res.trace) == entries
        assert res.best_lambda == pytest.approx(best, rel=1e-15, abs=0.0)
        assert res.best_q.heights.max() <= spec.height_cap

    def test_overflowing_proposals_are_rejected(self, monkeypatch):
        # a step of 1e308 overflows any height above 1.8 that an up move
        # scales: that proposal is rejected unevaluated, and the others run
        start = StepPotential.from_uniform_cells([4.0, 1.0, 1.0, 1.0])
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=4, max_iters=40,
                                  step_init=1e308, start=start)
        with np.errstate(over="ignore"):
            res = search_extremum(spec, BC11)
        assert res.evaluations == 39
        assert [i for i, _ in res.trace] == [0, 3]
        assert [v for _, v in res.trace] == pytest.approx([0.9249038250087431, 1.1361025828171227],
                                                          rel=1e-15, abs=0.0)
        # an overflow in h / kappa or a failed normalization is rejected too:
        # a down move is renormalised on floats, where a kappa of 5e-324
        # overflows every height, and an up move (|S - 1| = 3/4 > 1/2) by
        # _normalized, made to fail
        def failing(h, w, gamma):
            raise ZeroPotential("gamma-norm is 0.0; cannot normalize")

        monkeypatch.setattr(families, "_kappa", lambda s, p: 5e-324)
        monkeypatch.setattr(families, "_normalized", failing)
        res = search_extremum(ExtremumSearchSpec(gamma=2.0, mode="max", cells=4,
                                                 max_iters=20), BC11)
        assert res.evaluations == 1 and len(res.trace) == 1
        assert np.array_equal(res.best_q.heights, np.ones(4))

    def test_a_zero_height_start_keeps_the_float_path(self, monkeypatch):
        # u_i = 0^gamma - 1 = -1 for gamma > 0, so the incumbent's terms exist,
        # a proposal that scales the zero cell leaves it at 0 with the same
        # term, and only the 50 proposals with |S - 1| > 1/2 go to _normalized;
        # all 500 did when a zero height left the incumbent without terms, and
        # 114 when a zero proposed height still took the array path
        calls = Counter()

        def normalized(*args):
            calls["array"] += 1
            return _normalized(*args)

        monkeypatch.setattr(families, "_normalized", normalized)
        start = StepPotential.from_uniform_cells([0.0, 1, 1, 1, 1, 1, 1, 1])
        spec = ExtremumSearchSpec(gamma=2.0, mode="max", cells=8, max_iters=500, start=start)
        res = search_extremum(spec, BC11)
        assert calls["array"] <= 50
        values = [v for _, v in res.trace]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(pnorm(res.best_q, 2.0) - 1.0) <= 1e-10
        # the value the search reached when every proposal took the array path
        assert res.best_lambda == pytest.approx(1.347026046418061, rel=1e-13, abs=0.0)

    def test_a_failed_normalisation_counts_toward_the_step_shrink(self, monkeypatch):
        # K = 2 from q = 1: every move tops 1.26 after renormalisation, so a cap
        # of 1.1 rejects proposals 1-3, and proposal 4 fails to normalise.  That
        # is the 2K-th rejection in a row, so proposal 5 already has step 1/2.
        hcs = []

        def rescaled(h, w, terms, cell, hc, gamma):
            hcs.append(hc)
            return None if len(hcs) == 4 else _rescaled(h, w, terms, cell, hc, gamma)

        def normalized(h, w, gamma):
            if len(hcs) == 4:
                raise ZeroPotential("gamma-norm is 0.0; cannot normalize")
            return _normalized(h, w, gamma)

        monkeypatch.setattr(families, "_rescaled", rescaled)
        monkeypatch.setattr(families, "_normalized", normalized)
        res = search_extremum(ExtremumSearchSpec(gamma=2.0, mode="max", cells=2, max_iters=6,
                                                 height_cap=1.1), BC11)
        assert hcs == [2.0, 0.5, 2.0, 0.5, 1.5, 1.0 / 1.5]
        assert res.evaluations == 1 and len(res.trace) == 1

    @staticmethod
    def _array_verdict(h, w, cell, hc, gamma):
        """The search's array path: (heights, kappa), or None for a rejection."""
        if hc == math.inf:
            return None
        heights = np.array(h)
        heights[cell] = hc
        try:
            cand, kappa = _normalized(heights, np.array(w), gamma)
        except ValueError:
            return None
        return None if cand.max() == math.inf else (cand.tolist(), kappa)

    @staticmethod
    def _fallback_reason(w, terms, cell, hc, gamma):
        if hc == math.inf:
            return "hc not finite"
        if hc == 0.0 > gamma:
            return "hc 0 at gamma < 0"
        if terms is None:
            return "incumbent terms"
        u, s = terms
        try:
            s += w[cell] * (math.expm1(gamma * math.log(hc)) - u[cell])
        except OverflowError:
            return "overflow"
        assert abs(s) > 0.5
        return "|S - 1| > 1/2"

    def test_scalar_renormalisation_matches_the_array_path(self):
        # incumbents on A_gamma as the search keeps them, and every factor of
        # the default step schedule plus an overflowing step of 1e308
        steps = [2.0 ** -i for i in range(11)] + [1e308]
        factors = [f for step in steps for f in (1.0 + step, 1.0 / (1.0 + step))]
        rng = np.random.default_rng(11)
        # hc underflows to 0: the term is -1 at gamma > 0, and undefined at gamma < 0
        incumbents = [([1e-300, math.sqrt(2.0)], [0.5, 0.5], 2.0)]
        h, _ = _normalized(np.array([1e-300, 1.0]), np.array([0.5, 0.5]), -1e-300)
        incumbents.append((h.tolist(), [0.5, 0.5], -1e-300))
        for k in range(2, 17):
            w = np.diff(np.linspace(0.0, 1.0, k + 1))
            for gamma in (-3.0, -1.0, 1e-300, 0.25, 0.5, 2.0, 7.0, 1e300):
                h, _ = _normalized(10.0 ** rng.uniform(-3.0, 3.0, size=k), w, gamma)
                incumbents.append((h.tolist(), w.tolist(), gamma))
        reasons = Counter()
        with np.errstate(over="ignore"):  # as in search_extremum
            for h, w, gamma in incumbents:
                terms = families._terms(h, w, gamma)
                for cell, f in itertools.product(range(len(h)), factors):
                    hc = h[cell] * f
                    cand = families._rescaled(h, w, terms, cell, hc, gamma)
                    if cand is None:  # the search asks _normalized itself
                        reasons[self._fallback_reason(w, terms, cell, hc, gamma)] += 1
                        continue
                    reasons["scalar"] += 1
                    ref = self._array_verdict(h, w, cell, hc, gamma)
                    assert (ref is None) == (max(cand) == math.inf), (h, gamma, cell, f)
                    if ref is None:
                        continue
                    # the two sums of h^gamma - 1 round differently, and exp
                    # scales that by |ln kappa|; a subnormal height keeps one ulp
                    heights, kappa = ref
                    tol = 1e-15 * (1.0 + abs(math.log(kappa)))
                    assert all(math.isclose(a, b, rel_tol=tol, abs_tol=5e-324)
                               for a, b in zip(cand, heights)), (h, gamma, cell, f)
        assert reasons.keys() >= {"scalar", "hc not finite", "hc 0 at gamma < 0", "overflow",
                                  "|S - 1| > 1/2"}

    @pytest.mark.parametrize("gamma, mode, evaluations", [(2.0, "max", 39), (-1.0, "min", 21)])
    def test_overflowing_proposal_emits_no_warning(self, gamma, mode, evaluations):
        # a height times 1 + 1e308 overflows, and at gamma = -1 so does h / kappa
        start = StepPotential.from_uniform_cells([4.0, 1.0, 1.0, 1.0])
        spec = ExtremumSearchSpec(gamma=gamma, mode=mode, cells=4, max_iters=40,
                                  step_init=1e308, start=start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = search_extremum(spec, BC11)
        assert res.evaluations == evaluations

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExtremumSearchSpec(gamma=0.0, mode="min", cells=4)
        with pytest.raises(ValueError):
            ExtremumSearchSpec(gamma=1.0, mode="sideways", cells=4)
        with pytest.raises(ValueError):
            ExtremumSearchSpec(gamma=1.0, mode="min", cells=1)

    @pytest.mark.parametrize("step_init", [math.inf, math.nan])
    def test_nonfinite_step_rejected(self, step_init):
        with pytest.raises(ValueError):
            ExtremumSearchSpec(gamma=2.0, mode="max", cells=4, step_init=step_init)
