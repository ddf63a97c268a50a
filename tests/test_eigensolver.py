import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from sl_extremal import (
    BracketNotFound,
    Potential,
    RobinBC,
    SpikeTrainSpec,
    StepPotential,
    ZeroFunction,
    lambda1,
    lambda1_fd,
    lambda1_zero,
    rayleigh,
    refine_common,
    shift,
    statement2_family,
    statement3_family,
    theta_end,
    verify_thm1,
)

from sl_extremal.eigensolver import _bisect, _fitted, _p1_brackets

from conftest import random_step

BC00 = RobinBC(0.0, 0.0)
BC11 = RobinBC(1.0, 1.0)


def theta_reference(pot: StepPotential, bc: RobinBC, lam: float) -> float:
    """Independent phase integration: adaptive high-order ODE solver per cell
    plus the cotangent relation written directly at each point mass.

    The equation is autonomous on a cell, so each cell is integrated over
    (0, b - a): a cell 1e-12 wide near x = 1/2 is then not limited by the
    spacing of doubles around 1/2."""
    cuts = sorted(set(pot.breakpoints) | {d.site for d in pot.deltas})
    jumps = dict(pot.deltas)
    theta = math.atan2(1.0, bc.k0sq)

    def apply_jump(th, w):
        k = math.floor(th / math.pi)
        phi = th - k * math.pi
        if math.sin(phi) == 0.0:
            return th
        cot_new = math.cos(phi) / math.sin(phi) - w
        return k * math.pi + math.atan2(1.0, cot_new)

    if 0.0 in jumps:
        theta = apply_jump(theta, jumps[0.0])
    for a, b in zip(cuts[:-1], cuts[1:]):
        c = lam + pot.value_at(0.5 * (a + b))
        sol = solve_ivp(
            lambda x, th: math.cos(th[0]) ** 2 + c * math.sin(th[0]) ** 2,
            (0.0, b - a),
            [theta],
            rtol=1e-12,
            atol=1e-12,
            method="DOP853",
        )
        theta = float(sol.y[0, -1])
        if b in jumps:
            theta = apply_jump(theta, jumps[b])
    return theta


def fitted_bisection_root(q, bc: RobinBC, x) -> float:
    """lambda_1^h of the P1 space on the nodes x, assembled element by element
    (heights read at element midpoints, each mass on its nearest node), by
    plain bisection on the dpttrf positive-definiteness test to a width of
    1e-12 * max(1, |lo|, |hi|)."""
    from scipy.linalg.lapack import dpttrf

    kd, md = np.zeros(x.size), np.zeros(x.size)
    ke, me = np.zeros(x.size - 1), np.zeros(x.size - 1)
    for i, (a, b) in enumerate(zip(x[:-1], x[1:])):
        h, s = b - a, q.value_at(0.5 * (a + b))
        for j in (i, i + 1):
            kd[j] += 1.0 / h - s * h / 3.0
            md[j] += h / 3.0
        ke[i], me[i] = -1.0 / h - s * h / 6.0, h / 6.0
    kd[0] += bc.k0sq
    kd[-1] += bc.k1sq
    for site, w in q.deltas:
        kd[np.argmin(np.abs(x - site))] -= w

    def below(sigma):
        return dpttrf(kd - sigma * md, ke - sigma * me)[2] == 0

    lo, hi = -1.0, 1.0
    while below(hi):
        lo, hi = hi, hi + 2.0 * (hi - lo)
    while not below(lo):
        lo, hi = lo - 2.0 * (hi - lo), lo
    while hi - lo > 1e-12 * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


class TestThetaEnd:
    def test_stationary_at_neumann_zero(self):
        assert theta_end(StepPotential.constant(0.0), BC00, 0.0) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_second_neumann_eigenvalue_boundary_angle(self):
        got = theta_end(StepPotential.constant(0.0), BC00, math.pi**2)
        ref = theta_reference(StepPotential.constant(0.0), BC00, math.pi**2)
        assert ref == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert got == pytest.approx(ref, abs=1e-7)

    def test_delta_jump_closed_form(self):
        # theta sits at pi/2 until x = 1/2, jumps to 3pi/4, then follows
        # theta' = cos^2: tan theta(1) = tan(3pi/4) + 1/2
        pot = Potential.pure_delta(0.5, 1.0)
        expected = math.pi - math.atan(0.5)
        assert theta_end(pot, BC00, 0.0) == pytest.approx(expected, abs=1e-10)
        assert theta_reference(pot, BC00, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_matches_reference_on_random_potentials(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = random_step(rng, max_height=20.0, max_cells=5)
            pot = Potential(q, [(0.37, 1.5)])
            lam = float(rng.uniform(-20.0, 10.0))
            assert theta_end(pot, BC11, lam) == pytest.approx(
                theta_reference(pot, BC11, lam), abs=1e-6
            )

    def test_strictly_increasing_in_lambda(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = random_step(rng, max_height=30.0, max_cells=6)
            la, lb = sorted(rng.uniform(-40.0, 15.0, size=2))
            if la == lb:
                continue
            assert theta_end(q, BC11, la) < theta_end(q, BC11, lb)

    def test_start_angle_range(self):
        assert RobinBC(0.0, 0.0).theta_start == pytest.approx(math.pi / 2)
        assert RobinBC(1e9, 0.0).theta_start < 1e-8
        assert RobinBC(0.0, 0.0).theta_target == pytest.approx(math.pi / 2)


class TestLambda1Zero:
    def test_neumann_is_exactly_zero(self):
        assert lambda1_zero(BC00) == 0.0

    def test_one_sided_robin_against_root_finder(self):
        # characteristic equation reduces to tan(w) = 1/w
        w = brentq(lambda t: t * math.sin(t) - math.cos(t), 0.1, math.pi / 2 - 1e-12,
                   xtol=1e-15)
        assert lambda1_zero(RobinBC(1.0, 0.0)) == pytest.approx(w * w, abs=1e-12)

    def test_symmetric_robin_against_root_finder(self):
        w = brentq(lambda t: math.sin(t) * (t * t - 1.0) - 2.0 * t * math.cos(t),
                   1e-9, math.pi - 1e-9, xtol=1e-15)
        assert lambda1_zero(BC11) == pytest.approx(w * w, abs=1e-12)

    def test_agrees_with_shooting(self):
        for bc in (BC00, RobinBC(1, 0), BC11, RobinBC(4, 9)):
            got = lambda1(StepPotential.constant(0.0), bc).lambda1
            assert got == pytest.approx(lambda1_zero(bc), abs=1e-8)

    def test_below_dirichlet_value(self):
        for bc in (RobinBC(0.5, 2.0), RobinBC(10, 10), RobinBC(100, 3)):
            assert 0.0 < lambda1_zero(bc) < math.pi**2


class TestLambda1:
    def test_neumann_zero_potential(self):
        res = lambda1(StepPotential.constant(0.0), BC00)
        assert abs(res.lambda1) <= 1e-10
        assert res.residual <= 1e-10
        assert res.bracket[0] <= res.lambda1 <= res.bracket[1]

    def test_constant_potential_is_a_pure_shift(self):
        for c in (0.5, 5.0, 40.0):
            res = lambda1(StepPotential.constant(c), BC11)
            assert res.lambda1 == pytest.approx(lambda1_zero(BC11) - c, abs=1e-8)

    def test_spectral_shift_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = random_step(rng, max_height=30.0)
            base = lambda1(q, BC11).lambda1
            for c in (1.0, 10.0):
                shifted = lambda1(shift(q, c), BC11).lambda1
                assert shifted == pytest.approx(base - c, abs=1e-8)

    def test_monotone_in_the_potential(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q1 = random_step(rng, max_height=20.0)
            bump = random_step(rng, max_height=3.0, min_height=0.3)
            r1, rb = refine_common(q1, bump)
            q2 = StepPotential(r1.breakpoints, r1.heights + rb.heights)
            assert lambda1(q2, BC11).lambda1 <= lambda1(q1, BC11).lambda1 + 1e-8

    def test_signed_potential_is_a_pure_shift(self):
        # lambda_1(q - c) = lambda_1(q) + c, where q - c is negative everywhere
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = Potential(random_step(rng, max_height=30.0), [(0.3, 2.0)])
            c = q.max_height() + float(rng.uniform(1.0, 10.0))
            lowered = q - StepPotential.constant(c)
            assert lowered.heights.max() < 0.0 and lowered.deltas == q.deltas
            assert lambda1(lowered, BC11).lambda1 == pytest.approx(
                lambda1(q, BC11).lambda1 + c, abs=1e-8
            )

    def test_extra_delta_weight_lowers_lambda(self):
        q = StepPotential.constant(1.0)
        small = Potential(q, [(0.4, 0.5)])
        large = Potential(q, [(0.4, 1.5)])
        assert lambda1(large, BC11).lambda1 < lambda1(small, BC11).lambda1

    def test_bracket_not_found_when_expansion_capped(self):
        # lambda_1 = -max float: the last finite doubling from [-1, 1] stops
        # one ulp short of it, and the next end is -inf
        with pytest.raises(BracketNotFound, match="lower bracket endpoint after 1022 expansions"):
            lambda1(StepPotential.constant(sys.float_info.max), BC00)

    @pytest.mark.parametrize("heights, match", [
        # the mirror image: the next upper end is +inf
        ([-sys.float_info.max], "upper bracket endpoint after 1022 expansions"),
        # lambda_1 is about -1e308, where lam + q overflows on the middle cell
        ([1e308, -1e308, 1e308], "lower bracket endpoint after 1020 expansions"),
    ])
    def test_bracket_not_found_where_theta_overflows(self, heights, match):
        with pytest.raises(BracketNotFound, match=match):
            lambda1(StepPotential.from_uniform_cells(heights), BC00)

    @pytest.mark.parametrize("height", [5e18, 1e30, 1.7e308, -1e308])
    def test_huge_constant_is_bracketed(self, height):
        # beyond sixty doublings from [-1, 1], which reach about -+4.6e18
        res = lambda1(StepPotential.constant(height), BC00)
        assert res.lambda1 == pytest.approx(-height, rel=1e-13, abs=0.0)

    def test_result_serialization(self):
        res = lambda1(StepPotential.constant(2.0), BC11, eigenfunction_samples=16)
        data = res.to_dict()
        assert set(data) == {
            "lambda1", "residual", "bracket", "iterations", "eigenfunction_samples"
        }
        assert len(data["eigenfunction_samples"]) == 17


class TestExactPropagation:
    @pytest.mark.parametrize("height", [100.0, 1e4])
    @pytest.mark.parametrize("order", ["high_first", "high_last"])
    def test_negative_cell_matches_matching_condition(self, height, order):
        # Neumann ends, q = H on one half and 0 on the other.  With
        # k^2 = lambda + H and kappa^2 = -lambda > 0, lambda + q < 0 on the
        # zero half; the ground state is cos(k x) on the high half and
        # cosh(kappa x) on the other (x measured from the nearer end), and
        # matching y'/y at x = 1/2 gives k tan(k/2) = kappa tanh(kappa/2)
        # with k in (0, pi).
        def mismatch(k):
            kappa = math.sqrt(height - k * k)
            return k * math.tan(0.5 * k) - kappa * math.tanh(0.5 * kappa)

        k = brentq(mismatch, 1e-9, math.pi * (1.0 - 1e-12), xtol=1e-15)
        ref = k * k - height
        heights = [height, 0.0] if order == "high_first" else [0.0, height]
        got = lambda1(StepPotential([0.0, 0.5, 1.0], heights), BC00).lambda1
        assert -height < ref < 0.0
        assert got == pytest.approx(ref, rel=1e-12)

    def test_thin_tall_block_stays_below_the_ceiling(self):
        # sqrt(lambda + q) * width << 1 on these blocks, where a scaled angle
        # atan2(sqrt(c) y, y') reads pi/2 to rounding: it put lambda_1 at
        # 4.1147 against lambda_1(0) = 1.7071 for n = 1e60
        ceiling = lambda1_zero(BC11) * (1.0 + 4.0 * np.finfo(float).eps)
        for gamma in (1.5, 2.0):
            for k in range(4, 301):
                assert lambda1(statement3_family(gamma, 10**k), BC11).lambda1 <= ceiling

    @pytest.mark.parametrize("well_first", [True, False])
    def test_rescale_keeps_a_deep_well_exact(self, well_first):
        # lambda_1 = -979439.7: on the zero region sqrt(-c) = 990, and split
        # into 3000 cells (kl = 0.33 each) the walked state grows by e^990,
        # beyond the float range without the power-of-two rescale; 300 cells
        # (kl = 3.3, where the divided map grows by only 2 per cell) stay in it
        zero = np.linspace(0.01, 1.0, 3001) if well_first else np.linspace(0.0, 0.99, 3001)
        if well_first:
            whole = StepPotential([0.0, 0.01, 1.0], [1e6, 0.0])
            split = StepPotential([0.0, *zero], [1e6] + [0.0] * 3000)
        else:
            whole = StepPotential([0.0, 0.99, 1.0], [0.0, 1e6])
            split = StepPotential([*zero, 1.0], [0.0] * 3000 + [1e6])
        lam = lambda1(whole, BC11).lambda1
        res = lambda1(split, BC11, eigenfunction_samples=64)
        assert res.lambda1 == pytest.approx(lam, rel=1e-13)
        assert math.isfinite(theta_end(split, BC11, lam))
        ys = np.array([y for _, y in res.eigenfunction_samples])
        assert np.all(np.isfinite(ys)) and np.max(np.abs(ys)) == 1.0

    def test_state_that_rounds_to_zero_gives_a_finite_angle(self):
        # at lambda = -w^2 the mass at 0 puts the start on the decaying
        # solution, which tanh(w) = 1 maps to exactly (0, 0)
        pot = StepPotential([0.0, 1.0], [0.0], [(0.0, 100.0), (1.0, 100.0)])
        assert math.isfinite(theta_end(pot, BC00, -1e4))

    def test_spike_train_certificate_matches_adaptive_reference(self):
        # the rho* = 1000, gamma = 1/2 row of verify_thm1: 100 spikes about
        # 1e-12 wide and 1e14 high over a floor, 201 cells in all
        table = verify_thm1(0.5, BC00, [1000.0])
        detail = table.details[0]
        spec = SpikeTrainSpec(1000.0, 0.1, detail["spikes"], detail["height"], detail["nu"])
        pot = statement2_family(spec, 0.5)[0]
        lam = table.rows[0].lambda1
        span = 1e-9 * abs(lam)
        ref = brentq(
            lambda x: theta_reference(pot, BC00, x) - BC00.theta_target,
            lam - span,
            lam + span,
            xtol=1e-3 * span,
        )
        assert lam == pytest.approx(ref, rel=1e-9)
        assert lam == pytest.approx(-10867.6, abs=0.05)

    def test_stiff_train_stops_on_bracket_width(self):
        # theta(1; lambda) on this train carries rounding noise above 1e-10, so
        # a residual condition would bisect the bracket down to a few ulps
        table = verify_thm1(0.5, BC00, [1000.0])
        detail = table.details[0]
        spec = SpikeTrainSpec(1000.0, 0.1, detail["spikes"], detail["height"], detail["nu"])
        res = lambda1(statement2_family(spec, 0.5)[0], BC00)
        lo, hi = res.bracket
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
        assert 0.1 * tol <= hi - lo <= tol
        assert res.lambda1 == table.rows[0].lambda1

    @pytest.mark.parametrize("with_delta", [False, True])
    def test_bracket_encloses_the_root(self, with_delta):
        rng = np.random.default_rng(15 + with_delta)
        for _ in range(20):
            q = random_step(rng, max_height=float(rng.choice([5.0, 50.0, 1e4])))
            deltas = [(float(rng.uniform()), float(rng.uniform(0.1, 5.0)))] if with_delta else []
            pot = Potential(q, deltas)
            bc = RobinBC(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            res = lambda1(pot, bc)
            lo, hi = res.bracket
            assert lo <= res.lambda1 <= hi
            # an end where theta hits the target exactly is a root, kept as hi
            assert theta_end(pot, bc, lo) < bc.theta_target <= theta_end(pot, bc, hi)
            assert hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi))


class TestFiftyDigitReference:
    """lambda1 on the benchmark's certificate potentials against roots of the
    same float data shot at 50 digits with the closed-form cell maps."""

    @staticmethod
    def _root(pot, bc, lam):
        mpmath = pytest.importorskip("mpmath")
        mp, mpf = mpmath.mp, mpmath.mpf

        assert not pot.deltas

        def mismatch(x):  # y'(1) + k1^2 y(1) from y(0) = 1, y'(0) = k0^2
            y, dy = mpf(1), mpf(bc.k0sq)
            bps = pot.breakpoints.tolist()
            for a, b, h in zip(bps[:-1], bps[1:], pot.heights.tolist()):
                c, length = x + h, mpf(b) - a
                k = mp.sqrt(abs(c))
                if c > 0:
                    co, si = mp.cos(k * length), mp.sin(k * length)
                    y, dy = y * co + dy * si / k, dy * co - k * si * y
                elif c < 0:
                    co, si = mp.cosh(k * length), mp.sinh(k * length)
                    y, dy = y * co + dy * si / k, dy * co + k * si * y
                else:
                    y += dy * length
            return dy + bc.k1sq * y

        with mp.workdps(50):
            x = mpf(lam)
            return mp.findroot(mismatch, (x * (1 - mpf(1e-10)), x * (1 + mpf(1e-10))),
                               solver="anderson")

    @pytest.mark.parametrize("gamma", [0.5, 0.25, -1.0])
    def test_verify_thm1_trains(self, gamma):
        table = verify_thm1(gamma, BC00, [10.0, 100.0, 1000.0])
        for row, d in zip(table.rows, table.details):
            spec = SpikeTrainSpec(d["rho_star"], 0.1, d["spikes"], d["height"], d["nu"])
            pot = statement2_family(spec, gamma)[0]
            root = self._root(pot, BC00, row.lambda1)
            assert abs(row.lambda1 - root) <= 1e-13 * abs(root)

    @pytest.mark.parametrize("gamma", [2.0, 1.5])
    def test_verify_thm2_blocks(self, gamma):
        for n in (10**k for k in range(1, 8)):
            pot = statement3_family(gamma, n)
            lam = lambda1(pot, BC11).lambda1
            root = self._root(pot, BC11, lam)
            assert abs(lam - root) <= 1e-13 * abs(root)


class TestEigenfunction:
    @staticmethod
    def _robin_ground_state_error(a: float) -> float:
        # q = 0, y'(0) = a y(0), y'(1) = -a y(1): y = omega cos(omega x) + a sin(omega x)
        bc = RobinBC(a, a)
        res = lambda1(StepPotential.constant(0.0), bc, eigenfunction_samples=64)
        omega = math.sqrt(lambda1_zero(bc))
        xs = np.array([x for x, _ in res.eigenfunction_samples])
        exact = omega * np.cos(omega * xs) + a * np.sin(omega * xs)
        exact /= np.max(np.abs(exact))
        ys = np.array([y for _, y in res.eigenfunction_samples])
        return np.max(np.abs(ys - exact))

    def test_zero_potential_robin_ground_state(self):
        assert self._robin_ground_state_error(1.0) <= 1e-10

    def test_zero_potential_robin_ground_state_below_one(self):
        # lambda_1 = 0.197, so every cell takes the cos/sin transfer map
        assert self._robin_ground_state_error(0.1) <= 1e-10

    def test_samples_cover_grid_and_are_normalized(self):
        res = lambda1(StepPotential.constant(1.0), BC11, eigenfunction_samples=64)
        xs = [x for x, _ in res.eigenfunction_samples]
        ys = [y for _, y in res.eigenfunction_samples]
        assert xs[0] == 0.0 and xs[-1] == 1.0 and len(xs) == 65
        assert max(abs(y) for y in ys) == pytest.approx(1.0, abs=1e-12)
        assert all(y > 0 for y in ys)  # ground state has no interior zeros

    def test_neumann_zero_potential_eigenfunction_is_constant(self):
        res = lambda1(StepPotential.constant(0.0), BC00, eigenfunction_samples=16)
        ys = np.array([y for _, y in res.eigenfunction_samples])
        assert np.allclose(ys, 1.0, atol=1e-9)

    def test_delta_kink_is_where_the_mass_sits(self):
        pot = Potential.pure_delta(0.5, 3.0)
        res = lambda1(pot, BC00, eigenfunction_samples=256)
        xs = np.array([x for x, _ in res.eigenfunction_samples])
        ys = np.array([y for _, y in res.eigenfunction_samples])
        slopes = np.diff(ys) / np.diff(xs)
        kink = np.argmax(np.abs(np.diff(slopes)))
        assert abs(xs[kink + 1] - 0.5) < 0.01

    def test_a_mass_on_a_sample_is_applied_once(self):
        # pinned samples; by symmetry y = cosh(omega x) / cosh(omega / 2) for
        # x <= 1/2 with omega tanh(omega / 2) = 3 / 2, lambda = -omega^2
        res = lambda1(Potential.pure_delta(0.5, 3.0), BC00, eigenfunction_samples=8)
        ys = [y for _, y in res.eigenfunction_samples]
        assert ys == pytest.approx([
            0.6529062846063168, 0.6730131802935644, 0.7345722908893112, 0.8413751639541532,
            1.0, 0.8413751639541548, 0.7345722908893143, 0.673013180293569, 0.6529062846063235,
        ], rel=1e-14, abs=0.0)
        omega = math.sqrt(-res.lambda1)
        assert omega * math.tanh(0.5 * omega) == pytest.approx(1.5, rel=1e-13)
        half = [math.cosh(omega * j / 8) / math.cosh(0.5 * omega) for j in range(5)]
        assert ys == pytest.approx(half + half[-2::-1], rel=1e-13, abs=0.0)
        # masses on breakpoints, one of them also a sample
        q = StepPotential([0.0, 0.3, 0.75, 1.0], [2.0, -1.0, 5.0], [(0.3, 1.5), (0.75, -2.0)])
        res = lambda1(q, BC11, eigenfunction_samples=8)
        assert [y for _, y in res.eigenfunction_samples] == pytest.approx([
            0.8455751883363769, 0.9374733954407369, 1.0, 0.9253835862364801, 0.7850459030041693,
            0.656862450587341, 0.5388486682597529, 0.5387807583539354, 0.4968073830390639,
        ], rel=1e-14, abs=0.0)


class TestFiniteElementOracle:
    def test_zero_potential_neumann(self):
        assert abs(lambda1_fd(StepPotential.constant(0.0), BC00, 64)) <= 1e-10

    def test_constant_one_is_an_exact_shift(self):
        assert lambda1_fd(StepPotential.constant(1.0), BC00, 64) == pytest.approx(
            -1.0, abs=1e-10
        )

    def test_cross_validates_shooting(self):
        rng = np.random.default_rng(9)
        q = random_step(rng, max_height=50.0)
        bc = RobinBC(1.0, 4.0)
        assert lambda1_fd(q, bc, 4096) == pytest.approx(
            lambda1(q, bc).lambda1, abs=1e-4
        )

    def test_signed_potential_close_to_shooting(self):
        # negative heights and a negative mass: neither solver needs q >= 0
        pot = StepPotential([0.0, 0.3, 0.7, 1.0], [-6.0, 10.0, -2.5],
                            [(0.55, -1.5), (0.2, 2.0)])
        bc = RobinBC(1.0, 4.0)
        assert lambda1_fd(pot, bc, 4096) == pytest.approx(
            lambda1(pot, bc).lambda1, abs=1e-5
        )

    def test_snapped_delta_close_to_shooting(self):
        pot = Potential(StepPotential.constant(1.0), [(0.3333, 2.0)])
        fd = lambda1_fd(pot, BC11, 4096)
        sh = lambda1(pot, BC11).lambda1
        assert fd == pytest.approx(sh, abs=1e-5)

    @pytest.mark.parametrize("with_delta", [False, True])
    def test_fourth_order_convergence(self, with_delta):
        # Richardson over a fitted mesh and its bisection: the error falls
        # 16-fold per halving of h, read well above the rounding floor
        q = random_step(np.random.default_rng(3))
        pot = Potential(q, [(0.4123456789, 3.0)] if with_delta else [])
        bc = RobinBC(1.0, 4.0)
        exact = lambda1(pot, bc).lambda1
        errs = [abs(lambda1_fd(pot, bc, m + 1) - exact) for m in (128, 256, 512)]
        assert errs[-1] > 1e-11
        assert 12.0 <= errs[0] / errs[1] <= 20.0
        assert 12.0 <= errs[1] / errs[2] <= 20.0

    def test_point_masses_close_to_shooting(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            q = random_step(rng)
            k = int(rng.integers(1, 4))
            masses = list(zip(rng.uniform(0.0, 1.0, k), rng.uniform(0.1, 10.0, k)))
            pot = Potential(q, masses)
            bc = RobinBC(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            assert lambda1_fd(pot, bc, 4096) == pytest.approx(
                lambda1(pot, bc).lambda1, abs=1e-5
            )

    @pytest.mark.parametrize(
        "site",
        [0.0, 1.0, 1000 / 4095, 1000 / 4095 + 1e-15],
        ids=["left-end", "right-end", "on-node", "near-node"],
    )
    def test_point_mass_site_placement(self, site):
        q = StepPotential([0.0, 0.3, 0.7, 1.0], [4.0, 10.0, 1.0])
        pot = Potential(q, [(site, 3.0)])
        bc = RobinBC(1.0, 4.0)
        assert lambda1_fd(pot, bc, 4096) == pytest.approx(
            lambda1(pot, bc).lambda1, abs=1e-6
        )

    def test_sliver_cells_and_sites_are_merged(self):
        # a one-ulp cell and a site one ulp from another are not nodes: the
        # sliver elements would ruin the conditioning
        up = math.nextafter(0.3, 1.0)
        pot = StepPotential([0.0, 0.3, up, 1.0], [1.0, 2e6, 3.0],
                            [(0.6, 5.0), (math.nextafter(0.6, 1.0), 10.0), (5e-324, 2.0)])
        bc = RobinBC(1.0, 4.0)
        assert up not in _fitted(pot, bc, 64).x
        assert lambda1_fd(pot, bc, 4096) == pytest.approx(
            lambda1(pot, bc).lambda1, rel=1e-11
        )

    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError):
            lambda1_fd(StepPotential.constant(0.0), BC00, 16)


README_Q = StepPotential([0.0, 0.2, 0.7, 1.0], [8.0, 1.0, 3.0])
NO_Q = StepPotential.constant(0.0)
HARD_PANEL = {
    "zero-neumann-64": (NO_Q, BC00, 64),
    "zero-robin": (NO_Q, RobinBC(4.0, 9.0), 4096),
    "stiff-robin": (StepPotential([0.0, 0.3, 1.0], [5.0, 40.0]), RobinBC(1.0, 1e4), 4096),
    "masses-at-both-ends": (StepPotential([0.0, 1.0], [0.0], [(0.0, 100.0), (1.0, 100.0)]),
                            BC00, 4096),
    "mass-inside": (StepPotential([0.0, 1.0], [0.0], [(0.3, 100.0)]), BC00, 4096),
    "signed": (StepPotential([0.0, 0.3, 0.7, 1.0], [-6.0, 10.0, -2.5],
                             [(0.55, -1.5), (0.2, 2.0)]), RobinBC(1.0, 4.0), 4096),
    "tall-half": (StepPotential([0.0, 0.5, 1.0], [1e4, 0.0]), BC11, 4096),
    "spike": (StepPotential([0.0, 0.5, 0.5001, 1.0], [0.0, 1e6, 0.0]), BC11, 4096),
    "readme-32": (README_Q, RobinBC(1.0, 4.0), 32),
    "readme-65537": (README_Q, RobinBC(1.0, 4.0), 65537),
}


def count_factorizations(monkeypatch, solver, *args):
    """(result, number of dpttrf calls) of solver(*args)."""
    import scipy.linalg.lapack

    real = scipy.linalg.lapack.dpttrf
    calls = []

    def counting(*a, **kw):
        calls.append(None)
        return real(*a, **kw)

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", counting)
    result = solver(*args)
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", real)
    return result, len(calls)


class TestDeterminantSearch:
    @pytest.mark.parametrize("case", list(HARD_PANEL))
    def test_agrees_with_bisection_in_fewer_factorizations(self, case, monkeypatch):
        # on each mesh a successful dpttrf certifies sigma, and RQ is the
        # quotient of a P1 function; the bisection on independently
        # assembled matrices of the same mesh resolves lambda_1^h only to
        # its own width and its predicate's rounding noise, about eps * nodes^2
        q, bc, n = HARD_PANEL[case]
        x = _fitted(q, bc, n).x
        meshes = (x, _bisect(x))
        brackets, n_got = count_factorizations(monkeypatch, _p1_brackets, q, bc, n)
        n_ref = 0
        for (sigma, rq), nodes in zip(brackets, meshes):
            root, calls = count_factorizations(monkeypatch, fitted_bisection_root, q, bc, nodes)
            n_ref += calls
            scale = max(1.0, abs(root))
            assert sigma < root
            assert abs(rq - root) <= (1e-12 + 1e-15 * nodes.size**2) * scale
        assert n_got <= n_ref

    @pytest.mark.parametrize("deltas", [[], [(0.5, 10.0)]], ids=["plain", "mass"])
    def test_factorization_count(self, deltas, monkeypatch):
        # the determinant search that narrowed the bracket to 1e-12 needed 24 and 25
        q = StepPotential(README_Q.breakpoints, README_Q.heights, deltas)
        _, calls = count_factorizations(monkeypatch, lambda1_fd, q, RobinBC(1.0, 4.0), 4096)
        assert calls <= 16

    @pytest.mark.parametrize("height", [1e70, 1.7e308, -1.7e308])
    def test_huge_constant_is_bracketed(self, height):
        # P1 is exact for a constant under Neumann, and the constant's
        # quotient, where the search starts, is -height
        got = lambda1_fd(StepPotential.constant(height), BC00, 64)
        assert got == pytest.approx(-height, rel=1e-12, abs=0.0)

    def test_overflowing_shifted_diagonal_is_not_certified(self):
        # the lower doubling reaches sigma = -max float, where the mass node's
        # diagonal overflows to +inf, which dpttrf factors with info 0
        q = StepPotential([0.0, 1.0], [1e308], [(0.5, -1.79e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketNotFound, match="not finite"):
                lambda1_fd(q, BC00, 32)


class TestRayleigh:
    def test_constant_trial_zero_potential(self):
        samples = [(x, 1.0) for x in np.linspace(0, 1, 9)]
        assert rayleigh(StepPotential.constant(0.0), BC00, samples) == pytest.approx(0.0, abs=1e-14)

    def test_constant_trial_constant_potential(self):
        samples = [(x, 1.0) for x in np.linspace(0, 1, 9)]
        for c in (0.5, 3.0):
            assert rayleigh(StepPotential.constant(c), BC00, samples) == pytest.approx(
                -c, abs=1e-12
            )

    def test_eigenfunction_gives_back_lambda1(self):
        rng = np.random.default_rng(10)
        q = random_step(rng, max_height=10.0, max_cells=4)
        res = lambda1(q, BC11, eigenfunction_samples=4096)
        quot = rayleigh(q, BC11, res.eigenfunction_samples)
        assert quot == pytest.approx(res.lambda1, abs=1e-3)

    def test_upper_bound_property(self):
        rng = np.random.default_rng(14)
        q = random_step(rng, max_height=10.0, max_cells=4)
        lam = lambda1(q, BC11).lambda1
        xs = np.linspace(0, 1, 513)
        for freq in (0.5, 1.0, 2.0):
            trial = list(zip(xs, np.cos(freq * xs) + 1.2))
            assert rayleigh(q, BC11, trial) >= lam - 1e-3

    def test_zero_function_rejected(self):
        samples = [(x, 0.0) for x in np.linspace(0, 1, 9)]
        with pytest.raises(ZeroFunction):
            rayleigh(StepPotential.constant(0.0), BC00, samples)

    def test_delta_term_enters_exactly(self):
        pot = Potential(StepPotential.constant(0.0), [(0.5, 2.0)])
        samples = [(x, 1.0) for x in np.linspace(0, 1, 9)]
        assert rayleigh(pot, BC00, samples) == pytest.approx(-2.0, abs=1e-12)

    def test_mass_a_subnormal_width_from_an_end(self):
        pot = StepPotential([0.0, 1.0], [0.0], [(1e-310, 2.0)])
        samples = [(x, 1.0) for x in np.linspace(0, 1, 9)]
        assert rayleigh(pot, BC00, samples) == pytest.approx(-2.0, abs=1e-12)

    def test_one_ulp_cell_keeps_its_height(self):
        # the midpoint of a one-ulp cell rounds to its right end
        up = math.nextafter(0.3, 1.0)
        pot = StepPotential([0.0, 0.3, up, 1.0], [0.0, 1e16, 0.0])
        samples = [(x, 1.0) for x in np.linspace(0, 1, 9)]
        assert rayleigh(pot, BC00, samples) == pytest.approx(-1e16 * (up - 0.3), rel=1e-12)


class TestConfigValidation:
    def test_bc_validation(self):
        with pytest.raises(ValueError):
            RobinBC(-1.0, 0.0)
        with pytest.raises(ValueError):
            RobinBC(0.0, math.nan)
