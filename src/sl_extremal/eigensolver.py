"""First eigenvalue of y'' + q y + lambda y = 0 with third-type boundary conditions.

The boundary conditions are y'(0) = k0^2 y(0) and y'(1) = -k1^2 y(1).  The
primary solver is phase-angle (Prufer) shooting: with y = rho sin(theta),
y' = rho cos(theta), the angle obeys

    theta' = cos(theta)^2 + (lambda + q(x)) sin(theta)^2,

theta(0) = arccot(k0^2), and lambda_1 is the unique lambda at which theta(1)
first reaches pi - arccot(k1^2); theta(1; lambda) is strictly increasing in
lambda.  The angle is never carried from cell to cell: one walk carries the
state (j, y, y') with y >= 0 and leaves theta = j*pi + atan2(y, y') implicit.
On a cell where c = lambda + q is constant, y'' + c y = 0 has a closed-form
solution, so the state is advanced exactly (Pruess, SIAM J. Numer. Anal. 10,
1973; Pryce, "Numerical Solution of Sturm-Liouville Problems", 1993): where
sqrt(c) * length > 1 the scaled angle atan2(sqrt(c) y, y') grows by
sqrt(c) * length, and elsewhere (y, y') maps linearly through cos/sin or
cosh/sinh, with a negative new y adding one to j.  A point mass
w * delta(x - site) subtracts w y from y'.  A power-of-two rescale keeps
|y| + |y'| inside [2^-500, 2^500], so nothing under- or overflows.
theta(1; lambda) is thus exact up to rounding for every step + delta
potential, and lambda_1 is found by bracket doubling plus Illinois regula
falsi, which keeps a sign-change bracket.  The eigenfunction sampler runs the
same walk over the cells cut at the samples too.

The independent cross-check ``lambda1_fd`` discretizes the quadratic form by
P1 finite elements on a mesh fitted to the breakpoints and mass sites and on
its bisection, and returns their Richardson extrapolation, O(h^4).  Each mesh
holds lambda_1^h in a certified bracket [sigma, RQ]: a passing LAPACK dpttrf
of K - sigma M and the Rayleigh quotient of an inverse-iteration vector.  On
the benchmark's crosscheck inputs it takes a median of 10 factorizations and
about 1.2 ms at 4096 nodes.  ``lambda1_zero`` evaluates the zero-potential
eigenvalue from its characteristic equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .potentials import StepPotential, _cell_values, _cells

__all__ = [
    "RobinBC",
    "EigenResult",
    "BracketNotFound",
    "ZeroFunction",
    "theta_end",
    "lambda1",
    "lambda1_fd",
    "lambda1_zero",
    "rayleigh",
]


class BracketNotFound(RuntimeError):
    """Bracket expansion exhausted without enclosing the eigenvalue."""


class ZeroFunction(ValueError):
    """Rayleigh quotient of the zero function is undefined."""


def _arccot(x: float) -> float:
    """arccot on [0, inf) with values in (0, pi/2]."""
    return math.atan2(1.0, x)


@dataclass(frozen=True)
class RobinBC:
    """Boundary coefficients (k0^2, k1^2); both are squares, hence >= 0."""

    k0sq: float
    k1sq: float

    def __post_init__(self):
        if not (self.k0sq >= 0.0 and math.isfinite(self.k0sq)):
            raise ValueError("k0sq must be finite and >= 0")
        if not (self.k1sq >= 0.0 and math.isfinite(self.k1sq)):
            raise ValueError("k1sq must be finite and >= 0")

    @property
    def theta_start(self) -> float:
        return _arccot(self.k0sq)

    @property
    def theta_target(self) -> float:
        return math.pi - _arccot(self.k1sq)


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    eigenfunction_samples: tuple[tuple[float, float], ...] | None = field(default=None)

    def to_dict(self) -> dict:
        out = {
            "lambda1": float(self.lambda1),
            "residual": float(self.residual),
            "bracket": [float(self.bracket[0]), float(self.bracket[1])],
            "iterations": int(self.iterations),
        }
        if self.eigenfunction_samples is not None:
            out["eigenfunction_samples"] = [
                [float(x), float(y)] for x, y in self.eigenfunction_samples
            ]
        return out


# --- exact propagation of (y, y') -----------------------------------------

_LN2 = math.log(2.0)
_HUGE = 2.0**500
_TINY = 2.0**-500


def _segments(q: StepPotential) -> tuple[list[tuple[float, float, float]], float]:
    """(cells, w0): ``_walk``'s (length, height, w) per cell of ``_cells(q)``,
    w the point mass at the cell's right end, and w0 the point mass at x = 0."""
    x, s, w = _cells(q)
    return list(zip(np.diff(x).tolist(), s.tolist(), w[1:].tolist())), float(w[0])


def _walk(cells, lam, j, y, dy, e):
    """Carry the shooting state (j, y, dy, e) across ``cells`` at ``lam``.

    Each cell is (L, height, w), w the point mass at its right end.  The
    state stands for the solution (-1)^j 2^e (y, y') up to a positive
    factor, with y >= 0, so the Prufer angle is j*pi + atan2(y, dy).  On a
    cell of length L where c = lam + q is constant with sqrt(c) * L > 1,
    the scaled angle atan2(sqrt(c) y, y') advances by exactly sqrt(c) * L at
    a fixed amplitude.  Every other cell maps (y, y') to (y + y' s, y' - c s y)
    with s = L tan(kl) / kl, L tanh(kl) / kl or L (kl = sqrt(|c|) L): the
    closed-form map divided by cos(kl) or cosh(kl), which is all the positive
    factor holds; the scaled angle would sit at pi/2 to rounding on such a
    thin cell whatever the cell does.  The solution vanishes at most once on
    it, so a negative new y adds one to j.  A point mass w subtracts w y
    from y'.  A power-of-two rescale, which is exact, keeps y + |y'| in
    [2^-500, 2^500]; a state that rounds to (0, 0) stays there.
    """
    sqrt, tan, tanh = math.sqrt, math.tan, math.tanh
    for length, height, w in cells:
        c = lam + height
        kl = sqrt(abs(c)) * length
        if c > 0.0 and kl > 1.0:
            k = sqrt(c)
            r = math.hypot(k * y, dy)
            phi = math.atan2(k * y, dy) + kl
            n = math.floor(phi / math.pi)
            p = phi - n * math.pi
            j += n
            y = r * math.sin(p) / k
            dy = r * math.cos(p)
        else:
            if kl == 0.0:
                s = length
            elif c > 0.0:
                s = length * tan(kl) / kl
            else:
                s = length * tanh(kl) / kl
            y, dy = y + dy * s, dy - c * s * y
            if y < 0.0:  # the solution crossed zero inside the cell
                j += 1
                y = -y
                dy = -dy
        if w:
            dy -= w * y
        m = y + abs(dy)
        if m > _HUGE or m < _TINY:
            ex = math.frexp(m)[1]
            y = math.ldexp(y, -ex)
            dy = math.ldexp(dy, -ex)
            e += ex
    return j, y, dy, e


def _theta_end_prepared(cells, dy0, lam) -> float:
    """theta(1; lam) from the start (y, y') = (1, dy0) at x = 0."""
    j, y, dy, _ = _walk(cells, lam, 0, 1.0, dy0, 0)
    return j * math.pi + math.atan2(y, dy)


def theta_end(q, bc: RobinBC, lam: float) -> float:
    """Prufer angle theta(1; lambda) for the shooting problem.

    Carries (y, y') from (1, k0^2) at x = 0 with the closed-form solution on
    each constant cell and the jump y'(site+) = y'(site-) - w y(site) at
    point masses, so the value is exact up to rounding.
    """
    cells, w0 = _segments(q)
    return _theta_end_prepared(cells, bc.k0sq - w0, lam)


# --- eigenvalue via a bracketed Illinois iteration -------------------------

def lambda1(q, bc: RobinBC, *, eigenfunction_samples: int | None = None) -> EigenResult:
    """First eigenvalue of the problem, found by shooting.

    theta(1; lambda) is strictly increasing in lambda, so the equation
    theta(1; lambda) = pi - arccot(k1^2) has exactly one solution.  It is
    enclosed by doubling the bracket outward from [-1, 1] and then located
    by Illinois regula falsi, which keeps theta(1; lo) < target <=
    theta(1; hi) at every step, falls back to bisection whenever two steps
    fail to halve the bracket, and stops once the bracket is at most
    1e-13 * max(1, |lo|, |hi|) wide.  There is no
    residual condition: theta is exact, so the residual
    |theta(1; lambda) - target| is rounding noise that a stiff potential can
    keep above any fixed tolerance.  The returned eigenvalue is the bracket
    end with the smaller residual.  Raises BracketNotFound when the next
    bracket end, or theta there, is not finite.
    """
    cells, w0 = _segments(q)
    dy0 = bc.k0sq - w0
    res = _solve(cells, dy0, bc.theta_target, -1.0, 1.0)
    if eigenfunction_samples is None:
        return res
    return replace(res, eigenfunction_samples=_eigenfunction(
        q, dy0, res.lambda1, eigenfunction_samples))


def _solve(cells, dy0, target, lo, hi, f_lo=None, f_hi=None) -> EigenResult:
    """``lambda1``'s bracket doubling and Illinois iteration on prepared
    cells from the start bracket lo < hi; f_lo or f_hi, when given, is
    theta(1; lo) - target or theta(1; hi) - target, which is then not
    evaluated again."""

    def f(lam: float) -> float:
        return _theta_end_prepared(cells, dy0, lam) - target

    def f_end(lam: float) -> float:
        """f at a new bracket end, NaN where lam or some lam + q overflows."""
        if not math.isfinite(lam):
            return math.nan
        try:
            return f(lam)
        except (OverflowError, ValueError):  # math.floor of an inf or NaN angle
            return math.nan

    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    expansions = 0
    while f_lo >= 0.0:
        lo, hi, f_hi = lo - 2.0 * (hi - lo), lo, f_lo
        f_lo = f_end(lo)
        if not math.isfinite(f_lo):
            raise BracketNotFound(
                f"no lower bracket endpoint after {expansions} expansions"
            )
        expansions += 1
    while f_hi < 0.0:  # an end with theta exactly on target is a root: keep it
        lo, hi, f_lo = hi, hi + 2.0 * (hi - lo), f_hi
        f_hi = f_end(hi)
        if not math.isfinite(f_hi):
            raise BracketNotFound(
                f"no upper bracket endpoint after {expansions} expansions"
            )
        expansions += 1

    # g_lo, g_hi are the secant weights: the value at an end kept twice in a
    # row is halved (the Illinois rule), so both ends close in superlinearly.
    iterations = expansions
    g_lo, g_hi, side = f_lo, f_hi, 0
    width_1 = width_2 = math.inf
    for _ in range(400):
        width = hi - lo
        tol = 1e-13 * max(1.0, abs(lo), abs(hi))
        if width <= tol:
            break
        if width > 0.5 * width_2:
            x = 0.5 * lo + 0.5 * hi  # lo + hi can overflow
        else:
            x = hi - g_hi * width / (g_hi - g_lo)
            x = min(max(x, lo + 0.25 * tol), hi - 0.25 * tol)
        width_2, width_1 = width_1, width
        if not lo < x < hi:
            break
        fx = f(x)
        iterations += 1
        if fx < 0.0:
            lo, f_lo, g_lo = x, fx, fx
            if side < 0:
                g_hi *= 0.5
            side = -1
        else:
            hi, f_hi, g_hi = x, fx, fx
            if side > 0:
                g_lo *= 0.5
            side = 1

    lam, residual = (lo, abs(f_lo)) if abs(f_lo) <= f_hi else (hi, f_hi)
    return EigenResult(lambda1=lam, residual=residual, bracket=(lo, hi),
                       iterations=iterations)


def _eigenfunction(q, dy0, lam, n_samples):
    """Sample y on the uniform grid j/n_samples at the eigenvalue ``lam``,
    from (y, y') = (1, dy0) at x = 0 (dy0 holds any mass at 0).

    ``_walk`` carries the state one cell of ``_cells(q, samples)`` at a time;
    each cell adds back the log of the cos(kl) or cosh(kl) that the map of a
    cell with sqrt(c) * L <= 1 divides out, so all samples share one scale.
    The arrays are allocated first, so an n_samples beyond memory fails at once.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 sample intervals")
    n = int(n_samples)
    ys = np.empty(n + 1)
    logs = np.empty(n + 1)
    ys[0], logs[0] = 1.0, 0.0
    x, s, w = (a.tolist() for a in _cells(q, np.arange(n + 1) / n))
    state = (0, 1.0, dy0, 0)
    log_scale = 0.0
    i = 1
    for a, b, height, wb in zip(x[:-1], x[1:], s, w[1:]):
        c = lam + height
        kl = math.sqrt(abs(c)) * (b - a)
        if c < 0.0:
            log_scale += kl + math.log1p(math.exp(-2.0 * kl)) - _LN2  # log cosh
        elif kl <= 1.0:
            log_scale += math.log(math.cos(kl))
        state = _walk(((b - a, height, wb),), lam, *state)
        if b == i / n:
            j, y, _, e = state
            ys[i] = -y if j % 2 else y
            logs[i] = log_scale + e * _LN2
            i += 1

    with np.errstate(divide="ignore"):  # a zero sample has log -inf
        log_abs = np.log(np.abs(ys)) + logs
    values = np.sign(ys) * np.exp(log_abs - log_abs.max())  # y(0) = 1 is finite
    return tuple(zip((np.arange(n + 1) / n).tolist(), values.tolist()))


# --- zero-potential eigenvalue from the characteristic equation ------------

def lambda1_zero(bc: RobinBC) -> float:
    """lambda_1 for q = 0: the smallest root of the characteristic equation.

    For omega^2 = lambda > 0 the eigencondition reads
    tan(omega) (omega^2 - k0^2 k1^2) = omega (k0^2 + k1^2); multiplying by
    cos(omega) removes the pole at omega = pi/2, and the single root in
    (0, pi) is found by bisection.  The Neumann case returns exactly 0.
    """
    a = bc.k0sq * bc.k1sq
    b = bc.k0sq + bc.k1sq
    if b == 0.0:
        return 0.0

    def chi(w: float) -> float:
        return math.sin(w) * (w * w - a) - b * w * math.cos(w)

    lo, hi = 1e-12, math.pi
    # chi < 0 near 0 (expansion -omega (a + b)), chi(pi) = pi b > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if chi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return w * w


# --- finite-element oracle --------------------------------------------------

def lambda1_fd(q, bc: RobinBC, n_nodes: int) -> float:
    """Smallest eigenvalue of the P1 finite-element discretization,
    Richardson-extrapolated to O(h^4): b + (b - a) / 3, with a and b the
    eigenvalues on the fitted mesh of ``_fitted`` (about n_nodes / 2 nodes)
    and on its bisection, each in a certified bracket [sigma, RQ]
    (``_p1_brackets``).  Each element has one height and each mass sits on a
    node, so the P1 error expands in h^2, h^4 (Strang & Fix, "An Analysis of
    the Finite Element Method", 1973).  On the ``crosscheck`` inputs: a median
    of 10 factorizations and 4 solves, about 1.2 ms at 4096 nodes (2-core
    x86_64), within 3.2e-13 of the exact eigenvalue.  Raises BracketNotFound
    when a shift, or a matrix dpttrf passes, is not finite."""
    (_, a), (_, b) = _p1_brackets(q, bc, n_nodes)
    return b + (b - a) / 3.0  # (4b - a) / 3 overflows at +-1.7e308


def _fitted(q, bc: RobinBC, n_nodes: int) -> "_P1":
    """Coarse mesh: ceil(n_nodes / 2) uniform nodes, less those within h/4 of
    a breakpoint or mass site, plus these unless within 2^-27 h of the node
    before or of 1 (a sliver would ruin the conditioning: its height joins the
    element around it, read at the midpoint, and its mass the nearest node)."""
    uniform = np.linspace(0.0, 1.0, (int(n_nodes) + 1) // 2)
    h = uniform[1]
    fixed = _cells(q)[0]
    near = np.rint(fixed / h).astype(int)  # the only uniform node within h/2
    keep = np.ones(uniform.size, dtype=bool)
    keep[near[np.abs(fixed - uniform[near]) <= 0.25 * h]] = False
    kept = [0.0]
    for x in fixed[1:-1].tolist():
        if x - kept[-1] > 2.0**-27 * h and 1.0 - x > 2.0**-27 * h:
            kept.append(x)
    x = np.sort(np.concatenate((uniform[keep], kept, [1.0])), kind="stable")
    wn = np.zeros(x.size)
    for site, w in q.deltas:
        wn[np.argmin(np.abs(x - site))] += w
    return _P1(bc, x, _cell_values(q.breakpoints, q.heights, 0.5 * (x[:-1] + x[1:])), wn)


def _bisect(v: np.ndarray) -> np.ndarray:
    """Nodes, or nodal values of a P1 function, with every element halved."""
    out = np.empty(2 * v.size - 1)
    out[::2] = v
    out[1::2] = 0.5 * (v[:-1] + v[1:])
    return out


class _P1:
    """The P1 space on the nodes x with one height s per element and the
    point mass wn[i] on node i: K and M, tridiagonal."""

    def __init__(self, bc: RobinBC, x: np.ndarray, s: np.ndarray, wn: np.ndarray):
        self.bc, self.x, self.s, self.h, self.wn = bc, x, s, np.diff(x), wn
        with np.errstate(over="ignore"):  # a grid of ``rayleigh`` may hold subnormal widths
            g, sh, hm = 1.0 / self.h, s * self.h, self.h / 3.0
        a, self.ke, self.me = g - sh / 3.0, -g - sh / 6.0, 0.5 * hm
        self.kd = np.append(a, bc.k1sq) + np.append(bc.k0sq, a) - self.wn
        self.md = np.append(hm, 0.0) + np.append(0.0, hm)

    def factor(self, sigma: float):
        """(log det, d, e) of K - sigma M = L diag(d) L^T, or None if not definite."""
        from scipy.linalg.lapack import dpttrf  # here: at the top it doubles import time

        with np.errstate(over="ignore"):  # an overflow is rejected below
            d, e, info = dpttrf(self.kd - sigma * self.md, self.ke - sigma * self.me,
                                overwrite_d=1, overwrite_e=1)
        if info:
            return None
        log_det = float(np.log(d).sum())
        if not math.isfinite(log_det):  # dpttrf passes an overflowed +inf diagonal
            raise BracketNotFound(f"K - sigma M is not finite at sigma = {sigma!r}")
        return log_det, d, e

    def mass(self, v: np.ndarray) -> np.ndarray:
        r = self.md * v
        r[:-1] += self.me * v[1:]
        r[1:] += self.me * v[:-1]
        return r

    def rayleigh(self, v: np.ndarray) -> float:
        """Quotient of the P1 function with nodal values v, elements [a, b]:
        [sum (b - a)^2 / h + k0^2 v_0^2 + k1^2 v_N^2 - sum s h (a^2 + ab + b^2) / 3
        - sum w v^2] / sum h (a^2 + ab + b^2) / 3.  v^T K v would lose eps / h^2."""
        a, b = v[:-1], v[1:]
        m = self.h * (a * a + a * b + b * b) / 3.0
        num = (np.dot(b - a, (b - a) / self.h) + self.bc.k0sq * v[0] ** 2
               + self.bc.k1sq * v[-1] ** 2 - np.dot(self.s, m) - np.dot(self.wn, v * v))
        return float(num / m.sum())

    def inverse_iteration(self, sigma: float, factors, v: np.ndarray):
        """(v, RQ) after steps w = mu (K - sigma M)^-1 M v; mu = 1e-2 max(1, |sigma|)
        keeps w in range.  sigma + mu v^T M v / w^T M v is above
        sigma + mu w^T M v / w^T M w (Cauchy-Schwarz) by about v's error
        squared; it stops once that is 1e-12 max(1, |lambda|), or at 64."""
        from scipy.linalg.lapack import dpttrs

        mu, mv = 1e-2 * max(1.0, abs(sigma)), self.mass(v)
        for _ in range(64):
            w, _ = dpttrs(factors[1], factors[2], mu * mv)
            mw = self.mass(w)
            wmv, wmw = float(np.dot(w, mv)), float(np.dot(w, mw))
            gap = mu * (float(np.dot(v, mv)) / wmv - wmv / wmw)
            v, mv = w / math.sqrt(wmw), mw / math.sqrt(wmw)
            if gap <= 1e-12 * max(1.0, abs(sigma + mu * wmv / wmw)):
                break
        return v, self.rayleigh(v)

    def definite_below(self, hi: float, step: float):
        """(sigma, factors, last failed shift or hi): steps down, doubling, to a pass."""
        while math.isfinite(lo := hi - step):
            if (factors := self.factor(lo)) is not None:
                return lo, factors, hi
            hi, step = lo, 2.0 * step
        raise BracketNotFound("finite-element lower bracket end is not finite")


def _p1_brackets(q, bc: RobinBC, n_nodes: int) -> list[tuple[float, float]]:
    """[(sigma, RQ)] on the fitted coarse mesh and on its bisection: dpttrf
    passing certifies sigma < lambda_1^h (Sylvester's law of inertia), and
    RQ, a P1 function's quotient, bounds lambda_1^h and lambda_1 (min-max).

    Coarse: below the constant's quotient k0^2 + k1^2 - int q - sum w, a
    free hi, a descent to a passing shift starts the determinant search
    (Bathe & Wilson, 1976), run to a width of 1e-2 * max(1, |lo|, |hi|):
    the secant through the last two certified lo of log det (the sum of
    the log pivots) stays left of the root, as det(K - sigma M) is convex
    there.  Inverse iteration at lo gives the eigenvector.  Fine: the coarse
    RQ bounds the fine lambda_1^h, so one factorization at
    RQ - 1e-4 * max(1, |RQ|) (lower if dpttrf fails) and inverse iteration
    from the coarse vector finish it."""
    if n_nodes < 32:
        raise ValueError("n_nodes must be >= 32")
    p1 = _fitted(q, bc, n_nodes)
    with np.errstate(over="ignore"):  # a non-finite hi is rejected below it
        hi = bc.k0sq + bc.k1sq - float(np.dot(p1.s, p1.h)) - float(p1.wn.sum())
    lo, factors, hi = p1.definite_below(hi, max(1.0, 1e-3 * abs(hi)))
    pd = [(lo, factors[0])]  # (sigma, log det) at the last two certified lo
    width_2 = width_1 = math.inf
    while (width := hi - lo) > 1e-2 * max(1.0, abs(lo), abs(hi)):
        t = 0.5 * lo + 0.5 * hi  # lo + hi can overflow
        if len(pd) == 2 and width <= 0.5 * width_2:
            (x0, l0), (x1, l1) = pd
            # the secant root of det, or the last advance where rounding stalls log det
            step = (x1 - x0) / math.expm1(min(l0 - l1, 700.0)) if l0 > l1 else x1 - x0
            if step < 0.25 * width:
                step *= 2.0
            t = lo + step if lo < lo + step < hi else t
        width_2, width_1 = width_1, width
        if (f_t := p1.factor(t)) is None:
            hi = t
        else:
            lo, factors, pd = t, f_t, [pd[-1], (t, f_t[0])]
    v, a = p1.inverse_iteration(lo, factors, np.ones(p1.x.size))
    wn = np.zeros(2 * p1.x.size - 1)
    wn[::2] = p1.wn
    fine = _P1(bc, _bisect(p1.x), np.repeat(p1.s, 2), wn)  # holds the coarse space
    sigma, factors, _ = fine.definite_below(a, 1e-4 * max(1.0, abs(a)))
    return [(lo, a), (sigma, fine.inverse_iteration(sigma, factors, _bisect(v))[1])]


# --- variational upper bound ------------------------------------------------

def rayleigh(q, bc: RobinBC, y_samples) -> float:
    """Rayleigh quotient of the piecewise-linear interpolant of ``y_samples``,
    (x, y) pairs on a grid covering [0,1]: an upper bound for lambda_1, exact
    up to rounding (``_P1.rayleigh`` on the cells of q cut at the samples)."""
    arr = np.asarray(y_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("y_samples must be a sequence of (x, y) pairs")
    order = np.argsort(arr[:, 0])
    xs = arr[order, 0]
    ys = arr[order, 1]
    if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1.0) > 1e-12:
        raise ValueError("samples must cover [0, 1]")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample abscissae must be distinct")
    if not ys.any():
        raise ZeroFunction("trial function is identically zero")
    x, s, w = _cells(q, xs)
    return _P1(bc, x, s, w).rayleigh(np.interp(x, xs, ys))
