"""Stationary profiles via phase-plane analysis.

Zero-flux stationary states carry constant chemical potentials mu_i =
log c_i + (G c)_i + z_i phi together with the Poisson equation.
Differentiating the constancy in x turns stationarity into an ODE system
in space. Writing E = phi_x and a1 = 1/c1 + g11, a2 = 1/c2 + g22,
D = a1 a2 - g12^2 (the Hessian determinant of the local free energy):

    c1_x  = -(z1 a2 - z2 g12) E / D,
    c2_x  = -(z2 a1 - z1 g12) E / D,
    E_x   = -(z1 (c1 - cbar1) + z2 (c2 - cbar2)),
    phi_x = E.

Dividing the concentration equations eliminates x and E entirely:

    dc1/dc2 = (z1 a2 - z2 g12) / (z2 a1 - z1 g12),

which is strictly negative for admissible valences (z1 > 0 > z2), so
orbits in the (c2, c1) plane are monotone decreasing graphs. They need
no integration: phi drops out of z2 mu1 - z1 mu2 = psi_1(c1) + psi_2(c2)
with psi_1 = z2 log c1 + b1 c1, b1 = z2 g11 - z1 g12, and psi_2 =
-z1 log c2 + b2 c2, b2 = z2 g12 - z1 g22. Both are strictly decreasing,
so each orbit is a level set of that sum, inverted exactly with the
Wright omega function. Because the
line z . (c - cbar) = 0 has positive slope, each orbit meets it exactly
once; E is extremal there. Orbits are classified by how they sit relative
to the degenerate curve D = 0:

  type I   -- the orbit never meets D = 0;
  type II  -- it crosses D = 0 but the field extremum happens at D > 0;
  type III -- D < 0 at the field extremum, so the extremum lies inside
              the concavity window and the orbit crosses D = 0 at least
              twice.

Bounded periodic profiles are assembled from two half-excursions along
the orbit through (cbar1, cbar2): one to each side of the bulk point,
with the turning-point amplitudes matched so the field peak built up on
either side agrees. Both halves must stay inside the concavity region;
outside it the spatial flow runs away from the bulk point instead of
oscillating around it. Neither half needs an ODE solve. With mu
constant, the osmotic pressure c1 + c2 + c.Gc/2 changes as
-(z . c) E, which gives the stress first integral

    E^2 = 2 [ptilde(c) - ptilde(c_t)],   ptilde = c1 + c2 + c.Gc/2 - rho0 phi,

from a turning point c_t where E = 0. It is evaluated as a quadrature of
dE^2/dc2 = 2 z.(c - cbar) D / br2 along the orbit, which avoids the
cancellation of the ptilde difference, and the half-length is the
quadrature x = int D dc2 / (-br2 E).

Solutions that reach D = 0 with E != 0 suffer gradient blow-up;
integrate_field_ivp stops at the degenerate curve and reports it as
FieldSolution.blow_up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import Chebyshev

from ._deferred import Deferred
from .energy import hessian_det
from .errors import NumericsError, ParameterError, RegimeError
from .model import ModelParams

__all__ = [
    "slope_bounds",
    "phi_of_c",
    "TrajectoryResult",
    "compute_trajectory",
    "classify_trajectory",
    "FieldSolution",
    "integrate_field_ivp",
    "PeriodicSolution",
    "build_periodic",
    "stationary_residual_fd",
    "d_zero_c1",
]

# Imported on first call (_deferred): only integrate_field_ivp loads
# scipy.integrate.
solve_ivp = Deferred("scipy.integrate", "solve_ivp")

_RTOL = 1e-10  # field integrations (solve_ivp RK45)
_ATOL = 1e-12
_D_GUARD = 1e-6  # integrate_field_ivp stops where |D| falls to this
_C_FLOOR = 1e-12  # integrate_field_ivp: the positivity floor of a concentration
_C1_MIN, _C1_MAX = 1e-12, 1e12  # compute_trajectory: orbits end where c1 leaves these
_CHEB_POINTS = (32, 64, 128, 256, 512, 1024)  # build_periodic: interpolation sizes tried
_CHEB_TAIL = 1e-13  # a series is resolved when its last 3 coefficients fall below this share
_NEWTON_MAX = 100  # Newton steps polishing orbit crossings, and inverting x(s)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)  # _field_sq's rule on [0, 1]
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


# ---------------------------------------------------------------------------
# orbit geometry


def _brackets(c1, c2, p: ModelParams):
    """Coefficients br_i in c_i,x = -br_i E / D."""
    a1 = 1.0 / c1 + p.g11
    a2 = 1.0 / c2 + p.g22
    br1 = p.z1 * a2 - p.z2 * p.g12
    br2 = p.z2 * a1 - p.z1 * p.g12
    return br1, br2


def slope_bounds(c1_0: float, c2_0: float, p: ModelParams) -> tuple[float, float]:
    """Exponential envelope rates for the orbit branch with c2 >= c2_0.

    Returns (m, M), both negative, with

        c1_0 exp(m (c2 - c2_0)) <= c1(c2) <= c1_0 exp(M (c2 - c2_0)).

    They bound d(log c1)/dc2 = P(c2)/N(c1) using that P = z1 a2 - z2 g12
    decreases in c2 toward z1 g22 - z2 g12 and N = z2 (1 + g11 c1)
    - z1 g12 c1 is negative, decreasing in c1, with N(0) = z2.
    """
    if c1_0 <= 0 or c2_0 <= 0:
        raise ParameterError("envelope rates need a positive starting point")
    m = (p.z1 / p.z2) * (1.0 / c2_0 + p.g22) - p.g12
    M = (p.z1 * p.g22 - p.z2 * p.g12) / (
        p.z2 * (1.0 + p.g11 * c1_0) - p.z1 * p.g12 * c1_0
    )
    return m, M


def phi_of_c(c1, c2, p: ModelParams):
    """Potential from the conserved chemical potential mu_1, bulk gauged to 0.

    Along any stationary solution mu_1 is the bulk value, which pins phi
    algebraically to the concentrations.
    """
    return (
        np.log(p.cbar1 / np.asarray(c1)) + p.g11 * (p.cbar1 - c1) + p.g12 * (p.cbar2 - c2)
    ) / p.z1


def _neutral_deviation(c1, c2, p: ModelParams):
    return p.z1 * (c1 - p.cbar1) + p.z2 * (c2 - p.cbar2)


def _event(fn: Callable, terminal: bool) -> Callable:
    fn.terminal = terminal
    return fn


def _wrightomega(x):
    """Wright omega of real x, the w with w + log w = x.

    The real branch of SciPy's wright.cc (Lawrence, Corless & Jeffrey,
    ACM TOMS 38(3), Algorithm 917, 2012) in NumPy: exp(x) below -50, x
    above 1e20, and between them a starting guess refined by one
    Fritsch-Shafer-Crowley step, and by a second where wright.cc's bound
    on the first step's error asks for it. Every element takes the same
    operations, its x clipped into [-50, 1e20] where a branch does not
    use it, so no element warns and a call costs the same for every x.
    nan stays nan; -inf gives 0 and inf gives inf.
    """
    x = np.asarray(x, dtype=float)
    y = np.minimum(np.maximum(x, -50.0), 1e20)
    big = np.maximum(y, 1.0)
    log_big = np.log(big)
    # exp(y) below -2, exp(2 (y - 1) / 3) below 1, and two terms of the
    # series at infinity from 1 on
    w = np.where(
        y < 1.0,
        np.exp(np.where(y < -2.0, y, 2.0 * (np.minimum(y, 1.0) - 1.0) / 3.0)),
        big - log_big + log_big / big,
    )

    def fsc(w):
        r = y - w - np.log(w)
        wp1 = w + 1.0
        t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
        return w * (1.0 + r / wp1 * (t - r) / (t - 2.0 * r)), r, wp1

    w, r, wp1 = fsc(w)
    # products rather than pow, which costs more than the rest of the call
    r2, wp1_2 = r * r, wp1 * wp1
    again = np.abs((2.0 * w * w - 8.0 * w - 1.0) * (r2 * r2)) >= (
        72.0 * np.finfo(float).eps * (wp1_2 * wp1_2 * wp1_2)
    )
    w = np.where(again, fsc(w)[0], w)
    return np.where(x < -50.0, np.exp(np.minimum(x, -50.0)), np.where(x > 1e20, x, w))[()]


def _psi(c, a: float, b: float):
    return a * np.log(c) + b * c


def _psi_inverse(y, a: float, b: float):
    """The c > 0 with a log c + b c = y, for a < 0 and b <= 0.

    w = s c with s = b/a solves w + log w = y/a + log s. c = w/s loses
    nothing for w >= 1, c = exp(y/a - w) nothing as w underflows. With
    b = 0, a c beyond the largest float comes out as inf, silently.
    """
    s = b / a
    if s == 0.0:
        with np.errstate(over="ignore"):
            return np.exp(y / a)
    w = _wrightomega(y / a + np.log(s))
    return np.where(w < 1.0, np.exp(y / a - w), w / s)


def _invariant(p: ModelParams, c1_0: float, c2_0: float):
    """(a, b) of psi_1 and of psi_2, psi = a log c + b c (module docstring),
    and the level psi_1(c1_0) + psi_2(c2_0) of the orbit through (c1_0, c2_0)."""
    t1 = (p.z2, p.z2 * p.g11 - p.z1 * p.g12)
    t2 = (-p.z1, p.z2 * p.g12 - p.z1 * p.g22)
    return t1, t2, _psi(c1_0, *t1) + _psi(c2_0, *t2)


def _orbit_maps(p: ModelParams, c1_0: float, c2_0: float):
    """c1(c2) and c2(c1) on the level set of psi_1 + psi_2 through (c1_0, c2_0)."""
    t1, t2, level = _invariant(p, c1_0, c2_0)

    def c1_of(c2):
        return _psi_inverse(level - _psi(c2, *t2), *t1)

    def c2_of(c1):
        return _psi_inverse(level - _psi(c1, *t1), *t2)

    return c1_of, c2_of


# ---------------------------------------------------------------------------
# orbits c1(c2)


@dataclass(eq=False)
class TrajectoryResult:
    """One orbit of the reduced phase plane, sampled along c2."""

    p: ModelParams
    c2: np.ndarray
    c1: np.ndarray
    neutral_points: np.ndarray  # (m, 2) rows (c1, c2) where z.(c - cbar) = 0
    d_zero_points: np.ndarray  # (k, 2) rows (c1, c2) on the degenerate curve
    d_at_neutral: float  # Hessian determinant at the field extremum (nan if none)
    start: tuple[float, float]  # seed (c1_0, c2_0)
    c2_span: tuple[float, float]  # realized span after terminal cutoffs

    @property
    def d_values(self) -> np.ndarray:
        return hessian_det(self.c1, self.c2, self.p)


def _crossings(p: ModelParams, seed: tuple[float, float], c1, c2):
    """Rows (c1, c2) where the orbit through seed, sampled as (c1, c2),
    crosses the neutral line, then rows where it crosses D = 0.

    A crossing lies between two samples at which its function H (the
    neutral deviation, or D) changes sign; a zero sample counts as
    positive, so a crossing on it is found once. All crossings start
    together from the secant point of H between their two samples and
    take Newton steps on the pair (G, H), G = psi_1(c1) + psi_2(c2) -
    level the orbit invariant, with psi' = a/c + b and H's gradient in
    closed form. Each iterate is clipped into the box of its two samples,
    in which the orbit lies. Columns are crossings and rows species, so
    that each step costs a fixed few numpy calls however many there are.
    """
    t1, t2, level = _invariant(p, *seed)
    log_coef, lin_coef = np.array([t1, t2]).T[:, :, None]  # psi_i's a and b, as columns
    g_ii, z = np.array([[p.g11], [p.g22]]), np.array([[p.z1], [p.z2]])
    vals = np.stack([_neutral_deviation(c1, c2, p), hessian_det(c1, c2, p)])
    kind, i = np.nonzero((vals[:, :-1] >= 0) != (vals[:, 1:] >= 0))
    left, right = np.stack([c1[i], c2[i]]), np.stack([c1[i + 1], c2[i + 1]])
    lo, hi = np.minimum(left, right), np.maximum(left, right)
    x = left + vals[kind, i] / (vals[kind, i] - vals[kind, i + 1]) * (right - left)
    degenerate = kind == 1
    last = i.size == 0
    for _ in range(_NEWTON_MAX):
        psi = log_coef * np.log(x) + lin_coef * x
        g, dg = psi[0] + psi[1] - level, log_coef / x + lin_coef
        # D = a1 a2 - g12^2 with a_i = 1/c_i + g_ii, so dD/dc1 = -a2/c1^2
        a_i = 1.0 / x + g_ii
        h = np.where(
            degenerate, a_i[0] * a_i[1] - p.g12 * p.g12, _neutral_deviation(x[0], x[1], p)
        )
        dh = np.where(degenerate, -a_i[::-1] / (x * x), z)
        # Cramer's rule on [dg; dh] step = -[g; h]
        step = (dg[::-1] * h - dh[::-1] * g) / (dg[0] * dh[1] - dg[1] * dh[0])
        step[1] = -step[1]
        x = np.minimum(np.maximum(x + step, lo), hi)
        if last:
            return x[:, ~degenerate].T, x[:, degenerate].T
        # the convergence is quadratic: after a step below 1e-9 relative
        # the error is of order 1e-18, and one more step reaches rounding
        last = np.abs(step / x).max() < 1e-9
    raise NumericsError("polishing the orbit's crossings did not converge")


def compute_trajectory(
    p: ModelParams,
    c1_0: float,
    c2_0: float,
    c2_min: float = 1e-6,
    c2_max: float = 1e6,
    samples_per_leg: int = 800,
) -> TrajectoryResult:
    """The orbit through (c1_0, c2_0) for c2_min < c2 < c2_max, in closed form.

    c1(c2) is the exact inverse of the orbit invariant (module docstring).
    The orbit ends early where c1 leaves [1e-12, 1e12]; those cutoffs are
    exact too, and c2_span in the result is the span that remains. Each
    leg from the seed carries samples_per_leg >= 2 geometric samples in c2.
    Crossings of the neutral line and of the degenerate curve are the
    sign changes of their functions on the samples, all polished at once
    by Newton on the orbit invariant and the crossing function
    (_crossings) until a step moves them by less than 1e-9 relative,
    and then by one more step, which takes them to rounding.
    """
    if not (_C1_MIN < c1_0 < _C1_MAX and c2_0 > 0):
        raise ParameterError(
            f"orbit seed needs {_C1_MIN} < c1_0 < {_C1_MAX} and c2_0 > 0, got ({c1_0}, {c2_0})"
        )
    if not (0 < c2_min < c2_0 < c2_max):
        raise ParameterError(
            f"c2 range ({c2_min}, {c2_max}) must straddle the seed ordinate {c2_0}"
        )
    if samples_per_leg < 2:
        raise ParameterError(
            f"each leg needs at least 2 samples, its two ends; got {samples_per_leg}"
        )
    c1_of, c2_of = _orbit_maps(p, c1_0, c2_0)
    # c1 falls as c2 rises, so its upper cutoff bounds c2 from below
    c2_cut = c2_of(np.array([_C1_MAX, _C1_MIN]))
    c2_lo, c2_hi = max(c2_min, float(c2_cut[0])), min(c2_max, float(c2_cut[1]))
    down = np.geomspace(c2_lo, c2_0, samples_per_leg)
    c2 = np.concatenate([down[:-1], np.geomspace(c2_0, c2_hi, samples_per_leg)])
    c1 = c1_of(c2)
    neutral, dzero = _crossings(p, (c1_0, c2_0), c1, c2)
    d_at_neutral = (
        float(hessian_det(neutral[0, 0], neutral[0, 1], p))
        if neutral.shape[0]
        else float("nan")
    )
    return TrajectoryResult(
        p=p,
        c2=c2,
        c1=c1,
        neutral_points=neutral,
        d_zero_points=dzero,
        d_at_neutral=d_at_neutral,
        start=(c1_0, c2_0),
        c2_span=(c2_lo, c2_hi),
    )


def classify_trajectory(res: TrajectoryResult) -> str:
    """Orbit type "I", "II" or "III" (module docstring); NumericsError if
    the span ends before the neutral line, where the type is decided."""
    if res.neutral_points.shape[0] == 0:
        raise NumericsError(
            "orbit never met the neutral line within its span; "
            "widen c2_min/c2_max before classifying"
        )
    if res.d_zero_points.shape[0] == 0:
        return "I"
    if res.d_at_neutral < 0:
        return "III"
    return "II"


# ---------------------------------------------------------------------------
# spatial flow


@dataclass(eq=False)
class FieldSolution:
    """Dense solution of the spatial system, state (c1, c2, E, phi)."""

    p: ModelParams
    sol: object  # scipy dense-output interpolant
    x_start: float
    x_end: float
    status: str  # "span" | "neutral" | "degenerate" | "positivity"
    blow_up: bool  # reached D ~ 0 while |E| stayed away from 0
    symmetric: bool  # launched from a turning point (E = 0)

    def at(self, x):
        """Evaluate (c1, c2, E, phi) at x; rows are the state components.

        ParameterError if x leaves [x_start, x_end] (up to rounding).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = sorted((self.x_start, self.x_end))
        span = hi - lo
        if np.any(x < lo - 1e-12 * span) or np.any(x > hi + 1e-12 * span):
            raise ParameterError("query outside the computed span")
        return self.sol(np.clip(x, lo, hi))


def _flow(c1, c2, E, p: ModelParams):
    """The spatial system's right-hand sides (c1_x, c2_x, E_x, phi_x)."""
    br1, br2 = _brackets(c1, c2, p)
    r = E / hessian_det(c1, c2, p)
    return -br1 * r, -br2 * r, -_neutral_deviation(c1, c2, p), E


def integrate_field_ivp(
    p: ModelParams,
    c0: tuple[float, float],
    E0: float = 0.0,
    x_span: tuple[float, float] = (0.0, 50.0),
    stop_at_neutral: bool = False,
) -> FieldSolution:
    """Integrate the spatial system from (c0, E0) across x_span.

    phi starts at phi_of_c(c0), the potential that puts the start on the
    bulk chemical potentials.

    The run always terminates when the orbit comes within |D| = 1e-6 of
    the degenerate curve (the flow is singular there); the result is
    flagged blow_up when the field was not simultaneously small, since
    that is the gradient blow-up scenario. D^2 falls like the distance to
    a blow-up, so the guard lies about 1e-12 before it in x, which must
    be a step RK45 can take (a guard of 1e-8 is not). A concentration
    falling to the floor 1e-12 ends the run with status "positivity"; the
    flow is NaN where one is <= 0, so RK45 rejects that stage. With
    stop_at_neutral the run also stops where z . (c - cbar) changes sign,
    which is where |E| peaks. c0 must be finite and above the floor, and
    E0 and x_span finite (ParameterError otherwise): a non-finite span
    never ends RK45's run, and a launch at or below the floor would
    never meet the positivity event.
    """
    c1_0, c2_0 = c0
    if not (_C_FLOOR < c1_0 < np.inf and _C_FLOOR < c2_0 < np.inf):  # NaN fails
        raise ParameterError(
            f"initial concentrations must be finite and above the positivity floor {_C_FLOOR}"
        )
    if not np.isfinite((E0, *x_span)).all():
        raise ParameterError("E0 and the ends of x_span must be finite")
    phi0 = float(phi_of_c(c1_0, c2_0, p))

    def rhs(x, y):
        return _flow(*y[:3], p) if min(y[0], y[1]) > 0.0 else (np.nan,) * 4

    ev_neutral = _event(
        lambda x, y: _neutral_deviation(y[0], y[1], p), stop_at_neutral
    )
    ev_shell = _event(
        lambda x, y: hessian_det(y[0], y[1], p) ** 2 - _D_GUARD**2, True
    )
    ev_positive = _event(lambda x, y: min(y[0], y[1]) - _C_FLOOR, True)
    sol = solve_ivp(
        rhs,
        x_span,
        [c1_0, c2_0, E0, phi0],
        method="RK45",
        rtol=_RTOL,
        atol=_ATOL,
        dense_output=True,
        events=[ev_neutral, ev_shell, ev_positive],
    )
    if sol.status == -1:
        raise NumericsError(f"spatial integration failed: {sol.message}")
    status = "span"
    blow_up = False
    if sol.t_events[1].size:
        status = "degenerate"
        E_here = sol.y_events[1][0][2]
        blow_up = abs(E_here) > 1e-8
    elif sol.t_events[2].size:
        status = "positivity"
    elif stop_at_neutral and sol.t_events[0].size:
        status = "neutral"
    return FieldSolution(
        p=p,
        sol=sol.sol,
        x_start=float(x_span[0]),
        x_end=float(sol.t[-1]),
        status=status,
        blow_up=blow_up,
        symmetric=(E0 == 0.0),
    )


# ---------------------------------------------------------------------------
# periodic profiles


def _require_concave(d, c2_turn) -> None:
    """NumericsError if D >= 0 at any sample d between a turning point and
    the bulk; c2_turn, broadcast against d, holds each sample's turning point."""
    outside = d >= 0
    if np.any(outside):
        turn = np.broadcast_to(c2_turn, np.shape(d))[outside][0]
        raise NumericsError(
            f"the orbit leaves the concavity region D < 0 between the turning point "
            f"c2 = {turn:.6g} and the bulk (max D = {np.max(d):.3g}); "
            "no periodic profile at this amplitude"
        )


def _chebfun(fn: Callable, lo: float, hi: float, tol: float) -> Chebyshev:
    """Chebyshev interpolant of fn on [lo, hi], resolved to tol.

    fn is sampled at n Chebyshev points of the first kind, n doubling from
    32 to 1024, and the series is accepted once its last three
    coefficients fall below tol relative to the largest. The coefficients
    are a cosine transform with every angle reduced below 2 pi, exact to
    rounding at every n (numpy's chebinterpolate builds cos(k theta) by a
    recurrence that loses about n eps).
    """
    for n in _CHEB_POINTS:
        j = np.arange(n)
        t = np.cos(np.pi * (j + 0.5) / n)
        basis = np.cos(np.pi * (np.outer(j, 2 * j + 1) % (4 * n)) / (2 * n))
        coef = basis @ fn(lo + 0.5 * (hi - lo) * (t + 1.0)) * (2.0 / n)
        coef[0] *= 0.5
        mag = np.abs(coef)
        if np.max(mag[-3:]) <= tol * np.max(mag):
            return Chebyshev(coef, domain=(lo, hi))
    raise NumericsError(
        f"a series on [{lo:.6g}, {hi:.6g}] is not resolved by {_CHEB_POINTS[-1]} "
        "Chebyshev points; a turning point lies too close to D = 0"
    )


def _first_root(fn: Callable, hi: float, tol: float) -> float:
    """The smallest root of fn on [0, hi], NumericsError if it has none.

    The roots are the real eigenvalues of the colleague matrix of fn's
    Chebyshev series (_chebfun to tol; Boyd, SIAM J. Numer. Anal. 40,
    2002). A simple real root stays real under rounding, since the
    matrix is real.
    """
    roots = _chebfun(fn, 0.0, hi, tol).roots()
    real = roots.real[(roots.imag == 0) & (roots.real >= 0) & (roots.real <= hi)]
    if real.size == 0:
        raise NumericsError(f"no root on [0, {hi:.6g}]")
    return float(real.min())


def _field_sq(p: ModelParams, c1_of: Callable, c2_turn, s):
    """E^2 / s^2 at c2 = c2_turn + (cbar2 - c2_turn) s^2 on the orbit.

    E vanishes at the turning point c2_turn, and dE^2/dc2 =
    2 z.(c - cbar) D / br2 along the orbit, so E^2 / s^2 =
    delta int_0^1 (dE^2/dc2)(c2_turn + delta s^2 v) dv with
    delta = cbar2 - c2_turn, by Gauss-Legendre in v. This is the stress
    first integral E^2 = 2 [ptilde(c) - ptilde(c_t)] without the
    cancellation of the ptilde difference near the turning point. An
    array of turning points with a scalar s, or an array of s with one
    turning point, gives one value each.
    """
    c2_turn = np.asarray(c2_turn)[..., None]
    delta = p.cbar2 - c2_turn
    c2 = c2_turn + delta * np.multiply.outer(s * s, _GL_NODES)
    c1 = c1_of(c2)
    d = hessian_det(c1, c2, p)
    _require_concave(d, c2_turn)
    slope = 2.0 * _neutral_deviation(c1, c2, p) * d / _brackets(c1, c2, p)[1]
    return delta[..., 0] * (slope @ _GL_WEIGHTS)


def _resolution(p: ModelParams, c1_of: Callable, c2_turn: float) -> float:
    """The tolerance to which series on the half-orbit from c2_turn resolve.

    z.(c - cbar) carries an absolute rounding error of about
    eps (|z1| cbar1 + |z2| cbar2); relative to its size at the turning
    point, that bounds how far any series built on it can be resolved.
    """
    rounding = np.finfo(float).eps * (abs(p.z1) * p.cbar1 + abs(p.z2) * p.cbar2)
    return max(_CHEB_TAIL, rounding / abs(_neutral_deviation(c1_of(c2_turn), c2_turn, p)))


@dataclass(frozen=True)
class _HalfOrbit:
    """The half-orbit from a turning point to the bulk, in the variable s.

    c2 = c2_turn + delta s^2 runs from the turning point (s = 0) to cbar2
    (s = 1); E = s sqrt(q(s)) there, and s_of_x maps the distance from the
    turning point, 0 to length, to s.
    """

    c2_turn: float
    delta: float
    length: float
    q: Chebyshev
    s_of_x: Chebyshev


def _half_orbit(p: ModelParams, c1_of: Callable, c2_turn: float) -> _HalfOrbit:
    """Half-length and evaluation series of one half-orbit, integrating no ODE.

    Along the orbit x = int D dc2 / (-br2 E). Under c2 = c2_turn +
    delta s^2 both q = E^2 / s^2 (_field_sq) and dx/ds =
    2 |delta D| / (|br2| sqrt(q)) are smooth in s, the latter because E
    vanishes like s at the turning point. Each is a Chebyshev interpolant
    in s; x(s) is the integral of dx/ds, and s(x) its inverse, by Newton
    at the Chebyshev points in x.
    """
    delta = p.cbar2 - c2_turn
    tol = _resolution(p, c1_of, c2_turn)

    def q_of(s):
        q = _field_sq(p, c1_of, c2_turn, s)
        if np.any(q <= 0):
            raise NumericsError(
                f"E^2 <= 0 between the turning point c2 = {c2_turn:.6g} and the bulk; "
                "the orbit leaves the concavity region D < 0"
            )
        return q

    q = _chebfun(q_of, 0.0, 1.0, tol)

    def x_rate(s):
        c2 = c2_turn + delta * s * s
        c1 = c1_of(c2)
        d = hessian_det(c1, c2, p)
        _require_concave(d, c2_turn)
        return 2.0 * np.abs(delta * d / _brackets(c1, c2, p)[1]) / np.sqrt(q(s))

    rate = _chebfun(x_rate, 0.0, 1.0, tol)
    x_of_s = rate.integ(lbnd=0.0)
    length = float(x_of_s(1.0))

    def s_at(x):
        s = x / length
        for _ in range(_NEWTON_MAX):
            step = (x_of_s(s) - x) / rate(s)
            s = np.clip(s - step, 0.0, 1.0)
            if np.max(np.abs(step)) < 1e-13:
                # the convergence is quadratic: one more step reaches rounding
                return np.clip(s - (x_of_s(s) - x) / rate(s), 0.0, 1.0)
        raise NumericsError("inverting x(s) on the half-orbit did not converge")

    return _HalfOrbit(c2_turn, delta, length, q, _chebfun(s_at, 0.0, length, tol))


@dataclass(eq=False)
class PeriodicSolution:
    """One period of a bounded stationary profile.

    The two half-orbits run from each turning point to the bulk crossing;
    evaluate() unfolds them using the reversibility of the spatial flow
    (concentrations and potential even, field odd about every turning
    point). x = 0 is the turning point with c2 above the bulk value.
    """

    p: ModelParams
    period: float
    x_a: float
    x_b: float
    amp_a: float
    amp_b: float
    e_peak: float
    turning_a: tuple[float, float]
    turning_b: tuple[float, float]
    _half_a: _HalfOrbit = field(repr=False)
    _half_b: _HalfOrbit = field(repr=False)

    def evaluate(self, x):
        """Sample (c1, c2, E, phi) at arbitrary x, periodically extended."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        T = self.period
        xi = np.mod(x, T)
        sign = np.where(xi > 0.5 * T, -1.0, 1.0)
        xi = np.where(xi > 0.5 * T, T - xi, xi)
        in_a = xi <= self.x_a
        c2 = np.empty_like(xi)
        E = np.empty_like(xi)
        # distance from each half's own turning point; E >= 0 on [0, T/2]
        for half, sel, dist in (
            (self._half_a, in_a, xi),
            (self._half_b, ~in_a, self.x_a + self.x_b - xi),
        ):
            s = np.clip(half.s_of_x(dist[sel]), 0.0, 1.0)
            c2[sel] = half.c2_turn + half.delta * s * s
            E[sel] = s * np.sqrt(half.q(s))
        c1 = _orbit_maps(self.p, self.p.cbar1, self.p.cbar2)[0](c2)
        return np.array([c1, c2, sign * E, phi_of_c(c1, c2, self.p)])

    def sample(self, n_per_period: int = 1024, periods: int = 1):
        """Uniform samples over an integer number of periods.

        Returns (x, c1, c2, E, phi); the grid excludes the right endpoint
        so the arrays tile periodically without duplication.
        """
        n = n_per_period * periods
        x = np.linspace(0.0, periods * self.period, n, endpoint=False)
        c1, c2, E, phi = self.evaluate(x)
        return x, c1, c2, E, phi


def build_periodic(p: ModelParams, amplitude: float) -> PeriodicSolution:
    """Construct a periodic stationary profile around the bulk point.

    The turning points (E = 0) lie on the closed-form orbit through the
    bulk point, at c2 = cbar2 + amplitude and cbar2 - amplitude. The stress
    first integral fixes the field peak at the bulk crossing from either
    side, E^2 = 2 [ptilde(cbar) - ptilde(c_t)], as one quadrature along
    the orbit (_field_sq). The side that builds the larger peak is shrunk
    until the two agree, at a root of the peak's Chebyshev series in the
    amplitude (_first_root), and each half-length is a quadrature too
    (_half_orbit), so no ODE is integrated. Closed
    excursions exist only where D < 0: the side kept must lie there, and
    a side that starts outside must be the one shrunk, its peak taken at
    the window edge D = 0. Raises NumericsError if the orbit leaves D < 0
    between a kept turning point and the bulk.
    """
    if not amplitude > 0:
        raise ParameterError(f"amplitude must be positive, got {amplitude}")
    if amplitude >= p.cbar2:
        raise ParameterError(
            f"amplitude {amplitude} must stay below cbar2 = {p.cbar2} to keep c2 positive"
        )
    c1_of = _orbit_maps(p, p.cbar1, p.cbar2)[0]

    def d_at(a):
        return hessian_det(c1_of(p.cbar2 + a), p.cbar2 + a, p)

    def peak_sq(a):
        return _field_sq(p, c1_of, p.cbar2 + a, 1.0)

    def reach(side):
        """How far from the bulk towards cbar2 + side * amplitude D stays < 0."""
        if d_at(side * amplitude) < 0:
            return amplitude
        _require_concave(d_at(0.0), p.cbar2)
        return _first_root(lambda a: d_at(side * a), amplitude, _CHEB_TAIL)

    far = {side: reach(side) for side in (1.0, -1.0)}
    top, bottom = peak_sq(far[1.0]), peak_sq(-far[-1.0])
    # the side that builds the larger field peak shrinks; the other keeps
    # the full amplitude, so its turning point must lie inside the window
    side = 1.0 if top > bottom else -1.0
    _require_concave(d_at(-side * amplitude), p.cbar2 - side * amplitude)
    kept = _half_orbit(p, c1_of, p.cbar2 - side * amplitude)
    a_match = _first_root(
        lambda a: peak_sq(side * a) - min(top, bottom),
        far[side],
        _resolution(p, c1_of, p.cbar2 + side * far[side]),
    )
    shrunk = _half_orbit(p, c1_of, p.cbar2 + side * a_match)
    half_a, half_b = (shrunk, kept) if side > 0 else (kept, shrunk)
    amp_a, amp_b = (a_match, amplitude) if side > 0 else (amplitude, a_match)
    peak_a, peak_b = np.sqrt(half_a.q(1.0)), np.sqrt(half_b.q(1.0))
    return PeriodicSolution(
        p=p,
        period=2.0 * (half_a.length + half_b.length),
        x_a=half_a.length,
        x_b=half_b.length,
        amp_a=amp_a,
        amp_b=amp_b,
        e_peak=float(0.5 * (peak_a + peak_b)),
        turning_a=(float(c1_of(half_a.c2_turn)), half_a.c2_turn),
        turning_b=(float(c1_of(half_b.c2_turn)), half_b.c2_turn),
        _half_a=half_a,
        _half_b=half_b,
    )


def _fd4_shifts(arr: np.ndarray, periodic: bool) -> list[np.ndarray]:
    """arr[j + k], k = -2 ... 2, on the nodes where five-point stencils fit."""
    if periodic:
        return [np.roll(arr, -k) for k in range(-2, 3)]
    return [arr[2 + k : arr.size - 2 + k] for k in range(-2, 3)]


def _fd4_first(arr: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """Fourth-order centered first derivative."""
    m2, m1, _, p1, p2 = _fd4_shifts(arr, periodic)
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)


def _fd4_second(arr: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    m2, m1, c0, p1, p2 = _fd4_shifts(arr, periodic)
    return (-m2 + 16.0 * m1 - 30.0 * c0 + 16.0 * p1 - p2) / (12.0 * h * h)


def stationary_residual_fd(
    x: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    E: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    periodic: bool = True,
) -> dict[str, float]:
    """Sup-norm residuals of the stationary system on uniform samples.

    Derivatives are formed with fourth-order centered differences over
    five samples, so fewer than five raise ParameterError; with
    periodic=True the samples must tile an integer number of periods
    (right endpoint excluded). Keys: "c1", "c2", "field" for the three
    flow equations, "potential_gradient" for phi_x = E, and "poisson"
    for phi_xx + z . c + rho0 = 0.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 5:
        raise ParameterError(
            f"residual check needs at least 5 samples, its stencil width; got {x.size}"
        )
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12 * abs(h)):
        raise ParameterError("residual check needs a uniform sample grid")

    def trim(a):
        return a if periodic else a[2:-2]

    out = {}
    for key, arr, rhs in zip(
        ("c1", "c2", "field", "potential_gradient"), (c1, c2, E, phi), _flow(c1, c2, E, p)
    ):
        out[key] = float(np.max(np.abs(_fd4_first(arr, h, periodic) - trim(rhs))))
    poisson = _fd4_second(phi, h, periodic) + trim(p.z1 * c1 + p.z2 * c2 + p.rho0)
    out["poisson"] = float(np.max(np.abs(poisson)))
    return out


# ---------------------------------------------------------------------------
# the degenerate curve


def d_zero_c1(c2: float, p: ModelParams) -> float:
    """The c1 ordinate of the degenerate curve D = 0 at a given c2."""
    a2 = 1.0 / c2 + p.g22
    need = p.g12 * p.g12 / a2
    if need <= p.g11:
        raise RegimeError(
            f"degenerate curve does not reach c2 = {c2} for these interactions"
        )
    return 1.0 / (need - p.g11)
