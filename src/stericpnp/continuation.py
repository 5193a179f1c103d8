"""Stationary states on a finite interval and bifurcation-branch mapping.

The stationary system, its unknown layout and its bordered banded
Jacobian are _fd's (_fd._pack, _Kernel.residual, _Kernel.jacobian), at
the kernel of the solve's parameter value (_kernel_at). Each Newton
system is solved by block elimination: one LAPACK dgbsv call, which
factors the band and solves for a handful of right-hand sides in place
in _Kernel.jacobian's storage (imported at the first solve), and a small
Schur complement. One loop, _damped_newton, serves newton_solve and the
arclength corrector; it builds the Jacobian once per iterate that needs
a step, and its line search tests each trial on the residual alone.

Branches in a model parameter (sigma, or the applied voltage amplitude)
are traced by pseudo-arclength continuation: secant tangent, predictor
w + ds * t, corrector Newton on the residual augmented with the
orthogonality row <t, w - w_pred> = 0. The inner product is
sum_i weights_i a_i b_i with one weight vector, built once per
trace_branch call: 1/(3n + 2) for each state and multiplier entry and
1/scale^2 for the parameter, scale the width of the parameter range. So
ds is measured in fractions of that range, folds are turned smoothly,
and the corrector's orthogonality row is the tangent times the weights.

One rule says when two states are the same: StationaryState.same_as,
max-norm concentration distance below _SAME_TOL * (1 + max(|c1|, |c2|))
of the receiver. It alone decides whether a probe returned, whether an
escape is new, whether a queued state lies on a known branch, and which
re-converged states states_at keeps.

Stability is decided by the Hessian's inertia: stability_index counts
the negative directions of the discrete energy on the mass constraints,
from the same banded Jacobian and one LAPACK band eigenvalue call, and a
state is stable iff that index is 0. The dynamics only searches for
escapes: stability_probe perturbs an unstable state with seeded zero-mean
noise, relaxes it with evolve, and Newton-polishes the relaxed profile
into a new stationary state when it lands somewhere else. run_combined
chains the two: continue a branch, probe every accepted point, queue
escape targets that differ from the previous one, skip each queued state
that lands on an already-known branch, and launch fresh continuations
from the genuinely new states until the queue drains.

Diagrams live in the (parameter, weighted arc-length norm of c1) plane.
The weight 1 + (x + L)/(2L) breaks reflection symmetry, so a state and
its mirror image plot at different heights even though their L2 norms
are equal.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._deferred import Deferred
from ._fd import (
    BoundaryConditions,
    _Kernel,
    _pack,
    _unpack,
    electrode_bc,
    gradient,
    trapz,
)
from .dynamics import add_noise, evolve
from .errors import NumericsError, ParameterError
from .model import DomainSpec, Grid, ModelParams, Profile, make_grid, with_sigma

__all__ = [
    "StationaryState",
    "BranchPoint",
    "Branch",
    "BranchSet",
    "ProbeResult",
    "weighted_norm",
    "l2_norm",
    "stationary_residual",
    "newton_solve",
    "trace_branch",
    "stability_index",
    "stability_probe",
    "run_combined",
    "states_at",
    "mirror_state",
    "save_branchset",
    "load_branchset",
]

# LAPACK's band LU and solve in one call, imported at the first Newton
# solve (_deferred), under the name at which perfbench's tracer counts
# stationary solves
solve_banded = Deferred("scipy.linalg.lapack", "dgbsv")
# LAPACK's symmetric band eigenvalues, selected by index, imported at the
# first stability_index (_deferred)
dsbevx = Deferred("scipy.linalg.lapack", "dsbevx")

_NEWTON_TOL = 1e-10  # max-norm residual of a converged state
_NEWTON_MAX_ITER = 40
_CORRECTOR_MAX_ITER = 12
_DS_MAX = 0.05  # arclength step bounds of trace_branch
_DS_MIN = 1e-6
_PROBE_NOISE = 1e-3  # amplitude of stability_probe's perturbation
_INDEX_WINDOW = 8  # eigenvalues in stability_index's first dsbevx range
_SAME_TOL = 1e-4  # same_as: relative max-norm distance of one state

_log = logging.getLogger(__name__)


def weighted_norm(c1: np.ndarray, grid: Grid) -> float:
    """Weighted arc length of c1: int (1 + (x+L)/(2L)) sqrt(1 + |c1'|^2) dx.

    The linear weight makes the norm sensitive to WHERE structure sits,
    not just how much of it there is, which separates mirror images on
    the bifurcation diagram.
    """
    if grid.periodic:
        raise ParameterError("weighted_norm is defined on wall-to-wall grids")
    w = 1.0 + (grid.x + grid.L) / (2.0 * grid.L)
    slope = gradient(c1, grid)
    return float(trapz(w * np.sqrt(1.0 + slope * slope), grid))


def l2_norm(c1: np.ndarray, c2: np.ndarray, grid: Grid) -> float:
    """Reflection-invariant companion norm, sqrt(int c1^2 + c2^2 dx)."""
    return float(np.sqrt(trapz(c1 * c1 + c2 * c2, grid)))


@dataclass
class StationaryState:
    """A converged stationary solution with its multipliers."""

    c1: np.ndarray
    c2: np.ndarray
    phi: np.ndarray
    lam1: float
    lam2: float
    param_name: str
    param_value: float

    def pack(self) -> np.ndarray:
        return _pack(self.c1, self.c2, self.phi, self.lam1, self.lam2)

    def as_profile(self, grid: Grid) -> Profile:
        return Profile(
            c1=self.c1.copy(), c2=self.c2.copy(), phi=self.phi.copy(), grid=grid
        )

    def distance(self, other: "StationaryState | Profile") -> float:
        return max(
            float(np.max(np.abs(self.c1 - other.c1))),
            float(np.max(np.abs(self.c2 - other.c2))),
        )

    def same_as(self, other: "StationaryState | Profile") -> bool:
        """The identity rule: distance below _SAME_TOL * (1 + max |c|) of self."""
        size = max(float(np.max(np.abs(self.c1))), float(np.max(np.abs(self.c2))))
        return self.distance(other) < _SAME_TOL * (1.0 + size)


def _apply_param(
    p: ModelParams, d: DomainSpec, name: str, value: float
) -> tuple[ModelParams, BoundaryConditions]:
    """Materialize (params, boundary conditions) at a parameter value.

    "sigma" varies the gradient-energy coefficient at fixed wall
    potentials; "voltage" varies the antisymmetric applied voltage
    phi(-L) = -V, phi(L) = +V at fixed sigma.
    """
    if name == "sigma":
        return with_sigma(p, value), electrode_bc(d.phi_left, d.phi_right)
    if name == "voltage":
        return p, electrode_bc(-value, value)
    raise ParameterError(f"unknown continuation parameter {name!r}")


def _kernel_at(p0: ModelParams, d: DomainSpec, grid: Grid, name: str, value: float) -> _Kernel:
    """The model's kernel at a parameter value (_apply_param)."""
    p, bc = _apply_param(p0, d, name, value)
    return _Kernel(p, grid, bc)


def _dresidual_dparam(kernel: _Kernel, u: np.ndarray, name: str) -> np.ndarray:
    """Derivative of the stationary residual at u in the parameter that
    _apply_param varies, at its kernel: -c_xx in the mu rows for "sigma"
    (the residual holds -sigma c_xx), and for "voltage" +1 and -1 in the
    Dirichlet rows phi_0 + V and phi_{n-1} - V."""
    m = u.size - 2
    out = np.zeros(m + 2)
    if name == "sigma":
        c1, c2, *_ = _unpack(u)
        out[0:m:3], out[1:m:3] = -kernel.laplacian(np.column_stack((c1, c2))).T
    else:
        out[2] = 1.0
        out[m - 1] = -1.0
    return out


def _solve_bordered(
    f: np.ndarray,
    g: np.ndarray,
    ab: np.ndarray,
    C: np.ndarray,
    D: np.ndarray,
    E: np.ndarray | None = None,
) -> np.ndarray:
    """Solve [[B, C], [D, E]] [x; y] = [f; g] with B banded, E zero if None.

    One banded factorization over k+1 right-hand sides, then a k x k
    Schur complement for the border unknowns. B is ab in gbsv storage
    (_Kernel.jacobian), which the factorization overwrites; one dgbsv call
    through the module attribute solve_banded factors and solves, the
    LAPACK call that scipy.linalg.solve_banded makes, without its
    finiteness scan and its copy of ab. LinAlgError if B is singular.
    """
    b = (ab.shape[0] - 1) // 3
    rhs = np.column_stack([f, C])
    _, _, X, info = solve_banded(b, b, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    xf = X[:, 0]
    XC = X[:, 1:]
    S = -(D @ XC) if E is None else E - D @ XC
    y = np.linalg.solve(S, g - D @ xf)
    return np.concatenate([xf - XC @ y, y])


def stationary_residual(
    u: np.ndarray | StationaryState,
    p: ModelParams,
    grid: Grid,
    bc: BoundaryConditions,
) -> np.ndarray:
    """Residual of the stationary system at u (vector or state)."""
    vec = u.pack() if isinstance(u, StationaryState) else np.asarray(u, float)
    return _Kernel(p, grid, bc).residual(vec)


def stability_index(
    state: StationaryState, p: ModelParams, grid: Grid, bc: BoundaryConditions
) -> int:
    """The number of unstable directions of a stationary state: negative
    eigenvalues of the discrete energy's Hessian on the two mass
    constraints, 0 at a constrained minimum. The dynamics is a gradient
    flow of discrete_energy with positive mobility, so they are its
    growing modes.

    K is _Kernel.jacobian's band with each node's three rows scaled by the
    node's weight w_j, and the two Dirichlet phi unknowns decoupled by a 1
    on the diagonal. It is symmetric, and its interior phi block, the
    Poisson operator, is negative definite, so K has n - 2 negative
    eigenvalues besides those of the Hessian in c (Haynsworth's inertia
    additivity, Linear Algebra Appl. 1, 1968). By Sylvester's law of
    inertia, K bordered by the mass rows D, [[K, D^T], [D, 0]], has n +
    index negative eigenvalues; if K is regular, as many as K and -D K^-1
    D^T together. That 2 x 2 is -S for S = -D J^-1 C, the Schur complement
    of _solve_bordered, so index = neg(K) + pos(S) - n. dsbevx finds the
    negatives among K's eigenvalues n - 1, n, ... by index: _INDEX_WINDOW
    of them, then twice as many above while all of the last were negative.
    If the banded factorisation of J is singular (a fold, to rounding), the
    bordered matrix's inertia is counted densely instead.
    """
    ab, C, D = _Kernel(p, grid, bc).jacobian(state.pack())
    n, m, b = grid.n, 3 * grid.n, (ab.shape[0] - 1) // 3
    # K in LAPACK's lower band storage, low[k, col] = K[col + k, col], from
    # gbsv's ab[2 b + k, col] = J[col + k, col] times the row's weight
    rows = np.repeat(grid.weights, 3)
    rows[[2, m - 1]] = 1.0
    low = ab[2 * b :].copy()
    for k in range(b + 1):
        low[k, : m - k] *= rows[k:]
    # phi_0's column below the diagonal (the Poisson row of node 1); the
    # Dirichlet rows hold only their diagonal, so the lower band already
    # decouples phi_{n-1}
    low[1:, 2] = 0.0
    _, _, X, info = solve_banded(b, b, ab, C, overwrite_ab=True)
    if info > 0:
        K = np.diag(low[0])
        for k in range(1, b + 1):
            K += np.diag(low[k, : m - k], -k) + np.diag(low[k, : m - k], k)
        bordered = np.block([[K, D.T], [D, np.zeros((2, 2))]])
        return int(np.sum(np.linalg.eigvalsh(bordered) < 0.0)) - n
    S = -(D @ X)
    # neg(K) is n - 2 plus the negatives from eigenvalue n - 1 on
    index = int(np.sum(np.linalg.eigvalsh(0.5 * (S + S.T)) > 0.0)) - 2
    first, width = n - 1, _INDEX_WINDOW
    while first <= m:
        last = min(first + width - 1, m)
        w, _, found, _, _ = dsbevx(low, 0.0, 0.0, first, last, compute_v=0, range=2,
                                   lower=1, overwrite_ab=0)
        negative = int(np.sum(w[:found] < 0.0))
        index += negative
        if negative < found:
            break
        first, width = last + 1, 2 * width
    return index


def _initial_vector(guess: StationaryState | Profile, kernel: _Kernel, grid: Grid) -> np.ndarray:
    """Packed unknowns from a state, or from a profile on grid.

    A profile without phi gets it from the kernel's Poisson solve; its
    multiplier seeds are the mean chemical potentials.
    """
    if isinstance(guess, StationaryState) and guess.c1.size == grid.n:
        return guess.pack()
    if not (isinstance(guess, Profile) and np.array_equal(guess.grid.x, grid.x)):
        raise ParameterError(
            "a seed must be a StationaryState or a Profile on the run's grid"
        )
    c1, c2 = guess.c1, guess.c2
    c = np.column_stack((c1, c2))
    rho = kernel.charge(c)
    phi = kernel.potential(rho) if guess.phi is None else guess.phi
    mu1, mu2 = kernel.mu_and_energy(c, rho, phi)[0].T
    return _pack(c1, c2, phi, float(np.mean(mu1)), float(np.mean(mu2)))


def _damped_newton(w: np.ndarray, residual, jacobian, max_iter: int) -> tuple[np.ndarray, int]:
    """Damped Newton on residual(w) = 0; returns (w, iterations).

    jacobian(w) gives _solve_bordered's blocks (ab, C, D[, E]); the first
    ab.shape[1] entries of w are the nodes' (c1, c2, phi), the rest border
    unknowns. It is built once per iterate that still needs a step: a
    trial of the line search evaluates the residual alone (Kelley,
    Solving Nonlinear Equations with Newton's Method, SIAM 2003, ch. 2). A
    step is halved until the concentrations stay positive and the max-norm
    residual drops; below 1/1024, or with the residual still above
    _NEWTON_TOL after max_iter steps, NumericsError.
    """
    r = residual(w)
    rnorm = float(np.max(np.abs(r)))
    if not np.isfinite(rnorm):
        raise NumericsError("stationary residual is not finite at the initial guess")
    for it in range(max_iter):
        if rnorm < _NEWTON_TOL:
            return w, it
        ab, *border = jacobian(w)
        m = ab.shape[1]
        step = _solve_bordered(-r[:m], -r[m:], ab, *border)
        t = 1.0
        while True:
            w_try = w + t * step
            if np.all(w_try[0:m:3] > 0.0) and np.all(w_try[1:m:3] > 0.0):
                r_try = residual(w_try)
                rn_try = float(np.max(np.abs(r_try)))
                # a NaN residual fails both tests, so its step is halved
                if rn_try < rnorm * (1.0 - 0.25 * t) or rn_try < _NEWTON_TOL:
                    w, r, rnorm = w_try, r_try, rn_try
                    break
            t *= 0.5
            if t < 1.0 / 1024.0:
                raise NumericsError(
                    f"Newton stalled at residual {rnorm:.3e} (no damped decrease)"
                )
    if rnorm >= _NEWTON_TOL:
        raise NumericsError(f"Newton did not converge: residual {rnorm:.3e}")
    return w, max_iter


def newton_solve(
    guess: StationaryState | Profile,
    p: ModelParams,
    grid: Grid,
    bc: BoundaryConditions,
    param_name: str,
    param_value: float,
) -> StationaryState:
    """Damped Newton on the stationary system at fixed parameters.

    guess is a StationaryState or a Profile on grid (multiplier seeds
    then come from the mean chemical potentials); anything else raises
    ParameterError. The state records param_name and param_value, the
    parameter value p and bc were built for. One kernel at (p, grid, bc)
    evaluates every iterate. NumericsError if _damped_newton fails.
    """
    kernel = _Kernel(p, grid, bc)
    u, _ = _damped_newton(
        _initial_vector(guess, kernel, grid), kernel.residual, kernel.jacobian, _NEWTON_MAX_ITER
    )
    c1, c2, phi, lam1, lam2 = _unpack(u)
    return StationaryState(
        c1.copy(), c2.copy(), phi.copy(), lam1, lam2, param_name, param_value
    )


@dataclass
class BranchPoint:
    """One accepted continuation point."""

    state: StationaryState
    l2: float
    wnorm: float
    stable: bool | None = None
    index: int | None = None  # stability_index, at probed points only

    @property
    def param(self) -> float:
        return self.state.param_value


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    origin: str = "seed"
    truncated: bool = False

    def params(self) -> np.ndarray:
        return np.array([pt.param for pt in self.points])


@dataclass
class BranchSet:
    branches: list[Branch] = field(default_factory=list)
    param_name: str = "sigma"


@dataclass
class ProbeResult:
    stable: bool
    target: StationaryState | None
    verdict: str  # "Minimum" at index 0, else the relaxation's evolve verdict
    index: int


def _corrector(
    w_pred: np.ndarray,
    row: np.ndarray,
    p0: ModelParams,
    d: DomainSpec,
    grid: Grid,
    param_name: str,
) -> tuple[np.ndarray, int]:
    """Newton on [stationary residual; row @ (w - w_pred) = 0]. Returns (w, iters).

    row is the weighted tangent, so the last equation is <t, w - w_pred> = 0.
    Each evaluation reads the kernel at its own parameter value w[-1].
    """
    m = 3 * grid.n

    def kernel(w):
        return _kernel_at(p0, d, grid, param_name, float(w[-1]))

    def residual(w):
        return np.append(kernel(w).residual(w[:-1]), row @ (w - w_pred))

    def jacobian(w):
        k = kernel(w)
        ab, C2, D2 = k.jacobian(w[:-1])
        dps = _dresidual_dparam(k, w[:-1], param_name)
        # Border: columns [lam1, lam2, s]; rows [mass1, mass2, arc]. The
        # mass rows depend on neither the multipliers nor the parameter,
        # so only the arclength row of the corner is nonzero.
        C = np.column_stack([C2, dps[:m]])
        D = np.vstack([D2, row[:m]])
        E = np.zeros((3, 3))
        E[2] = row[m:]
        return ab, C, D, E

    return _damped_newton(w_pred, residual, jacobian, _CORRECTOR_MAX_ITER)


def _make_point(w: np.ndarray, grid: Grid, param_name: str) -> BranchPoint:
    c1, c2, phi, lam1, lam2 = _unpack(w[:-1])
    s = float(w[-1])
    state = StationaryState(c1.copy(), c2.copy(), phi.copy(), lam1, lam2, param_name, s)
    return BranchPoint(state, l2_norm(c1, c2, grid), weighted_norm(c1, grid))


def trace_branch(
    seed: StationaryState,
    p0: ModelParams,
    d: DomainSpec,
    grid: Grid,
    param_name: str,
    param_range: tuple[float, float],
    ds0: float,
    max_points: int,
    directions: tuple[int, ...] = (-1,),
) -> Branch:
    """Pseudo-arclength trace of the branch through seed.

    One Jacobian solve against dr/dparam at the seed gives the
    parameter-direction tangent, whose parameter entry is positive; each
    direction starts along it times the direction, then switches to
    secants. ds0 must be finite and positive (ParameterError otherwise).
    ds doubles after correctors that need <= 3 iterations and halves
    after >= 8 or on failure, with a 1e-6 floor; a floor breach truncates
    the branch rather than aborting the run. Tracing stops when the
    parameter leaves param_range (the boundary-crossing point is kept, so
    later slicing at a range endpoint still brackets) or after max_points.
    """
    if not 0 < ds0 < np.inf:  # NaN fails
        raise ParameterError(f"ds0 must be finite and positive, got {ds0}")
    lo, hi = min(param_range), max(param_range)
    m = 3 * grid.n
    weights = np.full(m + 3, 1.0 / (m + 2))
    weights[-1] = 1.0 / (hi - lo if hi > lo else 1.0) ** 2

    def unit(a):
        return a / np.sqrt((a * weights) @ a)

    w0 = np.concatenate([seed.pack(), [seed.param_value]])
    kernel = _kernel_at(p0, d, grid, param_name, seed.param_value)
    blocks = kernel.jacobian(w0[:-1])
    dps = _dresidual_dparam(kernel, w0[:-1], param_name)
    t0 = unit(np.append(_solve_bordered(-dps[:m], -dps[m:], *blocks), 1.0))
    legs: list[list[BranchPoint]] = []
    truncated = False
    for direction in directions:
        tangent = direction * t0
        leg = [_make_point(w0, grid, param_name)]
        ds = ds0
        w = w0
        while len(leg) < max_points:
            try:
                w_new, iters = _corrector(
                    w + ds * tangent, tangent * weights, p0, d, grid, param_name
                )
            except (NumericsError, ParameterError):
                # ParameterError: predictor left the parameter's admissible
                # set (e.g. sigma < 0); shrink the step like a failed solve.
                ds *= 0.5
                if ds < _DS_MIN:
                    truncated = True
                    break
                continue
            tangent = unit(w_new - w)
            w = w_new
            leg.append(_make_point(w, grid, param_name))
            if iters <= 3:
                ds = min(2.0 * ds, _DS_MAX)
            elif iters >= 8:
                ds = max(0.5 * ds, _DS_MIN)
            s = float(w[-1])
            if s < lo or s > hi:
                break
        legs.append(leg)
    if len(legs) == 1:
        points = legs[0]
    else:
        points = list(reversed(legs[1]))[:-1] + legs[0]
    return Branch(points=points, truncated=truncated)


def stability_probe(
    state: StationaryState,
    p0: ModelParams,
    d: DomainSpec,
    grid: Grid,
    param_name: str,
    t_end: float = 200.0,
    seed: int = 0,
) -> ProbeResult:
    """Stability of a stationary state, and an escape target if it has one.

    The state's stability_index decides: stable iff it is 0, and then no
    dynamics runs (verdict "Minimum"). An unstable state is perturbed with
    seeded zero-mean noise (zero mean in the trapezoid sense, so the mass
    constraints stay put) and relaxed with evolve, only to find where it
    escapes to: an escaped profile is Newton-polished at the same
    parameter value and handed back as the target. The verdict is then
    evolve's. A relaxation that aborts or returns to the state (directly,
    or through the polish: the unstable modes can grow too slowly for
    t_end), and a polish that fails, give target None.
    """
    p, bc = _apply_param(p0, d, param_name, state.param_value)
    index = stability_index(state, p, grid, bc)
    if index == 0:
        return ProbeResult(True, None, "Minimum", index)
    prof = add_noise(state.as_profile(grid), _PROBE_NOISE, seed)
    res = evolve(p, prof, bc, t_end=t_end)
    target = None
    if res.verdict != "Unstable" and not state.same_as(res.profile):
        try:
            target = newton_solve(res.profile, p, grid, bc, param_name, state.param_value)
        except NumericsError:
            pass
    if target is not None and state.same_as(target):
        target = None
    return ProbeResult(False, target, res.verdict, index)


def mirror_state(state: StationaryState) -> StationaryState:
    """Spatial reflection x -> -x (a solution too when the walls match)."""
    return StationaryState(
        c1=state.c1[::-1].copy(),
        c2=state.c2[::-1].copy(),
        phi=state.phi[::-1].copy(),
        lam1=state.lam1,
        lam2=state.lam2,
        param_name=state.param_name,
        param_value=state.param_value,
    )


def states_at(
    branches: list[Branch],
    param_value: float,
    p0: ModelParams,
    d: DomainSpec,
    grid: Grid,
    param_name: str,
) -> list[StationaryState]:
    """All distinct branch states re-converged at an exact parameter value.

    Scans each branch for consecutive points whose parameters bracket the
    requested value (a folded branch can cross it several times), Newton
    solves from the nearer bracket end at the exact value, and keeps a
    result only if it is not the same_as one kept before.
    """
    p, bc = _apply_param(p0, d, param_name, param_value)
    found: list[StationaryState] = []
    for branch in branches:
        pts = branch.points
        starts: list[StationaryState] = []
        if len(pts) == 1:
            starts.append(pts[0].state)
        for a, b in zip(pts[:-1], pts[1:]):
            lo, hi = min(a.param, b.param), max(a.param, b.param)
            if lo - 1e-12 <= param_value <= hi + 1e-12:
                starts.append(
                    a.state
                    if abs(a.param - param_value) <= abs(b.param - param_value)
                    else b.state
                )
        for guess in starts:
            try:
                st = newton_solve(guess, p, grid, bc, param_name, param_value)
            except NumericsError:
                continue
            if not any(st.same_as(prev) for prev in found):
                found.append(st)
    return found


def run_combined(
    seeds: list[StationaryState | Profile],
    p0: ModelParams,
    d: DomainSpec,
    param_name: str,
    param_range: tuple[float, float],
    n: int,
    param_start: float | None = None,
    ds0: float = 0.01,
    max_points: int = 300,
    max_branches: int = 12,
    probe_stride: int = 1,
    probe_t_end: float = 200.0,
    probe_seed: int = 0,
) -> BranchSet:
    """Combined continuation / dynamic-relaxation branch mapping.

    For each queued seed: converge it, skip it if it lies on a branch
    already traced, trace its branch across param_range, then walk the
    branch probing every probe_stride-th point (stability_probe). A probed
    point takes its stable flag and its index from the stability index;
    points in between keep None for both. Relaxing the unstable points
    finds escapes, and those that differ from the previous escape target
    are queued as fresh seeds (both continuation directions). The walk
    ends when the queue drains or max_branches is reached.

    Seeds are StationaryStates or Profiles on the run's grid; anything
    else raises ParameterError, as does max_points, max_branches or
    probe_stride below 1. A state strictly inside param_range is
    traced from where it is; every other seed is Newton-converged at
    param_start (default: the top of param_range for sigma, matching the
    decreasing-sigma reading of the diagrams; the bottom for voltage). A
    seed state strictly inside the range is traced in both directions,
    one at an end of it towards the other end. Each traced branch and
    each new probe escape is logged at INFO level on this module's logger.
    """
    lo, hi = min(param_range), max(param_range)
    if param_start is None:
        param_start = hi if param_name == "sigma" else lo
    if not np.all(np.isfinite([lo, hi, param_start])):
        raise ParameterError(
            f"{param_name} range ({lo}, {hi}) and start {param_start} must be finite"
        )
    for name, count in (
        ("max_points", max_points),
        ("max_branches", max_branches),
        ("probe_stride", probe_stride),
    ):
        if count < 1:
            raise ParameterError(f"{name} must be at least 1, got {count}")
    grid = make_grid(d, n)
    bs = BranchSet(param_name=param_name)

    queue: list[tuple[StationaryState, tuple[int, ...], str]] = []
    for k, st in enumerate(seeds):
        if not (isinstance(st, StationaryState) and lo < st.param_value < hi):
            p, bc = _apply_param(p0, d, param_name, param_start)
            try:
                st = newton_solve(st, p, grid, bc, param_name, param_start)
            except NumericsError:
                # seed too far for Newton (e.g. a flat profile under applied
                # voltage, where boundary layers are an O(1) correction);
                # let the dynamics carry it into a basin first
                prof = st.as_profile(grid) if isinstance(st, StationaryState) else st
                res = evolve(p, prof, bc, t_end=probe_t_end)
                st = newton_solve(res.profile, p, grid, bc, param_name, param_start)
        s = st.param_value
        dirs = (-1, 1) if lo < s < hi else (-1,) if s >= hi else (1,)
        queue.append((st, dirs, f"seed[{k}]"))

    mirror_ok = d.phi_left == d.phi_right and param_name != "voltage"

    while queue and len(bs.branches) < max_branches:
        state, dirs, origin = queue.pop(0)
        # compare in state space at the exact parameter value, which is
        # unambiguous where (param, norm) curve distance is not
        if any(
            state.same_as(known)
            for branch in bs.branches
            for known in states_at([branch], state.param_value, p0, d, grid, param_name)
        ):
            continue
        if mirror_ok:
            # equal-wall problems are reflection equivariant, so the mirror
            # image of any solution is one as well; queueing it makes the
            # partner of an asymmetric state a first-class branch instead of
            # relying on the probe noise to stumble onto it
            queue.append((mirror_state(state), dirs, f"mirror of {origin}"))
        branch = trace_branch(
            state,
            p0,
            d,
            grid,
            param_name,
            (lo, hi),
            ds0=ds0,
            max_points=max_points,
            directions=dirs,
        )
        branch.origin = origin
        bs.branches.append(branch)
        ps = branch.params()
        _log.info(
            "branch %d (%s): %d points, %s in [%.5g, %.5g]%s",
            len(bs.branches),
            origin,
            len(branch.points),
            param_name,
            ps.min(),
            ps.max(),
            " truncated" if branch.truncated else "",
        )
        prev_target: StationaryState | None = None
        for idx, pt in enumerate(branch.points):
            if idx % probe_stride:
                continue
            probe = stability_probe(
                pt.state, p0, d, grid, param_name, t_end=probe_t_end, seed=probe_seed
            )
            pt.stable, pt.index = probe.stable, probe.index
            if probe.stable or probe.target is None:
                prev_target = pt.state if probe.stable else None
                continue
            target = probe.target
            if prev_target is None or not target.same_as(prev_target):
                # a target on a known branch is skipped when it is popped
                queue.append((target, (-1, 1), "probe"))
                _log.info(
                    "  probe escape at %s=%.5g -> wnorm %.5g",
                    param_name,
                    pt.param,
                    weighted_norm(target.c1, grid),
                )
            prev_target = target
    return bs


def save_branchset(bs: BranchSet, grid: Grid, out_dir: str | Path) -> Path:
    """Write the branch database: one JSON index plus per-point CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = {"param_name": bs.param_name, "grid": {"L": grid.L, "n": grid.n}, "branches": []}
    for bi, branch in enumerate(bs.branches):
        entry = {"origin": branch.origin, "truncated": branch.truncated, "points": []}
        for pi, pt in enumerate(branch.points):
            fname = f"branch{bi:02d}_point{pi:04d}.csv"
            np.savetxt(
                out / fname,
                np.column_stack([grid.x, pt.state.c1, pt.state.c2, pt.state.phi]),
                fmt="%.17g",
                delimiter=",",
                header="x,c1,c2,phi",
                comments="",
            )
            entry["points"].append(
                {
                    "param": pt.param,
                    "l2": pt.l2,
                    "wnorm": pt.wnorm,
                    "stable": pt.stable,
                    "index": pt.index,
                    "lam1": pt.state.lam1,
                    "lam2": pt.state.lam2,
                    "csv": fname,
                }
            )
        index["branches"].append(entry)
    with open(out / "branches.json", "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True, allow_nan=False)
    return out / "branches.json"


def load_branchset(out_dir: str | Path) -> tuple[BranchSet, Grid]:
    """Reload a branch database written by save_branchset."""
    out = Path(out_dir)
    with open(out / "branches.json") as fh:
        index = json.load(fh)
    grid = make_grid(DomainSpec(float(index["grid"]["L"])), int(index["grid"]["n"]))
    bs = BranchSet(param_name=index["param_name"])
    for bentry in index["branches"]:
        branch = Branch(origin=bentry["origin"], truncated=bentry["truncated"])
        for pentry in bentry["points"]:
            data = np.loadtxt(out / pentry["csv"], delimiter=",", skiprows=1, ndmin=2)
            _, c1, c2, phi = data.T.copy()  # contiguous columns
            lam1, lam2, param = (float(pentry[k]) for k in ("lam1", "lam2", "param"))
            state = StationaryState(c1, c2, phi, lam1, lam2, index["param_name"], param)
            branch.points.append(
                BranchPoint(
                    state,
                    float(pentry["l2"]),
                    float(pentry["wnorm"]),
                    pentry["stable"],
                    pentry.get("index"),  # absent from databases written before it
                )
            )
        bs.branches.append(branch)
    return bs, grid
