"""Model parameters, domains, grids, and solution profiles.

The package works with a dimensionless two-species electrolyte: a cation
(valence z1 > 0) and an anion (valence z2 < 0) with concentrations
c1(x), c2(x) on a 1D interval, an electric potential phi(x) obeying

    phi_xx = -(z1 c1 + z2 c2 + rho0),

and a symmetric steric-repulsion matrix G = [[g11, g12], [g12, g22]] with
nonnegative entries. rho0 is a fixed background charge that makes the
reference bulk (cbar1, cbar2) electroneutral, so it is not a parameter of
its own but derived from the others:

    rho0 = -(z1 cbar1 + z2 cbar2).

sigma >= 0 is the gradient-energy coefficient of the fourth-order
(Cahn-Hilliard type) regularization; sigma = 0 recovers the bare steric
transport model.

Everything downstream (energies, phase-plane trajectories, dispersion
relations, time integration, continuation) consumes the frozen dataclasses
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError

_MIN_POINTS = 8  # make_grid, make_periodic_grid: fewest nodes accepted
_POSITIVE_FLOOR = 1e-10  # Profile.require_positive: concentrations must exceed this


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the two-species steric electrolyte."""

    z1: float
    z2: float
    g11: float
    g22: float
    g12: float
    cbar1: float
    cbar2: float
    sigma: float = 0.0

    @property
    def rho0(self) -> float:
        """Background charge that makes the bulk electroneutral."""
        return -(self.z1 * self.cbar1 + self.z2 * self.cbar2)

    # z, cbar and G are built once per instance and read-only, like
    # Grid.weights (the time stepper reads them on every attempt); a copy
    # from with_sigma builds its own

    @cached_property
    def z(self) -> np.ndarray:
        return _read_only([self.z1, self.z2])

    @cached_property
    def cbar(self) -> np.ndarray:
        return _read_only([self.cbar1, self.cbar2])

    @cached_property
    def G(self) -> np.ndarray:
        return _read_only([[self.g11, self.g12], [self.g12, self.g22]])


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def make_params(
    z1: float,
    z2: float,
    g11: float,
    g22: float,
    g12: float,
    cbar1: float,
    cbar2: float,
    sigma: float = 0.0,
) -> ModelParams:
    """Build a validated ModelParams."""
    p = ModelParams(z1, z2, g11, g22, g12, cbar1, cbar2, sigma)
    validate_params(p)
    return p


def validate_params(p: ModelParams) -> ModelParams:
    """Check every model invariant; raise ParameterError naming the violation."""
    if not (p.z1 > 0 > p.z2):
        raise ParameterError(
            f"valence ordering violated: need z1 > 0 > z2, got z1={p.z1}, z2={p.z2}"
        )
    for name in ("g11", "g22", "g12"):
        if getattr(p, name) < 0:
            raise ParameterError(f"steric coefficient {name} must be >= 0, got {getattr(p, name)}")
    if not (p.cbar1 > 0 and p.cbar2 > 0):
        raise ParameterError(
            f"bulk concentrations must be positive, got cbar=({p.cbar1}, {p.cbar2})"
        )
    if p.sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {p.sigma}")
    if not all(
        np.isfinite(getattr(p, name))
        for name in ("z1", "z2", "g11", "g22", "g12", "cbar1", "cbar2", "sigma")
    ):
        raise ParameterError("parameters must be finite")
    return p


def with_sigma(p: ModelParams, sigma: float) -> ModelParams:
    """Copy of p with a different gradient-energy coefficient."""
    if not 0 <= sigma < np.inf:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma}")
    return replace(p, sigma=sigma)


@dataclass(frozen=True)
class DomainSpec:
    """Finite interval [-L, L] with electrode potentials at the two ends."""

    L: float
    phi_left: float = 0.0
    phi_right: float = 0.0

    def __post_init__(self) -> None:
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ParameterError(f"half-length L must be positive, got {self.L}")
        if not (np.isfinite(self.phi_left) and np.isfinite(self.phi_right)):
            raise ParameterError("electrode potentials must be finite")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform 1D grid on [-L, L].

    Electrode (non-periodic) grids include both endpoints: n nodes,
    dx = 2L/(n-1). Periodic grids drop the right endpoint (it aliases the
    left): n nodes, dx = 2L/n, x[0] = -L.
    """

    x: np.ndarray
    L: float
    periodic: bool = False

    def __post_init__(self) -> None:
        self.x.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x.size

    @cached_property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights: trapezoid (electrode) or uniform (periodic).

        Built once per grid and read-only, like x; copy before modifying.
        """
        w = np.full(self.n, self.dx)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        w.setflags(write=False)
        return w

    @property
    def length(self) -> float:
        return 2.0 * self.L


def make_grid(domain: DomainSpec, n: int) -> Grid:
    """Electrode grid with n nodes on [-L, L], endpoints included."""
    if n < _MIN_POINTS:
        raise ParameterError(f"grid needs at least {_MIN_POINTS} nodes, got {n}")
    x = np.linspace(-domain.L, domain.L, n)
    return Grid(x=x, L=domain.L, periodic=False)


def make_periodic_grid(L: float, n: int) -> Grid:
    """Periodic grid on [-L, L): n nodes, right endpoint excluded; L as in DomainSpec."""
    if n < _MIN_POINTS:
        raise ParameterError(f"grid needs at least {_MIN_POINTS} nodes, got {n}")
    L = DomainSpec(L).L
    dx = 2.0 * L / n
    x = -L + dx * np.arange(n)
    return Grid(x=x, L=L, periodic=True)


@dataclass(eq=False)
class Profile:
    """Concentration and potential fields sampled on a grid.

    All fields must be finite, and c1, c2 nonnegative everywhere (segregated
    patterns contain exact zeros); contexts that need strict positivity call
    require_positive(), which asks for every concentration above 1e-10.
    """

    grid: Grid
    c1: np.ndarray
    c2: np.ndarray
    phi: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.grid.n
        for name in ("c1", "c2", "phi"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (n,):
                raise ParameterError(f"{name} has shape {arr.shape}, expected ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if np.any(self.c1 < 0) or np.any(self.c2 < 0):
            raise ParameterError("concentrations must be nonnegative")

    def require_positive(self) -> "Profile":
        if self.c1.min() <= _POSITIVE_FLOOR or self.c2.min() <= _POSITIVE_FLOOR:
            raise ParameterError(
                f"profile requires strictly positive concentrations "
                f"(min c1={self.c1.min():.3e}, min c2={self.c2.min():.3e})"
            )
        return self


def homogeneous_profile(grid: Grid, p: ModelParams) -> Profile:
    """The spatially uniform electroneutral state c = cbar, phi = 0."""
    n = grid.n
    return Profile(
        grid=grid,
        c1=np.full(n, p.cbar1),
        c2=np.full(n, p.cbar2),
        phi=np.zeros(n),
    )
