"""Free energy of the steric electrolyte and its convexity structure.

The bulk free-energy density relative to the electroneutral reference
(cbar1, cbar2) is

    h(c) = sum_i c_i (ln(c_i / cbar_i) - 1) + 1/2 c.G c,

so its Hessian is

    Hess h = [[1/c1 + g11, g12], [g12, 1/c2 + g22]],

with determinant

    D(c) = 1/(c1 c2) + g22/c1 + g11/c2 + det G.

D controls everything downstream: the phase-plane flow of stationary
profiles is regular where D != 0, homogeneous states lose linear stability
where D(cbar) < 0, and the cross-interaction threshold

    g12_crit = sqrt((1/cbar1 + g11)(1/cbar2 + g22))

marks D(cbar) = 0. The full functional adds the electrostatic field energy
and, when sigma > 0, a gradient penalty:

    E[c] = int h(c) + 1/2 |phi_x|^2 + sigma/2 (|c1_x|^2 + |c2_x|^2) dx.

Its one discretisation is _fd.discrete_energy, the Lyapunov functional
that the time stepper, Newton and continuation share. This module holds the
bulk density h, its Hessian and convexity, and the segregated-pattern
energy contest, which keeps its own convention (see SegregatedComparison).
Entropy terms c ln(c / cbar) take their limit 0 at c = 0 (_entropy), so
fully segregated profiles (exact zeros) have finite energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fd
from .errors import ParameterError, RegimeError
from .model import Grid, ModelParams, Profile

_ArrayLike = float | np.ndarray
_SEGREGATED_NODES = 2001  # segregated_comparison's quadrature grid on [-1, 1]


def _entropy(c: np.ndarray, cbar: float) -> np.ndarray:
    """c ln(c / cbar) for c >= 0, and its limit 0 at c = 0 without a warning."""
    return c * np.log(np.where(c > 0, c / cbar, 1.0))


def _admissible(c: np.ndarray, strict: bool) -> bool:
    """Whether every entry of c is finite and positive (strict) or
    nonnegative; NaN fails both bounds."""
    lo = c.min(initial=np.inf)
    return (lo > 0 if strict else lo >= 0) and c.max(initial=0.0) < np.inf


def free_energy_density(c1: _ArrayLike, c2: _ArrayLike, p: ModelParams) -> _ArrayLike:
    """Bulk density h(c); accepts scalars or arrays, c_i >= 0.

    _fd.discrete_energy integrates the same h, written there from the
    log c and G c that its chemical potential shares.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if not (_admissible(c1, strict=False) and _admissible(c2, strict=False)):
        raise ParameterError("free energy density needs finite nonnegative concentrations")
    ent = _entropy(c1, p.cbar1) - c1 + _entropy(c2, p.cbar2) - c2
    steric = 0.5 * (p.g11 * c1 * c1 + 2.0 * p.g12 * c1 * c2 + p.g22 * c2 * c2)
    out = ent + steric
    return float(out) if out.ndim == 0 else out


def hessian(c1: float, c2: float, p: ModelParams) -> np.ndarray:
    """Hessian of h at a strictly positive point."""
    if not (0 < c1 < np.inf and 0 < c2 < np.inf):  # NaN fails
        raise ParameterError("Hessian needs finite strictly positive concentrations")
    return np.array(
        [[1.0 / c1 + p.g11, p.g12], [p.g12, 1.0 / c2 + p.g22]]
    )


def hessian_det(c1: _ArrayLike, c2: _ArrayLike, p: ModelParams) -> _ArrayLike:
    """D(c) = (1/c1 + g11)(1/c2 + g22) - g12^2.

    Expanded: 1/(c1 c2) + g22/c1 + g11/c2 + det G. Note the cross pairing
    (g22 with c1): it comes from the product of the two diagonal Hessian
    entries and matters whenever c1 != c2 and g11 != g22.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if not (_admissible(c1, strict=True) and _admissible(c2, strict=True)):
        raise ParameterError("D(c) needs finite strictly positive concentrations")
    det_g = p.g11 * p.g22 - p.g12**2
    out = 1.0 / (c1 * c2) + p.g22 / c1 + p.g11 / c2 + det_g
    return float(out) if out.ndim == 0 else out


def hessian_det_via_identity(c1: _ArrayLike, c2: _ArrayLike, p: ModelParams) -> _ArrayLike:
    """D(c) through det(I + diag(c) G) / (c1 c2); cross-check route."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    det_scaled = (1.0 + c1 * p.g11) * (1.0 + c2 * p.g22) - c1 * c2 * p.g12**2
    out = det_scaled / (c1 * c2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ConvexityClass:
    """Spectral summary of the steric matrix G."""

    is_convex: bool
    eig_min: float
    eig_max: float


def _eig2(tr: float, det: float) -> tuple[float, float]:
    """Eigenvalues (lo, hi) of a 2x2 matrix with real spectrum, from its
    trace and determinant; a negative discriminant is rounding and reads 0."""
    root = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr - root) / 2.0, (tr + root) / 2.0


def convexity_class(p: ModelParams) -> ConvexityClass:
    """Classify G: positive semidefinite G keeps h convex for all c > 0."""
    lo, hi = _eig2(p.g11 + p.g22, p.g11 * p.g22 - p.g12**2)
    return ConvexityClass(is_convex=bool(lo >= 0.0), eig_min=float(lo), eig_max=float(hi))


def g12_critical(p: ModelParams) -> float:
    """Cross-interaction strength where D(cbar) crosses zero."""
    return float(np.sqrt((1.0 / p.cbar1 + p.g11) * (1.0 / p.cbar2 + p.g22)))


def concave_window_bounds(p: ModelParams) -> tuple[float, float]:
    """Box bounds below which D(c) > 0 is guaranteed.

    D(c) can only turn negative when BOTH c1 > g22/(g12^2 - g11 g22) and
    c2 > g11/(g12^2 - g11 g22). Requires det G < 0; the degenerate case
    g11 = g22 = 0 returns (0, 0), i.e. no guaranteed box.
    """
    gap = p.g12**2 - p.g11 * p.g22
    if gap <= 0:
        raise RegimeError(
            "D(c) > 0 for all positive c when det G >= 0; no concavity window exists"
        )
    return (p.g22 / gap, p.g11 / gap)


def segregated_pattern(n_freq: int, cbar: float, grid: Grid) -> Profile:
    """Fully segregated alternating pattern with n_freq periods per unit length.

    The binary z = (1, -1) setting on [-1, 1]: c1 = 2*cbar on the first half
    of each cell of width 1/n_freq, c2 = 2*cbar on the second half, so
    c1 + c2 = 2*cbar everywhere, each species averages cbar, and c1*c2 = 0
    pointwise. phi solves the Poisson equation with zero-Dirichlet ends.
    """
    if n_freq < 1:
        raise ParameterError(f"pattern frequency must be >= 1, got {n_freq}")
    if cbar <= 0:
        raise ParameterError(f"cbar must be positive, got {cbar}")
    if grid.periodic or abs(grid.L - 1.0) > 1e-12:
        raise ParameterError("segregated patterns are defined on the electrode grid [-1, 1]")
    # Position within the unit cell; half-open cells keep c1*c2 = 0 at nodes.
    y = np.mod(grid.x, 1.0 / n_freq) * n_freq
    first_half = y < 0.5 - 1e-14
    c1 = np.where(first_half, 2.0 * cbar, 0.0)
    c2 = 2.0 * cbar - c1
    rho = c1 - c2  # z = (1, -1), rho0 = 0
    phi = _fd.solve_poisson_dirichlet(rho, grid, 0.0, 0.0)
    return Profile(grid=grid, c1=c1, c2=c2, phi=phi)


@dataclass(frozen=True)
class SegregatedComparison:
    """Energy contest between the segregated pattern and the uniform state.

    Its own convention, with g11 = g22 = 0, each term a trapezoid integral
    over [-1, 1]:

    - entropy: sum_i c_i ln(c_i / cbar) - c_i, with 0 ln 0 = 0;
    - steric: int c.G c dx with no 1/2, i.e. 2 g12 int c1 c2 dx;
    - field: 1/2 int phi_x^2 dx, phi_x from second-order centred
      differences (one-sided at the walls).

    This is not _fd.discrete_energy, which halves the steric term
    and writes the field part over faces in its rho-phi form.
    """

    entropy_seg: float
    steric_seg: float
    electrostatic_seg: float
    entropy_hom: float
    steric_hom: float
    electrostatic_hom: float

    @property
    def total_seg(self) -> float:
        return self.entropy_seg + self.steric_seg + self.electrostatic_seg

    @property
    def total_hom(self) -> float:
        return self.entropy_hom + self.steric_hom + self.electrostatic_hom


def segregated_comparison(n_freq: int, cbar: float, g12: float) -> SegregatedComparison:
    """Quadrature both sides of the segregation energy contest on [-1, 1].

    In SegregatedComparison's convention, not _fd.discrete_energy's.
    """
    from .model import DomainSpec, make_grid

    grid = make_grid(DomainSpec(L=1.0), _SEGREGATED_NODES)
    prof = segregated_pattern(n_freq, cbar, grid)
    ent_seg = _fd.trapz(
        _entropy(prof.c1, cbar) - prof.c1 + _entropy(prof.c2, cbar) - prof.c2,
        grid,
    )
    steric_seg = _fd.trapz(2.0 * g12 * prof.c1 * prof.c2, grid)
    e_field = _fd.gradient(prof.phi, grid)
    elec_seg = _fd.trapz(0.5 * e_field**2, grid)

    # Uniform state at the same average composition: c1 = c2 = cbar, phi = 0.
    length = 2.0
    ent_hom = 2.0 * cbar * (np.log(1.0) - 1.0) * length  # = -4 cbar
    steric_hom = 2.0 * g12 * cbar * cbar * length
    return SegregatedComparison(
        entropy_seg=float(ent_seg),
        steric_seg=float(steric_seg),
        electrostatic_seg=float(elec_seg),
        entropy_hom=float(ent_hom),
        steric_hom=float(steric_hom),
        electrostatic_hom=0.0,
    )
