"""Stationary states, stability, and bifurcations of crowded electrolytes.

Subpackage map:

- model: parameters, domains, grids, profiles
- energy: free-energy density, Hessian determinant D(c), convexity
- trajectories: phase-plane analysis and stationary-profile construction
- stability: dispersion relations and instability onset
- weakly_nonlinear: amplitude equations near onset
- dynamics: dissipative time integration
- continuation: arclength branch tracing combined with relaxation probes
- cli: batch front-end
"""

from .errors import (
    NoOnsetError,
    NumericsError,
    ParameterError,
    RegimeError,
    StericPnpError,
)
from .model import (
    DomainSpec,
    Grid,
    ModelParams,
    Profile,
    homogeneous_profile,
    make_grid,
    make_params,
    make_periodic_grid,
    validate_params,
    with_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "Grid",
    "ModelParams",
    "NoOnsetError",
    "NumericsError",
    "ParameterError",
    "Profile",
    "RegimeError",
    "StericPnpError",
    "__version__",
    "homogeneous_profile",
    "make_grid",
    "make_params",
    "make_periodic_grid",
    "validate_params",
    "with_sigma",
]
