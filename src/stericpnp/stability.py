"""Linear stability of the homogeneous state and the instability onset.

A perturbation (c1, c2) = cbar + v e^{ikx + lambda t} of the uniform
electroneutral state evolves, to linear order, with

    M(k) v = lambda v,      M(k) = -diag(cbar) B(k),
    B(k)   = k^2 Hess h(cbar) + z z^T + sigma k^4 I,

so the growth rate lambda(k) is the larger eigenvalue of M(k) (real for all
k because M is similar to a symmetric matrix via diag(sqrt(cbar))). The
convention throughout the package is "growth": lambda > 0 means the mode
grows. With sigma = 0 the model has no high-k cutoff: where D(cbar) < 0 the
growth rate increases like k^2 without bound (short-wave ill-posedness of
the bare steric model). With sigma > 0 the k^4 penalty restores
well-posedness, and a finite-wavenumber onset (sigma_c, k_c) exists exactly
when

    g12 > g12_crit = sqrt((1/cbar1 + g11)(1/cbar2 + g22)),

i.e. when D(cbar) < 0. With q = k^2, det B(k; sigma) = q G(q, sigma) where

    G = sigma^2 q^3 + sigma S q^2 + sigma |z|^2 q + D q + w,

S = a1 + a2, D = a1 a2 - g12^2, w = a1 z2^2 + a2 z1^2 - 2 g12 z1 z2 > 0 and
a_i = 1/cbar_i + g_ii. The onset is the double root G = dG/dq = 0. The
combination q dG/dq - G = 2 sigma^2 q^3 + sigma S q^2 - w = 0 gives, with
t = sigma q, q = w / (t (2t + S)), and substituting into G = 0 leaves the
cubic

    c(t) = 2|z|^2 t^3 + (|z|^2 S + 3w) t^2 + 2wS t + wD = 0.

Its coefficient signs are +, +, +, - when D < 0, so by Descartes' rule it
has exactly one positive root, bracketed by [0, -D/(2S)]. That root is the
only critical point of the zero-growth locus sigma(k), which vanishes at
both ends, so it is the global maximum: sigma_c = t / q, k_c = sqrt(q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .energy import _eig2, g12_critical, hessian
from .errors import NoOnsetError
from .model import ModelParams

__all__ = [
    "DispersionResult",
    "OnsetResult",
    "growth_matrix",
    "interaction_matrix",
    "max_growth_rate",
    "dispersion",
    "sigma_zero_locus",
    "find_onset",
    "onset_polynomial_residual",
    "verify_onset",
    "min_hessian_eigenvalue",
]


def interaction_matrix(k: float, p: ModelParams, sigma: float | None = None) -> np.ndarray:
    """B(k) = k^2 Hess h(cbar) + z z^T + sigma k^4 I."""
    if sigma is None:
        sigma = p.sigma
    z = p.z
    H = hessian(p.cbar1, p.cbar2, p)
    return k * k * H + np.outer(z, z) + sigma * k**4 * np.eye(2)


def growth_matrix(k: float, p: ModelParams, sigma: float | None = None) -> np.ndarray:
    """M(k) = -diag(cbar) B(k); eigenvalues are the linear growth rates."""
    return -np.diag(p.cbar) @ interaction_matrix(k, p, sigma)


def _growth_eigs(k: float, p: ModelParams, sigma: float) -> tuple[float, float]:
    """Both eigenvalues of M(k), descending; closed-form 2x2 arithmetic."""
    M = growth_matrix(k, p, sigma)
    # real by similarity to a symmetric matrix
    return _eig2(M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])[::-1]


def max_growth_rate(k: float, p: ModelParams, sigma: float | None = None) -> float:
    """Larger eigenvalue of M(k); k = 0 returns 0 exactly (neutral mode)."""
    if sigma is None:
        sigma = p.sigma
    if k == 0.0:
        return 0.0
    return float(_growth_eigs(k, p, sigma)[0])


@dataclass(frozen=True)
class DispersionResult:
    """Sampled dispersion relation lambda(k) for one parameter set."""

    k: np.ndarray
    rate: np.ndarray
    sigma: float


def dispersion(k_values: np.ndarray, p: ModelParams, sigma: float | None = None) -> DispersionResult:
    if sigma is None:
        sigma = p.sigma
    ks = np.asarray(k_values, dtype=float)
    rates = np.array([max_growth_rate(k, p, sigma) for k in ks])
    return DispersionResult(k=ks, rate=rates, sigma=float(sigma))


def sigma_zero_locus(k: float, p: ModelParams) -> float:
    """The sigma > 0 at which lambda(k) = 0 for this k, or nan if none.

    det B(k; sigma) = 0 is a quadratic in s = sigma k^4; the larger root is
    the stabilizing boundary. A positive root exists iff the sigma-free part
    of B is indefinite at this k.
    """
    if k <= 0:
        return float("nan")
    k2 = k * k
    b11 = (1.0 / p.cbar1 + p.g11) * k2 + p.z1**2
    b22 = (1.0 / p.cbar2 + p.g22) * k2 + p.z2**2
    b12 = p.g12 * k2 + p.z1 * p.z2
    tr = b11 + b22
    det0 = b11 * b22 - b12 * b12
    disc = tr * tr - 4.0 * det0
    if disc < 0.0:
        return float("nan")
    s = (-tr + np.sqrt(disc)) / 2.0
    if s <= 0.0:
        return float("nan")
    return float(s / k**4)


@dataclass(frozen=True)
class OnsetResult:
    """Finite-wavenumber instability onset (sigma_c, k_c) and null vectors.

    v0 spans ker M(0) (the electroneutral direction (-z2, z1)); v_kc spans
    ker M(k_c) at sigma_c. Both unit-normalized with positive first entry.
    """

    sigma_c: float
    k_c: float
    v0: np.ndarray
    v_kc: np.ndarray
    g12_crit: float
    residual_rate: float
    residual_slope: float


def _rate_slope(k: float, p: ModelParams, sigma: float) -> float:
    """Centered-difference d lambda / dk."""
    h = 1e-6 * max(k, 1.0)
    return (max_growth_rate(k + h, p, sigma) - max_growth_rate(k - h, p, sigma)) / (2.0 * h)


def find_onset(p: ModelParams) -> OnsetResult:
    """Locate (sigma_c, k_c): lambda = 0, dlambda/dk = 0, lambda < 0 elsewhere.

    Solves the onset cubic c(t) of the module docstring for its one
    positive root t = sigma_c k_c^2 by a bracketed root solve on
    [0, -D/(2S)] (c(0) = wD < 0, c(-D/(2S)) > 0), then reads off
    k_c^2 = w / (t (2t + S)) and sigma_c = t / k_c^2. Raises NoOnsetError
    when g12 <= g12_crit.
    """
    gcrit = g12_critical(p)
    a1 = 1.0 / p.cbar1 + p.g11
    a2 = 1.0 / p.cbar2 + p.g22
    S = a1 + a2
    D = a1 * a2 - p.g12**2
    if p.g12 <= gcrit or D >= 0.0:  # D >= 0 also catches rounding at the threshold
        raise NoOnsetError(
            f"no finite-wavenumber onset: g12 = {p.g12} <= g12_crit = {gcrit:.6f}"
        )
    w = a1 * p.z2**2 + a2 * p.z1**2 - 2.0 * p.g12 * p.z1 * p.z2
    zz = p.z1**2 + p.z2**2
    c3, c2, c1, c0 = 2.0 * zz, zz * S + 3.0 * w, 2.0 * w * S, w * D
    t = brentq(
        lambda t: ((c3 * t + c2) * t + c1) * t + c0,
        0.0,
        -D / (2.0 * S),
        xtol=np.finfo(float).tiny,
        rtol=4 * np.finfo(float).eps,
    )
    q = w / (t * (2.0 * t + S))
    k_c = float(np.sqrt(q))
    sigma_c = t / q

    v0 = np.array([-p.z2, p.z1])
    v0 = v0 / np.linalg.norm(v0)
    if v0[0] < 0:
        v0 = -v0
    B = interaction_matrix(k_c, p, sigma_c)
    # Null vector of B from the better-conditioned row.
    if abs(B[0, 1]) >= abs(B[1, 1]):
        v = np.array([1.0, -B[0, 0] / B[0, 1]])
    else:
        v = np.array([-B[1, 1] / B[1, 0], 1.0])
    v = v / np.linalg.norm(v)
    if v[0] < 0:
        v = -v
    return OnsetResult(
        sigma_c=float(sigma_c),
        k_c=float(k_c),
        v0=v0,
        v_kc=v,
        g12_crit=float(gcrit),
        residual_rate=float(max_growth_rate(k_c, p, sigma_c)),
        residual_slope=float(_rate_slope(k_c, p, sigma_c)),
    )


def onset_polynomial_residual(
    k: float, sigma: float, p: ModelParams, variant: str = "consistent"
) -> float:
    """Residual of the polynomial form of the zero-growth condition.

    variant="consistent": det B(k; sigma) expanded and divided by nothing,

        sigma^2 k^8 + (a1+a2) sigma k^6 + [sigma(z1^2+z2^2) + D(cbar)] k^4
        + [z2^2 a1 + z1^2 a2 - 2 z1 z2 g12] k^2,

    which vanishes identically on the zero-growth locus. The
    variant="as_printed" form differs in two places: its D-bracket uses
    cbar1 in both factors, and its z^2 terms carry no k^2 factor; it is kept
    as a diagnostic and does NOT vanish at onset for general parameters.
    """
    a1 = 1.0 / p.cbar1 + p.g11
    a2 = 1.0 / p.cbar2 + p.g22
    k2 = k * k
    common = sigma * sigma * k2**4 + (a1 + a2) * sigma * k2**3 + sigma * (
        p.z1**2 + p.z2**2
    ) * k2**2
    if variant == "consistent":
        d_cbar = a1 * a2 - p.g12**2
        tail = d_cbar * k2**2 + (p.z2**2 * a1 + p.z1**2 * a2 - 2.0 * p.z1 * p.z2 * p.g12) * k2
    elif variant == "as_printed":
        bracket = (1.0 / p.cbar1 + p.g11) * (1.0 / p.cbar1 + p.g22) - p.g12**2
        tail = bracket * k2**2 + (
            p.z2**2 * a1 + p.z1**2 * a2 - 2.0 * p.z1 * p.z2 * p.g12 * k2
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return float(common + tail)


def verify_onset(onset: OnsetResult, p: ModelParams) -> dict[str, float]:
    """Evaluate both polynomial variants at the computed onset."""
    return {
        "consistent": onset_polynomial_residual(onset.k_c, onset.sigma_c, p, "consistent"),
        "as_printed": onset_polynomial_residual(onset.k_c, onset.sigma_c, p, "as_printed"),
    }


def min_hessian_eigenvalue(p: ModelParams) -> float:
    """Smaller eigenvalue of Hess h(cbar); negative iff D(cbar) < 0."""
    H = hessian(p.cbar1, p.cbar2, p)
    return float(_eig2(H[0, 0] + H[1, 1], H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0])[0])
