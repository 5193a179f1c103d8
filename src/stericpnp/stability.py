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
has exactly one positive root, which lies below -D/(2S), where c > 0. It is
found by Newton from -D/(2S), monotone because c is increasing and convex
on t >= 0. That root is the only critical point of the zero-growth locus
sigma(k), which vanishes at both ends, so it is the global maximum:
sigma_c = t / q, k_c = sqrt(q).

sigma is always an explicit argument here; p.sigma is never read, so one
parameter set serves every sigma of a dispersion scan. B is written only
in interaction_matrix; the onset cubic's coefficients and the paper's
as-printed polynomial are the two hand expansions of det B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "verify_onset",
    "min_hessian_eigenvalue",
]


def interaction_matrix(k: float, p: ModelParams, sigma: float) -> np.ndarray:
    """B(k; sigma) = k^2 Hess h(cbar) + z z^T + sigma k^4 I."""
    z = p.z
    H = hessian(p.cbar1, p.cbar2, p)
    return k * k * H + np.outer(z, z) + sigma * k**4 * np.eye(2)


def growth_matrix(k: float, p: ModelParams, sigma: float) -> np.ndarray:
    """M(k) = -diag(cbar) B(k; sigma); eigenvalues are the linear growth rates."""
    return -np.diag(p.cbar) @ interaction_matrix(k, p, sigma)


def max_growth_rate(k: float, p: ModelParams, sigma: float) -> float:
    """Larger eigenvalue of M(k); k = 0 returns 0 exactly (neutral mode)."""
    if k == 0.0:
        return 0.0
    M = growth_matrix(k, p, sigma)
    # real by similarity to a symmetric matrix
    return float(_eig2(M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])[1])


@dataclass(frozen=True)
class DispersionResult:
    """Sampled dispersion relation lambda(k) for one parameter set."""

    k: np.ndarray
    rate: np.ndarray
    sigma: float


def dispersion(k_values: np.ndarray, p: ModelParams, sigma: float) -> DispersionResult:
    ks = np.asarray(k_values, dtype=float)
    rates = np.array([max_growth_rate(k, p, sigma) for k in ks])
    return DispersionResult(k=ks, rate=rates, sigma=float(sigma))


def sigma_zero_locus(k: float, p: ModelParams) -> float:
    """The sigma > 0 at which lambda(k) = 0 for this k, or nan if none.

    B(k; sigma) = B(k; 0) + sigma k^4 I turns singular, with the growth
    rate crossing zero, at sigma = -lambda_min(B(k; 0)) / k^4. That sigma
    is positive iff B(k; 0) is indefinite at this k.
    """
    if k <= 0:
        return float("nan")
    B = interaction_matrix(k, p, 0.0)
    s = -_eig2(B[0, 0] + B[1, 1], B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])[0]
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


def _onset_root(p: ModelParams, gcrit: float) -> tuple[float, float, float]:
    """The onset cubic's positive root t = sigma_c k_c^2, with S and w.

    Newton from -D/(2S), monotone because c is increasing and convex on
    t >= 0: the iterates fall to the root, and the first one that does not
    fall is the root to rounding. The float returned is the one at which
    the computed c changes sign. Raises NoOnsetError when g12 <= g12_crit,
    and when D(cbar) < 0 is so small that c(-D/(2S)) rounds to a
    nonpositive value (then sigma_c lies below rounding).
    """
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

    def cubic(t: float) -> float:
        return ((c3 * t + c2) * t + c1) * t + c0

    def slope(t: float) -> float:
        return (3.0 * c3 * t + 2.0 * c2) * t + c1

    t = -D / (2.0 * S)
    if cubic(t) <= 0.0:
        raise NoOnsetError(
            f"no resolvable onset: D(cbar) = {D:.3e} is so close to 0 that "
            "sigma_c lies below rounding"
        )
    while (t_next := t - cubic(t) / slope(t)) < t:
        t = t_next
    # rounding in c can leave the last iterate an ulp or two off the sign change
    while cubic(t) < 0.0:
        t = np.nextafter(t, np.inf)
    while cubic(below := np.nextafter(t, 0.0)) >= 0.0:
        t = below
    return float(t), S, w


def find_onset(p: ModelParams) -> OnsetResult:
    """Locate (sigma_c, k_c): lambda = 0, dlambda/dk = 0, lambda < 0 elsewhere.

    Solves the onset cubic c(t) of the module docstring for its one
    positive root t = sigma_c k_c^2 by Newton from -D/(2S), monotone
    because c is increasing and convex on t >= 0 (_onset_root), then reads
    off k_c^2 = w / (t (2t + S)) and sigma_c = t / k_c^2. Raises
    NoOnsetError when g12 <= g12_crit, and when D(cbar) < 0 is so small
    that sigma_c lies below rounding.
    """
    gcrit = g12_critical(p)
    t, S, w = _onset_root(p, gcrit)
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


def verify_onset(onset: OnsetResult, p: ModelParams) -> dict[str, float]:
    """Zero-growth residuals at the computed onset.

    "consistent" is det B(k_c; sigma_c) = sigma^2 k^8 + (a1+a2) sigma k^6 +
    [sigma |z|^2 + D(cbar)] k^4 + w k^2, zero on the zero-growth locus up
    to rounding. "as_printed" is the paper's printed form of that
    polynomial, which differs in two places: its D-bracket uses cbar1 in
    both factors, and its z^2 terms carry no k^2 factor. It is kept as a
    diagnostic of the misprint and does NOT vanish at onset for general
    parameters.
    """
    k, sigma = onset.k_c, onset.sigma_c
    B = interaction_matrix(k, p, sigma)
    a1 = 1.0 / p.cbar1 + p.g11
    a2 = 1.0 / p.cbar2 + p.g22
    k2 = k * k
    common = sigma * sigma * k2**4 + (a1 + a2) * sigma * k2**3 + sigma * (
        p.z1**2 + p.z2**2
    ) * k2**2
    bracket = (1.0 / p.cbar1 + p.g11) * (1.0 / p.cbar1 + p.g22) - p.g12**2
    tail = bracket * k2**2 + (p.z2**2 * a1 + p.z1**2 * a2 - 2.0 * p.z1 * p.z2 * p.g12 * k2)
    return {
        "consistent": float(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]),
        "as_printed": float(common + tail),
    }


def min_hessian_eigenvalue(p: ModelParams) -> float:
    """Smaller eigenvalue of Hess h(cbar); negative iff D(cbar) < 0."""
    H = hessian(p.cbar1, p.cbar2, p)
    return float(_eig2(H[0, 0] + H[1, 1], H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0])[0])
