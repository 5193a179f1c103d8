"""Amplitude equations near the pattern-forming onset.

Slightly below onset, sigma = sigma_c - eps with 0 < eps << 1, the critical
mode saturates (or fails to) according to a Stuart-Landau balance obtained
by a multiple-scales expansion

    c = cbar + sqrt(eps) beta(T) (v e^{i k_c x} + c.c.)
        + eps beta^2 (gamma e^{2 i k_c x} + c.c.) + ...,   T = eps t,

restricted here to equal bulk concentrations cbar1 = cbar2 = cbar (general
valences). The pieces, all evaluated at (k_c, sigma_c):

- v: null vector of B(k_c), normalized so its first component is 1 (the
  amplitude bookkeeping below is for the c1 field);
- gamma: second-harmonic response, M(2 k_c) gamma = diag(v) R v with
  R = B(k_c) - (k_c^2 / cbar) I = sigma_c k_c^4 I + k_c^2 G + z z^T;
- a = (k_c^4 cbar / 2) v: sensitivity of the growth rate to the distance
  from onset (d lambda/d sigma = -cbar k_c^4 on the critical mode);
- b = (k_c^2 / 4) [ v*gamma/cbar + gamma*m1 - 2 v*m2 ] (componentwise
  products), the cubic self-interaction, with the linearized chemical
  potential responses m(u, k) = B(k) u / k^2, which for equal bulk
  concentrations is ((1/cbar + sigma_c k^2) I + G) u + z (z.u)/k^2:

      m1 = m(v, k_c)   (= 0 at onset),     m2 = m(gamma, 2 k_c).

Projecting on the critical null vector gives the saturated amplitude

    beta0^2 = -<v, a> / <v, b>,
    c1(x) = cbar + sqrt((sigma_c - sigma) beta0^2) cos(k_c x) + O(eps),

supercritical when beta0^2 > 0. The k = 0 mean mode is pinned to zero by
per-species mass conservation, so no homogeneous shift enters at this
order. In the symmetric case (g11 = g22 = g, z = (1, -1)) this machinery
collapses to the closed form

    beta0^2 = (32 cbar^3 / (g12 - g12crit)) (3 g12 - g12crit)
              / (3 (g12 - g12crit) + 3 g12 + g),

which the implementation reproduces to roundoff; the identity is kept as a
regression oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoOnsetError, NumericsError, ParameterError, RegimeError
from .model import ModelParams, make_params
from .stability import OnsetResult, find_onset, growth_matrix, interaction_matrix

__all__ = [
    "WnlCoefficients",
    "CriticalityMap",
    "second_harmonic",
    "amplitude_coefficients",
    "criticality_map",
    "predicted_amplitude",
    "symmetric_beta0_sq",
]

SUPERCRITICAL = "supercritical"
SUBCRITICAL = "subcritical"
NO_ONSET = "no_onset"


def _require_equal_bulk(p: ModelParams) -> float:
    if abs(p.cbar1 - p.cbar2) > 1e-12 * (1.0 + abs(p.cbar1)):
        raise RegimeError(
            "amplitude expansion implemented for equal bulk concentrations only; "
            f"got cbar = ({p.cbar1}, {p.cbar2})"
        )
    return p.cbar1


def _critical_vector(onset: OnsetResult) -> np.ndarray:
    v = onset.v_kc
    if abs(v[0]) < 1e-12:
        raise NumericsError("critical null vector has a vanishing first component")
    return v / v[0]


def second_harmonic(onset: OnsetResult, p: ModelParams) -> np.ndarray:
    """Solve M(2 k_c) gamma = diag(v) R v for the second-harmonic response."""
    cbar = _require_equal_bulk(p)
    k = onset.k_c
    v = _critical_vector(onset)
    R = interaction_matrix(k, p, onset.sigma_c) - (k * k / cbar) * np.eye(2)
    r1 = v * (R @ v)
    M2 = growth_matrix(2.0 * k, p, onset.sigma_c)
    det = M2[0, 0] * M2[1, 1] - M2[0, 1] * M2[1, 0]
    if abs(det) < 1e-10 * (np.abs(M2).max() ** 2 + 1e-30):
        raise NumericsError("second-harmonic operator M(2 k_c) is singular")
    gamma = np.linalg.solve(M2, r1)
    return gamma


@dataclass(frozen=True)
class WnlCoefficients:
    """Stuart-Landau data at one onset."""

    k_c: float
    sigma_c: float
    v_kc: np.ndarray  # first component 1
    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    beta0_sq: float
    criticality: str


def amplitude_coefficients(onset: OnsetResult, p: ModelParams) -> WnlCoefficients:
    """Assemble (gamma, a, b, beta0^2) and classify the bifurcation."""
    cbar = _require_equal_bulk(p)
    k = onset.k_c
    s = onset.sigma_c
    v = _critical_vector(onset)
    Bv = interaction_matrix(k, p, s) @ v
    # Guard: v must genuinely span ker B(k_c).
    null_res = np.linalg.norm(Bv)
    if null_res > 1e-8 * (1.0 + np.linalg.norm(v)):
        raise NumericsError(f"onset null vector residual too large: {null_res:.3e}")
    gamma = second_harmonic(onset, p)
    # chemical-potential responses m(u, kk) = B(kk) u / kk^2
    m1 = Bv / (k * k)
    m2 = interaction_matrix(2.0 * k, p, s) @ gamma / (4.0 * k * k)
    a = (k**4 * cbar / 2.0) * v
    b = (k * k / 4.0) * (v * gamma / cbar + gamma * m1 - 2.0 * v * m2)
    denom = float(v @ b)
    if denom == 0.0:
        raise NumericsError("cubic coefficient projection vanished")
    beta0_sq = -float(v @ a) / denom
    tag = SUPERCRITICAL if beta0_sq > 0 else SUBCRITICAL
    return WnlCoefficients(
        k_c=float(k),
        sigma_c=float(s),
        v_kc=v,
        gamma=gamma,
        a=a,
        b=b,
        beta0_sq=float(beta0_sq),
        criticality=tag,
    )


def symmetric_beta0_sq(g: float, g12: float, cbar: float) -> float:
    """Closed-form saturated amplitude coefficient, symmetric case."""
    gcrit = g + 1.0 / cbar
    delta = g12 - gcrit
    if delta <= 0:
        raise RegimeError("symmetric closed form needs g12 > g + 1/cbar")
    return 32.0 * cbar**3 / delta * (3.0 * g12 - gcrit) / (3.0 * delta + 3.0 * g12 + g)


@dataclass(frozen=True)
class CriticalityMap:
    """Bifurcation character over an (asymmetry, g12) parameter sheet.

    Rows follow asymmetry delta (g11 = g_sum/2 + delta, g22 = g_sum/2 -
    delta), columns follow g12. tags holds one of "supercritical",
    "subcritical", "no_onset"; sigma_c/k_c/beta0_sq hold nan where no onset
    exists.
    """

    asymmetry: np.ndarray
    g12: np.ndarray
    tags: np.ndarray
    sigma_c: np.ndarray
    k_c: np.ndarray
    beta0_sq: np.ndarray
    g_sum: float
    cbar: float


def criticality_map(
    asym_values: np.ndarray,
    g12_values: np.ndarray,
    g_sum: float = 4.0,
    cbar: float = 1.0,
) -> CriticalityMap:
    """Classify the onset over a grid with g11 + g22 = g_sum held fixed.

    Valences z = (1, -1) and equal bulk concentrations cbar throughout. A
    cell is "no_onset" exactly when find_onset raises NoOnsetError. Raises
    ParameterError unless both axes are 1-D.
    """
    asym = np.asarray(asym_values, dtype=float)
    g12s = np.asarray(g12_values, dtype=float)
    for name, axis in (("asym_values", asym), ("g12_values", g12s)):
        if axis.ndim != 1:
            raise ParameterError(
                f"criticality_map: {name} must be a 1-D axis, got shape {axis.shape}"
            )
    shape = (asym.size, g12s.size)
    tags = np.full(shape, NO_ONSET, dtype="<U13")
    sig = np.full(shape, np.nan)
    kc = np.full(shape, np.nan)
    b0 = np.full(shape, np.nan)
    for i, d in enumerate(asym):
        g11 = g_sum / 2.0 + d
        g22 = g_sum / 2.0 - d
        for j, g12 in enumerate(g12s):
            p = make_params(1.0, -1.0, g11, g22, g12, cbar, cbar)
            try:
                onset = find_onset(p)
            except NoOnsetError:
                continue
            coeffs = amplitude_coefficients(onset, p)
            tags[i, j] = coeffs.criticality
            sig[i, j] = onset.sigma_c
            kc[i, j] = onset.k_c
            b0[i, j] = coeffs.beta0_sq
    return CriticalityMap(
        asymmetry=asym,
        g12=g12s,
        tags=tags,
        sigma_c=sig,
        k_c=kc,
        beta0_sq=b0,
        g_sum=float(g_sum),
        cbar=float(cbar),
    )


def predicted_amplitude(sigma: float, coeffs: WnlCoefficients) -> float:
    """Saturated cosine amplitude of c1 at sigma slightly below onset."""
    if coeffs.criticality != SUPERCRITICAL:
        raise RegimeError("amplitude prediction only applies to a supercritical onset")
    eps = coeffs.sigma_c - sigma
    if eps < 0:
        raise RegimeError(f"sigma = {sigma} is above onset sigma_c = {coeffs.sigma_c}")
    return float(np.sqrt(eps * coeffs.beta0_sq))
