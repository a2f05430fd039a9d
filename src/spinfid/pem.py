"""Exact linear-Gaussian likelihood for a fixed frequency, and MAP
estimation of a constant Larmor frequency.

For fixed omega the spin subsystem is linear-Gaussian, so the innovation
form of the Kalman filter gives the exact negative log-joint

    J(omega) = 1/2 sum_j [ (y_j - C m_j^-)^2 / S_j + ln S_j ]
               + (omega - omega_prior)^2 / (2 sigma^2)

up to omega-independent constants.  The 2x2 recursion is unrolled into
scalars (and, for grid searches, into numpy arrays over the omega axis)
because it sits in the inner loop of every Monte-Carlo experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import MapBoundaryError
from .model import GaussianPrior, SpmParams
from .sde_sim import MeasurementRecord

MAP_GRID_POINTS = 201
MAP_BRACKET_SIGMAS = 5.0
MAP_TOL = 1e-3  # rad/s, absolute
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LikelihoodEval:
    omega: float
    neg_log_joint: float
    residuals: np.ndarray        # y_j - C m_j^-
    innovation_vars: np.ndarray  # S_j


def _spin_step_constants(omega: float, p: SpmParams):
    t2 = model.coherence_time(p)
    e = math.exp(-p.Delta / t2)
    ca = e * math.cos(omega * p.Delta)
    sa = e * math.sin(omega * p.Delta)
    b2 = model.discrete_spin_noise_var(p.q, p.N, p.Delta, t2)
    return ca, sa, b2


def kalman_neg_log_joint(omega: float, rec: MeasurementRecord, p: SpmParams,
                         prior_omega: GaussianPrior,
                         prior_spin: GaussianPrior) -> LikelihoodEval:
    """Negative log-joint of (record, omega); additive constants dropped.

    Accumulation is strict left-to-right over the record, so equal inputs
    reproduce bit-identical values.
    """
    ca, sa, b2 = _spin_step_constants(omega, p)
    g = p.g_D
    r = p.R / p.Delta

    m1, m2 = (float(v) for v in prior_spin.mean)
    cov = prior_spin.cov
    p11, p12, p22 = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])

    n = len(rec.outcomes)
    residuals = np.empty(n)
    s_vars = np.empty(n)
    total = 0.0
    for j, y in enumerate(rec.outcomes.tolist()):
        m1p = ca * m1 + sa * m2
        m2p = -sa * m1 + ca * m2
        p11p = ca * ca * p11 + 2.0 * ca * sa * p12 + sa * sa * p22 + b2
        p12p = -ca * sa * p11 + (ca * ca - sa * sa) * p12 + ca * sa * p22
        p22p = sa * sa * p11 - 2.0 * sa * ca * p12 + ca * ca * p22 + b2

        s_var = r + g * g * p22p
        resid = y - g * m2p
        k1 = g * p12p / s_var
        k2 = g * p22p / s_var
        m1 = m1p + k1 * resid
        m2 = m2p + k2 * resid
        p11 = p11p - s_var * k1 * k1
        p12 = p12p - s_var * k1 * k2
        p22 = p22p - s_var * k2 * k2

        residuals[j] = resid
        s_vars[j] = s_var
        total += 0.5 * (resid * resid / s_var + math.log(s_var))

    mu = float(prior_omega.mean[0])
    var = float(prior_omega.cov[0, 0])
    total += 0.5 * (omega - mu) ** 2 / var
    if not math.isfinite(total):
        raise FloatingPointError("non-finite negative log-joint accumulation")
    return LikelihoodEval(omega, total, residuals, s_vars)


def neg_log_joint_grid(omegas: np.ndarray, rec: MeasurementRecord, p: SpmParams,
                       prior_omega: GaussianPrior,
                       prior_spin: GaussianPrior) -> np.ndarray:
    """Vectorized J over a grid of omega values (same recursion as the
    scalar path, broadcast over the omega axis)."""
    omegas = np.asarray(omegas, dtype=float)
    t2 = model.coherence_time(p)
    e = math.exp(-p.Delta / t2)
    ca = e * np.cos(omegas * p.Delta)
    sa = e * np.sin(omegas * p.Delta)
    b2 = model.discrete_spin_noise_var(p.q, p.N, p.Delta, t2)
    g = p.g_D
    r = p.R / p.Delta

    m1 = np.full_like(omegas, float(prior_spin.mean[0]))
    m2 = np.full_like(omegas, float(prior_spin.mean[1]))
    cov = prior_spin.cov
    p11 = np.full_like(omegas, float(cov[0, 0]))
    p12 = np.full_like(omegas, float(cov[0, 1]))
    p22 = np.full_like(omegas, float(cov[1, 1]))

    total = np.zeros_like(omegas)
    for y in rec.outcomes.tolist():
        m1p = ca * m1 + sa * m2
        m2p = -sa * m1 + ca * m2
        p11p = ca * ca * p11 + 2.0 * ca * sa * p12 + sa * sa * p22 + b2
        p12p = -ca * sa * p11 + (ca * ca - sa * sa) * p12 + ca * sa * p22
        p22p = sa * sa * p11 - 2.0 * sa * ca * p12 + ca * ca * p22 + b2

        s_var = r + g * g * p22p
        resid = y - g * m2p
        k1 = g * p12p / s_var
        k2 = g * p22p / s_var
        m1 = m1p + k1 * resid
        m2 = m2p + k2 * resid
        p11 = p11p - s_var * k1 * k1
        p12 = p12p - s_var * k1 * k2
        p22 = p22p - s_var * k2 * k2
        total += 0.5 * (resid * resid / s_var + np.log(s_var))

    mu = float(prior_omega.mean[0])
    var = float(prior_omega.cov[0, 0])
    return total + 0.5 * (omegas - mu) ** 2 / var


def map_estimate(rec: MeasurementRecord, p: SpmParams,
                 prior_omega: GaussianPrior,
                 prior_spin: GaussianPrior) -> tuple[float, float]:
    """MAP frequency estimate by coarse grid plus golden-section refinement.

    Searches omega within +-5 prior sigmas (prior mass 1 - 6e-7); a grid
    locates the global basin despite likelihood side-lobes, then a bracketed
    golden-section search refines to 1e-3 rad/s.  Returns (omega_hat,
    J(omega_hat)/k).  A minimum on the bracket edge raises MapBoundaryError.
    """
    if len(rec.outcomes) == 0:
        raise ValueError("empty measurement record")
    mu = float(prior_omega.mean[0])
    sigma = math.sqrt(float(prior_omega.cov[0, 0]))
    grid = np.linspace(mu - MAP_BRACKET_SIGMAS * sigma,
                       mu + MAP_BRACKET_SIGMAS * sigma, MAP_GRID_POINTS)
    j_grid = neg_log_joint_grid(grid, rec, p, prior_omega, prior_spin)
    i = int(np.argmin(j_grid))  # argmin takes the first (smallest omega) on ties
    if i == 0 or i == len(grid) - 1:
        raise MapBoundaryError(
            "MAP search hit the bracket edge; prior too narrow or data inconsistent")

    def j_of(w: float) -> float:
        return kalman_neg_log_joint(w, rec, p, prior_omega, prior_spin).neg_log_joint

    a, b = grid[i - 1], grid[i + 1]
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    jc, jd = j_of(c), j_of(d)
    while b - a > MAP_TOL:
        if jc < jd:
            b, d, jd = d, c, jc
            c = b - _INV_GOLDEN * (b - a)
            jc = j_of(c)
        else:
            a, c, jc = c, d, jd
            d = a + _INV_GOLDEN * (b - a)
            jd = j_of(d)
    omega_hat = c if jc < jd else d
    j_min = min(jc, jd)
    return float(omega_hat), j_min / len(rec.outcomes)
