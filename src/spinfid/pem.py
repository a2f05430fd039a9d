"""Exact linear-Gaussian likelihood for a fixed frequency, its exact score,
and MAP estimation of a constant Larmor frequency.

For fixed omega the spin subsystem is linear-Gaussian, so the innovation
form of the Kalman filter gives the exact negative log-joint

    J(omega) = 1/2 sum_j [ (y_j - C m_j^-)^2 / S_j + ln S_j ]
               + (omega - omega_prior)^2 / (2 sigma^2)

up to omega-independent constants.  ``neg_log_joint_prefixes`` is the one
2x2 recursion, unrolled into scalars because it sits in the inner loop of
every Monte-Carlo experiment.  It takes omega as a float, a complex number
or a numpy grid and, since J is a running sum, returns J of every requested
record prefix from a single pass; the scalar likelihood, the grid, the MAP
fit at several probing times and the bound's score are all read from it.

The score dJ/d omega is the complex-step derivative Im J(omega + i eps)/eps
(Squire & Trapp, SIAM Review 40(1), 1998): no difference is taken, so it is
exact to rounding, with no step to tune.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import model
from .errors import InvalidParametersError, MapBoundaryError
from .model import GaussianPrior, SpmParams
from .sde_sim import MeasurementRecord

MAP_GRID_POINTS = 201
MAP_BRACKET_SIGMAS = 5.0
MAP_TOL = 1e-3  # rad/s, absolute
SCORE_STEP = 1e-20  # complex step of the score, in prior sigmas


@dataclass(frozen=True)
class LikelihoodEval:
    omega: float
    neg_log_joint: float
    residuals: np.ndarray        # y_j - C m_j^-
    innovation_vars: np.ndarray  # S_j


def neg_log_joint_prefixes(omega, rec: MeasurementRecord, p: SpmParams,
                           prior_omega: GaussianPrior,
                           prior_spin: GaussianPrior, lengths,
                           innovations: list | None = None) -> list:
    """J of the first k samples for each k in ascending ``lengths`` (repeats
    allowed), from one strict left-to-right pass over the record.

    ``omega`` is a float, a complex number or an array of frequencies; one
    body serves all three, because ``*``, ``+`` and ``/`` round alike on
    Python floats and float64 arrays.  A float keeps math's cos/sin/log
    (numpy's log differs from it in the last bit for a few doubles in a
    million), a complex omega takes cmath's.  ``innovations``, if given,
    receives (residual, S_j) for every sample processed.  A non-finite J
    raises FloatingPointError.
    """
    if isinstance(omega, np.ndarray):
        cos, sin, log = np.cos, np.sin, np.log
    elif isinstance(omega, complex):
        cos, sin, log = cmath.cos, cmath.sin, cmath.log
    else:
        cos, sin, log = math.cos, math.sin, math.log
    t2 = model.coherence_time(p)
    e = math.exp(-p.Delta / t2)
    ca = e * cos(omega * p.Delta)
    sa = e * sin(omega * p.Delta)
    b2 = model.discrete_spin_noise_var(p.q, p.N, p.Delta, t2)
    g = p.g_D
    r = model.measurement_noise_variance(p)

    m1, m2 = (float(v) for v in prior_spin.mean)
    cov = prior_spin.cov
    p11, p12, p22 = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])
    mu = float(prior_omega.mean[0])
    var = float(prior_omega.cov[0, 0])
    prior = 0.5 * (omega - mu) ** 2 / var

    ys = rec.outcomes[:lengths[-1]].tolist()
    out = []
    total = 0.0
    start = 0
    for k in lengths:
        for y in ys[start:k]:
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
            total += 0.5 * (resid * resid / s_var + log(s_var))
            if innovations is not None:
                innovations.append((resid, s_var))
        start = k
        # a new object, so the in-place += on a grid leaves it alone
        out.append(total + prior)
    # a sum that is finite at the longest prefix is finite at every one
    if not np.isfinite(out[-1]).all():
        raise FloatingPointError("non-finite negative log-joint accumulation")
    return out


def neg_log_joint_score(omega: float, rec: MeasurementRecord, p: SpmParams,
                        prior_omega: GaussianPrior, prior_spin: GaussianPrior,
                        lengths) -> list[float]:
    """dJ/d omega at ``omega`` of the first k samples for each k in ascending
    ``lengths``, from one complex pass at omega + i SCORE_STEP sigma."""
    eps = SCORE_STEP * math.sqrt(float(prior_omega.cov[0, 0]))
    return [j.imag / eps for j in neg_log_joint_prefixes(
        complex(omega, eps), rec, p, prior_omega, prior_spin, lengths)]


def kalman_neg_log_joint(omega: float, rec: MeasurementRecord, p: SpmParams,
                         prior_omega: GaussianPrior,
                         prior_spin: GaussianPrior) -> LikelihoodEval:
    """Negative log-joint of (record, omega); additive constants dropped.

    Accumulation is strict left-to-right over the record, so equal inputs
    reproduce bit-identical values.
    """
    innovations = []
    total, = neg_log_joint_prefixes(omega, rec, p, prior_omega, prior_spin,
                                    [len(rec.outcomes)], innovations)
    residuals, s_vars = np.array(innovations, dtype=float).reshape(-1, 2).T
    return LikelihoodEval(omega, total, residuals, s_vars)


def neg_log_joint_grid(omegas: np.ndarray, rec: MeasurementRecord, p: SpmParams,
                       prior_omega: GaussianPrior,
                       prior_spin: GaussianPrior) -> np.ndarray:
    """J over a grid of omega values (the same recursion, broadcast over the
    omega axis)."""
    return neg_log_joint_prefixes(np.asarray(omegas, dtype=float), rec, p,
                                  prior_omega, prior_spin,
                                  [len(rec.outcomes)])[0]


def map_estimates(rec: MeasurementRecord, lengths, p: SpmParams,
                  prior_omega: GaussianPrior,
                  prior_spin: GaussianPrior) -> list[tuple[float, float]]:
    """:func:`map_estimate` of ``rec.truncated(k)`` for each k in ascending
    ``lengths``; one likelihood pass gives the grid at every k."""
    lengths = list(lengths)
    if len(rec.outcomes) == 0:
        raise ValueError("empty measurement record")
    if (not lengths or lengths[0] < 1 or lengths[-1] > len(rec.outcomes)
            or lengths != sorted(lengths)):
        raise InvalidParametersError(
            "record lengths must ascend within 1..len(record)")
    mu = float(prior_omega.mean[0])
    sigma = math.sqrt(float(prior_omega.cov[0, 0]))
    grid = np.linspace(mu - MAP_BRACKET_SIGMAS * sigma,
                       mu + MAP_BRACKET_SIGMAS * sigma, MAP_GRID_POINTS)
    j_grids = neg_log_joint_prefixes(grid, rec, p, prior_omega, prior_spin,
                                     lengths)
    fits = []
    for k, j_grid in zip(lengths, j_grids):
        i = int(np.argmin(j_grid))  # argmin takes the first (smallest omega) on ties
        if i == 0 or i == len(grid) - 1:
            raise MapBoundaryError(
                "MAP search hit the bracket edge; prior too narrow or data inconsistent")

        def score(w: float) -> float:
            return neg_log_joint_score(w, rec, p, prior_omega, prior_spin,
                                       [k])[0]

        try:
            omega_hat = optimize.brentq(score, grid[i - 1], grid[i + 1],
                                        xtol=MAP_TOL)
        except ValueError as exc:  # no sign change across the bracket
            raise MapBoundaryError(
                "the score has one sign across the MAP bracket") from exc
        j_hat = neg_log_joint_prefixes(omega_hat, rec, p, prior_omega,
                                       prior_spin, [k])[0]
        fits.append((omega_hat, j_hat / k))
    return fits


def map_estimate(rec: MeasurementRecord, p: SpmParams,
                 prior_omega: GaussianPrior,
                 prior_spin: GaussianPrior) -> tuple[float, float]:
    """MAP frequency estimate by coarse grid plus a root of the exact score.

    Searches omega within +-5 prior sigmas (prior mass 1 - 6e-7); a grid
    locates the global basin despite likelihood side-lobes, then Brent's
    method finds the zero of dJ/d omega between the grid neighbours of the
    grid minimum, to 1e-3 rad/s.  Returns (omega_hat, J(omega_hat)/k).  A
    minimum on the grid's edge, or a score of one sign between its
    neighbours, raises MapBoundaryError.
    """
    return map_estimates(rec, [len(rec.outcomes)], p, prior_omega,
                         prior_spin)[0]
