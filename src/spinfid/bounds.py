"""Bayesian Cramer-Rao bounds: Monte-Carlo evaluation via the score of the
negative log-joint, and the analytic noiseless Fisher-information family.

The numeric bound samples omega from its Gaussian prior, simulates a
measurement record, and averages the squared score dJ/d omega of the exact
negative log-joint J; the bound is the inverse of that average.  The score
is exact, read by complex step through the likelihood recursion of
:mod:`spinfid.pem`.  The analytic expressions hold when the atomic
noise is switched off and the spin starts deterministically polarized; they
are the damped-sinusoid Fisher information in discrete, continuous,
short-time, asymptotic and no-decoherence form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import roots_hermite

from . import model, pem, sde_sim
from .errors import InvalidParametersError
from .model import Constant, GaussianPrior, SpmParams


@dataclass(frozen=True)
class BoundResult:
    value: float        # MSE bound, rad^2/s^2
    mc_std_err: float   # 0 for analytic results
    meta: dict


def neg_log_joint_gradient(omega: float, rec: sde_sim.MeasurementRecord,
                           p: SpmParams, prior_omega: GaussianPrior,
                           prior_spin: GaussianPrior, h: float) -> float:
    """Central-difference derivative of J with respect to omega, the
    finite-difference reference of :func:`pem.neg_log_joint_score`."""
    if not h > 0.0:
        raise ValueError("finite-difference step must be positive")
    j_plus = pem.kalman_neg_log_joint(omega + h, rec, p, prior_omega, prior_spin)
    j_minus = pem.kalman_neg_log_joint(omega - h, rec, p, prior_omega, prior_spin)
    return (j_plus.neg_log_joint - j_minus.neg_log_joint) / (2.0 * h)


def bcrb_numeric(p: SpmParams, prior_omega: GaussianPrior,
                 prior_spin: GaussianPrior, t: float, n_samples: int,
                 seed=0, substeps: int = 5) -> BoundResult:
    """Monte-Carlo Bayesian bound 1 / E[(dJ/d omega)^2] at probing time t,
    the one-time case of :func:`bcrb_numeric_curve`."""
    return bcrb_numeric_curve(p, prior_omega, prior_spin, [t], n_samples,
                              seed=seed, substeps=substeps)[0]


def bcrb_numeric_curve(p: SpmParams, prior_omega: GaussianPrior,
                       prior_spin: GaussianPrior, times, n_samples: int,
                       seed=0, substeps: int = 5):
    """Monte-Carlo bound at several probing times from shared simulations.

    Valid with atomic noise on (q from the parameter set).  Each sample
    simulates once to max(times); one complex likelihood pass
    (:func:`pem.neg_log_joint_score`) gives the exact score of every
    truncated record, so the per-time bounds are correlated.  The standard
    error of each bound is the jackknife error of the inverted mean.  Each
    time maps to its nearest sample; one that rounds to no sample raises
    InvalidParametersError.  Returns a list of BoundResult in ascending time
    order.
    """
    if n_samples < 2:
        raise InvalidParametersError("need at least 2 Monte-Carlo samples")
    times = sorted(float(t) for t in times)
    if not times:
        raise ValueError("no probing times")
    ks = sde_sim.sample_indices(times, p.Delta)
    mu = float(prior_omega.mean[0])
    sigma = math.sqrt(float(prior_omega.cov[0, 0]))
    children = np.random.SeedSequence(seed).spawn(n_samples)

    sq_scores = np.empty((len(times), n_samples))
    for m, child in enumerate(children):
        rng = np.random.default_rng(child)
        omega_true = mu + sigma * rng.standard_normal()
        _, rec = sde_sim.simulate(p, Constant(omega_true), times[-1],
                                  substeps=substeps, seed=rng)
        sq_scores[:, m] = np.square(pem.neg_log_joint_score(
            omega_true, rec, p, prior_omega, prior_spin, ks))

    # jackknife: the bound with each sample left out in turn
    total = sq_scores.sum(axis=1, keepdims=True)
    theta = (n_samples - 1) / (total - sq_scores)
    std_errs = np.sqrt((n_samples - 1) / n_samples * np.sum(
        (theta - theta.mean(axis=1, keepdims=True)) ** 2, axis=1))
    return [BoundResult(1.0 / row.mean(), float(se),
                        {"t": t, "samples": n_samples})
            for t, row, se in zip(times, sq_scores, std_errs)]


# --------------------------------------------------------------------------
# Analytic noiseless expressions (q = 0, deterministic polarized start)
# --------------------------------------------------------------------------

def _fi_prefactor(p: SpmParams) -> float:
    return p.N ** 2 * p.g_D ** 2 / (4.0 * p.R)


def fi_noiseless_discrete(omega: float, t: float, p: SpmParams) -> float:
    """Fisher information of the sampled damped sinusoid (sum over t_j = j*Delta)."""
    t2 = model.coherence_time(p)
    tj = p.Delta * np.arange(1, int(math.floor(t / p.Delta)) + 1)
    terms = np.exp(-2.0 * tj / t2) * tj ** 2 * np.sin(omega * tj) ** 2
    return _fi_prefactor(p) * p.Delta * float(terms.sum())


def fi_noiseless_continuous(omega: float, t: float, p: SpmParams) -> float:
    """Continuous-probing limit of the Fisher information, by adaptive
    quadrature to 1e-10 relative (the closed form is deliberately not
    transcribed)."""
    t2 = model.coherence_time(p)

    def integrand(tau: float) -> float:
        return math.exp(-2.0 * tau / t2) * tau * tau * math.sin(omega * tau) ** 2

    value, _, info, *rest = integrate.quad(integrand, 0.0, t, epsabs=0.0,
                                           epsrel=1e-10, limit=20000,
                                           full_output=True)
    if rest:
        raise ArithmeticError(f"Fisher-information quadrature failed: {rest[0]}")
    return _fi_prefactor(p) * value


def fi_short_time(omega: float, t: float, p: SpmParams) -> float:
    """Leading t^5 expansion, valid for omega*t << 1 and t << T2."""
    return p.g_D ** 2 * p.N ** 2 * omega ** 2 * t ** 5 / (20.0 * p.R)


def fi_asymptotic(omega: float, p: SpmParams) -> float:
    """t -> infinity value; finite because of the coherence-time cutoff."""
    t2 = model.coherence_time(p)
    x2 = (omega * t2) ** 2
    return (p.N ** 2 * p.g_D ** 2 * t2 ** 3 / (32.0 * p.R)
            * x2 * (x2 * x2 + 3.0 * x2 + 6.0) / (1.0 + x2) ** 3)


def fi_no_decoherence(omega: float, t: float, p: SpmParams) -> float:
    """Closed form of the T2 -> infinity Fisher information (pure sinusoid)."""
    u = omega * t
    if u == 0.0:
        return 0.0
    a = math.sqrt((1.0 - 2.0 * u * u) ** 2 + 4.0 * u * u)
    phi = math.atan2(-2.0 * u, 1.0 - 2.0 * u * u)
    bracket = 1.0 + 3.0 * a / (4.0 * u ** 3) * math.sin(2.0 * u + phi)
    return p.g_D ** 2 * p.N ** 2 * t ** 3 / (24.0 * p.R) * bracket


def noiseless_bcrb_floor(p: SpmParams, sigma_omega: float) -> float:
    """Universal long-time lower bound on the average MSE for any estimator
    (one-sided: the prior average of the asymptotic information is majorized,
    so exact saturation is not expected)."""
    t2 = model.coherence_time(p)
    info = p.N ** 2 * p.g_D ** 2 * t2 ** 3 / (25.6 * p.R)
    return 1.0 / (info + 1.0 / sigma_omega ** 2)


def bcrb_analytic_gaussian_prior(p: SpmParams, sigma_omega: float, t: float,
                                 nodes: int = 41) -> float:
    """Noiseless Bayesian bound 1 / (sigma^-2 + E_prior[I_F]) with the prior
    expectation taken by Gauss-Hermite quadrature over omega."""
    x, w = roots_hermite(nodes)
    omegas = p.omega_bar + math.sqrt(2.0) * sigma_omega * x
    values = np.array([fi_noiseless_continuous(om, t, p) for om in omegas])
    expected = float(np.dot(w, values)) / math.sqrt(math.pi)
    return 1.0 / (1.0 / sigma_omega ** 2 + expected)
