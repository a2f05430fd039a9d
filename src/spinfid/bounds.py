"""Bayesian Cramer-Rao bounds: Monte-Carlo evaluation via the score of the
negative log-joint, and the analytic noiseless Fisher-information family.

The numeric bound draws each sample by the one Monte-Carlo shot rule,
``sde_sim._mc_shot``, as a sweep run is drawn: omega from its Gaussian prior,
then a measurement record, on the one stream rule ``sde_sim._stream``.  It
averages the squared score dJ/d omega of the exact negative log-joint J; the
bound is the inverse of that average.  The score is exact, read by complex
step through the likelihood recursion of :mod:`spinfid.pem`.  The analytic
expressions hold when the atomic noise is switched off and the spin starts
deterministically polarized; they are the damped-sinusoid Fisher
information in discrete, continuous, short-time, asymptotic and
no-decoherence form.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import model, pem, sde_sim
from .errors import InvalidParametersError
from .model import GaussianPrior, NonNegative, Positive, SpmParams


@dataclass(frozen=True)
class BoundResult:
    value: float        # MSE bound, rad^2/s^2
    mc_std_err: float   # 0 for analytic results
    meta: dict


def neg_log_joint_gradient(omega: float, rec: sde_sim.MeasurementRecord,
                           p: SpmParams, prior: GaussianPrior,
                           h: Positive) -> float:
    """Central-difference derivative of J with respect to omega, the
    finite-difference reference of :func:`pem.neg_log_joint_score`."""
    model.check_value("neg_log_joint_gradient", "h", h, "Positive")
    j_plus = pem.kalman_neg_log_joint(omega + h, rec, p, prior)
    j_minus = pem.kalman_neg_log_joint(omega - h, rec, p, prior)
    return (j_plus.neg_log_joint - j_minus.neg_log_joint) / (2.0 * h)


def bcrb_numeric(p: SpmParams, prior: GaussianPrior, t: float,
                 n_samples: int, seed=0, substeps: int = 5) -> BoundResult:
    """Monte-Carlo Bayesian bound 1 / E[(dJ/d omega)^2] at probing time t,
    the one-time case of :func:`bcrb_numeric_curve`."""
    return bcrb_numeric_curve(p, prior, [t], n_samples, seed=seed,
                              substeps=substeps)[0]


def bcrb_numeric_curve(p: SpmParams, prior: GaussianPrior, times,
                       n_samples: int, seed=0, substeps: int = 5):
    """Monte-Carlo bound at several probing times from shared simulations.

    Valid with atomic noise on (q from the parameter set).  Sample m is
    Monte-Carlo shot m of ``seed`` (``sde_sim._mc_shot``), as run m of a
    sweep at that seed and substeps: omega drawn from ``prior``, one record
    to max(times).  One complex pass (:func:`pem.neg_log_joint_score`)
    gives the exact score of every truncated record, so the per-time bounds
    are correlated; each standard error is the jackknife error of the
    inverted mean.  A time maps to its nearest sample; one that rounds to
    none, or a prior that ``pem._prior_terms`` rejects, raises
    InvalidParametersError.  Returns BoundResults in ascending time order.
    """
    model.check_value("bcrb_numeric_curve", "n_samples", n_samples, "int")
    if n_samples < 2:
        raise InvalidParametersError(
            f"need at least 2 Monte-Carlo samples, got {n_samples!r}")
    model.check_value("bcrb_numeric_curve", "n_samples", n_samples, "Count")
    times = sorted(float(t) for t in times)
    if not times:
        raise InvalidParametersError("no probing times")
    ks = sde_sim.sample_indices(times, p.Delta)
    mu, var = pem._prior_terms(prior)[:2]
    sigma = math.sqrt(var)

    sq_scores = np.empty((len(times), n_samples))
    for m in range(n_samples):
        omega, rec = sde_sim._mc_shot(p, mu, sigma, ks[-1], substeps, seed, m)
        sq_scores[:, m] = np.square(pem.neg_log_joint_score(
            omega, rec, p, prior, ks))

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

# nodes of the Gauss-Hermite rule for the prior average of the information
HERMITE_NODES = 41


@contextmanager
def _float_range(owner: str, **args):
    """Run a closed form of ``owner``: the OverflowError or
    ZeroDivisionError that a Python float power or quotient raises beyond
    float range becomes InvalidParametersError naming the arguments
    ``args`` (a tiny spread or time whose power underflows to 0 divides by
    zero; a huge one overflows)."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        given = ", ".join(f"{name} = {value!r}" for name, value in args.items())
        raise InvalidParametersError(
            f"{owner} is beyond float range at {given}") from None


def _fi_prefactor(p: SpmParams) -> float:
    return p.N ** 2 * p.g_D ** 2 / (4.0 * p.R)


def fi_noiseless_discrete(omega: float, t: NonNegative,
                          p: SpmParams) -> float:
    """Fisher information of the sampled damped sinusoid: the sum over the
    samples t_j = j*Delta that a record of duration t holds, counted by
    :func:`sde_sim.sample_indices` as ``simulate`` counts them."""
    model._check_inputs("fi_noiseless_discrete", omega, t)
    t2 = model.coherence_time(p)
    tj = p.Delta * np.arange(1, sde_sim.sample_indices([t], p.Delta)[0] + 1)
    terms = np.exp(-2.0 * tj / t2) * tj ** 2 * np.sin(omega * tj) ** 2
    return _fi_prefactor(p) * p.Delta * float(terms.sum())


def fi_noiseless_continuous(omega: float, t: NonNegative,
                            p: SpmParams) -> float:
    """Continuous-probing limit of the Fisher information, by adaptive
    quadrature to 1e-10 relative (the closed form is deliberately not
    transcribed)."""
    model._check_inputs("fi_noiseless_continuous", omega, t)
    # scipy is imported here, by its only two users, so that importing the
    # package and every simulating path load numpy alone
    from scipy import integrate

    t2 = model.coherence_time(p)

    def integrand(tau: float) -> float:
        return math.exp(-2.0 * tau / t2) * tau * tau * math.sin(omega * tau) ** 2

    value, _, info, *rest = integrate.quad(integrand, 0.0, t, epsabs=0.0,
                                           epsrel=1e-10, limit=20000,
                                           full_output=True)
    if rest:
        raise ArithmeticError(f"Fisher-information quadrature failed: {rest[0]}")
    return _fi_prefactor(p) * value


def fi_short_time(omega: float, t: NonNegative, p: SpmParams) -> float:
    """Leading t^5 expansion, valid for omega*t << 1 and t << T2."""
    model._check_inputs("fi_short_time", omega, t)
    with _float_range("fi_short_time", omega=omega, t=t):
        return p.g_D ** 2 * p.N ** 2 * omega ** 2 * t ** 5 / (20.0 * p.R)


def fi_asymptotic(omega: float, p: SpmParams) -> float:
    """t -> infinity value; finite because of the coherence-time cutoff."""
    model._check_inputs("fi_asymptotic", omega)
    t2 = model.coherence_time(p)
    with _float_range("fi_asymptotic", omega=omega):
        x2 = (omega * t2) ** 2
        return (p.N ** 2 * p.g_D ** 2 * t2 ** 3 / (32.0 * p.R)
                * x2 * (x2 * x2 + 3.0 * x2 + 6.0) / (1.0 + x2) ** 3)


def fi_no_decoherence(omega: float, t: NonNegative, p: SpmParams) -> float:
    """Closed form of the T2 -> infinity Fisher information (pure sinusoid)."""
    model._check_inputs("fi_no_decoherence", omega, t)
    u = omega * t
    if u == 0.0:
        return 0.0
    with _float_range("fi_no_decoherence", omega=omega, t=t):
        a = math.sqrt((1.0 - 2.0 * u * u) ** 2 + 4.0 * u * u)
        phi = math.atan2(-2.0 * u, 1.0 - 2.0 * u * u)
        bracket = 1.0 + 3.0 * a / (4.0 * u ** 3) * math.sin(2.0 * u + phi)
        return p.g_D ** 2 * p.N ** 2 * t ** 3 / (24.0 * p.R) * bracket


def _prior_precision(owner: str, sigma_omega: Positive) -> float:
    """1 / sigma_omega^2 of the Gaussian prior, in float range."""
    with _float_range(owner, sigma_omega=sigma_omega):
        return 1.0 / sigma_omega ** 2


def noiseless_bcrb_floor(p: SpmParams, sigma_omega: Positive) -> float:
    """Universal long-time lower bound on the average MSE for any estimator
    (one-sided: the prior average of the asymptotic information is majorized,
    so exact saturation is not expected)."""
    model._check_inputs("noiseless_bcrb_floor", sigma_omega=sigma_omega)
    t2 = model.coherence_time(p)
    info = p.N ** 2 * p.g_D ** 2 * t2 ** 3 / (25.6 * p.R)
    return 1.0 / (info + _prior_precision("noiseless_bcrb_floor", sigma_omega))


def bcrb_analytic_gaussian_prior(p: SpmParams, sigma_omega: Positive,
                                 t: NonNegative) -> float:
    """Noiseless Bayesian bound 1 / (sigma^-2 + E_prior[I_F]) with the prior
    expectation taken by ``HERMITE_NODES``-point Gauss-Hermite quadrature
    over omega."""
    model._check_inputs("bcrb_analytic_gaussian_prior", t=t,
                        sigma_omega=sigma_omega)
    precision = _prior_precision("bcrb_analytic_gaussian_prior", sigma_omega)
    from scipy.special import roots_hermite

    x, w = roots_hermite(HERMITE_NODES)
    omegas = p.omega_bar + math.sqrt(2.0) * sigma_omega * x
    values = np.array([fi_noiseless_continuous(om, t, p) for om in omegas])
    expected = float(np.dot(w, values)) / math.sqrt(math.pi)
    return 1.0 / (precision + expected)
