"""Bayesian Cramer-Rao bounds: Monte-Carlo evaluation via the score of the
negative log-joint, and the analytic noiseless Fisher-information family.

The numeric bound draws each sample by the one Monte-Carlo shot rule,
``sde_sim._mc_shot``, as a sweep run is drawn: omega from its Gaussian prior,
then a measurement record, on the one stream rule ``sde_sim._stream``.  It
averages the squared score dJ/d omega of the exact negative log-joint J; the
bound is the inverse of that average.  It is two pieces: the squared
scores of a range of samples (``_squared_scores``) and the jackknife over
all of them (``_bound_results``); a sweep runs the ranges on several
workers and stacks them in sample order.  The score is exact, read by complex
step through the likelihood recursion of :mod:`spinfid.pem`.  The analytic
expressions hold when the atomic noise is switched off and the spin starts
deterministically polarized; they are the damped-sinusoid Fisher
information in discrete, continuous, short-time, asymptotic and
no-decoherence form.  The continuous and the no-decoherence information
are one closed form, ``_continuous``, at x = 2t/T2 and at x = 0 (the
T2 -> infinity case); at x = 0 its relative error is below 3e-15 at
every omega t from 1e-8 to 1e3 and at t from 1e-105, where t^3 is below
the normal range, to 1e110, against 300-digit arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import model, pem, sde_sim
from .errors import InvalidParametersError
from .model import (Count, GaussianPrior, Index, NonNegative, Positive,
                    Samples, SpmParams)


@dataclass(frozen=True)
class BoundResult:
    value: float        # MSE bound, rad^2/s^2
    mc_std_err: float   # 0 for analytic results
    meta: dict


@model.checked
def neg_log_joint_gradient(omega: float, rec: sde_sim.MeasurementRecord,
                           p: SpmParams, prior: GaussianPrior,
                           h: Positive) -> float:
    """Central-difference derivative of J with respect to omega, the
    finite-difference reference of :func:`pem.neg_log_joint_score`."""
    j_plus = pem.kalman_neg_log_joint(omega + h, rec, p, prior)
    j_minus = pem.kalman_neg_log_joint(omega - h, rec, p, prior)
    return (j_plus.neg_log_joint - j_minus.neg_log_joint) / (2.0 * h)


@model.checked
def bcrb_numeric(p: SpmParams, prior: GaussianPrior, t: float,
                 n_samples: Samples, seed: Index = 0,
                 substeps: Count = 5) -> BoundResult:
    """Monte-Carlo Bayesian bound 1 / E[(dJ/d omega)^2] at probing time t,
    the one-time case of :func:`bcrb_numeric_curve`."""
    return bcrb_numeric_curve(p, prior, [t], n_samples, seed=seed,
                              substeps=substeps)[0]


@model.checked
def bcrb_numeric_curve(p: SpmParams, prior: GaussianPrior, times,
                       n_samples: Samples, seed: Index = 0,
                       substeps: Count = 5):
    """Monte-Carlo bound at several probing times from shared simulations.

    Valid with atomic noise on (q from the parameter set).  Sample m is
    Monte-Carlo shot m of ``seed`` (``sde_sim._mc_shot``), as run m of a
    sweep at that seed and substeps: omega drawn from ``prior``, one record
    to max(times).  One complex pass (:func:`pem.neg_log_joint_score`)
    gives the exact score of every truncated record, so the per-time bounds
    are correlated; each standard error is the jackknife error of the
    inverted mean.  A time maps to its nearest sample; one that is no finite
    number or rounds to none (:func:`sde_sim.sample_indices`), a prior that
    ``pem._prior_terms`` rejects, a sample count that is no
    ``model.Samples`` (an integer from 2 to np.intp's largest value), a
    seed that is no ``model.Index`` (an integer >= 0: the samples are the
    shots of an integer seed), or a substep count that is no
    ``model.Count``, raises InvalidParametersError.
    Returns BoundResults in ascending time order.
    """
    times = list(times)
    # the one time rule checks each time before float() reads it
    ks = sde_sim.sample_indices(times, p.Delta)
    if not ks:
        raise InvalidParametersError("no probing times")
    times, ks = zip(*sorted(zip(map(float, times), ks)))
    return _bound_results(times, _squared_scores(p, prior, ks,
                                                 range(n_samples), seed,
                                                 substeps))


def _squared_scores(p: SpmParams, prior: GaussianPrior, ks, samples,
                    seed: int, substeps: int) -> np.ndarray:
    """(len(ks), len(samples)) array of the squared scores (dJ/d omega)^2
    of Monte-Carlo shots ``samples`` of ``seed``, each shot simulated to
    the last of the ascending sample counts ``ks`` and its score read at
    every one of them."""
    mu, var = pem._prior_terms(prior)[:2]
    sigma = math.sqrt(var)
    sq_scores = np.empty((len(ks), len(samples)))
    for col, m in enumerate(samples):
        omega, rec = sde_sim._mc_shot(p, mu, sigma, ks[-1], substeps, seed, m)
        sq_scores[:, col] = np.square(pem.neg_log_joint_score(
            omega, rec, p, prior, ks))
    return sq_scores


def _bound_results(times, sq_scores: np.ndarray) -> list:
    """The BoundResult at each of ``times`` from its row of the squared
    scores of every sample (``_squared_scores``): the inverted mean, with
    the jackknife error of the bound with each sample left out in turn."""
    n_samples = sq_scores.shape[1]
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
# the largest |omega| taken as a Larmor frequency: an alkali spin (about
# 2 pi x 7 GHz/T) in the strongest laboratory field (45 T) precesses at
# about 2e12 rad/s
OMEGA_MAX = 1e13
# Taylor coefficients (-1)^n / (n! (n + 3)) of ``_moment``; at |z| <= 1
# the last of them is below 1e-17 of the sum
_TAYLOR = [(-1) ** n / (math.factorial(n) * (n + 3)) for n in range(20)]
# beyond x = 700 the exp(-z) terms of ``_moment`` are below 1e-300 of the
# rest; past 745 exp(-x) is 0, and 0 times an overflowed z^2 would be nan
_EXP_RANGE = 700.0


def _closed_form(*names):
    """Decorate a closed form: its arguments are checked by
    ``model.checked``, and a value beyond float range becomes
    InvalidParametersError naming the arguments ``names``, whether a Python
    float power or quotient raised (OverflowError, or ZeroDivisionError
    where a tiny power underflowed to 0) or a product, such as a prefactor
    N^2 g_D^2 / R, came out inf, or nan where it met a 0."""
    def decorate(f):
        @functools.wraps(f)
        def in_range(*args, **kwargs):
            try:
                value = f(*args, **kwargs)
            except (OverflowError, ZeroDivisionError):
                value = math.nan
            if math.isfinite(value):
                return value
            given = inspect.signature(f).bind(*args, **kwargs).arguments
            raise InvalidParametersError(
                f"{f.__name__} is beyond float range at "
                + ", ".join(f"{name} = {given[name]!r}" for name in names))
        return model.checked(in_range)
    return decorate


def _fi_prefactor(p: SpmParams) -> float:
    return p.N ** 2 * p.g_D ** 2 / (4.0 * p.R)


@_closed_form("omega", "t")
def fi_noiseless_discrete(omega: float, t: NonNegative,
                          p: SpmParams) -> float:
    """Fisher information of the sampled damped sinusoid: the sum over the
    samples t_j = j*Delta that a record of duration t holds, counted as
    ``simulate`` counts them (:func:`sde_sim.sample_indices`); a duration
    below Delta/2 holds none, and its information is 0."""
    t2 = model.coherence_time(p)
    tj = p.Delta * np.arange(1, sde_sim._sample_count(t, p.Delta) + 1)
    terms = np.exp(-2.0 * tj / t2) * tj ** 2 * np.sin(omega * tj) ** 2
    return _fi_prefactor(p) * p.Delta * float(terms.sum())


def _moment(z: complex) -> complex:
    """g(z) = integral over [0, 1] of u^2 exp(-z u) du: the Taylor series
    sum_n (-z)^n / (n! (n + 3)) where |z| <= 1, else the closed form
    (2 - exp(-z) (z^2 + 2 z + 2)) / z^3, whose numerator cancels to
    about z^3 / 3 at small |z|; where z^3 leaves float range (|z| beyond
    about 5.6e102), the same divided through by z before the numerator is
    formed, ((2/z - exp(-z) (z + 2 + 2/z)) / z) / z."""
    if abs(z) <= 1.0:
        return sum(c * z ** n for n, c in enumerate(_TAYLOR))
    try:
        return (2.0 - cmath.exp(-z) * (z * z + 2.0 * z + 2.0)) / z ** 3
    except OverflowError:
        return (2.0 / z - cmath.exp(-z) * (z + 2.0 + 2.0 / z)) / z / z


def _continuous(omega: float, t: float, x: float, p: SpmParams) -> float:
    """The prefactor times the integral of exp(-x tau/t) tau^2
    sin^2(omega tau) over [0, t], which is t^3 (g(x) - Re g(z)) / 2 in
    closed form, with z = x - 2i omega t and g of ``_moment``: the one
    closed form of :func:`fi_noiseless_continuous` (x = 2t/T2) and of
    :func:`fi_no_decoherence` (x = 0).  Where |z| <= 1 the difference is
    one joint series in D_n = x^n - Re z^n, so the (omega t)^2 that two
    separate series would cancel is kept.  Where x is beyond
    ``_EXP_RANGE`` the exp(-z) terms are below double precision and the
    value is :func:`fi_asymptotic`'s, the t -> infinity limit.  t^3 is
    taken as m^3 2^(3e) with t = m 2^e, and 2^(3e) is applied last, so
    that a value in float range is lost neither to a partial product that
    overflows nor to one below the normal range (a subnormal t^3 below t
    of about 2.8e-103)."""
    if x > _EXP_RANGE:
        return fi_asymptotic(omega, p)
    y = -2.0 * omega * t
    z = complex(x, y)
    if abs(z) > 1.0:
        # complex(x) takes z's arithmetic, so omega = 0 gives exactly 0
        diff = _moment(complex(x)).real - _moment(z).real
    else:
        # D_n = x D_(n-1) + y Im z^(n-1), with D_0 = D_1 = 0
        diff, d, zn = 0.0, 0.0, 1.0 + 0j
        for c in _TAYLOR[1:]:
            d, zn = x * d + y * zn.imag, zn * z
            diff += c * d
    m, e = math.frexp(t)
    return math.ldexp(_fi_prefactor(p) * m ** 3 * diff / 2.0, 3 * e)


@_closed_form("omega", "t")
def fi_noiseless_continuous(omega: float, t: NonNegative,
                            p: SpmParams) -> float:
    """Continuous-probing limit of the Fisher information: the prefactor
    times the integral of exp(-2 tau/T2) tau^2 sin^2(omega tau) over
    [0, t], the x = 2t/T2 case of the closed form ``_continuous``.  The
    relative error is below 4e-15 for |omega| T2 >= 1 (against 300-digit
    arithmetic); below that, g(x) - Re g(z) cancels where |z| > 1, and the
    error grows as about 1e-15 / (omega T2)^2 (7e-6 at omega = 0.01 rad/s
    with T2 = 0.87 ms).  An |omega| beyond the physical range
    ``OMEGA_MAX`` raises InvalidParametersError naming omega and t."""
    if abs(omega) > OMEGA_MAX:
        raise InvalidParametersError(
            f"fi_noiseless_continuous omega = {omega!r} at t = {t!r} is "
            f"beyond the physical range |omega| <= {OMEGA_MAX:g} rad/s")
    return _continuous(omega, t, 2.0 * t / model.coherence_time(p), p)


@_closed_form("omega", "t")
def fi_short_time(omega: float, t: NonNegative, p: SpmParams) -> float:
    """Leading t^5 expansion, valid for omega*t << 1 and t << T2."""
    return p.g_D ** 2 * p.N ** 2 * omega ** 2 * t ** 5 / (20.0 * p.R)


@_closed_form("omega")
def fi_asymptotic(omega: float, p: SpmParams) -> float:
    """t -> infinity value; finite because of the coherence-time cutoff."""
    t2 = model.coherence_time(p)
    x2 = (omega * t2) ** 2
    # x2 (x2^2 + 3 x2 + 6) / (1 + x2)^3 as x2 / d in [0, 1) times
    # 1 + (x2 + 5) / d^2 in (1, 6], with d = 1 + x2, met by t2^3 before
    # the prefactor, so that neither a large x2 nor a tiny omega at a huge
    # T2 overflows a partial product
    d = 1.0 + x2
    return (t2 ** 3 * (x2 / d) * (1.0 + (x2 + 5.0) / d / d)
            * (p.N ** 2 * p.g_D ** 2 / (32.0 * p.R)))


@_closed_form("omega", "t")
def fi_no_decoherence(omega: float, t: NonNegative, p: SpmParams) -> float:
    """T2 -> infinity Fisher information (pure sinusoid): the x = 0 case of
    the closed form ``_continuous``, the prefactor times the integral of
    tau^2 sin^2(omega tau) over [0, t].  Its relative error is below 3e-15
    at every omega t from 1e-8 to 1e3 and at t from 1e-105, where t^3 is
    below the normal range, to 1e110 (against 300-digit arithmetic).
    Unlike :func:`fi_noiseless_continuous` it has no ``OMEGA_MAX`` limit."""
    return _continuous(omega, t, 0.0, p)


@_closed_form("sigma_omega")
def noiseless_bcrb_floor(p: SpmParams, sigma_omega: Positive) -> float:
    """Universal long-time lower bound on the average MSE for any estimator
    (one-sided: the prior average of the asymptotic information is majorized,
    so exact saturation is not expected)."""
    t2 = model.coherence_time(p)
    info = p.N ** 2 * p.g_D ** 2 * t2 ** 3 / (25.6 * p.R)
    if info == math.inf:  # the bound would read 0
        raise OverflowError
    return 1.0 / (info + 1.0 / sigma_omega ** 2)


@functools.cache
def _hermite_rule(nodes: int) -> tuple:
    """(nodes, weights) of the ``nodes``-point Gauss-Hermite rule, read-only
    and computed once per node count (an eigenvalue solve, about 0.5 ms
    at 41 nodes)."""
    # imported on first use: at module top numpy.polynomial adds about 4 ms
    # to importing the package
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@_closed_form("sigma_omega")
def bcrb_analytic_gaussian_prior(p: SpmParams, sigma_omega: Positive,
                                 t: NonNegative) -> float:
    """Noiseless Bayesian bound 1 / (sigma^-2 + E_prior[I_F]) with the prior
    expectation of :func:`fi_noiseless_continuous` taken by
    ``HERMITE_NODES``-point Gauss-Hermite quadrature over omega; a spread
    so wide that a node lies beyond ``OMEGA_MAX``, or a node's information
    beyond float range, raises InvalidParametersError as
    :func:`fi_noiseless_continuous` does."""
    precision = 1.0 / sigma_omega ** 2
    x, w = _hermite_rule(HERMITE_NODES)
    omegas = (p.omega_bar + math.sqrt(2.0) * sigma_omega * x).tolist()
    # the information with its range rule but without ``model.checked``,
    # which would bind and check at every node the p and t checked above
    information = fi_noiseless_continuous.__wrapped__
    values = np.array([information(om, t, p) for om in omegas])
    with np.errstate(over="ignore"):  # an overflow is raised below
        expected = float(np.dot(w, values)) / math.sqrt(math.pi)
    if expected == math.inf:  # the bound would read 0
        raise OverflowError
    return 1.0 / (precision + expected)
