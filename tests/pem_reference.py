"""Golden-section, Brent and grid-start Fisher-scoring MAP refinements,
central-difference Bayesian bound and the likelihood recursion with its
coefficients written out in every step, kept as the test oracles of
``spinfid.pem`` and ``spinfid.bounds``.

``map_estimates`` and the bound's two pieces, ``squared_scores`` and
``bound_results``, are the two estimators as they ran before both read the
exact score by complex step, with the same arithmetic: installed as
``pem.map_estimates``, ``bounds._squared_scores`` and
``bounds._bound_results`` they reproduce the outputs that the pinned
digests in ``test_recorded_outputs.py`` were recorded from bit for bit.
The MAP fit refines the grid minimum by a golden-section search to
``MAP_TOL``; the bound validates one central-difference step on the first
sample and reuses it for every sample and probing time.
``brent_map_estimates`` is the MAP fit as it ran before Fisher scoring:
Brent's method on the exact score, then a float pass for J.
``grid_start_map_estimates`` is the Fisher-scoring fit as it ran before it
started at the vertex of the grid parabola: it starts at the grid minimum.
``neg_log_joint_prefixes`` is the likelihood pass as it ran before its loop
invariants were computed once per pass, with the gains and the mean
advanced in one loop.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import optimize

from spinfid import bounds, model, pem, sde_sim
from spinfid.errors import InvalidParametersError, MapBoundaryError
from spinfid.model import Constant

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

GRADIENT_STEP_FRACTION = 1e-4   # of the prior sigma
GRADIENT_STEP_RTOL = 1e-3
GRADIENT_STEP_MAX_HALVINGS = 6


def neg_log_joint_prefixes(omega, rec, p, prior, lengths):
    """Drop-in for ``pem.neg_log_joint_prefixes`` without ``innovations``:
    every product of ca and sa formed again in every step."""
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

    m1, m2 = (float(v) for v in prior.mean[1:])
    cov = prior.cov
    p11, p12, p22 = float(cov[1, 1]), float(cov[1, 2]), float(cov[2, 2])
    mu = float(prior.mean[0])
    var = float(prior.cov[0, 0])
    prior_term = 0.5 * (omega - mu) ** 2 / var

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
            # 2*ca*sa in both p11p and p22p: on a complex grid numpy's
            # complex multiply need not commute, so 2*sa*ca could differ
            p22p = sa * sa * p11 - 2.0 * ca * sa * p12 + ca * ca * p22 + b2

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
        start = k
        out.append(total + prior_term)
    return out


def map_estimates(rec, lengths, p, prior):
    """Drop-in for ``pem.map_estimates``: grid plus golden-section search."""
    lengths = list(lengths)
    if (not lengths or lengths[0] < 1 or lengths[-1] > len(rec.outcomes)
            or lengths != sorted(lengths)):
        raise InvalidParametersError(
            "record lengths must ascend within 1..len(record)")
    mu = float(prior.mean[0])
    sigma = math.sqrt(float(prior.cov[0, 0]))
    grid = np.linspace(mu - pem.MAP_BRACKET_SIGMAS * sigma,
                       mu + pem.MAP_BRACKET_SIGMAS * sigma, pem.MAP_GRID_POINTS)
    j_grids = pem.neg_log_joint_prefixes(grid, rec, p, prior, lengths)
    fits = []
    for k, j_grid in zip(lengths, j_grids):
        i = int(np.argmin(j_grid))
        if i == 0 or i == len(grid) - 1:
            raise MapBoundaryError(
                "MAP search hit the bracket edge; prior too narrow or data inconsistent")

        def j_of(w: float) -> float:
            return pem.neg_log_joint_prefixes(w, rec, p, prior, [k])[0]

        a, b = grid[i - 1], grid[i + 1]
        c = b - _INV_GOLDEN * (b - a)
        d = a + _INV_GOLDEN * (b - a)
        jc, jd = j_of(c), j_of(d)
        while b - a > pem.MAP_TOL:
            if jc < jd:
                b, d, jd = d, c, jc
                c = b - _INV_GOLDEN * (b - a)
                jc = j_of(c)
            else:
                a, c, jc = c, d, jd
                d = a + _INV_GOLDEN * (b - a)
                jd = j_of(d)
        omega_hat = c if jc < jd else d
        fits.append((float(omega_hat), min(jc, jd) / k))
    return fits


def brent_map_estimates(rec, lengths, p, prior):
    """Drop-in for ``pem.map_estimates``: grid plus Brent's method on the
    score between the grid neighbours of the grid minimum."""
    lengths = list(lengths)
    if (not lengths or lengths[0] < 1 or lengths[-1] > len(rec.outcomes)
            or lengths != sorted(lengths)):
        raise InvalidParametersError(
            "record lengths must ascend within 1..len(record)")
    mu = float(prior.mean[0])
    sigma = math.sqrt(float(prior.cov[0, 0]))
    grid = np.linspace(mu - pem.MAP_BRACKET_SIGMAS * sigma,
                       mu + pem.MAP_BRACKET_SIGMAS * sigma, pem.MAP_GRID_POINTS)
    j_grids = pem.neg_log_joint_prefixes(grid, rec, p, prior, lengths)
    fits = []
    for k, j_grid in zip(lengths, j_grids):
        i = int(np.argmin(j_grid))
        if i == 0 or i == len(grid) - 1:
            raise MapBoundaryError(
                "MAP search hit the bracket edge; prior too narrow or data inconsistent")

        def score(w: float) -> float:
            return pem.neg_log_joint_score(w, rec, p, prior, [k])[0]

        try:
            omega_hat = optimize.brentq(score, grid[i - 1], grid[i + 1],
                                        xtol=pem.MAP_TOL)
        except ValueError as exc:  # no sign change across the bracket
            raise MapBoundaryError(
                "the score has one sign across the MAP bracket") from exc
        j_hat = pem.neg_log_joint_prefixes(omega_hat, rec, p, prior, [k])[0]
        fits.append((omega_hat, j_hat / k))
    return fits


def grid_start_map_estimates(rec, lengths, p, prior):
    """Drop-in for ``pem.map_estimates``: Fisher scoring started at the grid
    minimum itself."""
    lengths = list(lengths)
    mu = float(prior.mean[0])
    sigma = math.sqrt(float(prior.cov[0, 0]))
    grid = np.linspace(mu - pem.MAP_BRACKET_SIGMAS * sigma,
                       mu + pem.MAP_BRACKET_SIGMAS * sigma, pem.MAP_GRID_POINTS)
    j_grids = pem.neg_log_joint_prefixes(grid, rec, p, prior, lengths)
    fits = []
    for k, j_grid in zip(lengths, j_grids):
        i = int(np.argmin(j_grid))
        if i == 0 or i == len(grid) - 1:
            raise MapBoundaryError(
                "MAP search hit the bracket edge; prior too narrow or data inconsistent")

        def terms(w: float) -> tuple[float, float, float]:
            return pem.score_and_information(w, rec, p, prior, k)

        omega_hat, j_hat = pem._score_root(terms, float(grid[i - 1]),
                                           float(grid[i]), float(grid[i + 1]))
        fits.append((omega_hat, j_hat / k))
    return fits


def _validated_step(omega, rec, p, prior, sigma_omega):
    """Halve the default step until halving changes the gradient by <= 1e-3
    relative (truncation under control), up to 6 halvings."""
    h = GRADIENT_STEP_FRACTION * sigma_omega
    grad = bounds.neg_log_joint_gradient(omega, rec, p, prior, h)
    for _ in range(GRADIENT_STEP_MAX_HALVINGS):
        grad_half = bounds.neg_log_joint_gradient(omega, rec, p, prior,
                                                  h / 2.0)
        denom = abs(grad_half) if grad_half != 0.0 else 1.0
        if abs(grad - grad_half) / denom <= GRADIENT_STEP_RTOL:
            return h
        h /= 2.0
        grad = grad_half
    return h


def squared_scores(p, prior, ks, samples, seed, substeps):
    """Drop-in for ``bounds._squared_scores``: the squared central-difference
    gradient of every truncated record of each of ``samples``, from one
    likelihood pass at omega + h and one at omega - h per sample, with h
    validated on sample 0 of the seed whichever samples are asked for."""
    mu = float(prior.mean[0])
    sigma = math.sqrt(float(prior.cov[0, 0]))

    def shot(m):
        rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                           spawn_key=(m,)))
        omega_true = mu + sigma * rng.standard_normal()
        _, rec = sde_sim.simulate(p, Constant(omega_true), ks[-1] * p.Delta,
                                  substeps=substeps, seed=rng)
        return omega_true, rec

    h = _validated_step(*shot(0), p, prior, sigma)
    sq_grads = np.empty((len(ks), len(samples)))
    for col, m in enumerate(samples):
        omega_true, rec = shot(m)
        j_plus = pem.neg_log_joint_prefixes(omega_true + h, rec, p,
                                            prior, ks)
        j_minus = pem.neg_log_joint_prefixes(omega_true - h, rec, p,
                                             prior, ks)
        for i, (jp, jm) in enumerate(zip(j_plus, j_minus)):
            grad = (jp - jm) / (2.0 * h)
            sq_grads[i, col] = grad * grad
    return sq_grads


def bound_results(times, sq_grads):
    """Drop-in for ``bounds._bound_results``: the inverted mean and the
    jackknife error at each time, a row at a time."""
    n_samples = sq_grads.shape[1]
    results = []
    for i, t in enumerate(times):
        row = sq_grads[i]
        total = row.sum()
        loo = (total - row) / (n_samples - 1)
        theta = 1.0 / loo
        std_err = math.sqrt((n_samples - 1) / n_samples
                            * np.sum((theta - theta.mean()) ** 2))
        results.append(bounds.BoundResult(1.0 / row.mean(), std_err,
                                          {"t": t, "samples": n_samples}))
    return results
