"""Exact linear-Gaussian likelihood for a fixed frequency, its exact score
and Fisher information, and MAP estimation of a constant Larmor frequency.

For fixed omega the spin subsystem is linear-Gaussian, so the innovation
form of the Kalman filter gives the exact negative log-joint

    J(omega) = 1/2 sum_j [ (y_j - C m_j^-)^2 / S_j + ln S_j ]
               + (omega - omega_prior)^2 / (2 sigma^2)

up to omega-independent constants.  The recursion has two halves, each
written once and unrolled into scalars because they sit in the inner loop
of every Monte-Carlo experiment.  ``_gains`` is the Riccati half: the spin
covariance, the gains and the innovation variances S_j, which the data
never enter (Anderson & Moore, *Optimal Filtering*, 1979).
``neg_log_joint_prefixes`` is the data half: the spin mean and the running
sum J.  Both take omega as a float, a complex number or a numpy grid, and
J, being a running sum, is returned for every requested record prefix from
a single pass; the scalar likelihood, the grid, the MAP fit at several
probing times and the bound's score are all read from it.  The gains of a
grid are kept in one read-only table and reused by every record with the
same grid, parameters and spin prior, so a grid pass over a new record
runs only the data half.

The score dJ/d omega is the complex-step derivative Im J(omega + i eps)/eps
(Squire & Trapp, SIAM Review 40(1), 1998): no difference is taken, so it is
exact to rounding, with no step to tune.  The same complex pass carries the
derivatives of every innovation and of every S_j, and so the Fisher
information of omega (Segal & Weinstein, IEEE Trans. Inf. Theory 35(3),
1989), which the MAP fit uses for its Fisher-scoring steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import InvalidParametersError, MapBoundaryError
from .model import GaussianPrior, SpmParams
from .sde_sim import MeasurementRecord

MAP_GRID_POINTS = 201
MAP_BRACKET_SIGMAS = 5.0
MAP_TOL = 1e-3  # rad/s, absolute
SCORE_STEP = 1e-20  # complex step of the score, in prior sigmas
_MAX_PASSES = 100  # complex passes one MAP fit may take

# The most memory a grid's gain table may hold: 16 MiB is 2,600 steps of
# the 201-point MAP grid.  A longer record streams its gains instead.
_TABLE_BYTES = 16 * 2 ** 20

# the one gain table kept: {key: read-only (steps, 4, *grid.shape) array}
_gain_memo: dict = {}


@dataclass(frozen=True)
class LikelihoodEval:
    omega: float
    neg_log_joint: float
    residuals: np.ndarray        # y_j - C m_j^-
    innovation_vars: np.ndarray  # S_j


def _functions(omega):
    """(cos, sin, log) for the kind of omega.  A float keeps math's (numpy's
    log differs from it in the last bit for a few doubles in a million), a
    complex omega takes cmath's and an array numpy's."""
    if isinstance(omega, np.ndarray):
        return np.cos, np.sin, np.log
    if isinstance(omega, complex):
        return cmath.cos, cmath.sin, cmath.log
    return math.cos, math.sin, math.log


def _rotation(omega, p: SpmParams):
    """(e cos(omega Delta), e sin(omega Delta)) with e = exp(-Delta/T2): the
    damped rotation of the spin over one sample."""
    cos, sin, _ = _functions(omega)
    e = math.exp(-p.Delta / model.coherence_time(p))
    return e * cos(omega * p.Delta), e * sin(omega * p.Delta)


def _gains(omega, p: SpmParams, prior_spin: GaussianPrior):
    """Yield (k1, k2, S_j, ln S_j) for steps j = 1, 2, ... without end.

    The covariance half of the recursion: it depends on omega, the
    parameters and the spin prior's covariance, never on the data.  The
    products of the step's coefficients are formed once, each rounded as
    the expression it replaces in the written-out recursion (c*c*p is
    (c*c)*p, and 2*s*c equals 2*c*s exactly), so every J keeps its last
    bit.
    """
    log = _functions(omega)[2]
    ca, sa = _rotation(omega, p)
    b2 = model.discrete_spin_noise_var(p.q, p.N, p.Delta,
                                       model.coherence_time(p))
    g = p.g_D
    r = model.measurement_noise_variance(p)
    cov = prior_spin.cov
    p11, p12, p22 = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])

    cc, ss, cs = ca * ca, sa * sa, ca * sa
    two_cs, neg_cs, cc_ss = 2.0 * ca * sa, -ca * sa, cc - ss
    g2 = g * g
    while True:
        p11p = cc * p11 + two_cs * p12 + ss * p22 + b2
        p12p = neg_cs * p11 + cc_ss * p12 + cs * p22
        p22p = ss * p11 - two_cs * p12 + cc * p22 + b2

        s_var = r + g2 * p22p
        k1 = g * p12p / s_var
        k2 = g * p22p / s_var
        s_k1 = s_var * k1
        p11 = p11p - s_k1 * k1
        p12 = p12p - s_k1 * k2
        p22 = p22p - s_var * k2 * k2
        yield k1, k2, s_var, log(s_var)


def _grid_gains(omega: np.ndarray, p: SpmParams, prior_spin: GaussianPrior,
                steps: int):
    """The gains of the first ``steps`` steps of a grid, from the kept table.

    The table is keyed on the grid's bytes, the parameters and the spin
    prior's covariance; a request it cannot serve evicts it before the new
    one is built.  A table over ``_TABLE_BYTES`` is not kept: its gains are
    streamed from ``_gains`` as for a scalar omega.
    """
    key = (omega.dtype.str, omega.shape, omega.tobytes(), repr(p),
           prior_spin.cov.tobytes())
    table = _gain_memo.get(key)
    if table is not None and len(table) >= steps:
        return table
    _gain_memo.clear()
    dtype = np.result_type(omega, float)
    if 4 * steps * omega.size * dtype.itemsize > _TABLE_BYTES:
        return _gains(omega, p, prior_spin)
    table = np.empty((steps, 4) + omega.shape, dtype)
    for row, gains in zip(table, _gains(omega, p, prior_spin)):
        row[...] = gains
    table.flags.writeable = False
    _gain_memo[key] = table
    return table


def neg_log_joint_prefixes(omega, rec: MeasurementRecord, p: SpmParams,
                           prior_omega: GaussianPrior,
                           prior_spin: GaussianPrior, lengths,
                           innovations: list | None = None) -> list:
    """J of the first k samples for each k in ascending ``lengths`` (repeats
    allowed), from one strict left-to-right pass over the record.

    ``omega`` is a float, a complex number or an array of frequencies; one
    body serves all three, because ``*``, ``+`` and ``/`` round alike on
    Python floats and float64 arrays.  An array takes its gains from the
    kept table (see ``_grid_gains``), a scalar from ``_gains`` step by
    step; both give the same bits.  ``innovations``, if given, receives
    (residual, S_j) for every sample processed.  A non-finite J raises
    FloatingPointError; lengths that are empty, do not ascend or leave
    1..len(record) raise InvalidParametersError before any pass or table.
    """
    lengths = list(lengths)
    if (not lengths or lengths[0] < 1 or lengths[-1] > len(rec.outcomes)
            or lengths != sorted(lengths)):
        raise InvalidParametersError(
            "record lengths must ascend within 1..len(record)")
    ca, sa = _rotation(omega, p)
    neg_sa = -sa
    g = p.g_D
    if isinstance(omega, np.ndarray):
        gains = iter(_grid_gains(omega, p, prior_spin, lengths[-1]))
    else:
        gains = _gains(omega, p, prior_spin)

    m1, m2 = (float(v) for v in prior_spin.mean)
    mu = float(prior_omega.mean[0])
    var = float(prior_omega.cov[0, 0])
    prior = 0.5 * (omega - mu) ** 2 / var

    ys = rec.outcomes[:lengths[-1]].tolist()
    out = []
    total = 0.0
    start = 0
    for k in lengths:
        # zip reads the sample first, so no step past k is taken
        for y, (k1, k2, s_var, ln_s) in zip(ys[start:k], gains):
            m1p = ca * m1 + sa * m2
            m2p = neg_sa * m1 + ca * m2
            resid = y - g * m2p
            m1 = m1p + k1 * resid
            m2 = m2p + k2 * resid
            total += 0.5 * (resid * resid / s_var + ln_s)
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


def score_and_information(omega: float, rec: MeasurementRecord, p: SpmParams,
                          prior_omega: GaussianPrior,
                          prior_spin: GaussianPrior,
                          k: int) -> tuple[float, float, float]:
    """(J, dJ/d omega, I) at ``omega`` of the first k samples, from one
    complex pass at omega + i SCORE_STEP sigma.

    I = sum_j (d eps_j/d omega)^2 / S_j + (d S_j/d omega / S_j)^2 / 2
    + 1/sigma^2 is the Fisher information of omega given the record's first
    k samples, read off the imaginary parts of the innovations eps_j and of
    the S_j.  J is the real part of the pass, equal to the float pass's J
    to O(eps^2).
    """
    var = float(prior_omega.cov[0, 0])
    eps = SCORE_STEP * math.sqrt(var)
    innovations = []
    j, = neg_log_joint_prefixes(complex(omega, eps), rec, p, prior_omega,
                                prior_spin, [k], innovations)
    resid, s_var = np.array(innovations).T
    d_resid, s, d_s = resid.imag / eps, s_var.real, s_var.imag / eps
    info = float(np.sum(d_resid * d_resid / s + 0.5 * (d_s / s) ** 2))
    return j.real, j.imag / eps, info + 1.0 / var


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


def _score_root(terms, lo: float, w: float, hi: float) -> tuple[float, float]:
    """(omega, J) at the root of the score in (lo, hi), by Fisher scoring
    from w.

    ``terms(omega)`` is (J, score, I).  Safeguarded as Numerical Recipes'
    rtsafe: a step that leaves the bracket, or that does not halve the
    step before it, bisects instead.  Every pass moves an end of the
    bracket, whose ends are the grid neighbours until a score read there
    replaces them.  A fit ends at a pass whose step is within MAP_TOL once
    scores of both signs have been read, so the root is bracketed; scoring
    that closes in from one side takes one step a quarter of MAP_TOL past
    the root to read the other sign.  A bracket that closes on an end
    whose score has the sign of every score read raises MapBoundaryError.
    """
    neg_seen = pos_seen = False
    dx_old = hi - lo
    for _ in range(_MAX_PASSES):
        j, score, info = terms(w)
        if score < 0.0:
            lo, neg_seen = w, True
        else:
            hi, pos_seen = w, True
        dx = score / info
        if neg_seen and pos_seen and min(abs(dx), hi - lo) <= MAP_TOL:
            return w, j
        if hi - lo <= MAP_TOL:
            end = hi if neg_seen else lo  # the grid neighbour never read
            j, score, _ = terms(end)
            if (score < 0.0) == neg_seen:
                raise MapBoundaryError(
                    "the score has one sign across the MAP bracket")
            return end, j
        if abs(dx) <= MAP_TOL:
            dx += math.copysign(0.25 * MAP_TOL, dx)
        if not lo < w - dx < hi or abs(2.0 * dx) > abs(dx_old):
            dx = w - 0.5 * (lo + hi)
        dx_old = dx
        w -= dx
    raise MapBoundaryError(
        f"the score iteration did not converge in {_MAX_PASSES} passes")


def map_estimates(rec: MeasurementRecord, lengths, p: SpmParams,
                  prior_omega: GaussianPrior,
                  prior_spin: GaussianPrior) -> list[tuple[float, float]]:
    """:func:`map_estimate` of ``rec.truncated(k)`` for each k in ascending
    ``lengths``; one likelihood pass gives the grid at every k."""
    lengths = list(lengths)
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

        def terms(w: float) -> tuple[float, float, float]:
            return score_and_information(w, rec, p, prior_omega, prior_spin, k)

        omega_hat, j_hat = _score_root(terms, float(grid[i - 1]),
                                       float(grid[i]), float(grid[i + 1]))
        fits.append((omega_hat, j_hat / k))
    return fits


def map_estimate(rec: MeasurementRecord, p: SpmParams,
                 prior_omega: GaussianPrior,
                 prior_spin: GaussianPrior) -> tuple[float, float]:
    """MAP frequency estimate by coarse grid plus Fisher scoring on the
    exact score.

    Searches omega within +-5 prior sigmas (prior mass 1 - 6e-7); a grid
    locates the global basin despite likelihood side-lobes, then Fisher
    scoring, omega <- omega - score/I, finds the zero of dJ/d omega between
    the grid neighbours of the grid minimum, to 1e-3 rad/s, with bisection
    as its safeguard (``_score_root``).  Returns (omega_hat, J(omega_hat)/k),
    J read from the last complex pass.  A minimum on the grid's edge, or a
    score of one sign between its neighbours, raises MapBoundaryError.
    """
    return map_estimates(rec, [len(rec.outcomes)], p, prior_omega,
                         prior_spin)[0]
