"""Exact linear-Gaussian likelihood for a fixed frequency, its exact score
and Fisher information, and MAP estimation of a constant Larmor frequency.

For fixed omega the spin subsystem is linear-Gaussian, so the innovation
form of the Kalman filter gives the exact negative log-joint

    J(omega) = 1/2 sum_j [ (y_j - C m_j^-)^2 / S_j + ln S_j ]
               + (omega - omega_prior)^2 / (2 sigma^2)

up to omega-independent constants.  The recursion has two halves, which
sit in the inner loop of every Monte-Carlo experiment.  ``_gains`` is the
Riccati half: the spin covariance, the gains and the innovation variances
S_j, which the data never enter (Anderson & Moore, *Optimal Filtering*,
1979).  It is written once, unrolled into scalars, and takes omega as a
float, a complex number or a numpy grid.  ``neg_log_joint_prefixes`` is the
data half: the spin mean and the running sum J, in two bodies.  A float or
complex omega runs the Python-scalar loop ``_scalar_totals``; a grid runs
the block body ``_block_totals``, which advances the stacked mean in 7
ufunc calls a step and forms and sums J's terms a block of steps at a
time.  J, being a running sum, is returned for every requested record
prefix from a single pass; the scalar likelihood, the grid, the MAP fit at
several probing times and the bound's score are all read from it.  The
gains of a grid are kept in one read-only table and reused by every record
with the same grid, parameters and spin prior, so a grid pass over a new
record runs only the data half.

The score dJ/d omega is the complex-step derivative Im J(omega + i eps)/eps
(Squire & Trapp, SIAM Review 40(1), 1998): no difference is taken, so it is
exact to rounding, with no step to tune.  The same complex pass carries the
derivatives of every innovation and of every S_j, and so the Fisher
information of omega (Segal & Weinstein, IEEE Trans. Inf. Theory 35(3),
1989), which the MAP fit uses for its Fisher-scoring steps.  They start
at the vertex of the parabola through the grid minimum and its neighbours,
a median 2 rad/s from the root on the reference fixture (190 rad/s for the
grid minimum), where a fit takes two or three complex passes.
"""

from __future__ import annotations

import cmath
import math
import numbers
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

# Steps of a grid pass whose residuals are held, and whose J terms are
# then formed and summed at once: 64 steps of the MAP grid are 100 KiB.
_BLOCK = 64


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


def _prior_terms(prior: GaussianPrior) -> tuple:
    """(mu, var, (m1, m2), (p11, p12, p22)) of a prior over (omega, J_y,
    J_z), the only place a prior is split.  InvalidParametersError unless
    it is 3-dim, omega is uncorrelated with the spin and var > 0."""
    mean, cov = prior.mean.tolist(), prior.cov
    if (len(mean) != 3 or cov[0, 1:].any() or cov[1:, 0].any()
            or not cov[0, 0] > 0.0):
        raise InvalidParametersError(
            "need a prior over (omega, J_y, J_z) with omega uncorrelated "
            "with the spin and of variance > 0")
    return (mean[0], float(cov[0, 0]), tuple(mean[1:]),
            (float(cov[1, 1]), float(cov[1, 2]), float(cov[2, 2])))


def _gains(omega, p: SpmParams, spin_cov: tuple):
    """Yield (k1, k2, S_j, ln S_j) for steps j = 1, 2, ... without end.

    The covariance half of the recursion: it depends on omega, the
    parameters and the spin prior's covariance (p11, p12, p22), never on
    the data.  The products of the step's coefficients are formed once,
    each rounded as the expression it replaces in the written-out
    recursion (c*c*p is (c*c)*p and 2*c*s*p is (2*c*s)*p, with every
    product's operands in their written order: numpy's complex multiply
    need not commute), so every J keeps its last bit.
    """
    log = _functions(omega)[2]
    ca, sa = _rotation(omega, p)
    b2 = model.discrete_spin_noise_var(p.q, p.N, p.Delta,
                                       model.coherence_time(p))
    g = p.g_D
    r = model.measurement_noise_variance(p)
    p11, p12, p22 = spin_cov

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


def _gain_blocks(omega: np.ndarray, p: SpmParams, spin_cov: tuple,
                 steps: int):
    """The gains of the first ``steps`` steps of a grid, as successive
    (n, 4, *grid.shape) blocks of n <= _BLOCK steps.

    They are slices of the kept table, which is keyed on the grid's bytes,
    the parameters and the spin prior's covariance; a request it cannot
    serve evicts it before the new one is built.  A table over
    ``_TABLE_BYTES`` is not kept: its gains are streamed from ``_gains``
    into one block buffer, as for a scalar omega.
    """
    key = (omega.dtype.str, omega.shape, omega.tobytes(), repr(p),
           repr(spin_cov))
    table = _gain_memo.get(key)
    if table is None or len(table) < steps:
        _gain_memo.clear()
        dtype = np.result_type(omega, float)
        if 4 * steps * omega.size * dtype.itemsize > _TABLE_BYTES:
            return _streamed_blocks(_gains(omega, p, spin_cov), np.empty(
                (_BLOCK, 4) + omega.shape, dtype), steps)
        table = np.empty((steps, 4) + omega.shape, dtype)
        for row, gains in zip(table, _gains(omega, p, spin_cov)):
            row[...] = gains
        table.flags.writeable = False
        _gain_memo[key] = table
    return [table[i:min(i + _BLOCK, steps)] for i in range(0, steps, _BLOCK)]


def _streamed_blocks(gains, buffer: np.ndarray, steps: int):
    """Blocks of ``_gain_blocks`` filled in ``buffer`` from the ``gains``
    stream; each is overwritten by the next."""
    for i in range(0, steps, _BLOCK):
        block = buffer[:min(_BLOCK, steps - i)]
        # zip reads the row first, so no step past ``steps`` is taken
        for row, gains_j in zip(block, gains):
            row[...] = gains_j
        yield block


def _scalar_totals(omega, ys: list, lengths: list, p: SpmParams,
                   mean: tuple, spin_cov: tuple, innovations):
    """The data half for a float or complex omega, in Python scalars: the
    sum of J's data terms at each of ``lengths``."""
    ca, sa = _rotation(omega, p)
    neg_sa = -sa
    g = p.g_D
    m1, m2 = mean
    gains = _gains(omega, p, spin_cov)
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
                innovations += resid, s_var
        start = k
        yield total


def _block_totals(omega: np.ndarray, outcomes: np.ndarray, lengths: list,
                  p: SpmParams, mean: tuple, spin_cov: tuple):
    """The data half for an array omega: ``_scalar_totals`` with the mean
    advanced as one (2, *grid.shape) array in 7 ufunc calls a step, and the
    terms of J formed and summed for a block of _BLOCK steps at once.

    Each element takes the IEEE operations of the scalar loop, every
    product with its operands in their order (the two products of the
    second mean component are only added the other way round), and the
    running sum is the block's sequential cumulative sum, so J keeps its
    bits.  A yielded total is a view that the next block overwrites.
    """
    ca, sa = _rotation(omega, p)
    dtype = np.result_type(omega, float)
    steps = lengths[-1]
    mul, add, sub = np.multiply, np.add, np.subtract
    g = np.array(p.g_D)  # 0-d operands are passed faster than floats
    # mp = ca2 * m + sa2 * m[::-1] is (ca m1 + sa m2, ca m2 - sa m1)
    ca2, sa2 = np.stack((ca, ca)), np.stack((sa, -sa))
    m = np.empty((2,) + omega.shape, dtype)
    m[0], m[1] = mean
    m_swapped = m[::-1]
    mp, tmp = np.empty_like(m), np.empty_like(m)
    m2p, g_m2p = mp[1, ...], np.empty(omega.shape, dtype)
    resid = np.empty((_BLOCK,) + omega.shape, dtype)
    resid_rows = [resid[i, ...] for i in range(_BLOCK)]
    terms = np.empty_like(resid)

    total = 0.0
    start = 0
    wanted = iter(lengths)
    k = next(wanted)
    for gains in _gain_blocks(omega, p, spin_cov, steps):
        n = len(gains)
        y_rows = [outcomes[i, ...] for i in range(start, start + n)]
        for y, k12, r in zip(y_rows, gains[:, :2], resid_rows):
            mul(ca2, m, mp)
            mul(sa2, m_swapped, tmp)
            add(mp, tmp, mp)
            mul(g, m2p, g_m2p)
            sub(y, g_m2p, r)
            mul(k12, r, tmp)
            add(mp, tmp, m)
        # 0.5 (r^2 / S + ln S) for the block, then the running sum
        block = terms[:n]
        mul(resid[:n], resid[:n], block)
        np.divide(block, gains[:, 2], block)
        add(block, gains[:, 3], block)
        mul(0.5, block, block)
        block[0] += total
        np.cumsum(block, axis=0, out=block)
        while k <= start + n:
            yield block[k - 1 - start]
            k = next(wanted, steps + 1)
        total = block[n - 1].copy()
        start += n


def neg_log_joint_prefixes(omega, rec: MeasurementRecord, p: SpmParams,
                           prior: GaussianPrior, lengths,
                           innovations: list | None = None) -> list:
    """J of the first k samples for each k in ascending ``lengths`` (repeats
    allowed), from one strict left-to-right pass over the record.

    ``omega`` is a float, a complex number or an array of frequencies.  A
    scalar runs the Python-scalar loop (``_scalar_totals``), its gains
    drawn from ``_gains`` step by step; an array runs the block body
    (``_block_totals``), its gains read from the kept table (see
    ``_gain_blocks``).  Both give the bits of the one recursion.
    ``innovations``, if given, takes a scalar omega only and is extended
    by the residual and S_j, in turn, of every sample processed.  A
    non-finite J raises FloatingPointError; bad lengths
    (``rec.check_lengths``), another sampling period than p.Delta, an
    omega that is a bool, no number or an array of none, a non-finite
    omega, a bad prior (``_prior_terms``) and innovations asked of an
    array raise InvalidParametersError before any pass.
    """
    lengths = rec.check_lengths(lengths)
    rec.check_delta(p.Delta)
    if not (omega.dtype.kind in "iufc" if isinstance(omega, np.ndarray)
            else model._holds(omega, numbers.Number)):
        raise InvalidParametersError(
            f"omega must be a number or an array of numbers, got {omega!r}")
    if model._holds(omega, numbers.Real):
        # np.isfinite cannot read a Python int beyond numpy's integers;
        # the rule takes one in float range and refuses one beyond it
        model.check_value("likelihood", "omega", omega, "float")
    elif not np.isfinite(omega).all():
        raise InvalidParametersError(f"omega must be finite, got {omega!r}")
    mu, var, mean, spin_cov = _prior_terms(prior)
    if not isinstance(omega, np.ndarray):
        totals = _scalar_totals(omega, rec.outcomes[:lengths[-1]].tolist(),
                                lengths, p, mean, spin_cov, innovations)
    elif innovations is None:
        totals = _block_totals(omega, rec.outcomes, lengths, p, mean,
                               spin_cov)
    else:
        raise InvalidParametersError(
            "innovations are read for a scalar omega only")
    prior_term = 0.5 * (omega - mu) ** 2 / var
    # each total is read before the pass goes on
    out = [total + prior_term for total in totals]
    # a sum that is finite at the longest prefix is finite at every one
    if not np.isfinite(out[-1]).all():
        raise FloatingPointError("non-finite negative log-joint accumulation")
    return out


def neg_log_joint_score(omega: float, rec: MeasurementRecord, p: SpmParams,
                        prior: GaussianPrior, lengths) -> list[float]:
    """dJ/d omega at ``omega`` of the first k samples for each k in ascending
    ``lengths``, from one complex pass at omega + i SCORE_STEP sigma."""
    eps = SCORE_STEP * math.sqrt(_prior_terms(prior)[1])
    return [j.imag / eps for j in neg_log_joint_prefixes(
        complex(omega, eps), rec, p, prior, lengths)]


def score_and_information(omega: float, rec: MeasurementRecord, p: SpmParams,
                          prior: GaussianPrior,
                          k: int) -> tuple[float, float, float]:
    """(J, dJ/d omega, I) at ``omega`` of the first k samples, from one
    complex pass at omega + i SCORE_STEP sigma.

    I = sum_j (d eps_j/d omega)^2 / S_j + (d S_j/d omega / S_j)^2 / 2
    + 1/sigma^2 is the Fisher information of omega given the record's first
    k samples, read off the imaginary parts of the innovations eps_j and of
    the S_j.  J is the real part of the pass, equal to the float pass's J
    to O(eps^2).
    """
    var = _prior_terms(prior)[1]
    eps = SCORE_STEP * math.sqrt(var)
    innovations = []
    j, = neg_log_joint_prefixes(complex(omega, eps), rec, p, prior, [k],
                                innovations)
    flat = np.array(innovations)
    resid, s_var = flat[0::2], flat[1::2]
    d_resid, s, d_s = resid.imag / eps, s_var.real, s_var.imag / eps
    info = float(np.sum(d_resid * d_resid / s + 0.5 * (d_s / s) ** 2))
    return j.real, j.imag / eps, info + 1.0 / var


def kalman_neg_log_joint(omega: float, rec: MeasurementRecord, p: SpmParams,
                         prior: GaussianPrior) -> LikelihoodEval:
    """Negative log-joint of (record, omega); additive constants dropped.

    Accumulation is strict left-to-right over the record, so equal inputs
    reproduce bit-identical values.
    """
    innovations = []
    total, = neg_log_joint_prefixes(omega, rec, p, prior,
                                    [len(rec.outcomes)], innovations)
    flat = np.array(innovations, dtype=float)
    return LikelihoodEval(omega, total, flat[0::2], flat[1::2])


def neg_log_joint_grid(omegas: np.ndarray, rec: MeasurementRecord, p: SpmParams,
                       prior: GaussianPrior) -> np.ndarray:
    """J over a grid of omega values (the same recursion, broadcast over the
    omega axis)."""
    return neg_log_joint_prefixes(model.real_array(omegas, "omega grid"), rec,
                                  p, prior, [len(rec.outcomes)])[0]


def _vertex(lo: float, w: float, hi: float, a: float, b: float,
            c: float) -> float:
    """The vertex of the parabola through (lo, a), (w, b), (hi, c), three
    evenly spaced grid points (parabolic interpolation, Numerical Recipes
    section 10.2).  With a > b <= c, as at the first minimum of a grid, the
    denominator is > 0 and |a - c| does not exceed it, so the vertex lies
    within half a step of w, strictly inside (lo, hi)."""
    return w + 0.25 * (hi - lo) * ((a - c) / ((a - b) + (c - b)))


def _score_root(terms, lo: float, w: float, hi: float) -> tuple[float, float]:
    """(omega, J) at the root of the score in (lo, hi), by Fisher scoring
    from w; ``terms(omega)`` is (J, score, I).

    I, the expected curvature, can overstate J's (4x on a weak record) and
    make steps stop short, so from the 4th pass on a secant slope of the
    last two scores in (0, I) takes its place.  Safeguarded as Numerical
    Recipes' rtsafe: a step that leaves the bracket, or that does not halve
    the step before it, bisects instead.  Every pass moves an end of the
    bracket, whose ends are the grid neighbours until a score read there
    replaces them.  A fit ends at a pass whose step is within MAP_TOL once
    scores of both signs have been read, so the root is bracketed; scoring
    that closes in from one side takes one step a quarter of MAP_TOL past
    the root to read the other sign.  A bracket that closes on an end
    whose score has the sign of every score read raises MapBoundaryError.
    """
    neg_seen = pos_seen = False
    dx_old = hi - lo
    for n in range(_MAX_PASSES):
        j, score, info = terms(w)
        if score < 0.0:
            lo, neg_seen = w, True
        else:
            hi, pos_seen = w, True
        if n >= 3 and w != w_old and 0.0 < (
                slope := (score - score_old) / (w - w_old)) < info:
            info = slope
        dx = score / info
        w_old, score_old = w, score
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
                  prior: GaussianPrior) -> list[tuple[float, float]]:
    """:func:`map_estimate` of ``rec.truncated(k)`` for each k in ascending
    ``lengths``; one likelihood pass gives the grid at every k, and each
    fit starts at the vertex of its grid's parabola (``_vertex``)."""
    lengths = list(lengths)
    mu, var = _prior_terms(prior)[:2]
    sigma = math.sqrt(var)
    grid = np.linspace(mu - MAP_BRACKET_SIGMAS * sigma,
                       mu + MAP_BRACKET_SIGMAS * sigma, MAP_GRID_POINTS)
    j_grids = neg_log_joint_prefixes(grid, rec, p, prior, lengths)
    fits = []
    for k, j_grid in zip(lengths, j_grids):
        i = int(np.argmin(j_grid))  # argmin takes the first (smallest omega) on ties
        if i == 0 or i == len(grid) - 1:
            raise MapBoundaryError(
                "MAP search hit the bracket edge; prior too narrow or data inconsistent")

        def terms(w: float) -> tuple[float, float, float]:
            return score_and_information(w, rec, p, prior, k)

        lo, w, hi = (float(v) for v in grid[i - 1:i + 2])
        start = _vertex(lo, w, hi, *(float(v) for v in j_grid[i - 1:i + 2]))
        omega_hat, j_hat = _score_root(terms, lo, start, hi)
        fits.append((omega_hat, j_hat / k))
    return fits


def map_estimate(rec: MeasurementRecord, p: SpmParams,
                 prior: GaussianPrior) -> tuple[float, float]:
    """MAP estimate of a constant frequency from the whole record.

    A 201-point grid over +-5 prior sigmas (prior mass 1 - 6e-7) finds the
    basin among the likelihood side lobes; ``_score_root`` then finds the
    zero of the exact score dJ/d omega between the grid neighbours of the
    grid minimum, by Fisher scoring with secant and bisection safeguards,
    to a step within MAP_TOL.  Returns (omega_hat, J(omega_hat)/k), J read
    from the last complex pass.  A minimum on the grid's edge, or a score
    of one sign between its neighbours, raises MapBoundaryError.
    """
    return map_estimates(rec, [len(rec.outcomes)], p, prior)[0]
