"""Test oracles of ``spinfid.filters``.

The matrix-form EKF/CKF step is the filter as it ran on 3x3 numpy arrays
before the step was unrolled on the six unique covariance entries, with the
same arithmetic: it reproduces the outputs the pinned digests in
``test_recorded_outputs.py`` were recorded from bit for bit.  It reads the
configuration's step model (phi, offset, decay, d1, d2, R/Delta) and writes
the package's ``FilterTrace``.

The scalar six-point cubature prediction is the CKF step as it ran on the
nine-float state before the rule was evaluated in closed form on three
rotations: one call of the one-step mean map per cubature point.  Run in
place of the closed form, with the package's EKF prediction and correction,
it reproduces the digests recorded before that change bit for bit.

Each pass has an ``omega_at`` form that reads its trace at the probing
indices, so the sweeps, which call ``filters.omega_at``, run on it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spinfid import filters
from spinfid.errors import NumericalDegeneracyError
from spinfid.filters import FilterConfig, FilterTrace
from spinfid.sde_sim import MeasurementRecord

_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


@dataclass
class GaussianBelief:
    mean: np.ndarray  # (3,)
    cov: np.ndarray   # (3, 3) symmetric PSD


def discrete_f(m: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    phi, offset, decay = cfg.step[:3]
    delta = cfg.params.Delta
    c = math.cos(m[0] * delta)
    s = math.sin(m[0] * delta)
    return np.array([
        phi * m[0] + offset,
        decay * (m[1] * c + m[2] * s),
        decay * (-m[1] * s + m[2] * c),
    ])


def discrete_f_jacobian(m: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    phi, _, decay = cfg.step[:3]
    delta = cfg.params.Delta
    c = math.cos(m[0] * delta)
    s = math.sin(m[0] * delta)
    f2 = decay * (m[1] * c + m[2] * s)
    f3 = decay * (-m[1] * s + m[2] * c)
    return np.array([
        [phi, 0.0, 0.0],
        [delta * f3, decay * c, decay * s],
        [-delta * f2, -decay * s, decay * c],
    ])


def process_noise(cfg: FilterConfig) -> np.ndarray:
    _, _, _, d1, d2, _ = cfg.step
    return np.diag([d1, d2, d2])


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _ensure_psd(p: np.ndarray) -> np.ndarray:
    try:
        np.linalg.cholesky(p + np.finfo(float).tiny * np.eye(3))
        return p
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(p)
        return _symmetrize((v * np.maximum(w, 0.0)) @ v.T)


def _cholesky_with_jitter(p: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        pass
    scale = np.trace(p) / 3.0
    eps = _JITTER_START
    while eps <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(p + eps * scale * np.eye(3))
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise NumericalDegeneracyError("covariance not factorizable after jitter escalation")


def _predicted(mean: np.ndarray, spread: np.ndarray,
               cfg: FilterConfig) -> GaussianBelief:
    cov = _ensure_psd(_symmetrize(spread + process_noise(cfg)))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise NumericalDegeneracyError(
            f"non-finite {cfg.kind.upper()} prediction")
    return GaussianBelief(mean, cov)


def ekf_predict(b: GaussianBelief, cfg: FilterConfig) -> GaussianBelief:
    jac = discrete_f_jacobian(b.mean, cfg)
    return _predicted(discrete_f(b.mean, cfg), jac @ b.cov @ jac.T, cfg)


def ckf_predict(b: GaussianBelief, cfg: FilterConfig) -> GaussianBelief:
    root = _cholesky_with_jitter(b.cov)
    scale = math.sqrt(3.0)
    points = np.empty((6, 3))
    points[:3] = b.mean + scale * root.T
    points[3:] = b.mean - scale * root.T
    fz = np.array([discrete_f(z, cfg) for z in points])
    mean = fz.mean(axis=0)
    dev = fz - mean
    return _predicted(mean, dev.T @ dev / 6.0, cfg)


def kalman_correct(b_minus: GaussianBelief, y: float, cfg: FilterConfig):
    g = cfg.params.g_D
    r = cfg.step[5]
    pm = b_minus.cov
    s_var = r + g * g * pm[2, 2]
    if not s_var > 0.0:
        raise NumericalDegeneracyError(f"innovation variance not positive: {s_var}")
    k_gain = g * pm[:, 2] / s_var
    innovation = y - g * b_minus.mean[2]
    mean = b_minus.mean + k_gain * innovation
    ikh = np.eye(3)
    ikh[:, 2] -= g * k_gain
    cov = _ensure_psd(_symmetrize(ikh @ pm @ ikh.T + r * np.outer(k_gain, k_gain)))
    return GaussianBelief(mean, cov), innovation, s_var


def run_filter(cfg: FilterConfig, rec: MeasurementRecord) -> FilterTrace:
    if len(rec.outcomes) == 0:
        raise ValueError("empty measurement record")
    predict = ekf_predict if cfg.kind == "ekf" else ckf_predict
    belief = GaussianBelief(cfg.prior.mean.copy(), cfg.prior.cov.copy())

    n = len(rec.outcomes)
    trace = FilterTrace(
        times=rec.times,
        mean=np.empty((n, 3)),
        cov=np.empty((n, 3, 3)),
        innovation=np.empty(n),
        innovation_var=np.empty(n),
    )
    for k, y in enumerate(rec.outcomes):
        belief, innovation, s_var = kalman_correct(predict(belief, cfg),
                                                   float(y), cfg)
        trace.mean[k] = belief.mean
        trace.cov[k] = belief.cov
        trace.innovation[k] = innovation
        trace.innovation_var[k] = s_var
    return trace


def omega_at(cfg: FilterConfig, rec: MeasurementRecord, ks,
             run=run_filter) -> list[float]:
    """``filters.omega_at`` read from the whole trace of ``run``, by default
    the matrix-form pass."""
    omega_hat = run(cfg, rec).omega_hat
    return [float(omega_hat[k - 1]) for k in ks]


# ------------------------------------------------ scalar six-point cubature

def point_map(w: float, jy: float, jz: float, cfg: FilterConfig) -> tuple:
    """One-step mean map of the state (omega, J_y, J_z) on floats."""
    phi, offset, decay = cfg.step[:3]
    angle = w * cfg.params.Delta
    c = math.cos(angle)
    s = math.sin(angle)
    return (phi * w + offset, decay * (jy * c + jz * s),
            decay * (-jy * s + jz * c))


def _scalar_predicted(mean: tuple, spread: tuple, cfg: FilterConfig) -> tuple:
    d1, d2 = cfg.step[3], cfg.step[4]
    s00, s01, s02, s11, s12, s22 = spread
    p = (s00 + d1, s01, s02, s11 + d2, s12, s22 + d2)
    if filters._cholesky(p, filters._TINY) is None:
        p = filters._clip_to_psd(p)
    x = mean + p
    if not all(map(math.isfinite, x)):
        raise NumericalDegeneracyError(
            f"non-finite {cfg.kind.upper()} prediction")
    return x


def six_point_predict(x: tuple, cfg: FilterConfig) -> tuple:
    """Third-degree spherical cubature prediction of the nine-float state:
    ``point_map`` at the 6 points +-sqrt(3) along the columns of the lower
    Cholesky factor of P."""
    w, jy, jz = x[:3]
    l00, l10, l20, l11, l21, l22 = filters._cholesky_with_jitter(x[3:])
    scale = math.sqrt(3.0)
    cols = ((scale * l00, scale * l10, scale * l20),
            (0.0, scale * l11, scale * l21),
            (0.0, 0.0, scale * l22))
    fz = ([point_map(w + a, jy + b, jz + c, cfg) for a, b, c in cols]
          + [point_map(w - a, jy - b, jz - c, cfg) for a, b, c in cols])
    m0, m1, m2 = (sum(col) / 6.0 for col in zip(*fz))
    s00 = s01 = s02 = s11 = s12 = s22 = 0.0
    for f0, f1, f2 in fz:
        e0, e1, e2 = f0 - m0, f1 - m1, f2 - m2
        s00 += e0 * e0
        s01 += e0 * e1
        s02 += e0 * e2
        s11 += e1 * e1
        s12 += e1 * e2
        s22 += e2 * e2
    return _scalar_predicted((m0, m1, m2), (
        s00 / 6.0, s01 / 6.0, s02 / 6.0, s11 / 6.0, s12 / 6.0, s22 / 6.0), cfg)


def run_stepwise(cfg: FilterConfig, rec: MeasurementRecord,
                 ckf_predict=None) -> FilterTrace:
    """A filter pass composed step by step of the package's one-step views
    ``ekf_predict``/``ckf_predict`` and ``kalman_correct``; ``ckf_predict``,
    if given, replaces the package's CKF prediction."""
    if cfg.kind == "ekf":
        predict = filters.ekf_predict
    else:
        predict = ckf_predict or filters.ckf_predict
    x = filters._state(cfg.prior.mean, cfg.prior.cov)
    n = len(rec.outcomes)
    trace = FilterTrace(times=rec.times, mean=np.empty((n, 3)),
                        cov=np.empty((n, 3, 3)), innovation=np.empty(n),
                        innovation_var=np.empty(n))
    for k, y in enumerate(rec.outcomes.tolist()):
        x, trace.innovation[k], trace.innovation_var[k] = filters.kalman_correct(
            predict(x, cfg), y, cfg)
        trace.mean[k] = x[:3]
        trace.cov[k] = filters._matrix(x[3:])
    return trace


def six_point_run_filter(cfg: FilterConfig, rec: MeasurementRecord) -> FilterTrace:
    """``run_filter`` with the six-point cubature prediction."""
    return run_stepwise(cfg, rec, six_point_predict)


def six_point_omega_at(cfg: FilterConfig, rec: MeasurementRecord,
                       ks) -> list[float]:
    """``omega_at`` with the six-point cubature prediction."""
    return omega_at(cfg, rec, ks, six_point_run_filter)
