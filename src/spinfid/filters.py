"""Continuous-discrete EKF and CKF over the extended state (omega, J_y, J_z).

Both filters share the same linearized one-step map: between samples the
frequency is frozen, so the spin pair advances by the exact damped rotation
evaluated at the current frequency estimate, and the frequency itself follows
the exact discrete OU/Wiener law.  The process noise is
D = diag(d1, d2, d2) with d1 from the frequency model and
d2 = (qN/2)(1 - exp(-2 Delta/T2)).  Correction is a scalar Kalman update on
y_k = g_D * J_z + v_k with measurement variance R/Delta.  These constants
depend on the configuration alone, so ``FilterConfig`` computes them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import model
from .errors import NumericalDegeneracyError
from .model import GaussianPrior, SignalModel, SpmParams
from .sde_sim import MeasurementRecord, _write_csv

_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


@dataclass
class GaussianBelief:
    mean: np.ndarray  # (3,)
    cov: np.ndarray   # (3, 3) symmetric PSD

    def copy(self) -> "GaussianBelief":
        return GaussianBelief(self.mean.copy(), self.cov.copy())


@dataclass(frozen=True)
class FilterConfig:
    kind: Literal["ekf", "ckf"]
    signal: SignalModel          # assumed frequency model (OU or Wiener)
    prior: GaussianPrior         # over the 3-dim extended state
    params: SpmParams
    # (phi, offset, decay, read-only D, R/Delta), set from the fields above
    step: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("ekf", "ckf"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not model.is_stochastic(self.signal):
            raise ValueError("the filter's internal signal model must be OU or Wiener")
        if self.prior.mean.size != 3:
            raise ValueError("filter prior must be over the 3-dim extended state")
        p = self.params
        t2 = model.coherence_time(p)
        phi, offset, d1 = model.signal_discrete_params(self.signal, p.Delta)
        d2 = model.discrete_spin_noise_var(p.q, p.N, p.Delta, t2)
        noise = np.diag([d1, d2, d2])
        noise.flags.writeable = False
        object.__setattr__(self, "step", (
            phi, offset, math.exp(-p.Delta / t2), noise,
            model.measurement_noise_variance(p)))


@dataclass
class FilterTrace:
    """Per-step filter output; row k corresponds to the k-th measurement."""

    times: np.ndarray
    mean: np.ndarray        # (K, 3) corrected
    cov: np.ndarray         # (K, 3, 3) corrected
    innovation: np.ndarray  # (K,)
    innovation_var: np.ndarray  # (K,)

    @property
    def omega_hat(self) -> np.ndarray:
        return self.mean[:, 0]

    @property
    def sigma_omega_pred(self) -> np.ndarray:
        return np.sqrt(self.cov[:, 0, 0])

    @property
    def nis(self) -> np.ndarray:
        return self.innovation ** 2 / self.innovation_var

    def to_csv(self, path) -> None:
        nis = self.nis
        _write_csv(path, "k,t,omega_hat,sigma_omega_pred,jy_hat,jz_hat,"
                         "innovation,S,nis", (
            (k + 1, self.times[k], self.mean[k, 0],
             math.sqrt(self.cov[k, 0, 0]), self.mean[k, 1], self.mean[k, 2],
             self.innovation[k], self.innovation_var[k], nis[k])
            for k in range(len(self.times))))


def discrete_f(m: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """One-step mean map: exact frequency step, damped rotation of the spin
    at the frozen frequency m[0]."""
    phi, offset, decay, _, _ = cfg.step
    delta = cfg.params.Delta
    c = math.cos(m[0] * delta)
    s = math.sin(m[0] * delta)
    return np.array([
        phi * m[0] + offset,
        decay * (m[1] * c + m[2] * s),
        decay * (-m[1] * s + m[2] * c),
    ])


def discrete_f_jacobian(m: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    phi, _, decay, _, _ = cfg.step
    delta = cfg.params.Delta
    c = math.cos(m[0] * delta)
    s = math.sin(m[0] * delta)
    f2 = decay * (m[1] * c + m[2] * s)
    f3 = decay * (-m[1] * s + m[2] * c)
    # note d f2/d m1 = Delta * f3 and d f3/d m1 = -Delta * f2
    return np.array([
        [phi, 0.0, 0.0],
        [delta * f3, decay * c, decay * s],
        [-delta * f2, -decay * s, decay * c],
    ])


def process_noise(cfg: FilterConfig) -> np.ndarray:
    """D = diag(d1, d2, d2), read-only."""
    return cfg.step[3]


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _ensure_psd(p: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix back onto the PSD cone if roundoff pushed
    it out (clipping negative eigenvalues to zero).  In the undersampled
    regime the filter covariance swings over many orders of magnitude and
    cancellation can leave small negative eigenvalues that would otherwise
    snowball."""
    try:
        np.linalg.cholesky(p + np.finfo(float).tiny * np.eye(3))
        return p
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(p)
        return _symmetrize((v * np.maximum(w, 0.0)) @ v.T)


def _cholesky_with_jitter(p: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with a bounded, deterministic jitter
    escalation to recover from roundoff-induced indefiniteness."""
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
    """Predicted belief from the propagated mean and covariance spread: adds
    the process noise and keeps the covariance symmetric PSD."""
    cov = _ensure_psd(_symmetrize(spread + process_noise(cfg)))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise NumericalDegeneracyError(
            f"non-finite {cfg.kind.upper()} prediction")
    return GaussianBelief(mean, cov)


def ekf_predict(b: GaussianBelief, cfg: FilterConfig) -> GaussianBelief:
    jac = discrete_f_jacobian(b.mean, cfg)
    return _predicted(discrete_f(b.mean, cfg), jac @ b.cov @ jac.T, cfg)


def ckf_predict(b: GaussianBelief, cfg: FilterConfig) -> GaussianBelief:
    """Third-degree spherical cubature prediction: 6 points at +-sqrt(3)
    along the columns of the lower-triangular Cholesky factor of P."""
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
    """Scalar measurement update; returns (belief, innovation, S).

    The covariance uses the Joseph form, which stays positive semidefinite
    under the extreme gains of unstable (undersampled) regimes where the
    plain downdate loses definiteness to cancellation.
    """
    g = cfg.params.g_D
    r = cfg.step[4]
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
    """Alternate predict/correct over the whole record."""
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


def default_prior(p: SpmParams, sigma_omega: float,
                  spin_cov_scale: float = 0.01) -> GaussianPrior:
    """Broad reference prior: omega ~ N(omega_bar, sigma_omega^2), spin mean
    at the polarized state with isotropic covariance spin_cov_scale * N^2."""
    mean = np.array([p.omega_bar, 0.0, 0.5 * p.N])
    cov = np.diag([sigma_omega ** 2, spin_cov_scale * p.N ** 2,
                   spin_cov_scale * p.N ** 2])
    return GaussianPrior(mean, cov)
