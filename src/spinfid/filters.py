"""Continuous-discrete EKF and CKF over the extended state (omega, J_y, J_z).

Both filters share the same linearized one-step map: between samples the
frequency is frozen, so the spin pair advances by the exact damped rotation
evaluated at the current frequency estimate, and the frequency itself follows
the exact discrete OU/Wiener law.  The process noise is
D = diag(d1, d2, d2) with d1 from the frequency model and
d2 = (qN/2)(1 - exp(-2 Delta/T2)).  Correction is a scalar Kalman update on
y_k = g_D * J_z + v_k with measurement variance R/Delta.  These constants
depend on the configuration alone, so ``FilterConfig`` computes them once.

A step runs on Python floats: the filter state is the tuple
(omega, J_y, J_z, P00, P01, P02, P11, P12, P22) of the mean and the six
unique entries of the symmetric covariance, and the matrix products are
unrolled on it with the known zeros of the Jacobian and of the measurement
row.  At this size numpy's per-call overhead outweighs the arithmetic.  The
PSD safeguard tests the pivots of a scalar Cholesky factorization and
decomposes only a covariance that fails it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import model
from .errors import NumericalDegeneracyError
from .model import GaussianPrior, SignalModel, SpmParams
from .sde_sim import MeasurementRecord, _write_csv

_JITTER_START = 1e-12
_JITTER_MAX = 1e-6
_TINY = float(np.finfo(float).tiny)
_SQRT3 = math.sqrt(3.0)
# (rows, columns) of the 6 unique covariance entries, and the entry at
# each position of the row-major 3x3 matrix
_UPPER = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])
_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]
# one row of a filter pass: the corrected mean, its covariance in row-major
# order, the innovation and its variance
_ROW = struct.Struct("14d")


@dataclass(frozen=True)
class FilterConfig:
    kind: Literal["ekf", "ckf"]
    signal: SignalModel          # assumed frequency model (OU or Wiener)
    prior: GaussianPrior         # over the 3-dim extended state
    params: SpmParams
    # (phi, offset, decay, d1, d2, R/Delta), set from the fields above
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
        object.__setattr__(self, "step", (
            phi, offset, math.exp(-p.Delta / t2), d1,
            model.discrete_spin_noise_var(p.q, p.N, p.Delta, t2),
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


def _step_mean(w: float, jy: float, jz: float, cfg: FilterConfig):
    """One-step mean map and the (cos, sin) of its rotation angle omega*Delta:
    exact frequency step, damped rotation of the spin at the frozen frequency
    w."""
    phi, offset, decay = cfg.step[:3]
    angle = w * cfg.params.Delta
    c = math.cos(angle)
    s = math.sin(angle)
    return (phi * w + offset, decay * (jy * c + jz * s),
            decay * (-jy * s + jz * c), c, s)


def discrete_f(w: float, jy: float, jz: float, cfg: FilterConfig) -> tuple:
    """One-step mean map of the state (omega, J_y, J_z)."""
    return _step_mean(w, jy, jz, cfg)[:3]


def _state(mean: np.ndarray, cov: np.ndarray) -> tuple:
    """The 9-float filter state of a mean and a symmetric 3x3 covariance."""
    return tuple(mean.tolist()) + tuple(cov[_UPPER].tolist())


def _matrix(p: tuple) -> np.ndarray:
    """The symmetric 3x3 matrix of 6 unique covariance entries."""
    return np.array(p)[_FULL].reshape(3, 3)


def _cholesky(p: tuple, shift: float = 0.0):
    """Lower Cholesky factor (l00, l10, l20, l11, l21, l22) of P + shift*I,
    or None when a pivot is not positive.  As in LAPACK's potrf a NaN pivot
    passes, so non-finite entries reach the callers' finiteness checks."""
    p00, p01, p02, p11, p12, p22 = p
    a = p00 + shift
    if a <= 0.0:
        return None
    l00 = math.sqrt(a)
    l10 = p01 / l00
    l20 = p02 / l00
    a = p11 + shift - l10 * l10
    if a <= 0.0:
        return None
    l11 = math.sqrt(a)
    l21 = (p12 - l20 * l10) / l11
    a = p22 + shift - (l20 * l20 + l21 * l21)
    if a <= 0.0:
        return None
    return l00, l10, l20, l11, l21, math.sqrt(a)


def _ensure_psd(p: tuple) -> tuple:
    """Project a symmetric matrix back onto the PSD cone if roundoff pushed
    it out (clipping negative eigenvalues to zero).  In the undersampled
    regime the filter covariance swings over many orders of magnitude and
    cancellation can leave small negative eigenvalues that would otherwise
    snowball.  The test is a scalar Cholesky of P + tiny*I; only a matrix
    that fails it is decomposed."""
    return p if _cholesky(p, _TINY) is not None else _clip_to_psd(p)


def _clip_to_psd(p: tuple) -> tuple:
    """Nearest PSD matrix: negative eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(_matrix(p))
    q = (v * np.maximum(w, 0.0)) @ v.T
    return tuple((0.5 * (q + q.T))[_UPPER].tolist())


def _cholesky_with_jitter(p: tuple) -> tuple:
    """Lower-triangular Cholesky factor with a bounded, deterministic jitter
    escalation to recover from roundoff-induced indefiniteness.  The jitter
    is relative to the mean variance, floored so that its first rung is a
    normal float: a zero covariance (a certain prior) then factors too."""
    root = _cholesky(p)
    if root is not None:
        return root
    scale = max((p[0] + p[3] + p[5]) / 3.0, _TINY / _JITTER_START)
    eps = _JITTER_START
    while eps <= _JITTER_MAX:
        root = _cholesky(p, eps * scale)
        if root is not None:
            return root
        eps *= 10.0
    raise NumericalDegeneracyError("covariance not factorizable after jitter escalation")


def _predicted(mean: tuple, spread: tuple, cfg: FilterConfig) -> tuple:
    """Predicted state from the propagated mean and covariance spread: adds
    the process noise and keeps the covariance PSD."""
    d1, d2 = cfg.step[3], cfg.step[4]
    s00, s01, s02, s11, s12, s22 = spread
    x = mean + _ensure_psd((s00 + d1, s01, s02, s11 + d2, s12, s22 + d2))
    if not all(map(math.isfinite, x)):
        raise NumericalDegeneracyError(
            f"non-finite {cfg.kind.upper()} prediction")
    return x


def ekf_predict(x: tuple, cfg: FilterConfig) -> tuple:
    """Mean through the one-step map f, covariance J P J^T + D through its
    Jacobian J.  The rows of J are (phi, 0, 0), (Delta f3, e c, e s) and
    (-Delta f2, -e s, e c), with (f2, f3) the predicted spin, e the spin
    decay per step and (c, s) the cosine and sine of omega*Delta: the
    rotation gives d f2/d omega = Delta f3 and d f3/d omega = -Delta f2."""
    w, jy, jz, p00, p01, p02, p11, p12, p22 = x
    w1, f2, f3, c, s = _step_mean(w, jy, jz, cfg)
    phi, decay, delta = cfg.step[0], cfg.step[2], cfg.params.Delta
    a1, a2 = delta * f3, -delta * f2
    ec, es = decay * c, decay * s
    # P times rows 1 and 2 of J
    u0 = p00 * a1 + p01 * ec + p02 * es
    u1 = p01 * a1 + p11 * ec + p12 * es
    u2 = p02 * a1 + p12 * ec + p22 * es
    v0 = p00 * a2 - p01 * es + p02 * ec
    v1 = p01 * a2 - p11 * es + p12 * ec
    v2 = p02 * a2 - p12 * es + p22 * ec
    return _predicted((w1, f2, f3), (
        phi * (phi * p00), phi * u0, phi * v0,
        a1 * u0 + ec * u1 + es * u2, a1 * v0 + ec * v1 + es * v2,
        a2 * v0 - es * v1 + ec * v2), cfg)


def ckf_predict(x: tuple, cfg: FilterConfig) -> tuple:
    """Third-degree spherical cubature prediction: 6 points at +-sqrt(3)
    along the columns of the lower-triangular Cholesky factor of P."""
    w, jy, jz = x[:3]
    l00, l10, l20, l11, l21, l22 = _cholesky_with_jitter(x[3:])
    cols = ((_SQRT3 * l00, _SQRT3 * l10, _SQRT3 * l20),
            (0.0, _SQRT3 * l11, _SQRT3 * l21),
            (0.0, 0.0, _SQRT3 * l22))
    fz = ([discrete_f(w + a, jy + b, jz + c, cfg) for a, b, c in cols]
          + [discrete_f(w - a, jy - b, jz - c, cfg) for a, b, c in cols])
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
    return _predicted((m0, m1, m2), (s00 / 6.0, s01 / 6.0, s02 / 6.0,
                                     s11 / 6.0, s12 / 6.0, s22 / 6.0), cfg)


def kalman_correct(x: tuple, y: float, cfg: FilterConfig):
    """Scalar measurement update; returns (state, innovation, S).

    The covariance uses the Joseph form (I - K h^T) P (I - K h^T)^T + R K K^T
    with h = (0, 0, g_D), which stays positive semidefinite under the
    extreme gains of unstable (undersampled) regimes where the plain
    downdate loses definiteness to cancellation.
    """
    w, jy, jz, p00, p01, p02, p11, p12, p22 = x
    g = cfg.params.g_D
    r = cfg.step[5]
    s_var = r + g * g * p22
    if not s_var > 0.0:
        raise NumericalDegeneracyError(f"innovation variance not positive: {s_var}")
    k0, k1, k2 = g * p02 / s_var, g * p12 / s_var, g * p22 / s_var
    innovation = y - g * jz
    # column 2 of I - K h^T; its other columns are those of I
    c0, c1, c2 = -(g * k0), -(g * k1), 1.0 - g * k2
    # rows 0 and 1 of (I - K h^T) P; row 2 is c2 * P[2, :]
    m00, m01, m02 = p00 + c0 * p02, p01 + c0 * p12, p02 + c0 * p22
    m11, m12 = p11 + c1 * p12, p12 + c1 * p22
    cov = _ensure_psd((
        m00 + c0 * m02 + r * (k0 * k0), m01 + c1 * m02 + r * (k0 * k1),
        c2 * m02 + r * (k0 * k2), m11 + c1 * m12 + r * (k1 * k1),
        c2 * m12 + r * (k1 * k2), c2 * (c2 * p22) + r * (k2 * k2)))
    return ((w + k0 * innovation, jy + k1 * innovation, jz + k2 * innovation)
            + cov, innovation, s_var)


def run_filter(cfg: FilterConfig, rec: MeasurementRecord) -> FilterTrace:
    """Alternate predict/correct over the whole record."""
    if len(rec.outcomes) == 0:
        raise ValueError("empty measurement record")
    predict = ekf_predict if cfg.kind == "ekf" else ckf_predict
    x = _state(cfg.prior.mean, cfg.prior.cov)
    # the trace's arrays are views of this one buffer
    out = np.empty((len(rec.outcomes), 14))
    write_row = _ROW.pack_into
    for k, y in enumerate(rec.outcomes):
        x, innovation, s_var = kalman_correct(predict(x, cfg), float(y), cfg)
        w, jy, jz, p00, p01, p02, p11, p12, p22 = x
        write_row(out, k * _ROW.size, w, jy, jz, p00, p01, p02, p01, p11, p12,
                  p02, p12, p22, innovation, s_var)
    return FilterTrace(times=rec.times, mean=out[:, :3],
                       cov=out[:, 3:12].reshape(-1, 3, 3),
                       innovation=out[:, 12], innovation_var=out[:, 13])


def default_prior(p: SpmParams, sigma_omega: float,
                  spin_cov_scale: float = 0.01) -> GaussianPrior:
    """Broad reference prior: omega ~ N(omega_bar, sigma_omega^2), spin mean
    at the polarized state with isotropic covariance spin_cov_scale * N^2."""
    mean = np.array([p.omega_bar, 0.0, 0.5 * p.N])
    cov = np.diag([sigma_omega ** 2, spin_cov_scale * p.N ** 2,
                   spin_cov_scale * p.N ** 2])
    return GaussianPrior(mean, cov)
