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
CKF's cubature rule is evaluated in closed form on three rotations.  The
PSD safeguard tests the pivots of a scalar Cholesky factorization and
decomposes only a covariance that fails it.

A filter pass is one loop, ``_steps``, with prediction and correction in
its body; ``ekf_predict``, ``ckf_predict`` and ``kalman_correct`` are
one-step views of the same loop, so each piece of the step exists once.
The PSD test is written out in the loop, and the CKF factors P only when
it cannot reuse the pivots of the last correction's PSD test, so a step
calls no Python function unless a safeguard fires.

``run_filter`` returns the whole pass as a ``FilterTrace``.  The sweeps
read the estimate only at their probing indices, so they call
``omega_at``, which runs the same loop from one index to the next, stops
at the last and builds no trace; it gives the trace's values bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import model
from .errors import InvalidParametersError, NumericalDegeneracyError
from .model import GaussianPrior, Positive, SignalModel, SpmParams
from .sde_sim import MeasurementRecord, _write_csv

KINDS = ("ekf", "ckf")  # the filter kinds, in the order a sweep runs them

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
        if self.kind not in KINDS:
            raise InvalidParametersError(f"unknown filter kind {self.kind!r}")
        if not model.is_stochastic(self.signal):
            raise InvalidParametersError(
                "the filter's internal signal model must be OU or Wiener")
        if self.prior.mean.size != 3:
            raise InvalidParametersError(
                "filter prior must be over the 3-dim extended state")
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


def _state(mean: np.ndarray, cov: np.ndarray) -> tuple:
    """The 9-float filter state of a mean and a symmetric 3x3 covariance."""
    return tuple(mean.tolist()) + tuple(cov[_UPPER].tolist())


def _matrix(p: tuple) -> np.ndarray:
    """The symmetric 3x3 matrix of 6 unique covariance entries."""
    return np.array(p)[_FULL].reshape(3, 3)


def _cholesky(p: tuple, shift: float = 0.0):
    """Lower Cholesky factor (l00, l10, l20, l11, l21, l22) of P + shift*I,
    or None when a pivot is not positive.  As in LAPACK's potrf a NaN pivot
    passes, so non-finite entries reach the callers' finiteness checks.

    With shift = tiny this is the filter's PSD test: in the undersampled
    regime the covariance swings over many orders of magnitude, and
    cancellation can leave small negative eigenvalues that would otherwise
    snowball, so a covariance that fails it goes to ``_clip_to_psd``."""
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


def _clip_to_psd(p: tuple) -> tuple:
    """Nearest PSD matrix: negative eigenvalues clipped to zero."""
    try:
        w, v = np.linalg.eigh(_matrix(p))
    except np.linalg.LinAlgError as exc:  # an infinite entry
        raise NumericalDegeneracyError(
            "covariance not decomposable for the PSD projection") from exc
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


def _steps(cfg: FilterConfig, x: tuple, ys, predict, correct: bool = True,
           out=None):
    """Predict with ``predict`` ("ekf", "ckf" or None for no prediction),
    then correct on y if ``correct``, for each y of ``ys`` in turn, from
    the state ``x``.  Returns (state, innovation, S) after the last step, and
    writes one ``_ROW`` per step into the buffer ``out`` if one is given.

    The mean map freezes the frequency over a step: (omega, J) goes to
    (phi omega + offset, e R(omega) J), with e the spin decay per step and
    R(omega) the rotation by omega*Delta.

    EKF: the covariance goes through the Jacobian of this map, J P J^T.
    Its rows are (phi, 0, 0), (Delta f3, e c, e s) and (-Delta f2, -e s,
    e c), with (f2, f3) the predicted spin and (c, s) the cosine and sine of
    omega*Delta: the rotation gives d f2/d omega = Delta f3 and
    d f3/d omega = -Delta f2.

    CKF: the third-degree spherical cubature rule, 6 points m +- sqrt(3) L_i
    along the columns of the lower Cholesky factor L of P (Arasaratnam &
    Haykin, IEEE TAC 54(6), 2009), evaluated in closed form.  The frequency
    map is affine, and at a fixed frequency the spin map is the linear
    e R(omega).  The four points along L_1 and L_2 share the frequency m_0,
    so they are g0 +- sqrt(3) e R(m_0) L_i with g0 = e R(m_0) J; the two
    along L_0 are g+- = e R(m_0 +- sqrt(3) l00)(J +- sqrt(3) (l10, l20)).
    Three rotations give the whole rule: the spin mean is
    mu = (4 g0 + g+ + g-)/6, and with d = g0 - mu the spread is
    S00 = phi^2 l00^2, S0s = phi sqrt(3) l00 (g+ - g-)/6 and
    Sss = (4 d d^T + (g+ - mu)(g+ - mu)^T + (g- - mu)(g- - mu)^T)/6
          + a a^T + b b^T,
    with a = e R(m_0)(l11, l21) and b = e R(m_0)(0, l22).

    Both add the process noise D = diag(d1, d2, d2); the predicted
    covariance must pass the PSD test and the predicted state be finite.

    Correction: scalar measurement y = g_D J_z + v with Var v = R/Delta.  The
    covariance uses the Joseph form (I - K h^T) P (I - K h^T)^T + R K K^T
    with h = (0, 0, g_D), which stays positive semidefinite under the
    extreme gains of unstable (undersampled) regimes where the plain
    downdate loses definiteness to cancellation; it too must pass the PSD
    test.

    The PSD test is ``_cholesky(P, tiny)`` written out, with its arithmetic
    and order.  When the correction's test passes and tiny vanishes in each
    diagonal entry of P (P_ii + tiny == P_ii), its pivots are exactly
    ``_cholesky(P)``, and the next CKF prediction takes them as its factor;
    otherwise, on the first step and in the one-step views it factors P.
    A step calls no Python function unless a safeguard fires or the CKF has
    no pivots to reuse.
    """
    phi, offset, decay, d1, d2, r = cfg.step
    delta, g = cfg.params.Delta, cfg.params.g_D
    gg = g * g
    ckf = predict == "ckf"
    cos, sin, sqrt, isfinite = math.cos, math.sin, math.sqrt, math.isfinite
    tiny, write_row, row_size = _TINY, _ROW.pack_into, _ROW.size
    w, jy, jz, p00, p01, p02, p11, p12, p22 = x
    innovation = s_var = None
    # whether (l00, l10, l20, l11, l21, l22) is the Cholesky factor of P
    factored = False
    at = 0
    try:
        for y in ys:
            if predict:
                angle = w * delta
                c = cos(angle)
                s = sin(angle)
                f2 = decay * (jy * c + jz * s)
                f3 = decay * (-jy * s + jz * c)
                if ckf:
                    if not factored:
                        p = (p00, p01, p02, p11, p12, p22)
                        l00, l10, l20, l11, l21, l22 = _cholesky_with_jitter(p)
                    h = _SQRT3 * l00
                    by, bz = _SQRT3 * l10, _SQRT3 * l20
                    # g0 = (f2, f3), and g+- at omega +- h
                    angle = (w + h) * delta
                    ca = cos(angle)
                    sa = sin(angle)
                    gy, gz = jy + by, jz + bz
                    gpy = decay * (gy * ca + gz * sa)
                    gpz = decay * (-gy * sa + gz * ca)
                    angle = (w - h) * delta
                    ca = cos(angle)
                    sa = sin(angle)
                    gy, gz = jy - by, jz - bz
                    gmy = decay * (gy * ca + gz * sa)
                    gmz = decay * (-gy * sa + gz * ca)
                    jy = (4.0 * f2 + gpy + gmy) / 6.0
                    jz = (4.0 * f3 + gpz + gmz) / 6.0
                    # the spread plus D; P is read only through its factor
                    p00 = (phi * l00) * (phi * l00) + d1
                    p01 = phi * h * (gpy - gmy) / 6.0
                    p02 = phi * h * (gpz - gmz) / 6.0
                    # deviations from the spin mean
                    dy, dz = f2 - jy, f3 - jz
                    gpy, gpz, gmy, gmz = gpy - jy, gpz - jz, gmy - jy, gmz - jz
                    # e R(omega) (l11, l21) and e R(omega) (0, l22)
                    ay = decay * (l11 * c + l21 * s)
                    az = decay * (-l11 * s + l21 * c)
                    by, bz = decay * (l22 * s), decay * (l22 * c)
                    p11 = ((4.0 * (dy * dy) + gpy * gpy + gmy * gmy) / 6.0
                           + (ay * ay + by * by) + d2)
                    p12 = ((4.0 * (dy * dz) + gpy * gpz + gmy * gmz) / 6.0
                           + (ay * az + by * bz))
                    p22 = ((4.0 * (dz * dz) + gpz * gpz + gmz * gmz) / 6.0
                           + (az * az + bz * bz) + d2)
                else:
                    a1, a2 = delta * f3, -delta * f2
                    ec, es = decay * c, decay * s
                    # P times rows 1 and 2 of J
                    u0 = p00 * a1 + p01 * ec + p02 * es
                    u1 = p01 * a1 + p11 * ec + p12 * es
                    u2 = p02 * a1 + p12 * ec + p22 * es
                    v0 = p00 * a2 - p01 * es + p02 * ec
                    v1 = p01 * a2 - p11 * es + p12 * ec
                    v2 = p02 * a2 - p12 * es + p22 * ec
                    # J P J^T + D; past u and v only p00's own update
                    # reads an old entry
                    p00 = phi * (phi * p00) + d1
                    p01 = phi * u0
                    p02 = phi * v0
                    p11 = a1 * u0 + ec * u1 + es * u2 + d2
                    p12 = a1 * v0 + ec * v1 + es * v2
                    p22 = a2 * v0 - es * v1 + ec * v2 + d2
                    jy, jz = f2, f3
                w = phi * w + offset
                # the PSD test: _cholesky(P, tiny) written out, a NaN pivot
                # passing; the first pivot that fails stops it, left in a
                a = p00 + tiny
                if a > 0.0 or a != a:
                    l00 = sqrt(a)
                    l10 = p01 / l00
                    l20 = p02 / l00
                    a = p11 + tiny - l10 * l10
                    if a > 0.0 or a != a:
                        l11 = sqrt(a)
                        l21 = (p12 - l20 * l10) / l11
                        a = p22 + tiny - (l20 * l20 + l21 * l21)
                if not (a > 0.0 or a != a):
                    p00, p01, p02, p11, p12, p22 = _clip_to_psd(
                        (p00, p01, p02, p11, p12, p22))
                if not (isfinite(w) and isfinite(jy) and isfinite(jz)
                        and isfinite(p00) and isfinite(p01) and isfinite(p02)
                        and isfinite(p11) and isfinite(p12) and isfinite(p22)):
                    raise NumericalDegeneracyError(
                        f"non-finite {cfg.kind.upper()} prediction")
            if correct:
                s_var = r + gg * p22
                if not s_var > 0.0:
                    raise NumericalDegeneracyError(
                        f"innovation variance not positive: {s_var}")
                k0, k1, k2 = g * p02 / s_var, g * p12 / s_var, g * p22 / s_var
                innovation = y - g * jz
                # column 2 of I - K h^T; its other columns are those of I
                c0, c1, c2 = -(g * k0), -(g * k1), 1.0 - g * k2
                # rows 0 and 1 of (I - K h^T) P; row 2 is c2 * P[2, :]
                m00, m01, m02 = p00 + c0 * p02, p01 + c0 * p12, p02 + c0 * p22
                m11, m12 = p11 + c1 * p12, p12 + c1 * p22
                # p22 last: its own update reads the old p22
                p00 = m00 + c0 * m02 + r * (k0 * k0)
                p01 = m01 + c1 * m02 + r * (k0 * k1)
                p02 = c2 * m02 + r * (k0 * k2)
                p11 = m11 + c1 * m12 + r * (k1 * k1)
                p12 = c2 * m12 + r * (k1 * k2)
                p22 = c2 * (c2 * p22) + r * (k2 * k2)
                # the PSD test again, as after the prediction
                a = p00 + tiny
                if a > 0.0 or a != a:
                    l00 = sqrt(a)
                    l10 = p01 / l00
                    l20 = p02 / l00
                    a = p11 + tiny - l10 * l10
                    if a > 0.0 or a != a:
                        l11 = sqrt(a)
                        l21 = (p12 - l20 * l10) / l11
                        a = p22 + tiny - (l20 * l20 + l21 * l21)
                if a > 0.0 or a != a:
                    if ckf:
                        # the pivots are _cholesky(P) when tiny shifts no
                        # diagonal entry (P_ii + tiny == P_ii, false for
                        # -0.0), and the next prediction reuses them
                        l22 = sqrt(a)
                        factored = (p00 + tiny == p00 and p11 + tiny == p11
                                    and p22 + tiny == p22)
                else:
                    p00, p01, p02, p11, p12, p22 = _clip_to_psd(
                        (p00, p01, p02, p11, p12, p22))
                    factored = False
                w, jy, jz = (w + k0 * innovation, jy + k1 * innovation,
                             jz + k2 * innovation)
            if out is not None:
                write_row(out, at, w, jy, jz, p00, p01, p02, p01, p11, p12,
                          p02, p12, p22, innovation, s_var)
                at += row_size
    except ValueError as exc:
        # math.cos and math.sin reject an infinite angle, which only an
        # infinite frequency or frequency variance gives
        raise NumericalDegeneracyError(
            f"non-finite {cfg.kind.upper()} prediction") from exc
    return (w, jy, jz, p00, p01, p02, p11, p12, p22), innovation, s_var


def ekf_predict(x: tuple, cfg: FilterConfig) -> tuple:
    """One EKF prediction of the state x: mean through the one-step map,
    covariance J P J^T + D through its Jacobian J (see ``_steps``)."""
    return _steps(cfg, x, (None,), "ekf", correct=False)[0]


def ckf_predict(x: tuple, cfg: FilterConfig) -> tuple:
    """One third-degree spherical cubature prediction of the state x (see
    ``_steps``)."""
    return _steps(cfg, x, (None,), "ckf", correct=False)[0]


def kalman_correct(x: tuple, y: float, cfg: FilterConfig):
    """One Joseph-form measurement update of the state x on y; returns
    (state, innovation, S)."""
    return _steps(cfg, x, (y,), None)


def run_filter(cfg: FilterConfig, rec: MeasurementRecord) -> FilterTrace:
    """Alternate predict/correct over the whole record, which must be
    sampled every cfg.params.Delta."""
    rec.check_delta(cfg.params.Delta)
    # the trace's arrays are views of this one buffer
    out = np.empty((len(rec.outcomes), 14))
    _steps(cfg, _state(cfg.prior.mean, cfg.prior.cov), rec.outcomes.tolist(),
           cfg.kind, out=out)
    return FilterTrace(times=rec.times, mean=out[:, :3],
                       cov=out[:, 3:12].reshape(-1, 3, 3),
                       innovation=out[:, 12], innovation_var=out[:, 13])


def omega_at(cfg: FilterConfig, rec: MeasurementRecord, ks) -> list[float]:
    """``run_filter(cfg, rec).omega_hat[k - 1]`` for each k of ascending
    ``ks`` (repeats allowed), bit for bit, from a pass that steps from one
    k to the next, stops at the last and builds no trace.  The inputs are
    checked as ``run_filter`` checks them, and ``ks`` as record lengths,
    before any step.

    A CKF segment factors P afresh where the whole pass might reuse the
    last correction's pivots; ``_steps`` reuses them only when they are
    exactly that factor, so the two agree."""
    rec.check_delta(cfg.params.Delta)
    ks = rec.check_lengths(ks)
    ys = rec.outcomes[:ks[-1]].tolist()
    x = _state(cfg.prior.mean, cfg.prior.cov)
    out = []
    start = 0
    for k in ks:
        x = _steps(cfg, x, ys[start:k], cfg.kind)[0]
        start = k
        out.append(x[0])
    return out


@model.checked
def default_prior(p: SpmParams, sigma_omega: Positive) -> GaussianPrior:
    """Broad reference prior: omega ~ N(omega_bar, sigma_omega^2), spin mean
    at the polarized state with isotropic covariance 0.01 N^2.  A spread
    that is not finite and > 0, or a variance beyond float range, raises
    InvalidParametersError."""
    mean = np.array([p.omega_bar, 0.0, 0.5 * p.N])
    with np.errstate(over="ignore"):  # an overflow is reported below
        try:
            # a float square: an integer's would be an object array entry
            omega_var, spin_var = float(sigma_omega) ** 2, 0.01 * p.N ** 2
        except OverflowError:  # Python numbers beyond float range
            omega_var = spin_var = math.inf
    if not (math.isfinite(omega_var) and math.isfinite(spin_var)):
        raise InvalidParametersError(
            f"prior variances sigma_omega^2 and 0.01 N^2 must be finite, got "
            f"sigma_omega = {sigma_omega!r}, N = {p.N!r}")
    cov = np.diag([omega_var, spin_var, spin_var])
    return GaussianPrior(mean, cov)
