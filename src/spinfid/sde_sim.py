"""Ground-truth simulation of the extended state (omega, J_y, J_z).

The extended state obeys an Ito SDE with constant diagonal diffusion
diag(sqrt(d_c), sqrt(Q), sqrt(Q)), which permits the strong order 1.5
Ito-Taylor scheme:

    x' = x + h f + (h^2/2) F f + Qm xi + F Qm zeta,

with F the drift Jacobian and the correlated Gaussian pair (xi, zeta) ~
cov [[h, h^2/2], [h^2/2, h^3/3]] per component.  The scheme's
diffusion-weighted second-derivative correction b is identically zero here:
the diffusion matrix is diagonal, so only diagonal second derivatives of the
drift contribute, and those all vanish (the only curvature is in the mixed
x1*x3 and x1*x2 terms).  ``simulate`` and ``ito_taylor_1p5_step`` run the
same scalar kernel, ``_taylor_step``.

Deterministic waveforms (Constant, Sinusoid, Step) are injected exogenously:
the first state component follows the waveform, and the spin pair advances by
the exact frozen-frequency discretization per substep (a damped rotation plus
additive Gaussian noise).  That path is statistically exact for Constant and
Step signals and avoids the order-h^2 rotation truncation of the Taylor
scheme, whose accumulated phase error (an effective frequency shift of about
omega^3 h^2 / 6) would otherwise dominate the sub-rad/s estimation errors
this model supports.  Diffusing frequencies (OU, Wiener) use the Ito-Taylor
scheme, which captures the frequency-spin noise coupling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import IntegrationBlowupError, InvalidParametersError
from .model import SignalModel, SpmParams

# substeps per block of noise converted to Python floats; the block size
# bounds the memory of those lists and does not change the random stream
_CHUNK = 4096


@dataclass(frozen=True)
class Trajectory:
    """Extended-state path sampled at every integration substep."""

    times: np.ndarray   # (n+1,), starts at 0, strictly increasing
    states: np.ndarray  # (n+1, 3) columns omega, J_y, J_z


def _write_csv(path, header: str, rows) -> None:
    """The package's CSV layout: CRLF line ends, floats written with .10g
    and every other cell with str."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                              for v in row) + "\r\n")


def sample_indices(times, delta: float) -> list[int]:
    """Index k of the sample t_k = k*delta nearest each probing time; a time
    that rounds to no sample (k < 1) raises InvalidParametersError."""
    ks = []
    for t in times:
        k = int(round(t / delta))
        if k < 1:
            raise InvalidParametersError(
                f"probing time {t} rounds to no sample at Delta = {delta}")
        ks.append(k)
    return ks


# to_csv writes round-trip timestamps; files written with 9 significant
# digits round t_k and t_1 by up to 5e-9 relative each, so k * t_1 matches
# t_k to 1e-8 relative there
_CSV_TIME_RTOL = 2e-8


@dataclass(frozen=True)
class MeasurementRecord:
    """Photocurrent outcomes y_k at t_k = k*delta, k = 1..K."""

    delta: float
    outcomes: np.ndarray  # pA

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(1, len(self.outcomes) + 1)

    def truncated(self, k: int) -> "MeasurementRecord":
        return MeasurementRecord(self.delta, self.outcomes[:k])

    def to_csv(self, path) -> None:
        _write_csv(path, "t,y", ((repr(float(t)), repr(float(y)))
                                 for t, y in zip(self.times, self.outcomes)))

    @classmethod
    def from_csv(cls, path) -> "MeasurementRecord":
        """Read a ``to_csv`` file; the timestamps must be t_k = k*t_1."""
        with warnings.catch_warnings():
            # a header-only file is reported below as an empty record
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if len(data) < 1:
            raise InvalidParametersError("empty measurement record")
        times, outcomes = data[:, 0], data[:, 1]
        delta = float(times[0])
        expected = delta * np.arange(1, len(times) + 1)
        if not (delta > 0.0 and np.all(
                np.abs(times - expected) <= _CSV_TIME_RTOL * expected)):
            raise InvalidParametersError(
                "measurement times are not uniform multiples k*t_1")
        return cls(delta, outcomes)


def _signal_noise_std(s: SignalModel) -> float:
    if isinstance(s, (model.OrnsteinUhlenbeck, model.Wiener)):
        return math.sqrt(s.d_c)
    return 0.0


def drift(t: float, x: np.ndarray, p: SpmParams, s: SignalModel) -> np.ndarray:
    """Drift of the extended state; frequency component only for OU
    (mean reversion), zero for Wiener and for exogenous waveforms."""
    t2 = model.coherence_time(p)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    if isinstance(s, model.OrnsteinUhlenbeck):
        f1 = -(x1 - s.omega_bar) / s.tau
    else:
        f1 = 0.0
    return np.array([f1, -x2 / t2 + x1 * x3, -x3 / t2 - x1 * x2])


def _correlated_pair(h: float, z1, z2):
    """(xi, zeta) from independent standard normals z1, z2 (scalars or
    arrays): per component, the increment of W over h and its time
    integral."""
    xi = 0.5 * math.sqrt(h) * (math.sqrt(3.0) * z1 + z2)
    zeta = (h ** 1.5 / math.sqrt(3.0)) * z1
    return xi, zeta


def sample_correlated_increments(h: float, rng: np.random.Generator, n: int = 3):
    """Draw the (xi, zeta) pair: per component, xi ~ increment of W over h and
    zeta ~ its time integral, jointly Gaussian with cov [[h, h^2/2], [h^2/2, h^3/3]]."""
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return _correlated_pair(h, z1, z2)


def _taylor_constants(h: float, p: SpmParams, s: SignalModel) -> tuple:
    """Scalars of ``_taylor_step`` at step h: (h, h^2/2, 1/tau, omega_bar,
    1/T2, sqrt(d_c), sqrt(Q)); the OU terms are zero for other signals."""
    if isinstance(s, model.OrnsteinUhlenbeck):
        tau_inv, omega_bar = 1.0 / s.tau, s.omega_bar
    else:
        tau_inv, omega_bar = 0.0, 0.0
    return (h, 0.5 * h * h, tau_inv, omega_bar, 1.0 / model.coherence_time(p),
            _signal_noise_std(s), math.sqrt(model.atomic_noise_strength(p)))


def _taylor_step(x, xi, zeta, c) -> tuple:
    """Order-1.5 step x' = x + h f + (h^2/2) F f + Qm xi + F Qm zeta on
    scalars, with c from ``_taylor_constants``."""
    x1, x2, x3 = x
    h, half_h2, tau_inv, omega_bar, t2_inv, sq_dc, sq_q = c
    f1 = -tau_inv * (x1 - omega_bar)
    f2 = -x2 * t2_inv + x1 * x3
    f3 = -x3 * t2_inv - x1 * x2
    # F f with F the drift Jacobian (row 1 = (-tau_inv, 0, 0))
    ff1 = -tau_inv * f1
    ff2 = x3 * f1 - f2 * t2_inv + x1 * f3
    ff3 = -x2 * f1 - x1 * f2 - f3 * t2_inv
    # F (Qm zeta)
    g1 = sq_dc * zeta[0]
    g2 = sq_q * zeta[1]
    g3 = sq_q * zeta[2]
    fq1 = -tau_inv * g1
    fq2 = x3 * g1 - g2 * t2_inv + x1 * g3
    fq3 = -x2 * g1 - x1 * g2 - g3 * t2_inv
    return (x1 + h * f1 + half_h2 * ff1 + sq_dc * xi[0] + fq1,
            x2 + h * f2 + half_h2 * ff2 + sq_q * xi[1] + fq2,
            x3 + h * f3 + half_h2 * ff3 + sq_q * xi[2] + fq3)


def ito_taylor_1p5_step(x: np.ndarray, h: float, p: SpmParams, s: SignalModel,
                        rng: np.random.Generator | None = None,
                        increments=None) -> np.ndarray:
    """One strong order 1.5 step of the extended-state SDE.

    ``increments`` overrides the (xi, zeta) pair with externally supplied
    Brownian increment/integral values (used when coupling to a shared path);
    by default they are drawn from ``rng``.
    """
    xi, zeta = sample_correlated_increments(h, rng) if increments is None else increments
    x_new = np.array(_taylor_step(x, xi, zeta, _taylor_constants(h, p, s)))
    if not np.all(np.isfinite(x_new)):
        raise IntegrationBlowupError("non-finite state after Ito-Taylor step")
    return x_new


def euler_maruyama_step(x: np.ndarray, h: float, p: SpmParams, s: SignalModel,
                        rng: np.random.Generator | None = None,
                        increment=None) -> np.ndarray:
    """One Euler-Maruyama (strong order 1.0) step; reference scheme only.

    ``increment`` overrides the Brownian increment vector (shared-path use).
    """
    q_big = model.atomic_noise_strength(p)
    qm = np.array([_signal_noise_std(s), math.sqrt(q_big), math.sqrt(q_big)])
    dw = math.sqrt(h) * rng.standard_normal(3) if increment is None else increment
    x_new = x + h * drift(0.0, x, p, s) + qm * dw
    if not np.all(np.isfinite(x_new)):
        raise IntegrationBlowupError("non-finite state after Euler-Maruyama step")
    return x_new


def _simulate_exogenous(p: SpmParams, s: SignalModel, n_sub: int, h: float,
                        rng: np.random.Generator, x1: float) -> np.ndarray:
    """Substep path for deterministic waveforms: exact damped rotation at the
    frequency frozen over each substep, plus the exact integrated noise."""
    t2 = model.coherence_time(p)
    b = model.discrete_spin_noise_std(p.q, p.N, h, t2)
    x2, x3 = 0.0, 0.5 * p.N
    w = rng.standard_normal((n_sub, 2))

    states = np.empty((n_sub + 1, 3))
    states[0] = (x1, x2, x3)
    if isinstance(s, model.Constant):
        z = model.damped_rotation_ar1(x1, h, t2, complex(x2, x3),
                                      b * (w[:, 0] + 1j * w[:, 1]))
        states[1:, 0] = x1
        states[1:, 1] = z.real
        states[1:, 2] = z.imag
    else:
        decay = math.exp(-h / t2)
        for start in range(0, n_sub, _CHUNK):
            for step, (w1, w2) in enumerate(w[start:start + _CHUNK].tolist(), start):
                # frequency frozen at its start-of-substep value
                x1 = model.deterministic_omega(s, step * h)
                ec = decay * math.cos(x1 * h)
                es = decay * math.sin(x1 * h)
                x2, x3 = (ec * x2 + es * x3 + b * w1,
                          -es * x2 + ec * x3 + b * w2)
                states[step + 1] = (model.deterministic_omega(s, (step + 1) * h),
                                    x2, x3)
    if not np.all(np.isfinite(states[-1, 1:])):
        raise IntegrationBlowupError("trajectory diverged during simulation")
    return states


def _simulate_taylor(p: SpmParams, s: SignalModel, n_sub: int, h: float,
                     rng: np.random.Generator, x1: float) -> np.ndarray:
    """Substep path for diffusing frequencies by the order-1.5 kernel."""
    c = _taylor_constants(h, p, s)
    x = (x1, 0.0, 0.5 * p.N)
    states = np.empty((n_sub + 1, 3))
    states[0] = x
    step = 0
    while step < n_sub:
        block = min(_CHUNK, n_sub - step)
        z = rng.standard_normal((block, 2, 3))
        xi, zeta = _correlated_pair(h, z[:, 0], z[:, 1])
        for xi_i, zeta_i in zip(xi.tolist(), zeta.tolist()):
            x = _taylor_step(x, xi_i, zeta_i, c)
            step += 1
            states[step] = x
        if not all(map(math.isfinite, x)):
            raise IntegrationBlowupError("trajectory diverged during simulation")
    return states


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate(p: SpmParams, s: SignalModel, duration: float, substeps: int = 5,
             seed=0, omega_init: float | None = None) -> tuple[Trajectory, MeasurementRecord]:
    """Integrate the extended state and emit the synthetic photocurrent record.

    The spin starts exactly at the polarized mean (0, N/2).  Measurements
    y_k = g_D * J_z(t_k) + v_k with v_k ~ N(0, R/Delta) are taken at every
    t_k = k*Delta up to ``duration``; the integrator runs at step
    Delta/substeps.  Diffusing frequencies use the order-1.5 Taylor scheme,
    deterministic waveforms the exact frozen-frequency step (see the module
    docstring).  ``omega_init`` overrides the starting frequency of a
    Constant, OU or Wiener signal.  Identical inputs give bit-identical
    outputs.
    """
    if substeps < 1:
        raise InvalidParametersError("substeps must be >= 1")
    if duration < p.Delta:
        raise InvalidParametersError("duration must cover at least one sample")
    if omega_init is not None and isinstance(s, (model.Sinusoid, model.Step)):
        raise InvalidParametersError(
            "omega_init applies to Constant, OU and Wiener signals only; a "
            "waveform fixes its own frequency")
    rng = _as_rng(seed)
    n_meas = int(round(duration / p.Delta))
    n_sub = n_meas * substeps
    h = p.Delta / substeps
    x1 = model.initial_omega(s) if omega_init is None else float(omega_init)

    path = _simulate_taylor if model.is_stochastic(s) else _simulate_exogenous
    states = path(p, s, n_sub, h, rng, x1)
    times = h * np.arange(n_sub + 1)
    # photon shot-noise, independent of the atomic noise stream
    v = math.sqrt(model.measurement_noise_variance(p)) * rng.standard_normal(n_meas)
    jz_samples = states[substeps::substeps, 2]
    outcomes = p.g_D * jz_samples + v
    return Trajectory(times, states), MeasurementRecord(p.Delta, outcomes)
