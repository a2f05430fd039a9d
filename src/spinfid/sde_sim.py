"""Ground-truth simulation of the extended state (omega, J_y, J_z).

Every signal advances the spin pair z = J_y + i J_z by one recurrence,
z_k = a_k z_{k-1} + c_k, solved block by block by ``model.damped_rotation``.
Two rules build the frequency path and the coefficients.

Deterministic waveforms (Constant, Sinusoid, Step) are injected exogenously:
the frequency follows the waveform, and the spin takes the exact step at the
frequency frozen over each substep, a_k = exp(-h/T2 - i omega_k h), plus the
exact integrated noise c_k; at a constant frequency a_k is one scalar.  That
path is statistically exact for Constant and Step signals and avoids the
order-h^2 rotation truncation of the Taylor scheme, whose accumulated phase
error (an effective frequency shift of about omega^3 h^2 / 6) would
otherwise dominate the sub-rad/s estimation errors this model supports.

Diffusing frequencies (OU, Wiener) use the strong order 1.5 Ito-Taylor
scheme, which captures the frequency-spin noise coupling.  The extended
state obeys an Ito SDE with constant diagonal diffusion
Qm = diag(sqrt(d_c), sqrt(Q), sqrt(Q)), for which the scheme is

    x' = x + h f + (h^2/2) F f + Qm xi + F Qm zeta,

with F the drift Jacobian and the correlated Gaussian pair (xi, zeta) ~
cov [[h, h^2/2], [h^2/2, h^3/3]] per component.  The scheme's
diffusion-weighted second-derivative correction b is identically zero here:
the diffusion matrix is diagonal, so only diagonal second derivatives of the
drift contribute, and those all vanish (the only curvature is in the mixed
x1*x3 and x1*x2 terms).  The frequency drift f1 depends on omega alone, so
the frequency path is a real AR(1); given it, the spin step is the
recurrence with kappa = 1/T2 + i omega and g1 = sqrt(d_c) zeta_omega:

    a = 1 - h kappa + (h^2/2)(kappa^2 - i f1) - i g1,
    c = sqrt(Q) (xi_y + i xi_z) - kappa sqrt(Q) (zeta_y + i zeta_z).

``simulate`` and ``ito_taylor_1p5_step`` build these with the same code.

Each question about a shot has one answer here.  The frequency starts where
the signal says (``model.initial_omega``).  ``_frequency_sde`` is the one
lookup of (1/tau, omega_bar, sqrt(d_c)) per signal, zeros for a waveform;
the step coefficients, ``drift`` and the Euler-Maruyama reference all read
it.  ``sample_indices`` is the one rule for how many samples a time holds.
The one-step functions take the caller's increments and draw nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import IntegrationBlowupError, InvalidParametersError
from .model import SignalModel, SpmParams

# substeps per block: the noise is drawn and the recurrence solved one block
# at a time, which keeps the temporaries this size without changing the
# random stream
_BLOCK = 4096


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
    """Index k of the sample t_k = k*delta nearest each time, a time halfway
    between two samples going to the later one: the one rule for how many
    samples a probing time, a record duration or a bound time holds.  A
    time that rounds to no sample (k < 1, i.e. below delta/2) raises
    InvalidParametersError."""
    ks = []
    for t in times:
        x = t / delta
        # floor(x + 0.5) would round 0.49999999999999994 up to 1
        k = math.floor(x)
        k += x - k >= 0.5
        if k < 1:
            raise InvalidParametersError(
                f"time {t} rounds to no sample at Delta = {delta}")
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

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise InvalidParametersError(
                "sampling period must be finite and positive")
        # a filter checks its state after each prediction only, so a
        # non-finite last sample would come out as its final estimate
        if not np.isfinite(self.outcomes).all():
            raise InvalidParametersError("measurement outcomes must be finite")

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


def _frequency_sde(s: SignalModel) -> tuple:
    """(1/tau, omega_bar, sqrt(d_c)) of the frequency SDE
    d omega = -(omega - omega_bar)/tau dt + sqrt(d_c) dW; a Wiener signal has
    no mean reversion, and a waveform's frequency does not diffuse (zeros)."""
    if not model.is_stochastic(s):
        return 0.0, 0.0, 0.0
    if isinstance(s, model.OrnsteinUhlenbeck):
        return 1.0 / s.tau, s.omega_bar, math.sqrt(s.d_c)
    return 0.0, 0.0, math.sqrt(s.d_c)


def drift(x: np.ndarray, p: SpmParams, s: SignalModel) -> np.ndarray:
    """Drift of the extended state; frequency component only for OU
    (mean reversion), zero for Wiener and for exogenous waveforms."""
    t2 = model.coherence_time(p)
    tau_inv, omega_bar, _ = _frequency_sde(s)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    return np.array([-tau_inv * (x1 - omega_bar), -x2 / t2 + x1 * x3,
                     -x3 / t2 - x1 * x2])


def _correlated_pair(h: float, z1, z2):
    """(xi, zeta) from independent standard normals z1, z2 (scalars or
    arrays): per component, the increment of W over h and its time
    integral, jointly Gaussian with cov [[h, h^2/2], [h^2/2, h^3/3]]."""
    xi = 0.5 * math.sqrt(h) * (math.sqrt(3.0) * z1 + z2)
    zeta = (h ** 1.5 / math.sqrt(3.0)) * z1
    return xi, zeta


def _taylor_frequency(h: float, s: SignalModel, xi, zeta) -> tuple:
    """(phi, omega_bar, e) of the order-1.5 frequency step, the real AR(1)
    omega' - omega_bar = phi (omega - omega_bar) + e, from the frequency
    components of the increment pair."""
    tau_inv, omega_bar, sq_dc = _frequency_sde(s)
    phi = 1.0 - h * tau_inv + 0.5 * h * h * tau_inv * tau_inv
    return phi, omega_bar, sq_dc * (xi - tau_inv * zeta)


def _taylor_spin(h: float, p: SpmParams, s: SignalModel, omega, xi,
                 zeta) -> tuple:
    """(a, c) of the order-1.5 spin step z' = a z + c at the start-of-substep
    frequency omega, from the increment pair (xi, zeta) of (omega, J_y, J_z)
    indexed by component first."""
    tau_inv, omega_bar, sq_dc = _frequency_sde(s)
    kappa = 1.0 / model.coherence_time(p) + 1j * omega
    f1 = -tau_inv * (omega - omega_bar)
    sq_q = math.sqrt(model.atomic_noise_strength(p))
    a = (1.0 - h * kappa + 0.5 * h * h * (kappa * kappa - 1j * f1)
         - 1j * (sq_dc * zeta[0]))
    c = sq_q * (xi[1] + 1j * xi[2]) - kappa * (sq_q * (zeta[1] + 1j * zeta[2]))
    return a, c


def ito_taylor_1p5_step(x: np.ndarray, h: float, p: SpmParams, s: SignalModel,
                        increments) -> np.ndarray:
    """One strong order 1.5 step of the extended-state SDE from the caller's
    increment pair (xi, zeta), each indexed by component (omega, J_y, J_z);
    ``_correlated_pair`` builds one from standard normals."""
    xi, zeta = increments
    phi, omega_bar, e = _taylor_frequency(h, s, xi[0], zeta[0])
    a, c = _taylor_spin(h, p, s, x[0], xi, zeta)
    z = a * complex(x[1], x[2]) + c
    x_new = np.array([omega_bar + phi * (x[0] - omega_bar) + e, z.real, z.imag])
    if not np.all(np.isfinite(x_new)):
        raise IntegrationBlowupError("non-finite state after Ito-Taylor step")
    return x_new


def euler_maruyama_step(x: np.ndarray, h: float, p: SpmParams, s: SignalModel,
                        increment) -> np.ndarray:
    """One Euler-Maruyama (strong order 1.0) step from the caller's Brownian
    increment vector; reference scheme only."""
    sq_q = math.sqrt(model.atomic_noise_strength(p))
    qm = np.array([_frequency_sde(s)[2], sq_q, sq_q])
    x_new = x + h * drift(x, p, s) + qm * increment
    if not np.all(np.isfinite(x_new)):
        raise IntegrationBlowupError("non-finite state after Euler-Maruyama step")
    return x_new


def _states(p: SpmParams, s: SignalModel, n_sub: int, h: float,
            rng: np.random.Generator, x1: float) -> np.ndarray:
    """Substep path (n_sub + 1, 3) from (x1, 0, N/2), one block at a time."""
    t2 = model.coherence_time(p)
    b = model.discrete_spin_noise_std(p.q, p.N, h, t2)
    stochastic = model.is_stochastic(s)
    constant = isinstance(s, model.Constant)
    states = np.empty((n_sub + 1, 3))
    states[:, 0] = x1 if stochastic or constant else model.deterministic_omega(
        s, h * np.arange(n_sub + 1))
    states[0, 1:] = (0.0, 0.5 * p.N)
    for start in range(0, n_sub, _BLOCK):
        block = states[start + 1:start + 1 + _BLOCK]
        n = len(block)
        if stochastic:
            w = rng.standard_normal((n, 2, 3))
            xi, zeta = _correlated_pair(h, w[:, 0].T, w[:, 1].T)
            phi, omega_bar, e = _taylor_frequency(h, s, xi[0], zeta[0])
            block[:, 0] = omega_bar + model.damped_rotation(
                phi, e, states[start, 0] - omega_bar)
            pole, eta = _taylor_spin(h, p, s, states[start:start + n, 0], xi,
                                     zeta)
        else:
            w = rng.standard_normal((n, 2))
            eta = b * (w[:, 0] + 1j * w[:, 1])
            # frequency frozen at its start-of-substep value
            pole = model.rotation_pole(
                x1 if constant else states[start:start + n, 0], h, t2)
        z = model.damped_rotation(pole, eta, complex(*states[start, 1:]))
        block[:, 1] = z.real
        block[:, 2] = z.imag
        if not np.all(np.isfinite(block)):
            raise IntegrationBlowupError("trajectory diverged during simulation")
    return states


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def simulate(p: SpmParams, s: SignalModel, duration: float, substeps: int = 5,
             seed=0) -> tuple[Trajectory, MeasurementRecord]:
    """Integrate the extended state and emit the synthetic photocurrent record.

    The frequency starts where the signal says (``Constant.omega0``,
    ``OrnsteinUhlenbeck.omega_start``, ``Wiener.omega0``, a waveform's value
    at t = 0) and the spin exactly at the polarized mean (0, N/2).
    Measurements y_k = g_D * J_z(t_k) + v_k with v_k ~ N(0, R/Delta) are
    taken at every t_k = k*Delta, k = 1..K, with K the sample nearest
    ``duration`` (:func:`sample_indices`); the integrator runs at step
    Delta/substeps.  Diffusing frequencies use the order-1.5 Taylor scheme,
    deterministic waveforms the exact frozen-frequency step (see the module
    docstring).  Identical inputs give bit-identical outputs.
    """
    if substeps < 1:
        raise InvalidParametersError("substeps must be >= 1")
    n_meas = sample_indices([duration], p.Delta)[0]
    rng = _as_rng(seed)
    n_sub = n_meas * substeps
    h = p.Delta / substeps

    states = _states(p, s, n_sub, h, rng, model.initial_omega(s))
    times = h * np.arange(n_sub + 1)
    # photon shot-noise, independent of the atomic noise stream
    v = math.sqrt(model.measurement_noise_variance(p)) * rng.standard_normal(n_meas)
    jz_samples = states[substeps::substeps, 2]
    outcomes = p.g_D * jz_samples + v
    return Trajectory(times, states), MeasurementRecord(p.Delta, outcomes)
