"""Physical parameters of the magnetometer, the frequency signal models and
the exact discrete-time law of the linear spin subsystem.

Everything is SI: angular frequencies in rad/s, times in s, photocurrents in
pA.  The transverse spin pair (J_y, J_z) obeys

    dJ = A_c(omega) J dt + sqrt(Q) dW,      A_c = [[-1/T2, omega], [-omega, -1/T2]],

with isotropic atomic noise of strength Q = q N / T2.  Over a sampling window
of length ``delta`` the exact discretization is a damped rotation plus
additive Gaussian noise with isotropic standard deviation
sqrt((qN/2)(1 - exp(-2 delta/T2))).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidParametersError

TWO_PI = 2.0 * math.pi

# field annotation -> (the JSON values it takes, their name); a bool is
# none of them
_JSON_TYPES = {
    "float": (numbers.Real, "a number"),
    "Optional[float]": ((numbers.Real, type(None)), "a number or null"),
    "int": (numbers.Integral, "an integer"),
    "tuple": ((list, tuple), "a list"),
}


def check_json(cls, d, what: str) -> dict:
    """``d`` if it is a JSON object whose keys are fields of ``cls`` and
    whose number, integer and list fields hold one; else
    InvalidParametersError."""
    if not isinstance(d, dict):
        raise InvalidParametersError(f"{what} must be an object, got {d!r}")
    by_name = {f.name: f for f in fields(cls)}
    unknown = set(d) - set(by_name)
    if unknown:
        raise InvalidParametersError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in d.items():
        types, name = _JSON_TYPES.get(by_name[key].type, (object, None))
        if name and (isinstance(value, bool) or not isinstance(value, types)):
            raise InvalidParametersError(
                f"{what} {key!r} must be {name}, got {value!r}")
    return d


@dataclass(frozen=True)
class SpmParams:
    """Constants of the simulated magnetometer.

    Defaults reproduce the reference hot-vapour experiment: a nominal Larmor
    frequency of 2*pi*10 kHz sampled every 5 us, with the coherence time
    pinned to 0.87 ms via ``T2_override`` (the Gamma/alpha decomposition is
    kept for atom-number sweeps, where T2 must be recomputed per N).
    """

    omega_bar: float = TWO_PI * 1.0e4   # nominal Larmor frequency, rad/s
    g_D: float = 0.00177                # measurement strength, pA per unit spin
    R: float = 96.0                     # photocurrent noise density, pA^2/Hz
    N: float = 0.44e12                  # atom number
    q: float = 0.25                     # per-atom thermal variance, F(F+1)/3 for F=1/2
    Gamma: float = TWO_PI * 658.5       # linewidth part of 1/T2, rad/s
    alpha: float = TWO_PI * 3.5e-10     # spin-exchange part of 1/T2, rad/s per atom
    Delta: float = 5.0e-6               # sampling period, s
    T2_override: Optional[float] = 0.87e-3  # coherence time, s; None -> 1/(Gamma + alpha*N)

    def __post_init__(self):
        for name in ("g_D", "R", "N", "Delta"):
            if not getattr(self, name) > 0.0:
                raise InvalidParametersError(f"{name} must be strictly positive")
        if self.q < 0.0:
            raise InvalidParametersError("q must be non-negative")
        if self.Gamma < 0.0 or self.alpha < 0.0:
            raise InvalidParametersError("Gamma and alpha must be non-negative")
        if self.T2_override is not None and not self.T2_override > 0.0:
            raise InvalidParametersError("T2_override must be strictly positive")

    @classmethod
    def from_dict(cls, d: dict) -> "SpmParams":
        """Build from a JSON-style dict; missing keys keep their defaults."""
        return cls(**check_json(cls, d, "parameter"))

    @classmethod
    def from_json(cls, path) -> "SpmParams":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def with_atom_number(self, n: float) -> "SpmParams":
        """Copy with a new N and the coherence time recomputed from Gamma/alpha."""
        return replace(self, N=n, T2_override=None)


# --------------------------------------------------------------------------
# Larmor-frequency signal models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    omega0: float  # rad/s


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """Mean-reverting frequency noise: d omega = -(omega - omega_bar)/tau dt + sqrt(d_c) dW."""

    omega_bar: float      # rad/s
    tau: float            # mean-reversion time, s
    d_c: float            # diffusion coefficient, rad^2/s^3
    omega_start: Optional[float] = None  # initial value; None -> omega_bar

    def __post_init__(self):
        if not self.tau > 0.0:
            raise InvalidParametersError("OU tau must be strictly positive")
        if self.d_c < 0.0:
            raise InvalidParametersError("OU d_c must be non-negative")


@dataclass(frozen=True)
class Wiener:
    """Free diffusion of the frequency (the tau -> infinity limit of OU)."""

    omega0: float  # rad/s
    d_c: float     # rad^2/s^3

    def __post_init__(self):
        if self.d_c < 0.0:
            raise InvalidParametersError("Wiener d_c must be non-negative")


@dataclass(frozen=True)
class Sinusoid:
    omega_bar: float   # rad/s
    amplitude: float   # rad/s
    mod_freq: float    # Hz


@dataclass(frozen=True)
class Step:
    omega_bar: float
    jumps: tuple = ()  # ordered (time s, new value rad/s) pairs

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple((float(t), float(w))
                                                for t, w in self.jumps))
        times = [t for t, _ in self.jumps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidParametersError("step jump times must be strictly increasing")


SignalModel = Union[Constant, OrnsteinUhlenbeck, Wiener, Sinusoid, Step]

_SIGNAL_KINDS = {
    "constant": Constant,
    "ou": OrnsteinUhlenbeck,
    "wiener": Wiener,
    "sinusoid": Sinusoid,
    "step": Step,
}


def signal_from_dict(d: dict) -> SignalModel:
    if not isinstance(d, dict):
        raise InvalidParametersError(f"signal must be an object, got {d!r}")
    d = dict(d)
    kind = d.pop("kind", None)
    if not (isinstance(kind, str) and kind in _SIGNAL_KINDS):
        raise InvalidParametersError(f"unknown signal kind: {kind!r}")
    cls = _SIGNAL_KINDS[kind]
    check_json(cls, d, f"{kind} signal")
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:  # a missing field, or bad jumps
        raise InvalidParametersError(f"{kind} signal: {exc}") from exc


def is_stochastic(s: SignalModel) -> bool:
    """OU/Wiener frequencies diffuse; the rest are deterministic waveforms."""
    return isinstance(s, (OrnsteinUhlenbeck, Wiener))


def initial_omega(s: SignalModel) -> float:
    if isinstance(s, Constant):
        return s.omega0
    if isinstance(s, OrnsteinUhlenbeck):
        return s.omega_bar if s.omega_start is None else s.omega_start
    if isinstance(s, Wiener):
        return s.omega0
    return deterministic_omega(s, 0.0)


def deterministic_omega(s: SignalModel, t):
    """Waveform value at time t (a float or an array of times) for the
    exogenously-driven signal models."""
    if isinstance(s, Constant):
        return s.omega0
    if isinstance(s, Sinusoid):
        return s.omega_bar + s.amplitude * np.sin(TWO_PI * s.mod_freq * t)
    if isinstance(s, Step):
        # the value after the last jump at or before t
        values = np.array([s.omega_bar] + [new for _, new in s.jumps])
        return values[np.searchsorted([t_jump for t_jump, _ in s.jumps], t,
                                      "right")]
    raise InvalidParametersError(f"{type(s).__name__} is not a deterministic waveform")


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian belief used to initialize filters and estimators."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise InvalidParametersError("prior covariance shape does not match mean")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if not np.allclose(cov, cov.T, atol=1e-12 * scale):
            raise InvalidParametersError("prior covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) < -1e-9 * scale:
            raise InvalidParametersError("prior covariance must be positive semidefinite")


# --------------------------------------------------------------------------
# Derived quantities
# --------------------------------------------------------------------------

def coherence_time(p: SpmParams) -> float:
    """Transverse coherence time T2; override wins over the Gamma/alpha model."""
    if p.T2_override is not None:
        return p.T2_override
    rate = p.Gamma + p.alpha * p.N
    if not rate > 0.0:
        raise InvalidParametersError("1/T2 = Gamma + alpha*N must be positive")
    return 1.0 / rate


def atomic_noise_strength(p: SpmParams) -> float:
    """Atomic noise strength Q = q N / T2, in Hz."""
    return p.q * p.N / coherence_time(p)


def measurement_noise_variance(p: SpmParams) -> float:
    """Variance of the accumulated photon shot-noise per sample, R/Delta (pA^2)."""
    return p.R / p.Delta


def discrete_spin_noise_var(q: float, n: float, delta: float, t2: float) -> float:
    """Isotropic noise variance b^2 of the exact discretization: the
    integrated diffusion over one step, with stationary limit qN/2."""
    return 0.5 * q * n * (1.0 - math.exp(-2.0 * delta / t2))


def discrete_spin_noise_std(q: float, n: float, delta: float, t2: float) -> float:
    """Isotropic noise std b of the exact discretization."""
    return math.sqrt(discrete_spin_noise_var(q, n, delta, t2))


def rotation_pole(omega, delta: float, t2: float):
    """Pole exp(-delta/T2 - i omega delta) of the exact damped rotation of
    z = J_y + i J_z over a step of length delta at the frozen frequency
    omega (a float or an array of frequencies)."""
    return np.exp(-delta / t2 - 1j * omega * delta)


def damped_rotation(pole, eta: np.ndarray, z0: complex) -> np.ndarray:
    """Path z_1..z_n of the recurrence z_k = pole_k z_{k-1} + eta_k from z0.

    For the spin pair z = J_y + i J_z the pole is a damped rotation and eta
    the additive noise that the caller draws.  A scalar pole, as at a
    constant frequency, runs as one linear filter.  An array holds one pole
    per step and runs as a prefix-product scan with the decay d = |pole_1|
    taken out: with R = cumprod(pole / d), w = z / R obeys the
    constant-pole recurrence w_k = d w_{k-1} + eta_k / R_k.  |R| stays near
    1, so nothing underflows however much the path decays, as
    P = cumprod(pole) would in z = P (z0 + cumsum(eta / P)).  Poles that
    are all 0, as when the decay exp(-h/T2) underflows, give z_k = eta_k.
    """
    if np.ndim(pole) == 0:
        z, _ = lfilter([1.0], [1.0, -pole], eta, zi=np.array([pole * z0]))
        return z
    if not np.any(pole):
        return np.array(eta, dtype=complex)
    d = abs(pole[0])
    r = np.cumprod(pole / d)
    return r * damped_rotation(d, eta / r, z0)


def signal_discrete_params(s: SignalModel, delta: float) -> tuple[float, float, float]:
    """Exact one-step parameters (phi, offset, d1) of the frequency dynamics:
    omega' = phi * omega + offset + sqrt(d1) * w.

    Only diffusive signals (OU, Wiener) have a discrete law; deterministic
    waveforms are driven exogenously by the simulator.
    """
    if isinstance(s, OrnsteinUhlenbeck):
        phi = math.exp(-delta / s.tau)
        offset = s.omega_bar * (1.0 - phi)
        d1 = 0.5 * s.tau * s.d_c * (1.0 - math.exp(-2.0 * delta / s.tau))
        return phi, offset, d1
    if isinstance(s, Wiener):
        return 1.0, 0.0, s.d_c * delta
    raise InvalidParametersError(
        f"{type(s).__name__} has no discrete parameters; only OU/Wiener do"
    )
