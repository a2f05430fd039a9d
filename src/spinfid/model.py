"""Physical parameters of the magnetometer, the frequency signal models and
the exact discrete-time law of the linear spin subsystem.

Everything is SI: angular frequencies in rad/s, times in s, photocurrents in
pA.  The transverse spin pair (J_y, J_z) obeys

    dJ = A_c(omega) J dt + sqrt(Q) dW,      A_c = [[-1/T2, omega], [-omega, -1/T2]],

with isotropic atomic noise of strength Q = q N / T2.  Over a sampling window
of length ``delta`` the exact discretization is a damped rotation plus
additive Gaussian noise with isotropic standard deviation
sqrt((qN/2)(1 - exp(-2 delta/T2))).

``check_value`` is the one rule for every number spinfid takes: the config
schema ``_SCHEMA`` holds the types, finiteness and bounds of the config
fields (``check_fields`` checks a config class's fields by it) and of the
checked function arguments, which name their annotation (``Positive`` and
``NonNegative`` numbers, ``Count`` integers from 1 to np.intp's largest
value, and ``Index`` integers >= 0).
``as_json`` writes a config in the format that ``from_dict`` reads.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import InvalidParametersError

TWO_PI = 2.0 * math.pi

# Annotations of the bounded numbers: config fields and checked arguments
# take them by name, so that ``_SCHEMA`` holds their bounds.
Positive = NonNegative = float
Count = Index = int

# The config schema: field annotation -> (the values it takes, what they
# are, the annotations of a sequence's items: one per place, or one then ...
# for any length, the bounds of a number: each (">", ">=" or "<=", limit));
# the config classes' own entries follow the classes.  A Count is a size,
# so it is at most the largest array index; an Index is a seed, which
# numpy takes however large.
_SIZE_MAX = int(np.iinfo(np.intp).max)
_SCHEMA = {
    "float": (numbers.Real, "a number", None, ()),
    "Positive": (numbers.Real, "a number", None, ((">", 0),)),
    "NonNegative": (numbers.Real, "a number", None, ((">=", 0),)),
    "Optional[float]": ((numbers.Real, type(None)), "a number or null", None,
                        ()),
    "Optional[Positive]": ((numbers.Real, type(None)), "a number or null",
                           None, ((">", 0),)),
    "int": (numbers.Integral, "an integer", None, ()),
    "Count": (numbers.Integral, "an integer", None,
              ((">=", 1), ("<=", _SIZE_MAX))),
    "Index": (numbers.Integral, "an integer", None, ((">=", 0),)),
    "str": (str, "a string", None, ()),
    "tuple[str, ...]": ((list, tuple), "a list of strings", ("str", ...), ()),
    "tuple[Positive, ...]": (
        (list, tuple), "a list of numbers", ("Positive", ...), ()),
    "tuple[float, float]": (
        (list, tuple), "a number pair", ("float", "float"), ()),
    "tuple[tuple[float, float], ...]": (
        (list, tuple), "a list of number pairs", ("tuple[float, float]", ...),
        ()),
}
_WITHIN = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _holds(value, types) -> bool:
    """Whether a value is one of ``types``; a bool is no number."""
    return not isinstance(value, bool) and isinstance(value, types)


def _conform(value, annotation: str):
    """``value`` as a field of ``annotation`` stores it, a list or tuple as a
    tuple; TypeError if it is not what the annotation takes, ValueError
    with what it must be if it is or holds a number that is not a finite
    float or is outside a bound."""
    types, _, items, bounds = _SCHEMA[annotation]
    if not _holds(value, types):
        raise TypeError
    if items is None:
        if _holds(value, numbers.Real):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond float range
                finite = False
            if not finite:
                raise ValueError("finite")
            for bound in bounds:
                if not _WITHIN[bound[0]](value, bound[1]):
                    raise ValueError("%s %s" % bound)
        return value
    if items[-1] is ...:
        items = items[:1] * len(value)
    elif len(value) != len(items):
        raise TypeError
    return tuple(_conform(v, a) for v, a in zip(value, items))


def real_array(value, what: str) -> np.ndarray:
    """``value`` as a float64 array, a float64 array as is;
    InvalidParametersError unless it holds integers or floats only (a
    bool, a complex number or a string is none)."""
    try:
        array = np.asarray(value)
        real = array.dtype.kind in "iuf"
    except (TypeError, ValueError):  # a ragged sequence
        real = False
    if not real:
        raise InvalidParametersError(
            f"{what} must be integers or floats, got {value!r}")
    return array.astype(np.float64, copy=False)


def check_value(owner: str, name: str, value, annotation: str):
    """The one rule for every checked number: ``value`` as a field of
    ``annotation`` stores it, if it is what ``_SCHEMA`` says the annotation
    takes (its type, a finite number, within the number's bounds).
    Otherwise InvalidParametersError names ``owner`` (a config class or a
    function) and its field or argument ``name``, in one of three shapes:
    "<owner> 'name' must be <what>, got v" for a wrong type, "<owner> name
    must be finite, got v" (an integer beyond float range is not finite),
    and "<owner> name must be >= 1, got v" for a number outside a bound
    (a Count above np.intp's largest value reads "must be <=
    9223372036854775807" on a 64-bit build)."""
    try:
        return _conform(value, annotation)
    except TypeError:
        raise InvalidParametersError(
            f"{owner} {name!r} must be {_SCHEMA[annotation][1]}, "
            f"got {value!r}") from None
    except ValueError as exc:
        raise InvalidParametersError(
            f"{owner} {name} must be {exc}, got {value!r}") from None


def check_fields(obj) -> None:
    """Each field of the dataclass ``obj`` checked by ``check_value`` against
    its annotation, a sequence stored as a tuple: so ``_SCHEMA`` holds the
    types, finiteness and bounds of the config fields.  Every config class
    calls this from ``__post_init__``, however it is built."""
    owner = type(obj).__name__
    for f in fields(obj):
        object.__setattr__(obj, f.name, check_value(
            owner, f.name, getattr(obj, f.name), f.type))


def check_json(cls, d, what: str) -> dict:
    """``d`` if it is a JSON object of fields of ``cls``, else
    InvalidParametersError; ``check_fields`` checks the values."""
    if not isinstance(d, dict):
        raise InvalidParametersError(f"{what} must be an object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidParametersError(f"unknown {what} keys: {sorted(unknown)}")
    return d


def as_json(value):
    """The JSON form of a config value that ``from_dict`` reads back: a
    signal is an object with its ``_SIGNAL_KINDS`` key as "kind", another
    config object an object of its fields, and a tuple a list."""
    if is_dataclass(value):
        d = {f.name: as_json(getattr(value, f.name)) for f in fields(value)}
        kind = _KIND_OF.get(type(value))
        return d if kind is None else {"kind": kind, **d}
    if isinstance(value, tuple):
        return [as_json(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class SpmParams:
    """Constants of the simulated magnetometer.

    Defaults reproduce the reference hot-vapour experiment: a nominal Larmor
    frequency of 2*pi*10 kHz sampled every 5 us, with the coherence time
    pinned to 0.87 ms via ``T2_override`` (the Gamma/alpha decomposition is
    kept for atom-number sweeps, where T2 must be recomputed per N).
    """

    omega_bar: float = TWO_PI * 1.0e4      # nominal Larmor frequency, rad/s
    g_D: Positive = 0.00177                # measurement strength, pA per unit spin
    R: Positive = 96.0                     # photocurrent noise density, pA^2/Hz
    N: Positive = 0.44e12                  # atom number
    q: NonNegative = 0.25                  # per-atom thermal variance, F(F+1)/3 for F=1/2
    Gamma: NonNegative = TWO_PI * 658.5    # linewidth part of 1/T2, rad/s
    alpha: NonNegative = TWO_PI * 3.5e-10  # spin-exchange part of 1/T2, rad/s per atom
    Delta: Positive = 5.0e-6               # sampling period, s
    T2_override: Optional[Positive] = 0.87e-3  # coherence time, s; None -> 1/(Gamma + alpha*N)

    def __post_init__(self):
        check_fields(self)

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

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """Mean-reverting frequency noise: d omega = -(omega - omega_bar)/tau dt + sqrt(d_c) dW."""

    omega_bar: float      # rad/s
    tau: Positive         # mean-reversion time, s
    d_c: NonNegative      # diffusion coefficient, rad^2/s^3
    omega_start: Optional[float] = None  # initial value; None -> omega_bar

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Wiener:
    """Free diffusion of the frequency (the tau -> infinity limit of OU)."""

    omega0: float       # rad/s
    d_c: NonNegative    # rad^2/s^3

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Sinusoid:
    omega_bar: float   # rad/s
    amplitude: float   # rad/s
    mod_freq: float    # Hz

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Step:
    omega_bar: float
    jumps: tuple[tuple[float, float], ...] = ()  # ordered (time s, new value rad/s)

    def __post_init__(self):
        check_fields(self)
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
_KIND_OF = {cls: kind for kind, cls in _SIGNAL_KINDS.items()}

_SCHEMA["SpmParams"] = (SpmParams, "a parameter object", None, ())
_SCHEMA["Optional[SignalModel]"] = (
    (*_SIGNAL_KINDS.values(), type(None)), "a signal or null", None, ())


def signal_from_dict(d: dict) -> SignalModel:
    if not isinstance(d, dict):
        raise InvalidParametersError(f"signal must be an object, got {d!r}")
    d = dict(d)
    kind = d.pop("kind", None)
    if not (isinstance(kind, str) and kind in _SIGNAL_KINDS):
        raise InvalidParametersError(f"unknown signal kind: {kind!r}")
    cls = _SIGNAL_KINDS[kind]
    try:
        return cls(**check_json(cls, d, f"{kind} signal"))
    except TypeError as exc:  # a missing field
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
        mean = np.atleast_1d(real_array(self.mean, "prior mean"))
        cov = np.atleast_2d(real_array(self.cov, "prior covariance"))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise InvalidParametersError("prior covariance shape does not match mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidParametersError("prior mean and covariance must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if not np.allclose(cov, cov.T, atol=1e-12 * scale):
            raise InvalidParametersError("prior covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) < -1e-9 * scale:
            raise InvalidParametersError("prior covariance must be positive semidefinite")


def _check_inputs(owner: str, omega: float = 0.0, t: NonNegative = 0.0,
                  sigma_omega: Positive = 1.0) -> None:
    """``check_value`` on the arguments omega, t and sigma_omega of the
    function ``owner``; the defaults pass."""
    check_value(owner, "omega", omega, "float")
    check_value(owner, "t", t, "NonNegative")
    check_value(owner, "sigma_omega", sigma_omega, "Positive")


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


# samples per chunk of the constant-pole recurrence (a power of two, so that
# sde_sim._BLOCK is a multiple of it); a pole far from the unit circle halves
# it until |pole|^L and |pole|^-L both stay within 1e100
_CHUNK = 256
_LOG_RANGE = 100.0 * math.log(10.0)


def _chunk_powers(pole) -> tuple[np.ndarray, np.ndarray]:
    """(pole^1..pole^L, pole^-1..pole^-L) for the pole's chunk length L: the
    powers are products in sequence, so a real pole keeps a real dtype."""
    rate = abs(math.log(abs(pole)))
    size = _CHUNK
    while size > 1 and size * rate > _LOG_RANGE:
        size //= 2
    powers = np.cumprod(np.full(size, pole, dtype=np.result_type(pole, 1.0)))
    return powers, 1.0 / powers


def _recurrence(pole, eta: np.ndarray, z0) -> np.ndarray:
    """z_1..z_n of z_k = pole z_{k-1} + eta_k for one scalar pole, chunk by
    chunk (see ``damped_rotation``)."""
    eta = np.asarray(eta)
    dtype = np.result_type(pole, eta, z0)
    if pole == 0:
        return eta.astype(dtype)
    powers, inverse = _chunk_powers(pole)
    size = len(powers)
    start = dtype.type(z0).item()
    if size == 1:
        # |pole|^-1 beyond 1e100 leaves no room for a chunk: one step at a
        # time, on Python scalars
        path = [start]
        p = powers[0].item()
        for e in eta.tolist():
            path.append(p * path[-1] + e)
        return np.array(path[1:], dtype)
    n = len(eta)
    n_full = n // size * size
    # one chunk per row, the last partial one padded with zeros, so that
    # every sample goes through the same array operations, each an inner
    # loop of length L: numpy's vector loops may round the remainder of a
    # shorter product, or a product written over its input, unlike their body
    part = np.empty((-(-n // size), size), dtype)
    # S_j = sum_{i<=j} eta_{c+i} p^-i
    np.multiply(eta[:n_full].reshape(-1, size), inverse,
                out=part[:n_full // size])
    if n_full < n:
        tail = np.zeros(size, eta.dtype)
        tail[:n - n_full] = eta[n_full:]
        np.multiply(tail, inverse, out=part[-1])
    np.cumsum(part, axis=1, out=part)
    # the path from 0 within each chunk, S_j p^j
    z = np.empty_like(part)
    np.multiply(part, powers, out=z)
    # each chunk's start from the one before, z_{c+L} = p^L z_c + S_L p^L
    starts = [start]
    p_last = powers[-1].item()
    for local in z[:, -1].tolist():
        starts.append(p_last * starts[-1] + local)
    starts = np.array(starts, dtype)
    np.multiply(starts[:-1, None], powers, out=part)
    z += part
    # a chunk ends on the start it hands on, so that a block that ends
    # there hands the next block the same state
    z[:, -1] = starts[1:]
    return z.reshape(-1)[:n]


def damped_rotation(pole, eta: np.ndarray, z0: complex) -> np.ndarray:
    """Path z_1..z_n of the recurrence z_k = pole_k z_{k-1} + eta_k from z0.

    For the spin pair z = J_y + i J_z the pole is a damped rotation and eta
    the additive noise that the caller draws.  A scalar pole p splits the
    path into chunks of L samples from its first one (L = ``_CHUNK``,
    halved while |p|^L or |p|^-L exceeds 1e100).  Within a chunk that
    starts after z_c,

        z_{c+j} = S_j p^j + z_c p^j,    S_j = sum_{i<=j} eta_{c+i} p^-i,

    by a cumsum, and the chunk starts follow one another by
    z_{c+L} = p^L z_c + S_L p^L.  Every sample takes the same operations
    given its place in its chunk, the last partial chunk included (it is
    padded with zeros to a whole chunk), so a shorter path is a
    bit-identical prefix of a longer one, and paths solved block by block
    from the last state equal one solve over the whole array when each
    block is a multiple of L.  That rests on numpy rounding element j of an
    inner loop of length L the same way in every row; it was checked with
    numpy 2.4 on an AVX-512 x86-64 CPU, and the prefix tests in
    ``test_sde`` and ``test_atoms`` fail if another build rounds otherwise.
    A pole with |p|^-1 beyond 1e100 (L = 1) is stepped one sample at a time.
    The output has the dtype of (pole, eta, z0), real for a real
    recurrence; a pole of 0 gives z_k = eta_k.

    An array holds one pole per step and runs as a prefix-product scan with
    the decay d = |pole_1| taken out: with R = cumprod(pole / d), w = z / R
    obeys the constant-pole recurrence w_k = d w_{k-1} + eta_k / R_k.  |R|
    stays near 1, so nothing underflows however much the path decays, as
    P = cumprod(pole) would in z = P (z0 + cumsum(eta / P)).  Poles that
    are all 0, as when the decay exp(-h/T2) underflows, give z_k = eta_k.
    """
    if np.ndim(pole) == 0:
        return _recurrence(pole, eta, z0)
    if not np.any(pole):
        return np.array(eta, dtype=complex)
    d = abs(pole[0])
    # the leading 1 keeps every product in sequence: numpy's cumprod of
    # exactly two complex numbers rounds unlike that of longer arrays, and a
    # path would then depend on where its record ends
    r = np.cumprod(np.concatenate(([1.0], pole / d)))[1:]
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
