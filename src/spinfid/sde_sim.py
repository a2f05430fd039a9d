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

The package's one noise drawer, ``_drawn_ahead``, draws a long noise
stream on the one worker of a standard-library thread pool, two blocks
ahead of the caller that walks it; numpy draws with the GIL released, so
the draws overlap the walk.  It has two users: ``_states`` for a diffusing
frequency's shot of more than one block, and the atom-count sampler
(``atoms``).  A waveform's shot and a one-block diffusing shot draw each
block on the calling thread, just before it is walked.  Either way the
blocks come in stream order, so every path and record is the same bit for
bit.

Each question about a shot has one answer here.  The frequency starts where
the signal says (``model.initial_omega``).  ``_frequency_sde`` is the one
lookup of (1/tau, omega_bar, sqrt(d_c)) per signal, zeros for a waveform;
the step coefficients, ``drift`` and the Euler-Maruyama reference all read
it.  ``sample_indices`` is the one rule for how many samples a time holds.
The one-step functions take the caller's increments and draw nothing.

Monte-Carlo shot i of a master seed has one rule too: ``_stream`` is its
stream, SeedSequence(seed, spawn_key=(i,)), the i-th child of
``SeedSequence(seed).spawn``, for the config's shot, the atom-count trials,
the sweep runs and the numeric bound's samples; ``_mc_shot`` draws on it
omega = mu + sigma z and a record of k samples at that frequency.
"""

from __future__ import annotations

import collections
import contextlib
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import IntegrationBlowupError, InvalidParametersError
from .model import Count, Positive, Seed, SignalModel, SpmParams

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
    and every other cell with str.  The rows are drawn before the file is
    opened, so a row source that raises leaves no file behind."""
    lines = [header] + [",".join(f"{v:.10g}" if isinstance(v, float)
                                 else str(v) for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _sample_count(t, delta: float) -> int:
    """Index k of the sample t_k = k*delta nearest the time t, a time
    halfway between two samples going to the later one, and 0 below
    delta/2: the samples that a record of duration t holds.  A time that
    is no number (a bool is none), is not finite (an integer beyond float
    range is not) or holds more samples than an array can index (k above
    np.intp's largest value, the bound of a ``Count``) raises
    InvalidParametersError."""
    try:
        x = model._conform(t, "float") / delta
    except TypeError:
        raise InvalidParametersError(f"time {t!r} is not a number") from None
    except ValueError:  # an integer beyond float range, or nan or inf
        x = math.inf
    if not math.isfinite(x):
        raise InvalidParametersError(f"time {t} is not finite")
    # floor(x + 0.5) would round 0.49999999999999994 up to 1
    k = math.floor(x)
    k += x - k >= 0.5
    if k > model._SIZE_MAX:
        raise InvalidParametersError(
            f"time {t} holds more than {model._SIZE_MAX} samples at "
            f"Delta = {delta}, the most an array can index")
    return k


def sample_indices(times, delta: float) -> list[int]:
    """``_sample_count`` of each time, the one rule for how many samples a
    probing time, a record duration or a bound time holds; a time that
    rounds to no sample (k < 1, i.e. below delta/2) raises
    InvalidParametersError too."""
    ks = []
    for t in times:
        k = _sample_count(t, delta)
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
    """Photocurrent outcomes y_k at t_k = k*delta, k = 1..K, with K >= 1."""

    delta: Positive
    outcomes: np.ndarray  # pA

    def __post_init__(self):
        model.check_value("MeasurementRecord", "delta", self.delta,
                          "Positive")
        outcomes = model.real_array(self.outcomes, "measurement outcomes")
        object.__setattr__(self, "outcomes", outcomes)
        if outcomes.ndim != 1:
            raise InvalidParametersError(
                "measurement outcomes must be one-dimensional")
        if len(outcomes) == 0:
            raise InvalidParametersError("empty measurement record")
        # a filter checks its state after each prediction only, so a
        # non-finite last sample would come out as its final estimate
        if not np.isfinite(outcomes).all():
            raise InvalidParametersError("measurement outcomes must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(1, len(self.outcomes) + 1)

    def check_delta(self, delta: float) -> None:
        """InvalidParametersError unless the record was sampled every
        ``delta`` s, to the rounding of a CSV timestamp: a model at another
        period would read every sample at the wrong time."""
        if abs(self.delta - delta) > _CSV_TIME_RTOL * delta:
            raise InvalidParametersError(
                f"record sampled every {self.delta} s, but the parameters "
                f"have Delta = {delta} s")

    def check_lengths(self, lengths) -> list:
        """``lengths`` as a list, after InvalidParametersError unless they
        are integer prefix lengths of this record in ascending order
        (repeats allowed), at least one, each within 1..len(record).  A
        float or a bool is no length, even if it holds a whole number."""
        lengths = list(lengths)
        if not all(model._holds(k, numbers.Integral) for k in lengths):
            raise InvalidParametersError(
                f"record lengths must be integers, got {lengths!r}")
        if (not lengths or lengths[0] < 1
                or lengths[-1] > len(self.outcomes)
                or lengths != sorted(lengths)):
            raise InvalidParametersError(
                "record lengths must ascend within 1..len(record)")
        return lengths

    def truncated(self, k: int) -> "MeasurementRecord":
        return MeasurementRecord(self.delta, self.outcomes[:k])

    def to_csv(self, path) -> None:
        _write_csv(path, "t,y", ((repr(float(t)), repr(float(y)))
                                 for t, y in zip(self.times, self.outcomes)))

    @classmethod
    def from_csv(cls, path) -> "MeasurementRecord":
        """Read a ``to_csv`` file: a header line, then at least one row of
        exactly two numbers t,y, with the timestamps t_k = k*t_1; any other
        shape raises InvalidParametersError."""
        with warnings.catch_warnings():
            # a header-only file is reported below as an empty record
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            except ValueError:  # a cell that is no number, or a ragged row
                data = None
        if data is not None and len(data) < 1:
            raise InvalidParametersError("empty measurement record")
        if data is None or data.shape[1] != 2:
            raise InvalidParametersError(
                "measurement record rows must each be two numbers t,y")
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


def _drawn_ahead(rng: np.random.Generator, sizes: list):
    """Standard normal blocks of the given sizes, drawn in order from
    ``rng`` by the one worker of a ``ThreadPoolExecutor`` while the caller
    uses the block before: the package's one noise drawer.  Two draws are
    in flight while the caller holds a block, and each block is a fresh
    array.  A failed draw is raised here, and the draws queued after it
    find a flag it set and draw nothing.  The caller closes this generator
    on every exit (``contextlib.closing``), which joins the worker without
    cancelling a queued draw: a walk that fails in block b has then read
    the stream to block min(b + 2, last), whatever the threads' timing."""
    failed = False

    def draw(n):  # one worker: each call sees the flag of the one before
        nonlocal failed
        if not failed:
            try:
                return rng.standard_normal(n)
            except BaseException:
                failed = True
                raise

    # imported here: at the top it adds milliseconds to ``import spinfid``
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = collections.deque()
        for n in sizes:
            ahead.append(pool.submit(draw, n))
            if len(ahead) > 2:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _states(p: SpmParams, s: SignalModel, n_sub: int, h: float,
            rng: np.random.Generator, x1: float) -> np.ndarray:
    """Substep path (n_sub + 1, 3) from (x1, 0, N/2), one block at a time.

    A block of n substeps takes 6n standard normals, (n, 2, 3) in stream
    order, for a diffusing frequency and 2n, (n, 2), for a waveform.  A
    diffusing shot of more than one block draws them on ``_drawn_ahead``'s
    worker, two blocks ahead of the walk, and after a blow-up in block b
    has read the stream to block min(b + 2, last); any other shot draws
    each block on this thread just before it is walked, and after a
    blow-up has read the stream no further than that block.  The draws and
    the increment pair are let go once the step coefficients are formed,
    before the spin walk.
    """
    t2 = model.coherence_time(p)
    b = model.discrete_spin_noise_std(p.q, p.N, h, t2)
    stochastic = model.is_stochastic(s)
    constant = isinstance(s, model.Constant)
    states = np.empty((n_sub + 1, 3))
    states[:, 0] = x1 if stochastic or constant else model.deterministic_omega(
        s, h * np.arange(n_sub + 1))
    states[0, 1:] = (0.0, 0.5 * p.N)
    starts = range(0, n_sub, _BLOCK)
    sizes = [(6 if stochastic else 2) * min(_BLOCK, n_sub - start)
             for start in starts]
    if stochastic and len(sizes) > 1:
        draws = _drawn_ahead(rng, sizes)
    else:
        draws = (rng.standard_normal(size) for size in sizes)
    with contextlib.closing(draws):
        for start, w in zip(starts, draws):
            block = states[start + 1:start + 1 + _BLOCK]
            n = len(block)
            if stochastic:
                # (2, 3, n): each component's draws contiguous for the pair
                w = w.reshape(n, 2, 3).transpose(1, 2, 0).copy()
                xi, zeta = _correlated_pair(h, w[0], w[1])
                phi, omega_bar, e = _taylor_frequency(h, s, xi[0], zeta[0])
                block[:, 0] = omega_bar + model.damped_rotation(
                    phi, e, states[start, 0] - omega_bar)
                pole, eta = _taylor_spin(h, p, s, states[start:start + n, 0],
                                         xi, zeta)
                del xi, zeta, e
            else:
                eta = b * (w[0::2] + 1j * w[1::2])
                # frequency frozen at its start-of-substep value
                pole = model.rotation_pole(
                    x1 if constant else states[start:start + n, 0], h, t2)
            del w  # the walk needs only the coefficients: free the draws
            z = model.damped_rotation(pole, eta, complex(*states[start, 1:]))
            block[:, 1] = z.real
            block[:, 2] = z.imag
            if not np.all(np.isfinite(block)):
                raise IntegrationBlowupError(
                    "trajectory diverged during simulation")
    return states


@model.checked
def simulate(p: SpmParams, s: SignalModel, duration: float,
             substeps: Count = 5,
             seed: Seed = 0) -> tuple[Trajectory, MeasurementRecord]:
    """Integrate the extended state and emit the synthetic photocurrent record.

    The frequency starts where the signal says (``Constant.omega0``,
    ``OrnsteinUhlenbeck.omega_start``, ``Wiener.omega0``, a waveform's value
    at t = 0) and the spin exactly at the polarized mean (0, N/2).
    Measurements y_k = g_D * J_z(t_k) + v_k with v_k ~ N(0, R/Delta) are
    taken at every t_k = k*Delta, k = 1..K, with K the sample nearest
    ``duration`` (:func:`sample_indices`); the integrator runs at step
    Delta/substeps.  Diffusing frequencies use the order-1.5 Taylor scheme,
    deterministic waveforms the exact frozen-frequency step (see the module
    docstring).  A diffusing shot of more than one block draws its noise
    on the worker of ``_drawn_ahead``, which is joined before this returns
    or raises.  Identical inputs give bit-identical outputs.  K, and the
    substep path's bytes, (K ``substeps`` + 1) x 3 x 8, must be at most
    np.intp's largest value, the most an array can index; a larger count
    raises InvalidParametersError before anything is allocated.  A path
    within that range can still need more memory than there is
    (MemoryError).  ``seed`` is a ``model.Seed``: an integer >= 0 of any
    size, or a numpy Generator, BitGenerator or SeedSequence.
    """
    n_meas = sample_indices([duration], p.Delta)[0]
    n_sub = n_meas * substeps
    n_bytes = (n_sub + 1) * 3 * 8  # the (n_sub + 1, 3) float64 path
    if n_bytes > model._SIZE_MAX:
        raise InvalidParametersError(
            f"simulate duration {duration} at Delta = {p.Delta} with "
            f"{substeps} substeps a sample takes a path of {n_bytes} bytes, "
            f"more than {model._SIZE_MAX}, the most an array can index")
    rng = np.random.default_rng(seed)
    h = p.Delta / substeps

    states = _states(p, s, n_sub, h, rng, model.initial_omega(s))
    times = h * np.arange(n_sub + 1)
    # photon shot-noise, independent of the atomic noise stream
    v = math.sqrt(model.measurement_noise_variance(p)) * rng.standard_normal(n_meas)
    jz_samples = states[substeps::substeps, 2]
    outcomes = p.g_D * jz_samples + v
    return Trajectory(times, states), MeasurementRecord(p.Delta, outcomes)


def _stream(seed: int, i: int) -> np.random.Generator:
    """The stream of Monte-Carlo shot i of ``seed``: the one stream rule."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def _mc_shot(p: SpmParams, mu: float, sigma: float, k: int, substeps: int,
             seed: int, i: int) -> tuple[float, MeasurementRecord]:
    """(omega, record) of Monte-Carlo shot i of ``seed``, the one shot rule:
    omega = mu + sigma z on ``_stream(seed, i)``, then a record of k samples
    at that constant frequency."""
    rng = _stream(seed, i)
    omega = mu + sigma * rng.standard_normal()
    return omega, simulate(p, model.Constant(omega), k * p.Delta,
                           substeps=substeps, seed=rng)[1]
