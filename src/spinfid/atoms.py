"""Atom-number estimation from steady-state measurement fluctuations.

After the coherent transient has decayed the renormalized photocurrent
y_k / g_D is a zero-mean Gaussian sequence with variance qN/2 + R/(g_D^2 Delta):
the stationary spin fluctuation plus the renormalized shot noise.  Inverting
the variance estimator for N gives an unbiased atom-number estimate whose
relative error shrinks as 1/sqrt(k).

The sampler of such outcomes runs on two threads: while the calling thread
walks the spin recurrence block by block, ``_Drawer``, the package's one
noise drawer, draws the next block of noise from the same generator on a
second thread, and the record is bit for bit the serial one.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import model, sde_sim
from .errors import InvalidParametersError
from .model import Count, Samples, Seed, SpmParams


@dataclass(frozen=True)
class AtomCountEstimate:
    n_hat: float
    sigma_n: float
    k_used: Samples
    degenerate: bool  # variance estimate below the shot-noise floor

    def __post_init__(self):
        model.check_value("AtomCountEstimate", "k_used", self.k_used,
                          "Samples")


def steady_state_variance(samples) -> float:
    """Variance estimator (1/(k-1)) sum y_k^2 of the renormalized outcomes;
    the sequence mean is known to be zero in steady state, so no sample mean
    is subtracted.  Samples that are not one 1-D sequence of integers or
    floats (``model.real_array``), or whose sum of squares is not finite (a
    NaN or an infinite sample), raise InvalidParametersError; the check
    reads the sum, so it takes no extra pass over the samples."""
    y = model.real_array(samples, "atom samples")
    if y.ndim != 1:
        raise InvalidParametersError(
            f"samples must be one 1-D sequence, got shape {y.shape}")
    k = y.size
    if k < 2:
        raise InvalidParametersError(
            "variance estimation needs at least 2 samples")
    with np.errstate(over="ignore"):  # an overflow is reported below
        sum_sq = float(y @ y)
    if not math.isfinite(sum_sq):
        raise InvalidParametersError(
            "samples must be finite, with a finite sum of squares")
    return sum_sq / (k - 1)


def estimate_atom_number(samples, p: SpmParams) -> AtomCountEstimate:
    """Invert the steady-state variance qN/2 + R/(g_D^2 Delta) for N.

    ``samples`` must be renormalized outcomes y_k / g_D taken in steady state
    (t >> T2); that is the caller's responsibility.  A variance estimate below
    the shot-noise floor yields a non-positive N_hat, returned as-is with the
    degenerate flag set.  q = 0, where the variance holds no information on
    N, and an estimate beyond float range raise InvalidParametersError.
    """
    if p.q == 0.0:
        raise InvalidParametersError(
            "atom counting needs q > 0: at q = 0 the steady-state variance "
            "carries no information on N")
    y = model.real_array(samples, "atom samples")
    k = y.size
    var_hat = steady_state_variance(y)
    gain = p.g_D ** 2 * p.Delta
    shot = p.R / gain if gain > 0.0 else math.inf  # gain may underflow
    n_hat = 2.0 / p.q * (var_hat - shot)
    sigma_n = math.sqrt(2.0 / (k - 1)) * (n_hat + 2.0 * shot / p.q)
    if not (math.isfinite(n_hat) and math.isfinite(sigma_n)):
        raise InvalidParametersError(
            f"atom-number estimate is beyond float range at q = {p.q!r}, "
            f"g_D = {p.g_D!r}, R = {p.R!r}, Delta = {p.Delta!r}")
    return AtomCountEstimate(n_hat, sigma_n, k, degenerate=n_hat <= 0.0)


class _Drawer:
    """Standard normal blocks of the given sizes, drawn in order from one
    generator on a second thread into a ring of two reused buffers: the one
    noise drawer of the package, used by
    :func:`sample_steady_state_outcomes`.

    Entering starts the thread and ``blocks`` yields each block as it is
    filled; the drawer refills a buffer only once the caller has moved on
    from it, so it runs at most one block ahead of the caller.  Leaving
    stops the thread and joins it, whether the walk ended, raised or was
    cut short, and an exception raised by a draw is raised again in the
    caller by ``blocks``.
    """

    def __init__(self, rng: np.random.Generator, sizes: list, length: int):
        self._buffers = np.empty((2, length))
        self._free = threading.Semaphore(2)
        self._filled = threading.Semaphore(0)
        self._stop = False
        self._failure = None
        self._thread = threading.Thread(target=self._draw, args=(rng, sizes),
                                        name="spinfid-drawer", daemon=True)

    def __enter__(self) -> "_Drawer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop = True
        self._free.release()  # wakes a drawer that waits for a buffer
        self._thread.join()

    def _draw(self, rng, sizes) -> None:
        try:
            for i, n in enumerate(sizes):
                self._free.acquire()
                if self._stop:
                    return
                rng.standard_normal(out=self._buffers[i % 2, :n])
                self._filled.release()
        except BaseException as exc:
            # every exception is raised again in the caller by ``blocks``,
            # which would otherwise wait for a block that never comes
            self._failure = exc
            self._filled.release()

    def blocks(self):
        """The drawn blocks in order; each is the caller's until it asks for
        the next."""
        for i in itertools.count():
            self._filled.acquire()
            if self._failure is not None:
                raise self._failure
            yield self._buffers[i % 2]
            self._free.release()


# samples per block of the sampler's walk: whole blocks of
# ``sde_sim._BLOCK``, so whole chunks of the rotation's recurrence; at
# ``sde_sim._BLOCK`` itself the hand-offs between the two threads cost more
# than the overlap saves
_BLOCK = 4 * sde_sim._BLOCK


def sample_steady_state_outcomes(p: SpmParams, omega: float, k: Count,
                                 seed: Seed = 0) -> np.ndarray:
    """Draw k renormalized steady-state outcomes y_k / g_D.

    The spin starts from its thermal stationary law (each component
    N(0, qN/2)) and advances by the exact discrete damped rotation, which
    samples the same stationary process as a long pumped run at a tiny
    fraction of the cost.

    The k real parts of the spin noise are drawn straight into the returned
    array, which is then walked one block of ``_BLOCK`` samples at a time
    (16384, four blocks of ``sde_sim._BLOCK``).  Meanwhile ``_Drawer``, a
    second thread, draws every block of imaginary parts and then every
    block of shot noise from the same generator into a ring of two
    buffers; numpy draws and runs its ufuncs with the GIL released, so the
    draws overlap the walk.  Each block of the walk builds eta from its
    imaginary parts, advances the rotation from the state the previous
    block left and is overwritten with J_z; a second walk adds the shot
    noise.  The draws keep their order (k real, k imaginary, k shot) and
    every sample takes the same operations given its place in its chunk of
    ``model.damped_rotation``, so the record is bit for bit the same for
    every block size that is a multiple of the chunk length L (``_BLOCK``
    is), and the same to rounding for any other; the bit identity was
    checked with numpy 2.4 on an AVX-512 x86-64 CPU (see
    ``model.damped_rotation``).  The working set is the output plus the
    two buffers and the walk's temporaries, a few blocks in all.  Noise
    scales beyond float range, and a seed that is no ``model.Seed``, raise
    InvalidParametersError before any draw.
    """
    model.check_value("sample_steady_state_outcomes", "k", k, "Count")
    model._check_inputs("sample_steady_state_outcomes", omega)
    model.check_value("sample_steady_state_outcomes", "seed", seed, "Seed")
    rng = np.random.default_rng(seed)
    t2 = model.coherence_time(p)
    shot_std = math.sqrt(model.measurement_noise_variance(p)) / p.g_D
    b = model.discrete_spin_noise_std(p.q, p.N, p.Delta, t2)
    stat_std = math.sqrt(0.5 * p.q * p.N)
    if not all(map(math.isfinite, (shot_std, b, stat_std))):
        raise InvalidParametersError(
            f"sample_steady_state_outcomes noise is beyond float range at "
            f"g_D = {p.g_D!r}, q = {p.q!r}, N = {p.N!r}")
    pole = model.rotation_pole(omega, p.Delta, t2)
    block = _BLOCK
    starts = range(0, k, block)
    sizes = [min(block, k - start) for start in starts]

    z = stat_std * (rng.standard_normal() + 1j * rng.standard_normal())
    out = rng.standard_normal(k)
    eta = np.empty(sizes[0], dtype=complex)
    with _Drawer(rng, sizes * 2, sizes[0]) as drawer:
        draws = drawer.blocks()
        # zip asks ``starts`` first, so each walk takes its own blocks
        for start, im in zip(starts, draws):
            y = out[start:start + block]
            im, e = im[:len(y)], eta[:len(y)]
            # e = b * (y + 1j * im), rounded as on whole arrays
            np.multiply(1j, im, out=e)
            np.add(y, e, out=e)
            e *= b
            path = model.damped_rotation(pole, e, z)
            z = path[-1]
            y[:] = path.imag
        for start, v in zip(starts, draws):
            y = out[start:start + block]
            v = v[:len(y)]
            v *= shot_std
            y += v
    return out
