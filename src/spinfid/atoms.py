"""Atom-number estimation from steady-state measurement fluctuations.

After the coherent transient has decayed the renormalized photocurrent
y_k / g_D is a zero-mean Gaussian sequence with variance qN/2 + R/(g_D^2 Delta):
the stationary spin fluctuation plus the renormalized shot noise.  Inverting
the variance estimator for N gives an unbiased atom-number estimate whose
relative error shrinks as 1/sqrt(k).

The sampler of such outcomes runs on two threads: while the calling thread
walks the spin recurrence block by block, ``sde_sim._drawn_ahead``, the
package's one noise drawer, has the one worker of a standard-library
thread pool draw the next two blocks of noise from the same generator, and
the record is bit for bit the serial one.  The drawer's other user is the
Ito-Taylor path of ``sde_sim.simulate``.
"""

from __future__ import annotations

import contextlib
import math
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
    floats (``model.real_array``), fewer than two of them (a ``Samples``
    count), or whose sum of squares is not finite (a NaN or an infinite
    sample), raise InvalidParametersError; the last check reads the sum, so
    it takes no extra pass over the samples."""
    y = model.real_array(samples, "atom samples")
    if y.ndim != 1:
        raise InvalidParametersError(
            f"samples must be one 1-D sequence, got shape {y.shape}")
    k = model.check_value("steady_state_variance", "sample count", y.size,
                          "Samples")
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


# samples per block of the sampler's walk: whole blocks of
# ``sde_sim._BLOCK``, so whole chunks of the rotation's recurrence; at
# ``sde_sim._BLOCK`` itself the hand-offs between the two threads cost more
# than the overlap saves
_BLOCK = 4 * sde_sim._BLOCK


@model.checked
def sample_steady_state_outcomes(p: SpmParams, omega: float, k: Count,
                                 seed: Seed = 0) -> np.ndarray:
    """Draw k renormalized steady-state outcomes y_k / g_D.

    The spin starts from its thermal stationary law (each component
    N(0, qN/2)) and advances by the exact discrete damped rotation, which
    samples the same stationary process as a long pumped run at a tiny
    fraction of the cost.

    The k real parts of the spin noise are drawn straight into the returned
    array, which is then walked one block of ``_BLOCK`` samples at a time
    (16384, four blocks of ``sde_sim._BLOCK``).  Meanwhile
    ``sde_sim._drawn_ahead`` has the one worker of a
    ``ThreadPoolExecutor``, a second thread, draw every block of imaginary
    parts and then every block of shot noise from the same generator, two
    blocks ahead of the walk; numpy draws and runs its ufuncs with the GIL
    released, so the draws overlap the walk.  Closing the drawer joins the
    worker, whether the walk ended or raised, and a failed draw is raised
    again here with nothing drawn after it.
    Each block of the walk builds eta from its imaginary parts, advances
    the rotation from the state the previous block left and is
    overwritten with J_z; a second walk adds the shot noise.  The draws
    keep their order (k real, k imaginary, k shot) and every sample takes
    the same operations given its place in its chunk of
    ``model.damped_rotation``, so the record is bit for bit the same for
    every block size that is a multiple of the chunk length L (``_BLOCK``
    is), and the same to rounding for any other; the bit identity was
    checked with numpy 2.4 on an AVX-512 x86-64 CPU (see
    ``model.damped_rotation``).  The working set is the output plus up to
    four fresh blocks of noise and the walk's temporaries, a few blocks
    in all.  Noise scales beyond float range, and a seed that is no
    ``model.Seed``, raise InvalidParametersError before any draw.
    """
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
    with contextlib.closing(sde_sim._drawn_ahead(rng, sizes * 2)) as draws:
        # zip asks ``starts`` first, so each walk takes its own blocks
        for start, im in zip(starts, draws):
            y = out[start:start + block]
            e = eta[:len(y)]
            # e = b * (y + 1j * im), rounded as on whole arrays
            np.multiply(1j, im, out=e)
            np.add(y, e, out=e)
            e *= b
            path = model.damped_rotation(pole, e, z)
            z = path[-1]
            y[:] = path.imag
        for start, v in zip(starts, draws):
            y = out[start:start + block]
            v *= shot_std
            y += v
    return out
