"""Atom-number estimation from steady-state measurement fluctuations.

After the coherent transient has decayed the renormalized photocurrent
y_k / g_D is a zero-mean Gaussian sequence with variance qN/2 + R/(g_D^2 Delta):
the stationary spin fluctuation plus the renormalized shot noise.  Inverting
the variance estimator for N gives an unbiased atom-number estimate whose
relative error shrinks as 1/sqrt(k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, sde_sim
from .model import SpmParams


@dataclass(frozen=True)
class AtomCountEstimate:
    n_hat: float
    sigma_n: float
    k_used: int
    degenerate: bool  # variance estimate below the shot-noise floor

    def __post_init__(self):
        if self.k_used < 2:
            raise ValueError("atom-count estimate needs at least 2 samples")


def steady_state_variance(samples, subtract_mean: bool = False) -> float:
    """Variance estimator (1/(k-1)) sum y_k^2 of the renormalized outcomes.

    The sequence mean is known to be zero in steady state, so by default no
    sample mean is subtracted; ``subtract_mean`` switches to the centered
    estimator.
    """
    y = np.asarray(samples, dtype=float)
    k = y.size
    if k < 2:
        raise ValueError("variance estimation needs at least 2 samples")
    if subtract_mean:
        y = y - y.mean()
    return float(y @ y) / (k - 1)


def estimate_atom_number(samples, p: SpmParams) -> AtomCountEstimate:
    """Invert the steady-state variance qN/2 + R/(g_D^2 Delta) for N.

    ``samples`` must be renormalized outcomes y_k / g_D taken in steady state
    (t >> T2); that is the caller's responsibility.  A variance estimate below
    the shot-noise floor yields a non-positive N_hat, returned as-is with the
    degenerate flag set.
    """
    y = np.asarray(samples, dtype=float)
    k = y.size
    var_hat = steady_state_variance(y)
    shot = p.R / (p.g_D ** 2 * p.Delta)
    n_hat = 2.0 / p.q * (var_hat - shot)
    sigma_n = math.sqrt(2.0 / (k - 1)) * (n_hat + 2.0 * shot / p.q)
    return AtomCountEstimate(n_hat, sigma_n, k, degenerate=n_hat <= 0.0)


def sample_steady_state_outcomes(p: SpmParams, omega: float, k: int,
                                 seed=0) -> np.ndarray:
    """Draw k renormalized steady-state outcomes y_k / g_D.

    The spin starts from its thermal stationary law (each component
    N(0, qN/2)) and advances by the exact discrete damped rotation, which
    samples the same stationary process as a long pumped run at a tiny
    fraction of the cost.
    """
    if k < 1:
        raise ValueError("need at least one sample")
    rng = sde_sim._as_rng(seed)
    t2 = model.coherence_time(p)
    shot_std = math.sqrt(model.measurement_noise_variance(p)) / p.g_D
    b = model.discrete_spin_noise_std(p.q, p.N, p.Delta, t2)
    stat_std = math.sqrt(0.5 * p.q * p.N)

    z0 = stat_std * (rng.standard_normal() + 1j * rng.standard_normal())
    eta = b * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    z = model.damped_rotation(model.rotation_pole(omega, p.Delta, t2), eta, z0)
    return z.imag + shot_std * rng.standard_normal(k)
