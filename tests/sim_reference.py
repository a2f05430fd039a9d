"""Per-substep simulator loops kept as the test oracle of ``spinfid.sde_sim``.

These are the substep paths as they ran before every signal moved onto one
vectorised recurrence, with the same arithmetic: installed as
``sde_sim._states`` they reproduce the outputs that the pinned digests in
``test_recorded_outputs.py`` were recorded from bit for bit.  The module also
holds the exact one-step spin transition as a matrix, and the atom-count
sampler's integrator route, for the tests that use them as references.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

from spinfid import model, sde_sim
from spinfid.errors import IntegrationBlowupError
from spinfid.model import Constant, SignalModel, SpmParams

# substeps per block of noise converted to Python floats; the block size
# bounds the memory of those lists and does not change the random stream
_CHUNK = 4096


def discrete_spin_transition(omega: float, delta: float, t2: float) -> np.ndarray:
    """Exact one-step transition of (J_y, J_z): damped rotation by omega*delta."""
    e = math.exp(-delta / t2)
    c = math.cos(omega * delta)
    s = math.sin(omega * delta)
    return np.array([[e * c, e * s], [-e * s, e * c]])


def _taylor_constants(h: float, p: SpmParams, s: SignalModel) -> tuple:
    """Scalars of ``_taylor_step`` at step h: (h, h^2/2, 1/tau, omega_bar,
    1/T2, sqrt(d_c), sqrt(Q)); the OU terms are zero for other signals."""
    if isinstance(s, model.OrnsteinUhlenbeck):
        tau_inv, omega_bar = 1.0 / s.tau, s.omega_bar
    else:
        tau_inv, omega_bar = 0.0, 0.0
    return (h, 0.5 * h * h, tau_inv, omega_bar, 1.0 / model.coherence_time(p),
            sde_sim._signal_noise_std(s),
            math.sqrt(model.atomic_noise_strength(p)))


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
        # the constant-frequency AR(1) as one linear filter
        pole = np.exp(-h / t2 - 1j * x1 * h)
        z, _ = lfilter([1.0], [1.0, -pole], b * (w[:, 0] + 1j * w[:, 1]),
                       zi=np.array([pole * complex(x2, x3)]))
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
        xi, zeta = sde_sim._correlated_pair(h, z[:, 0], z[:, 1])
        for xi_i, zeta_i in zip(xi.tolist(), zeta.tolist()):
            x = _taylor_step(x, xi_i, zeta_i, c)
            step += 1
            states[step] = x
        if not all(map(math.isfinite, x)):
            raise IntegrationBlowupError("trajectory diverged during simulation")
    return states


def states(p: SpmParams, s: SignalModel, n_sub: int, h: float,
           rng: np.random.Generator, x1: float) -> np.ndarray:
    """Drop-in for ``sde_sim._states``: the substep path by the loops."""
    path = _simulate_taylor if model.is_stochastic(s) else _simulate_exogenous
    return path(p, s, n_sub, h, rng, x1)


def taylor_step(x, h: float, p: SpmParams, s: SignalModel, xi, zeta) -> np.ndarray:
    """One order-1.5 step by the scalar kernel, for given increments."""
    return np.array(_taylor_step(tuple(x), tuple(xi), tuple(zeta),
                                 _taylor_constants(h, p, s)))


def integrated_steady_state_outcomes(p: SpmParams, omega: float, k: int, seed,
                                     burn_in_coherence_times: float = 10.0):
    """k renormalized outcomes y_k / g_D of a full ``simulate`` run from the
    polarized state, after a burn-in of ``burn_in_coherence_times`` * T2: the
    long pumped run that the atom-count sampler's stationary start replaces."""
    n_burn = int(math.ceil(burn_in_coherence_times * model.coherence_time(p)
                           / p.Delta))
    _, rec = sde_sim.simulate(p, Constant(omega), (n_burn + k) * p.Delta,
                              seed=seed)
    return rec.outcomes[n_burn:n_burn + k] / p.g_D
