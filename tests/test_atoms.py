import math

import numpy as np
import pytest

import sim_reference
from spinfid import atoms
from spinfid.atoms import (AtomCountEstimate, estimate_atom_number,
                           sample_steady_state_outcomes, steady_state_variance)
from spinfid.model import SpmParams


def _easy_params():
    # shot noise well below the atomic variance, long sampling period so the
    # steady-state samples decorrelate between measurements
    return SpmParams(omega_bar=1.0, g_D=1.0, R=25.0, N=1000.0, q=0.5,
                     Delta=1.0, T2_override=0.87e-3)


class TestVarianceEstimator:
    def test_known_values(self):
        assert steady_state_variance([1.0, -1.0]) == pytest.approx(2.0)
        assert steady_state_variance([2.0, 4.0]) == pytest.approx(20.0)
        assert steady_state_variance([2.0, 4.0], subtract_mean=True) == \
            pytest.approx(2.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            steady_state_variance([1.0])


class TestEstimator:
    def test_plug_in_inversion_exact(self):
        p = _easy_params()  # shot-noise floor R/(g^2 Delta) = 25
        target_var = 0.5 * p.q * p.N + 25.0  # 275
        samples = [math.sqrt(target_var), 0.0]  # (k-1)-normalized var = target
        est = estimate_atom_number(samples, p)
        assert est.n_hat == pytest.approx(p.N)
        assert not est.degenerate
        assert est.k_used == 2
        assert est.sigma_n == pytest.approx(
            math.sqrt(2.0) * (p.N + 2.0 * 25.0 / p.q))

    def test_degenerate_flag(self):
        p = _easy_params()
        est = estimate_atom_number([1e-3, -1e-3, 1e-3], p)
        assert est.degenerate
        assert est.n_hat <= 0.0

    def test_estimate_needs_two_samples(self):
        with pytest.raises(ValueError):
            AtomCountEstimate(1.0, 1.0, 1, False)

    def test_unbiased_and_calibrated_on_synthetic_steady_state(self):
        p = _easy_params()
        trials = 200
        k = 2000
        n_hats, sigmas = [], []
        for seed in range(trials):
            y = sample_steady_state_outcomes(p, omega=1.0, k=k, seed=seed)
            est = estimate_atom_number(y, p)
            n_hats.append(est.n_hat)
            sigmas.append(est.sigma_n)
        n_hats = np.array(n_hats)
        # unbiasedness: mean within a few standard errors of the truth
        rel_sigma = math.sqrt(2.0 / (k - 1)) * (1.0 + 2.0 * 25.0 / (p.q * p.N))
        assert n_hats.mean() / p.N == pytest.approx(
            1.0, abs=4.0 * rel_sigma / math.sqrt(trials))
        # the reported error bar matches the empirical scatter
        assert np.mean(sigmas) == pytest.approx(n_hats.std(ddof=1), rel=0.25)


class TestSampler:
    def test_deterministic(self):
        p = SpmParams()
        a = sample_steady_state_outcomes(p, 2e4, 100, seed=5)
        b = sample_steady_state_outcomes(p, 2e4, 100, seed=5)
        c = sample_steady_state_outcomes(p, 2e4, 100, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_steady_state_outcomes(SpmParams(), 1.0, 0)

    def test_fast_and_integrator_paths_agree(self):
        # both sampling routes must reproduce the stationary variance
        # qN/2 + R/(g^2 Delta)
        p = SpmParams()
        expected = 0.5 * p.q * p.N + p.R / (p.g_D ** 2 * p.Delta)
        k = 20_000
        v_fast = steady_state_variance(
            sample_steady_state_outcomes(p, p.omega_bar, k, seed=0))
        v_slow = steady_state_variance(
            sim_reference.integrated_steady_state_outcomes(
                p, p.omega_bar, k, seed=1))
        assert v_fast == pytest.approx(expected, rel=0.05)
        assert v_slow == pytest.approx(expected, rel=0.05)
