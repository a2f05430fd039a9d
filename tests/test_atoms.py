import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import sim_reference
from spinfid import atoms, model, sde_sim
from spinfid.errors import InvalidParametersError
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

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            steady_state_variance([1.0])

    @pytest.mark.parametrize("samples, k", [([], 0), (np.array([1.0]), 1)],
                             ids=["none", "one-element array"])
    def test_sample_count_is_a_samples_count(self, samples, k):
        with pytest.raises(InvalidParametersError,
                           match=f"^steady_state_variance sample count must "
                                 f"be >= 2, got {k}$"):
            steady_state_variance(samples)

    @pytest.mark.parametrize("samples", [
        [math.nan, 1.0, 2.0], [1.0, math.inf, 2.0], [-math.inf, 1.0],
        [1e200, 1.0]], ids=["nan", "inf", "-inf", "square overflows"])
    def test_rejects_samples_that_are_not_finite(self, samples):
        for call in (lambda: steady_state_variance(samples),
                     lambda: estimate_atom_number(samples, SpmParams())):
            with pytest.raises(InvalidParametersError, match="finite"):
                call()

    @pytest.mark.parametrize("samples", [np.ones((2, 2)), np.ones((3, 1)),
                                         np.float64(1.0)])
    def test_rejects_samples_that_are_not_one_sequence(self, samples):
        for call in (lambda: steady_state_variance(samples),
                     lambda: estimate_atom_number(samples, SpmParams())):
            with pytest.raises(InvalidParametersError, match="1-D"):
                call()


    @pytest.mark.parametrize("samples", [
        ["1", "2"], [1.0 + 1.0j, 2.0], [True, False, True]],
        ids=["strings", "complex", "bools"])
    def test_rejects_samples_that_are_not_real_numbers(self, samples):
        # once parsed, cut to their real part or read as 0 and 1
        for call in (lambda: steady_state_variance(samples),
                     lambda: estimate_atom_number(samples, SpmParams())):
            with pytest.raises(InvalidParametersError,
                               match="atom samples must be integers or "
                                     "floats"):
                call()

    def test_reads_a_float64_record_without_a_copy(self, monkeypatch):
        record = np.ones(4)
        seen = []
        real_array = model.real_array

        def spy(value, what):
            array = real_array(value, what)
            seen.append(array is value)
            return array
        monkeypatch.setattr(model, "real_array", spy)
        estimate_atom_number(record, SpmParams())
        assert seen == [True, True]


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

    # q = 0: the variance holds no N; g_D^2 Delta underflows to 0, or its
    # inverse overflows
    @pytest.mark.parametrize("params, match", [
        (SpmParams(q=0.0), "q > 0"),
        (SpmParams(g_D=1e-200), "beyond float range at q = 0.25, g_D = 1e-200"),
        (SpmParams(g_D=1e-160), "beyond float range at q = 0.25, g_D = 1e-160"),
    ], ids=["q zero", "g_D squared underflows", "shot noise overflows"])
    def test_refuses_parameters_that_hold_no_count(self, params, match):
        # the first two once raised a bare ZeroDivisionError
        with pytest.raises(InvalidParametersError, match=match):
            estimate_atom_number([1.0, -1.0, 0.5], params)

    def test_estimate_needs_two_samples(self):
        with pytest.raises(ValueError,
                           match="^AtomCountEstimate k_used must be >= 2, got 1$"):
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

    @pytest.mark.parametrize("k", [10.0, True, "10", None, np.float64(10.0)])
    def test_rejects_a_count_that_is_no_integer(self, k):
        with pytest.raises(InvalidParametersError):
            sample_steady_state_outcomes(SpmParams(), 1.0, k)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_rejects_a_frequency_that_is_not_finite(self, omega):
        with pytest.raises(InvalidParametersError, match="finite"):
            sample_steady_state_outcomes(SpmParams(), omega, 10)

    def test_refuses_shot_noise_beyond_float_range(self):
        # sqrt(R/Delta) / g_D is inf: once +-inf samples
        with pytest.raises(InvalidParametersError,
                           match="noise is beyond float range at g_D = 5e-324"):
            sample_steady_state_outcomes(SpmParams(g_D=5e-324), 1.0, 10)

    def test_takes_a_numpy_integer_count(self):
        p = SpmParams()
        assert np.array_equal(
            sample_steady_state_outcomes(p, p.omega_bar, np.int64(10), seed=2),
            sample_steady_state_outcomes(p, p.omega_bar, 10, seed=2))

    @pytest.mark.parametrize("block", [None, 1, 7, model._CHUNK,
                                       3 * model._CHUNK, sde_sim._BLOCK])
    def test_blocks_match_the_one_shot_sampler(self, monkeypatch, block):
        # the blocked walk draws in the one-shot order and takes the same
        # operations on every sample, so the records agree around the
        # boundaries of the block in use (None: the default one): bit for
        # bit when each block is whole chunks of the rotation's recurrence,
        # to rounding when blocks split chunks
        if block is None:
            block = atoms._BLOCK
        else:
            monkeypatch.setattr(atoms, "_BLOCK", block)
        p = SpmParams()
        t2 = model.coherence_time(p)
        chunk = len(model._chunk_powers(
            model.rotation_pole(p.omega_bar, p.Delta, t2))[0])
        whole_chunks = block % chunk == 0
        ks = {1, block - 1, block, block + 1, 3 * block + 17}
        for k in sorted(ks - {0}):
            want = sim_reference.one_shot_steady_state_outcomes(
                p, p.omega_bar, k, seed=k)
            got = sample_steady_state_outcomes(p, p.omega_bar, k, seed=k)
            if whole_chunks:
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            else:
                assert np.max(np.abs(got - want)) <= (
                    1e-13 * np.max(np.abs(want)))

    def test_working_set_is_the_output_plus_a_block(self):
        # the one-shot sampler peaked at five arrays of k floats
        p = SpmParams()
        k = 1_000_000
        tracemalloc.start()
        try:
            sample_steady_state_outcomes(p, p.omega_bar, k, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * k

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


class TestDrawerThread:
    """The sampler's second thread, the one worker of its thread pool:
    joined on every exit, its failures raised in the caller."""

    K = 3 * atoms._BLOCK + 17  # four blocks, the last one partial

    def test_joined_after_a_return(self):
        before = threading.active_count()
        sample_steady_state_outcomes(SpmParams(), 1.0, self.K, seed=1)
        assert threading.active_count() == before

    def test_blocks_are_the_callers_draws(self, monkeypatch):
        got = sample_steady_state_outcomes(SpmParams(), 1.0, self.K, seed=2)
        monkeypatch.setattr(atoms, "_drawn_ahead",
                            sim_reference.drawn_on_the_caller)
        want = sample_steady_state_outcomes(SpmParams(), 1.0, self.K, seed=2)
        assert got.tobytes() == want.tobytes()

    # calls 1 to 3 draw the start and the real parts on the calling thread;
    # the worker makes call 4 (the first imaginary block), 7 (the last
    # one) and 8 (the first shot-noise block)
    @pytest.mark.parametrize("fail_on", [3, 4, 7, 8, 11])
    def test_a_failed_draw_is_raised_in_the_caller(self, fail_on):
        before = threading.active_count()
        rng = sim_reference.FailingGenerator(fail_on)
        with pytest.raises(sim_reference.DrawFailed, match=f"call {fail_on}$"):
            sample_steady_state_outcomes(SpmParams(), 1.0, self.K, seed=rng)
        assert threading.active_count() == before
        assert rng.calls == fail_on  # no draw after the failed one

    @pytest.mark.parametrize("fail_on", [1, 2, 4])
    def test_joined_after_a_failure_in_the_walk(self, monkeypatch, fail_on):
        rotation = model.damped_rotation
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == fail_on:
                raise FloatingPointError("walk failed")
            return rotation(*args)
        monkeypatch.setattr(model, "damped_rotation", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="walk failed"):
            sample_steady_state_outcomes(SpmParams(), 1.0, self.K, seed=1)
        assert threading.active_count() == before

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # more callers than cores, each with its own worker, switching
        # threads every microsecond and handing off one chunk at a time:
        # a block drawn over one still in use would change a record
        monkeypatch.setattr(atoms, "_BLOCK", model._CHUNK)
        p, k = SpmParams(), 20 * model._CHUNK + 3
        want = [sim_reference.one_shot_steady_state_outcomes(
            p, p.omega_bar, k, seed=seed) for seed in range(6)]
        got = {}

        def call(seed):
            got[seed] = sample_steady_state_outcomes(p, p.omega_bar, k,
                                                     seed=seed)
        callers = [threading.Thread(target=call, args=(seed,))
                   for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for seed in range(6):
            assert np.array_equal(got[seed].view(np.int64),
                                  want[seed].view(np.int64))
