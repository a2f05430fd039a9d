import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sim_reference
from spinfid import filters, model, pem, sde_sim
from spinfid.errors import IntegrationBlowupError, InvalidParametersError
from spinfid.filters import default_prior
from spinfid.model import (Constant, OrnsteinUhlenbeck, Sinusoid, SpmParams,
                           Step, Wiener)


def _fd_jacobian(f, x, h=1e-3):
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h * max(1.0, abs(x[j]))
        jac[:, j] = (f(x + e) - f(x - e)) / (2.0 * e[j])
    return jac


def _coupling_columns(x, h, p, s):
    """Columns of the step's F (Qm zeta) term, isolated by differencing the
    step at unit zeta along each axis against zeta = 0 (the step is affine
    in zeta)."""
    zero = np.zeros(3)

    def step(zeta):
        return sde_sim.ito_taylor_1p5_step(np.array(x), h, p, s,
                                           increments=(zero, zeta))
    base = step(zero)
    return np.array([step(e) - base for e in np.eye(3)]).T


def _noise_scales(p, s):
    q = math.sqrt(model.atomic_noise_strength(p))
    return np.array([sde_sim._frequency_sde(s)[2], q, q])


class TestDrift:
    # the order-1.5 step's F (Qm zeta) term carries the drift Jacobian F;
    # it is checked against a finite-difference Jacobian of ``drift``
    def test_jacobian_matches_finite_differences(self):
        p = SpmParams()
        s = OrnsteinUhlenbeck(p.omega_bar, 0.3, 1e6)
        x = (p.omega_bar * 1.01, 0.2 * p.N, 0.4 * p.N)
        cols = _coupling_columns(x, 1e-6, p, s)
        fd = _fd_jacobian(lambda v: sde_sim.drift(v, p, s), np.array(x),
                          h=1e-7)
        assert np.allclose(cols, fd * _noise_scales(p, s), rtol=1e-5)

    def test_jacobian_wiener_frequency_row(self):
        p = SpmParams()
        s = Wiener(1e4, 1e6)
        x = (1e4, 1.0, 2.0)
        cols = _coupling_columns(x, 1e-6, p, s)
        fd = _fd_jacobian(lambda v: sde_sim.drift(v, p, s), np.array(x))
        assert np.array_equal(cols[0], np.zeros(3))
        assert np.allclose(cols, fd * _noise_scales(p, s), rtol=1e-5)

    def test_second_order_correction_vanishes(self):
        # why the order-1.5 step has no b term: contract numerical Hessians
        # of each drift component with the (diagonal) squared diffusion;
        # every diagonal second derivative is 0
        p = SpmParams()
        s = OrnsteinUhlenbeck(p.omega_bar, 0.3, 1e6)
        x = np.array([1.1e4, 0.5, -0.3])
        h = 1e-4
        b = np.zeros(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fp = sde_sim.drift(x + e, p, s)
            fm = sde_sim.drift(x - e, p, s)
            f0 = sde_sim.drift(x, p, s)
            b += (fp - 2.0 * f0 + fm) / h ** 2  # diagonal Hessian entries
        assert np.allclose(b, 0.0, atol=1e-2)


class TestTaylorStep:
    @pytest.mark.parametrize("signal", [OrnsteinUhlenbeck(2e4, 0.3, 1e9),
                                        Wiener(2e4, 1e9), Constant(2e4)],
                             ids=["ou", "wiener", "constant"])
    def test_step_matches_scalar_kernel(self, signal):
        # the recurrence coefficients against the order-1.5 step written out
        # on scalars, over the state and increment scales simulate meets
        p = SpmParams()
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(200):
            x = np.array([2e4 + 3e3 * rng.standard_normal(),
                          *(0.5 * p.N * rng.uniform(-1.0, 1.0, 2))])
            xi, zeta = sde_sim._correlated_pair(
                h, rng.standard_normal(3), rng.standard_normal(3))
            new = sde_sim.ito_taylor_1p5_step(x, h, p, signal,
                                              increments=(xi, zeta))
            old = sim_reference.taylor_step(x, h, p, signal, xi, zeta)
            assert new[0] == pytest.approx(old[0], rel=1e-14)
            assert np.max(np.abs(new[1:] - old[1:])) <= 1e-14 * 0.5 * p.N

    @pytest.mark.parametrize("signal", [OrnsteinUhlenbeck(1e3, 1.0, 1e9),
                                        Wiener(1e3, 1e9)],
                             ids=["ou", "wiener"])
    def test_strong_order_with_frequency_noise(self, signal):
        # the frequency-spin noise coupling that simulate runs for OU/Wiener;
        # endpoint RMS error vs a fine run of the same step on shared paths.
        # The low omega_bar keeps the rotation truncation small: at
        # 2*pi*10 kHz it dominates and a broken coupling term goes unseen.
        p = SpmParams(omega_bar=1e3)
        t_end = 1e-4
        hs = [4e-6, 2e-6, 1e-6, 5e-7]
        hf = hs[-1] / 16
        nf = int(round(t_end / hf))
        x0 = np.array([p.omega_bar, 0.0, 0.5 * p.N])
        n_paths = 40
        sq_errs = np.zeros((len(hs), n_paths))
        for path in range(n_paths):
            rng = np.random.default_rng(
                np.random.SeedSequence(321, spawn_key=(path,)))
            dw, zi = sde_sim._correlated_pair(
                hf, rng.standard_normal(3 * nf), rng.standard_normal(3 * nf))
            dw, zi = dw.reshape(nf, 3), zi.reshape(nf, 3)
            x = x0
            for i in range(nf):
                x = sde_sim.ito_taylor_1p5_step(x, hf, p, signal,
                                                increments=(dw[i], zi[i]))
            ref = x
            for j, h in enumerate(hs):
                m = int(round(h / hf))
                seg_dw = dw.reshape(-1, m, 3)
                before = np.cumsum(seg_dw, axis=1) - seg_dw
                xi_c = seg_dw.sum(axis=1)
                ze_c = (before * hf + zi.reshape(-1, m, 3)).sum(axis=1)
                x = x0
                for k in range(len(xi_c)):
                    x = sde_sim.ito_taylor_1p5_step(
                        x, h, p, signal, increments=(xi_c[k], ze_c[k]))
                sq_errs[j, path] = np.sum((x - ref) ** 2)
        slope = np.polyfit(np.log(hs), np.log(np.sqrt(sq_errs.mean(axis=1))),
                           1)[0]
        assert slope >= 1.4


class TestIncrements:
    def test_increment_pair_moments(self):
        h = 0.37
        rng = np.random.default_rng(0)
        n = 200_000
        xi = np.empty(n)
        zeta = np.empty(n)
        for i in range(n // 1000):
            a, b = sde_sim._correlated_pair(h, rng.standard_normal(1000),
                                            rng.standard_normal(1000))
            xi[i * 1000:(i + 1) * 1000] = a
            zeta[i * 1000:(i + 1) * 1000] = b
        # cov [[h, h^2/2], [h^2/2, h^3/3]] within 5 MC sigmas
        tol = 5.0 / math.sqrt(n)
        assert np.var(xi) == pytest.approx(h, rel=3 * tol)
        assert np.var(zeta) == pytest.approx(h ** 3 / 3.0, rel=3 * tol)
        assert np.mean(xi * zeta) == pytest.approx(h ** 2 / 2.0, rel=5 * tol)


class TestDampedRotation:
    def test_one_step_moments(self):
        p = SpmParams(N=1e6)
        t2 = model.coherence_time(p)
        omega, h = 2e4, 1e-4
        j0 = np.array([0.0, 0.5 * p.N])
        b = model.discrete_spin_noise_std(p.q, p.N, h, t2)
        rng = np.random.default_rng(1)
        pole = model.rotation_pole(omega, h, t2)
        z = np.array([
            model.damped_rotation(
                pole, b * (rng.standard_normal(1) + 1j * rng.standard_normal(1)),
                complex(*j0))[0]
            for _ in range(20_000)])
        samples = np.column_stack([z.real, z.imag])
        a = sim_reference.discrete_spin_transition(omega, h, t2)
        assert np.allclose(samples.mean(axis=0), a @ j0, atol=5 * b / 100.0)
        assert np.allclose(samples.var(axis=0), b * b, rtol=0.05)

    def test_zero_noise_is_damped_rotation(self):
        # a scalar pole and one pole per step
        p = SpmParams()
        t2 = model.coherence_time(p)
        a = sim_reference.discrete_spin_transition(1e4, 1e-5, t2)
        for omega in (1e4, np.full(3, 1e4)):
            j = np.array([1.0, 2.0])
            z = model.damped_rotation(model.rotation_pole(omega, 1e-5, t2),
                                      np.zeros(3), complex(*j))
            for zk in z:
                j = a @ j
                assert np.allclose([zk.real, zk.imag], j)

    def test_per_step_poles_match_the_recurrence(self):
        # the scan against z_k = pole_k z_{k-1} + eta_k one step at a time,
        # with the poles decaying by 50 e-folds per step: their plain
        # prefix product underflows after 15 steps
        rng = np.random.default_rng(4)
        n = 40
        pole = np.exp(-50.0 - 1j * rng.uniform(0.0, 6.0, n))
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = model.damped_rotation(pole, eta, 3.0 - 1.0j)
        expected, zk = [], 3.0 - 1.0j
        for a, e in zip(pole, eta):
            zk = a * zk + e
            expected.append(zk)
        assert np.allclose(z, expected, rtol=1e-13, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @example(log_decay=-9.0, angle=0.5, n=3 * model._CHUNK + 1,
             kind="complex", log_scale=0.0, seed=0)
    @example(log_decay=math.log10(300.0), angle=-2.0, n=40, kind="real",
             log_scale=3.0, seed=1)
    @example(log_decay=0.0, angle=0.0, n=7, kind="zero", log_scale=0.0, seed=2)
    @given(log_decay=st.floats(-9.0, math.log10(300.0)),
           angle=st.floats(-math.pi, math.pi),
           n=st.integers(1, 3 * model._CHUNK + 1),
           kind=st.sampled_from(["complex", "real", "zero"]),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_scalar_pole_matches_the_linear_filter(self, log_decay, angle, n,
                                                   kind, log_scale, seed):
        # a decay per step of 1e-9 to 300 e-folds, from a start of
        # 1e-3 to 1e3 times the noise
        rng = np.random.default_rng(seed)
        decay = 10.0 ** log_decay
        eta = rng.standard_normal(n)
        z0 = 10.0 ** log_scale * rng.standard_normal()
        if kind == "real":
            pole = math.copysign(math.exp(-decay), angle)
        else:
            pole = 0j if kind == "zero" else complex(
                np.exp(complex(-decay, angle)))
            eta = eta + 1j * rng.standard_normal(n)
            z0 = complex(z0, 10.0 ** log_scale * rng.standard_normal())
        z = model.damped_rotation(pole, eta, z0)
        want = sim_reference.lfilter_recurrence(pole, eta, z0)
        assert z.dtype == want.dtype
        assert np.max(np.abs(z - want)) <= 1e-13 * np.max(np.abs(want))
        if kind == "zero":
            assert np.array_equal(z, eta)

    @pytest.mark.parametrize("pole", [
        complex(np.exp(complex(-1e-4, 0.3))), math.exp(-1e-4),
        complex(np.exp(complex(-2.0, 1.0))), -math.exp(-300.0),
        complex(np.exp(complex(-300.0, 1.0)))])
    def test_shorter_path_is_a_prefix(self, pole):
        # the last partial chunk takes the operations of a full one, at the
        # longest chunk and at those shortened for a pole far inside the
        # unit circle
        rng = np.random.default_rng(3)
        n = 3 * model._CHUNK + 2
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        longest = model.damped_rotation(pole, eta, 2.0 - 1.0j)
        size = len(model._chunk_powers(pole)[0])
        for k in sorted({1, size - 1, size, size + 1, 2 * size - 1, 2 * size,
                         2 * size + 1, model._CHUNK - 1, model._CHUNK,
                         model._CHUNK + 1, n - 1} - {0}):
            z = model.damped_rotation(pole, eta[:k], 2.0 - 1.0j)
            assert np.array_equal(z, longest[:k])


class TestSimulate:
    def test_deterministic_closed_form_noiseless(self):
        # q=0 and constant omega: the path is the exact damped spiral
        p = SpmParams(q=0.0)
        t2 = model.coherence_time(p)
        omega = p.omega_bar * 1.1
        traj, _ = sde_sim.simulate(p, Constant(omega), 1e-3, substeps=5, seed=0)
        t = traj.times
        expected_jy = 0.5 * p.N * np.exp(-t / t2) * np.sin(omega * t)
        expected_jz = 0.5 * p.N * np.exp(-t / t2) * np.cos(omega * t)
        assert np.allclose(traj.states[:, 1], expected_jy, atol=1e-6 * p.N)
        assert np.allclose(traj.states[:, 2], expected_jz, atol=1e-6 * p.N)
        assert np.all(traj.states[:, 0] == omega)

    def test_initial_state_exact(self):
        p = SpmParams()
        traj, _ = sde_sim.simulate(p, Constant(p.omega_bar), 5e-5, seed=3)
        assert traj.states[0, 1] == 0.0
        assert traj.states[0, 2] == 0.5 * p.N

    def test_determinism(self):
        p = SpmParams()
        s = OrnsteinUhlenbeck(p.omega_bar, 0.5, 1e8)
        t1, r1 = sde_sim.simulate(p, s, 2e-4, seed=42)
        t2_, r2 = sde_sim.simulate(p, s, 2e-4, seed=42)
        assert np.array_equal(t1.states, t2_.states)
        assert np.array_equal(r1.outcomes, r2.outcomes)
        _, r3 = sde_sim.simulate(p, s, 2e-4, seed=43)
        assert not np.array_equal(r1.outcomes, r3.outcomes)

    def test_measurement_times_and_count(self):
        p = SpmParams()
        _, rec = sde_sim.simulate(p, Constant(p.omega_bar), 1e-4, seed=0)
        assert len(rec.outcomes) == 20
        assert rec.times[0] == pytest.approx(p.Delta)
        assert rec.times[-1] == pytest.approx(1e-4)

    def test_wiener_frequency_marginal(self):
        # the first component is exactly Brownian under the Taylor scheme
        p = SpmParams(N=1e6)
        s = Wiener(1e4, 1e8)
        ends = []
        for seed in range(300):
            traj, _ = sde_sim.simulate(p, s, 1e-4, substeps=2, seed=seed)
            ends.append(traj.states[-1, 0])
        ends = np.array(ends)
        var_expected = 1e8 * 1e-4
        assert ends.mean() == pytest.approx(1e4, abs=5 * math.sqrt(var_expected / 300))
        assert ends.var(ddof=1) == pytest.approx(var_expected, rel=0.3)

    def test_spin_relaxation_variance(self):
        # ensemble variance of each spin component approaches
        # (qN/2)(1 - exp(-2t/T2)) from the deterministic start
        p = SpmParams(N=1e8)
        t2 = model.coherence_time(p)
        duration = 2.0 * t2
        omega = p.omega_bar
        finals = []
        rot = sim_reference.discrete_spin_transition(omega, duration, t2)
        for seed in range(400):
            traj, _ = sde_sim.simulate(p, Constant(omega), duration,
                                       substeps=1, seed=seed)
            # rotate back so the deterministic part is common to all runs
            finals.append(np.linalg.solve(rot, traj.states[-1, 1:]))
        finals = np.array(finals)
        scale = math.exp(2.0 * duration / t2)
        var_expected = 0.5 * p.q * p.N * (1.0 - math.exp(-2 * duration / t2)) * scale
        assert np.allclose(finals.var(axis=0, ddof=1), var_expected, rtol=0.25)

    def test_sinusoid_frequency_follows_waveform(self):
        p = SpmParams()
        s = Sinusoid(p.omega_bar, 2e3, 500.0)
        traj, _ = sde_sim.simulate(p, s, 2e-4, substeps=2, seed=0)
        expected = np.array([model.deterministic_omega(s, t) for t in traj.times])
        assert np.allclose(traj.states[:, 0], expected)

    def test_duration_rounds_to_the_nearest_sample(self):
        # the record count follows sample_indices, as a probing time does
        p = SpmParams()
        for duration, k in ((0.6 * p.Delta, 1), (70e-6, 14),
                            (20.4 * p.Delta, 20)):
            _, rec = sde_sim.simulate(p, Constant(p.omega_bar), duration)
            assert len(rec.outcomes) == k
            assert sde_sim.sample_indices([duration], p.Delta) == [k]
        with pytest.raises(InvalidParametersError):
            sde_sim.simulate(p, Constant(p.omega_bar), 0.4 * p.Delta)

    def test_halfway_times_round_up(self):
        # a time halfway between two samples holds the later one, at every
        # half (round() would give 0, 2 and 2); just below delta/2 is none
        for delta, halves in ((1.0, (0.5, 1.5, 2.5)),
                              (5e-6, (2.5e-6, 7.5e-6, 12.5e-6))):
            assert sde_sim.sample_indices(halves, delta) == [1, 2, 3]
            with pytest.raises(InvalidParametersError):
                sde_sim.sample_indices([math.nextafter(0.5 * delta, 0.0)],
                                       delta)
        # the float just below a half rounds down (floor(x + 0.5) would
        # take 0.49999999999999994 to 1)
        assert sde_sim.sample_indices([math.nextafter(1.5, 0.0)], 1.0) == [1]

    def test_counts_beyond_the_index_range_are_refused(self):
        # a sample count above np.intp's largest value (2**63 - 1 here),
        # and a record's substep count above it: each once a bare
        # ValueError from numpy ("Maximum allowed dimension exceeded")
        p = SpmParams()
        assert sde_sim.sample_indices([math.nextafter(2.0 ** 63, 0.0)],
                                      1.0) == [2 ** 63 - 1024]
        with pytest.raises(InvalidParametersError,
                           match="the most an array can index"):
            sde_sim.sample_indices([2.0 ** 63], 1.0)
        with pytest.raises(InvalidParametersError,
                           match=r"^time 1e\+300 .* at Delta = 5e-06, "):
            sde_sim.simulate(p, Constant(p.omega_bar), 1e300)
        # 2e18 samples are within the range, 2e24 substeps are not
        with pytest.raises(InvalidParametersError,
                           match=r"^simulate duration 10000000000000.0 at "
                                 r"Delta = 5e-06 with 1000000 substeps "):
            sde_sim.simulate(p, Constant(p.omega_bar), 1e13,
                             substeps=10 ** 6)

    def test_paths_beyond_the_index_range_are_refused(self, monkeypatch):
        # 2e18 substeps fit np.intp, their (n + 1) x 3 doubles do not: once
        # numpy's bare ValueError ("array is too big") from np.empty.  The
        # check comes before the path is allocated.
        def unallocated(*args):
            raise AssertionError("the path was allocated")
        monkeypatch.setattr(sde_sim, "_states", unallocated)
        p = SpmParams()
        with pytest.raises(InvalidParametersError,
                           match=r"^simulate duration 10000000000000.0 at "
                                 r"Delta = 5e-06 with 1 substeps a sample "
                                 r"takes a path of 47999999999999993880 "
                                 r"bytes, .* the most an array can index"):
            sde_sim.simulate(p, Constant(p.omega_bar), 1e13, substeps=1)
        # one sample of n substeps: the largest path that fits is drawn
        most = model._SIZE_MAX // 24 - 1
        with pytest.raises(AssertionError, match="allocated"):
            sde_sim.simulate(p, Constant(p.omega_bar), p.Delta,
                             substeps=most)
        with pytest.raises(InvalidParametersError,
                           match="the most an array can index"):
            sde_sim.simulate(p, Constant(p.omega_bar), p.Delta,
                             substeps=most + 1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(InvalidParametersError, match="not finite"):
            sde_sim.sample_indices([1e-4, t], 5e-6)

    @pytest.mark.parametrize("t, message", [
        (True, "time True is not a number"),
        (np.True_, f"time {np.True_!r} is not a number"),
        ("a", "time 'a' is not a number"),
        (None, "time None is not a number"),
        (1j, "time 1j is not a number"),
        (10 ** 400, f"time {10 ** 400} is not finite"),
    ], ids=["bool", "numpy bool", "string", "None", "complex", "10**400"])
    def test_a_time_that_is_no_finite_number_is_refused(self, t, message):
        # once 200000 samples from a bool read as 1 s, a bare TypeError
        # (a string, None, a complex) or OverflowError (10**400)
        with pytest.raises(InvalidParametersError) as exc:
            sde_sim.sample_indices([1e-4, t], 5e-6)
        assert str(exc.value) == message

    def test_rejects_bad_arguments(self):
        p = SpmParams()
        with pytest.raises(InvalidParametersError):
            sde_sim.simulate(p, Constant(1.0), 1e-6)  # shorter than Delta
        with pytest.raises(InvalidParametersError):
            sde_sim.simulate(p, Constant(1.0), 1e-4, substeps=0)

    @pytest.mark.parametrize("substeps", [2.5, True, np.float64(2.0), "2"])
    def test_rejects_a_substep_count_that_is_no_integer(self, substeps):
        with pytest.raises(InvalidParametersError, match="integer"):
            sde_sim.simulate(SpmParams(), Constant(1.0), 1e-4,
                             substeps=substeps)

    def test_takes_a_numpy_integer_substep_count(self):
        p = SpmParams()
        a = sde_sim.simulate(p, Constant(1.0), 1e-4, substeps=np.int64(2))
        b = sde_sim.simulate(p, Constant(1.0), 1e-4, substeps=2)
        assert a[0].states.tobytes() == b[0].states.tobytes()
        assert a[1].outcomes.tobytes() == b[1].outcomes.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detection(self):
        p = SpmParams()
        s = Wiener(p.omega_bar, 1e300)
        with pytest.raises(IntegrationBlowupError):
            sde_sim.simulate(p, s, 1e-3, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detected_in_its_block(self):
        # a frequency that is infinite over a few substeps of the first block
        # and finite from then on: the run stops at that block, before the
        # noise of the next one is drawn
        p = SpmParams()
        h = p.Delta
        s = Step(p.omega_bar, ((100 * h, 0.0), (110 * h, p.omega_bar)))
        # a Step rejects an infinite value, so it is set past the check
        object.__setattr__(s, "jumps", ((100 * h, math.inf), s.jumps[1]))
        rng = np.random.default_rng(5)
        with pytest.raises(IntegrationBlowupError):
            sde_sim.simulate(p, s, 3 * sde_sim._BLOCK * h, substeps=1, seed=rng)
        expected = np.random.default_rng(5)
        expected.standard_normal((sde_sim._BLOCK, 2))
        assert rng.standard_normal() == expected.standard_normal()


P_REF = SpmParams()
P_FAST = SpmParams(Delta=1e-6)

# simulate's configs for the comparison with the loops: the track_ou
# benchmark shots, the pinned-digest cases of test_recorded_outputs, a
# waveform that decays by 5 e-folds per substep, and waveforms whose
# substep decay underflows
LOOP_CASES = {
    "track_ou d_c=1e7": (P_FAST, OrnsteinUhlenbeck(P_FAST.omega_bar, 1.0, 1e7),
                         5e-3, 8, 0),
    "track_ou d_c=1e9": (P_FAST, OrnsteinUhlenbeck(P_FAST.omega_bar, 1.0, 1e9),
                         5e-3, 8, 0),
    "ou": (P_FAST, OrnsteinUhlenbeck(P_REF.omega_bar, 1.0, 1e9), 1e-3, 8, 11),
    "ou omega_start": (P_REF, OrnsteinUhlenbeck(
        P_REF.omega_bar, 0.3, 1e7, omega_start=P_REF.omega_bar + 50.0),
        3e-4, 1, 7),
    "wiener": (P_REF, Wiener(P_REF.omega_bar, 1e8), 3e-4, 8, 7),
    "sinusoid": (P_REF, Sinusoid(P_REF.omega_bar, 2e3, 500.0), 3e-4, 8, 7),
    "step": (P_REF, Step(P_REF.omega_bar, ((1e-4, P_REF.omega_bar + 300.0),)),
             3e-4, 8, 7),
    "constant": (SpmParams(N=1e9), Constant(P_REF.omega_bar * 1.01), 2e-4, 5,
                 5),
    "sinusoid T2 = h/5": (SpmParams(T2_override=1e-6),
                          Sinusoid(P_REF.omega_bar, 2e3, 500.0), 1e-3, 1, 3),
    # exp(-h/T2) underflows to 0, so every pole is 0 and z_k = eta_k
    "sinusoid T2 = 1e-9": (SpmParams(T2_override=1e-9),
                           Sinusoid(P_REF.omega_bar, 2e3, 500.0), 1e-4, 1, 3),
    "step T2 = 1e-9": (SpmParams(T2_override=1e-9), Step(
        P_REF.omega_bar, ((5e-5, P_REF.omega_bar + 300.0),)), 1e-4, 1, 3),
}


class TestAgainstLoops:
    @pytest.mark.parametrize("name", sorted(LOOP_CASES))
    def test_every_substep_matches_the_loops(self, name, monkeypatch):
        p, s, duration, substeps, seed = LOOP_CASES[name]
        new, _ = sde_sim.simulate(p, s, duration, substeps, seed)
        monkeypatch.setattr(sde_sim, "_states", sim_reference.states)
        old, _ = sde_sim.simulate(p, s, duration, substeps, seed)
        assert np.array_equal(new.times, old.times)
        omega = old.states[:, 0]
        assert np.all(np.abs(new.states[:, 0] - omega) <= 1e-10 * np.abs(omega))
        assert np.max(np.abs(new.states[:, 1:] - old.states[:, 1:])) <= (
            1e-10 * 0.5 * p.N)


SIGNALS = {
    "constant": Constant(P_REF.omega_bar),
    "ou": OrnsteinUhlenbeck(P_REF.omega_bar, 0.3, 1e9),
    "wiener": Wiener(P_REF.omega_bar, 1e8),
    "sinusoid": Sinusoid(P_REF.omega_bar, 2e3, 500.0),
    "step": Step(P_REF.omega_bar, ((2e-3, P_REF.omega_bar + 300.0),
                                   (5e-2, P_REF.omega_bar - 100.0))),
}


class TestBlocks:
    @settings(max_examples=40, deadline=None)
    # two substeps: numpy's cumprod of two complex numbers rounds unlike
    # that of longer arrays
    @example(kind="ou", substeps=2, blocks=0.0, extra=0.0, seed=0)
    @given(kind=st.sampled_from(sorted(SIGNALS)),
           substeps=st.integers(1, 8),
           blocks=st.floats(0.0, 3.0), extra=st.floats(0.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_shorter_run_is_a_prefix(self, kind, substeps, blocks, extra,
                                     seed):
        # the state carried from block to block must not depend on where
        # the record ends
        n_short = 1 + int(blocks * sde_sim._BLOCK / substeps)
        n_long = n_short + 1 + int(extra * sde_sim._BLOCK / substeps)
        short, _ = sde_sim.simulate(P_REF, SIGNALS[kind], n_short * P_REF.Delta,
                                    substeps, seed)
        long, _ = sde_sim.simulate(P_REF, SIGNALS[kind], n_long * P_REF.Delta,
                                   substeps, seed)
        n = len(short.times)
        assert n == n_short * substeps + 1
        assert np.array_equal(long.times[:n], short.times)
        assert np.array_equal(long.states[:n], short.states)


WAVEFORMS = ["constant", "sinusoid", "step"]
DIFFUSING = ["ou", "wiener"]


def _spy_on_rotation(monkeypatch, seen: list, look):
    """Append look() to ``seen`` at each ``model.damped_rotation`` call."""
    rotation = model.damped_rotation

    def spy(*args):
        seen.append(look())
        return rotation(*args)
    monkeypatch.setattr(model, "damped_rotation", spy)


def _blowup_in_block(monkeypatch, block: int, kind: str):
    """Make the walk of ``block`` (from 1) diverge: the spin walk of a
    constant frequency, or a diffusing frequency's frequency path, each
    computed once a block."""
    calls = []
    if kind == "constant":
        rotation = model.damped_rotation

        def diverging(*args):
            calls.append(None)
            z = rotation(*args)
            if len(calls) == block:
                z[-1] = math.inf
            return z
        monkeypatch.setattr(model, "damped_rotation", diverging)
    else:
        frequency = sde_sim._taylor_frequency

        def diverging(*args):
            calls.append(None)
            phi, omega_bar, e = frequency(*args)
            if len(calls) == block:
                e[-1] = math.inf
            return phi, omega_bar, e
        monkeypatch.setattr(sde_sim, "_taylor_frequency", diverging)


class TestCallerDraws:
    """A waveform's shot and a one-block diffusing shot draw each block's
    noise on the calling thread, in stream order, just before it is
    walked."""

    N_SUB = 3 * sde_sim._BLOCK + 17  # four blocks, the last one partial

    def _simulate(self, kind, seed, n_sub=N_SUB):
        return sde_sim.simulate(P_REF, SIGNALS[kind], n_sub * P_REF.Delta,
                                substeps=1, seed=seed)

    # a waveform's shot of 40,000 substeps (ten blocks), and a diffusing
    # shot of one whole block
    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_no_thread_runs_during_simulate(self, monkeypatch, kind):
        before = threading.enumerate()
        seen = []
        _spy_on_rotation(monkeypatch, seen, threading.enumerate)
        if kind in WAVEFORMS:
            self._simulate(kind, 1, n_sub=40_000)
            assert len(seen) >= 10
        else:
            self._simulate(kind, 1, n_sub=sde_sim._BLOCK)
            assert seen
        assert all(threads == before for threads in seen)

    # the draws of both kinds of block, and the increment pair of a
    # diffusing frequency's, are not held while the spin is walked
    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_draws_are_freed_before_the_spin_walk(self, monkeypatch, kind):
        rotation = model.damped_rotation
        held = []

        def spy(pole, eta, z0):
            caller = sys._getframe(1)
            # the spin walk, not the frequency's or one within the walk
            if caller.f_code.co_name == "_states" and np.iscomplexobj(eta):
                held.append(sorted({"w", "xi", "zeta", "e"}
                                   & set(caller.f_locals)))
            return rotation(pole, eta, z0)
        monkeypatch.setattr(model, "damped_rotation", spy)
        self._simulate(kind, 1)
        assert held == [[]] * 4

    # the spin of a waveform's second or last, partial block diverges
    @pytest.mark.parametrize("block", [2, 4])
    def test_a_blowup_in_block_b_reads_b_draws(self, monkeypatch, block):
        _blowup_in_block(monkeypatch, block, "constant")
        rng = sim_reference.FailingGenerator(fail_on=None)
        with pytest.raises(IntegrationBlowupError):
            self._simulate("constant", rng)
        assert rng.calls == block  # one draw per block, none past b

    # calls 1 to 4 draw a waveform's four blocks; call 5 the shot noise
    @pytest.mark.parametrize("fail_on", [1, 2, 4, 5])
    def test_a_failed_draw_is_raised_in_the_caller(self, fail_on):
        rng = sim_reference.FailingGenerator(fail_on)
        with pytest.raises(sim_reference.DrawFailed, match=f"call {fail_on}$"):
            self._simulate("sinusoid", rng)
        assert rng.calls == fail_on  # no draw after the failed one


class TestDrawerThread:
    """A diffusing shot of more than one block draws its blocks on the one
    worker of ``sde_sim._drawn_ahead``, two blocks ahead of the walk: the
    blocks are the caller's draws bit for bit, and the worker is joined
    on every exit."""

    _simulate = TestCallerDraws._simulate

    @pytest.mark.parametrize("kind", DIFFUSING)
    def test_blocks_are_the_callers_draws(self, monkeypatch, kind):
        traj, rec = self._simulate(kind, 2)
        monkeypatch.setattr(sde_sim, "_drawn_ahead",
                            sim_reference.drawn_on_the_caller)
        want_traj, want_rec = self._simulate(kind, 2)
        assert traj.states.tobytes() == want_traj.states.tobytes()
        assert rec.outcomes.tobytes() == want_rec.outcomes.tobytes()

    # two blocks, the shortest shot that takes the drawer, and four
    @pytest.mark.parametrize("n_sub", [sde_sim._BLOCK + 1,
                                       TestCallerDraws.N_SUB])
    @pytest.mark.parametrize("kind", DIFFUSING)
    def test_one_worker_joined_after_a_return(self, monkeypatch, kind,
                                              n_sub):
        before = threading.active_count()
        seen = []
        _spy_on_rotation(monkeypatch, seen, threading.active_count)
        self._simulate(kind, 1, n_sub=n_sub)
        assert seen and all(count == before + 1 for count in seen)
        assert threading.active_count() == before

    # the worker has queued the two blocks after the failing one and draws
    # them before it is joined, whatever the threads' timing
    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", DIFFUSING)
    def test_a_blowup_in_block_b_reads_b_plus_two_draws(self, monkeypatch,
                                                        kind, block):
        _blowup_in_block(monkeypatch, block, kind)
        before = threading.active_count()
        rng = sim_reference.FailingGenerator(fail_on=None)
        with pytest.raises(IntegrationBlowupError):
            self._simulate(kind, rng)
        assert threading.active_count() == before
        assert rng.calls == min(block + 2, 4)

    # calls 1 to 4 draw the four blocks on the worker, which queues two
    # draws after each one it is asked for; call 5 draws the shot noise
    @pytest.mark.parametrize("fail_on", [1, 2, 3, 4, 5])
    def test_a_failed_draw_is_raised_in_the_caller(self, fail_on):
        before = threading.active_count()
        rng = sim_reference.FailingGenerator(fail_on)
        with pytest.raises(sim_reference.DrawFailed, match=f"call {fail_on}$"):
            self._simulate("wiener", rng)
        assert threading.active_count() == before
        assert rng.calls == fail_on  # the queued draws found it failed

    def test_concurrent_callers_under_fast_switching(self):
        # more callers than cores, each with its own worker, switching
        # threads every microsecond: a block drawn over one still in use,
        # or out of order, would change a path
        want = {seed: self._simulate("ou", seed)[0].states
                for seed in range(4)}
        got = {}

        def call(seed):
            got[seed] = self._simulate("ou", seed)[0].states
        callers = [threading.Thread(target=call, args=(seed,))
                   for seed in range(4)]
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
        for seed in range(4):
            assert got[seed].tobytes() == want[seed].tobytes()


class TestMeasurementRecord:
    def test_truncated(self):
        rec = sde_sim.MeasurementRecord(1e-6, np.arange(10.0))
        sub = rec.truncated(4)
        assert np.array_equal(sub.outcomes, np.arange(4.0))
        assert sub.delta == 1e-6

    def test_csv_round_trip(self, tmp_path):
        rec = sde_sim.MeasurementRecord(5e-6, np.array([1.25, -3.5, 0.001]))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        back = sde_sim.MeasurementRecord.from_csv(path)
        assert back.delta == pytest.approx(rec.delta)
        assert np.allclose(back.outcomes, rec.outcomes)

    def test_csv_format(self, tmp_path):
        rec = sde_sim.MeasurementRecord(5e-6, np.array([1.0]))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        raw = path.read_bytes()
        assert raw.startswith(b"t,y\r\n")

    def test_csv_row_source_that_raises_leaves_no_file(self, tmp_path):
        def rows():
            yield (1.0, 2.0)
            raise RuntimeError("row source failed")
        path = tmp_path / "rows.csv"
        with pytest.raises(RuntimeError, match="row source failed"):
            sde_sim._write_csv(path, "a,b", rows())
        assert not path.exists()

    def test_csv_long_round_trip(self, tmp_path):
        # a long record of an inexact period loads as k * t_1
        rec = sde_sim.MeasurementRecord(1e-5 / 3.0, np.arange(200_000.0))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        back = sde_sim.MeasurementRecord.from_csv(path)
        assert back.delta == pytest.approx(rec.delta, rel=1e-8)
        assert np.array_equal(back.outcomes, rec.outcomes)

    def test_csv_round_trip_keeps_delta_exactly(self, tmp_path):
        rec = sde_sim.MeasurementRecord(1e-5 / 3.0, np.arange(1000.0))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        back = sde_sim.MeasurementRecord.from_csv(path)
        assert back.delta == rec.delta
        assert np.array_equal(back.times, rec.times)

    def test_csv_nine_digit_times_still_load(self, tmp_path):
        # files written with 9-digit timestamps, before to_csv wrote
        # round-trip ones, load to within their rounding
        delta = 1e-5 / 3.0
        path = tmp_path / "rec.csv"
        path.write_text("t,y\n" + "".join(
            f"{delta * k:.9g},{float(k)!r}\n" for k in range(1, 200_001)))
        back = sde_sim.MeasurementRecord.from_csv(path)
        assert back.delta == pytest.approx(delta, rel=1e-8)
        assert len(back.outcomes) == 200_000

    def test_csv_header_only_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"t,y\r\n")
        with pytest.raises(InvalidParametersError, match="empty"):
            sde_sim.MeasurementRecord.from_csv(path)

    @pytest.mark.parametrize("at", [-1, -2], ids=["last", "next to last"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_outcome_rejected(self, tmp_path, at, bad):
        # a filter pass checks the state after each prediction, so an inf in
        # the last sample would come out as its final estimate unchecked
        outcomes = np.arange(1.0, 5.0)
        outcomes[at] = bad
        with pytest.raises(InvalidParametersError, match="finite"):
            sde_sim.MeasurementRecord(5e-6, outcomes)
        path = tmp_path / "rec.csv"
        rows = enumerate(outcomes.tolist(), 1)
        path.write_text("t,y\n" + "".join(f"{5e-6 * k!r},{y!r}\n"
                                           for k, y in rows))
        with pytest.raises(InvalidParametersError, match="finite"):
            sde_sim.MeasurementRecord.from_csv(path)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_bad_sampling_period_rejected(self, tmp_path, delta):
        with pytest.raises(InvalidParametersError,
                           match="MeasurementRecord delta must be"):
            sde_sim.MeasurementRecord(delta, np.ones(3))
        if math.isfinite(delta):
            # from_csv reports a non-positive t_1 with its own check
            path = tmp_path / "rec.csv"
            path.write_text("t,y\n" + "".join(f"{k * delta!r},1.0\n"
                                              for k in range(1, 4)))
            with pytest.raises(InvalidParametersError, match="uniform"):
                sde_sim.MeasurementRecord.from_csv(path)

    @pytest.mark.parametrize("outcomes", [np.ones((3, 2)), np.float64(1.0)],
                             ids=["2-D", "0-D"])
    def test_outcomes_must_be_one_dimensional(self, outcomes):
        with pytest.raises(InvalidParametersError, match="one-dimensional"):
            sde_sim.MeasurementRecord(5e-6, outcomes)

    @pytest.mark.parametrize("outcomes", [
        np.array([1.0, 2.0 + 1e-3j]), np.array(["1.0", "2.0"]),
        np.array([True, False]), [[1.0], [1.0, 2.0]]],
        ids=["complex", "string", "bool", "ragged"])
    def test_outcomes_that_are_no_real_numbers_raise(self, outcomes):
        # a complex record would give a complex J on a grid; a bool is no
        # number, as for a config field
        with pytest.raises(InvalidParametersError, match="integers or floats"):
            sde_sim.MeasurementRecord(5e-6, outcomes)

    def test_outcomes_are_stored_as_float64(self):
        kept = np.arange(3.0)
        assert sde_sim.MeasurementRecord(5e-6, kept).outcomes is kept
        for outcomes in ([1, 2, 3], np.arange(1, 4, dtype=np.uint8),
                         np.arange(1.0, 4.0, dtype=np.float32)):
            rec = sde_sim.MeasurementRecord(5e-6, outcomes)
            assert rec.outcomes.dtype == np.float64
            assert rec.outcomes.tolist() == [1.0, 2.0, 3.0]

    def test_check_delta(self):
        rec = sde_sim.MeasurementRecord(5e-6 * (1.0 + 1e-8), np.ones(3))
        rec.check_delta(5e-6)  # within a CSV timestamp's rounding
        with pytest.raises(InvalidParametersError, match="Delta = 5e-06"):
            sde_sim.MeasurementRecord(1e-6, np.ones(3)).check_delta(5e-6)

    def test_check_lengths(self):
        # the one rule for the prefix lengths of the likelihood and of
        # filters.omega_at: ascending, repeats allowed, within 1..len
        rec = sde_sim.MeasurementRecord(5e-6, np.ones(3))
        assert rec.check_lengths(iter([1, 1, 3])) == [1, 1, 3]
        for bad in ([], [0, 1], [2, 1], [4]):
            with pytest.raises(InvalidParametersError, match=re.escape(
                    "record lengths must ascend within 1..len(record)")):
                rec.check_lengths(bad)
        with pytest.raises(InvalidParametersError):
            sde_sim.MeasurementRecord(5e-6, np.ones(0)).check_lengths([1])
        assert rec.check_lengths([np.int64(2), 3]) == [2, 3]

    @pytest.mark.parametrize("lengths", [[2.5], [5.0], [True, 5], [2, 5.0],
                                         [np.float64(5.0)], ["5"], [None]])
    @pytest.mark.parametrize("caller", ["neg_log_joint_prefixes",
                                        "map_estimates", "omega_at"])
    def test_lengths_that_are_no_integers_raise(self, caller, lengths):
        # every caller of the one length rule raises a typed error, not a
        # TypeError from a slice or an array shape, and never reads a bool
        # or a whole float as a length
        p = SpmParams()
        prior = default_prior(p, 2e3)
        rec = sde_sim.MeasurementRecord(p.Delta, np.zeros(20))
        call = {
            "neg_log_joint_prefixes": lambda: pem.neg_log_joint_prefixes(
                p.omega_bar, rec, p, prior, lengths),
            "map_estimates": lambda: pem.map_estimates(rec, lengths, p, prior),
            "omega_at": lambda: filters.omega_at(filters.FilterConfig(
                "ekf", Wiener(p.omega_bar, 0.0), prior, p), rec, lengths),
        }[caller]
        with pytest.raises(InvalidParametersError, match="integers"):
            call()

    @pytest.mark.parametrize("rows", [
        b"5e-06\r\n1e-05\r\n", b"5e-06,1.0,7.0\r\n1e-05,2.0,8.0\r\n",
        b"5e-06,1.0\r\n1e-05,abc\r\n", b"5e-06,1.0\r\n1e-05,2.0,8.0\r\n",
        b"5e-06,\r\n1e-05,2.0\r\n", b"5e-06\r\n"],
        ids=["one column", "three columns", "non-numeric", "ragged",
             "empty cell", "one cell"])
    def test_csv_rows_that_are_not_two_numbers_rejected(self, tmp_path, rows):
        # once a bare IndexError (one column), numpy's bare ValueError
        # (a cell that is no number, a ragged row), or a record that
        # dropped its third column
        path = tmp_path / "rec.csv"
        path.write_bytes(b"t,y\r\n" + rows)
        with pytest.raises(InvalidParametersError, match=re.escape(
                "measurement record rows must each be two numbers t,y")):
            sde_sim.MeasurementRecord.from_csv(path)

    def test_csv_nonuniform_times_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"t,y\r\n5e-06,1.0\r\n1e-05,2.0\r\n3e-05,3.0\r\n")
        with pytest.raises(InvalidParametersError, match="uniform"):
            sde_sim.MeasurementRecord.from_csv(path)
