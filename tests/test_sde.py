import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sim_reference
from spinfid import model, sde_sim
from spinfid.errors import IntegrationBlowupError, InvalidParametersError
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

    def test_rejects_bad_arguments(self):
        p = SpmParams()
        with pytest.raises(InvalidParametersError):
            sde_sim.simulate(p, Constant(1.0), 1e-6)  # shorter than Delta
        with pytest.raises(InvalidParametersError):
            sde_sim.simulate(p, Constant(1.0), 1e-4, substeps=0)

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
        s = Step(p.omega_bar, ((100 * h, math.inf), (110 * h, p.omega_bar)))
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
        with pytest.raises(InvalidParametersError, match="sampling period"):
            sde_sim.MeasurementRecord(delta, np.ones(3))
        if math.isfinite(delta):
            # from_csv reports a non-positive t_1 with its own check
            path = tmp_path / "rec.csv"
            path.write_text("t,y\n" + "".join(f"{k * delta!r},1.0\n"
                                              for k in range(1, 4)))
            with pytest.raises(InvalidParametersError, match="uniform"):
                sde_sim.MeasurementRecord.from_csv(path)

    def test_csv_nonuniform_times_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"t,y\r\n5e-06,1.0\r\n1e-05,2.0\r\n3e-05,3.0\r\n")
        with pytest.raises(InvalidParametersError, match="uniform"):
            sde_sim.MeasurementRecord.from_csv(path)
