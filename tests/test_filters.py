import math

import numpy as np
import pytest

from spinfid import filters, model
from spinfid.filters import (FilterConfig, GaussianBelief, default_prior,
                             run_filter)
from spinfid.model import GaussianPrior, OrnsteinUhlenbeck, SpmParams, Wiener
from spinfid.sde_sim import MeasurementRecord


def _cfg(kind="ekf", signal=None, p=None, sigma_omega=2e3):
    p = p or SpmParams()
    signal = signal or Wiener(p.omega_bar, 0.0)
    return FilterConfig(kind, signal, default_prior(p, sigma_omega), p)


def _random_belief(rng, scale=1.0):
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.1 * np.eye(3)
    return GaussianBelief(rng.standard_normal(3) * scale, cov * scale ** 2)


class TestOneStepMap:
    def test_jacobian_matches_finite_differences(self):
        cfg = _cfg(signal=OrnsteinUhlenbeck(6e4, 0.3, 1e5))
        m = np.array([6.3e4, 0.2e12, -0.1e12])
        jac = filters.discrete_f_jacobian(m, cfg)
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-6 * max(1.0, abs(m[j]))
            fd[:, j] = (filters.discrete_f(m + e, cfg)
                        - filters.discrete_f(m - e, cfg)) / (2.0 * e[j])
        assert np.allclose(jac, fd, rtol=1e-4)

    def test_mean_map_matches_discrete_spin_law(self):
        p = SpmParams()
        cfg = _cfg(signal=Wiener(p.omega_bar, 0.0), p=p)
        m = np.array([p.omega_bar, 1e11, 2e11])
        out = filters.discrete_f(m, cfg)
        a = model.discrete_spin_transition(p.omega_bar, p.Delta,
                                           model.coherence_time(p))
        assert out[0] == m[0]
        assert np.allclose(out[1:], a @ m[1:])

    def test_process_noise_diagonal(self):
        p = SpmParams()
        cfg = _cfg(signal=Wiener(p.omega_bar, 7.0), p=p)
        d = filters.process_noise(cfg)
        t2 = model.coherence_time(p)
        d2 = 0.5 * p.q * p.N * (1.0 - math.exp(-2.0 * p.Delta / t2))
        assert np.allclose(d, np.diag([7.0 * p.Delta, d2, d2]))

    def test_run_filter_reads_the_step_model_of_its_config(self, monkeypatch):
        # the model constants are computed once, when the config is built
        p = SpmParams()
        signal = OrnsteinUhlenbeck(p.omega_bar, 1.0, 1e7)
        cfgs = [_cfg(kind, signal, p) for kind in ("ekf", "ckf")]
        rec = MeasurementRecord(
            p.Delta, np.random.default_rng(1).standard_normal(20))
        calls = []
        for name in ("coherence_time", "signal_discrete_params",
                     "discrete_spin_noise_var"):
            def counted(*args, _name=name, _orig=getattr(model, name)):
                calls.append(_name)
                return _orig(*args)
            monkeypatch.setattr(model, name, counted)
        for cfg in cfgs:
            run_filter(cfg, rec)
        assert calls == []


class TestPredict:
    def test_ckf_exact_for_linear_map(self, monkeypatch):
        # the degree-3 spherical cubature rule integrates affine maps of a
        # Gaussian exactly, so with the one-step map replaced by a known
        # affine function the prediction must equal L m + c, L P L^T + D
        rng = np.random.default_rng(5)
        lin = rng.standard_normal((3, 3))
        off = rng.standard_normal(3)
        monkeypatch.setattr(filters, "discrete_f", lambda m, cfg: lin @ m + off)
        cfg = _cfg("ckf")
        b = _random_belief(rng)
        out = filters.ckf_predict(b.copy(), cfg)
        expected_cov = lin @ b.cov @ lin.T + filters.process_noise(cfg)
        assert np.allclose(out.mean, lin @ b.mean + off)
        assert np.allclose(out.cov, expected_cov)

    def test_ckf_close_to_truth_under_mild_nonlinearity(self):
        # Monte-Carlo oracle: with a narrow frequency spread the propagated
        # moments are nearly those of the linearization, and the cubature
        # prediction must match large-sample pushforward moments
        p = SpmParams()
        cfg = _cfg("ckf", p=p)
        cov = np.diag([50.0 ** 2, 1e18, 3e18])
        b = GaussianBelief(np.array([p.omega_bar, 1e11, 2e11]), cov)
        out = filters.ckf_predict(b.copy(), cfg)
        rng = np.random.default_rng(0)
        x = b.mean + rng.standard_normal((200_000, 3)) * np.sqrt(np.diag(cov))
        fx = np.empty_like(x)
        for i in range(len(x)):
            fx[i] = filters.discrete_f(x[i], cfg)
        mc_mean = fx.mean(axis=0)
        mc_cov = np.cov(fx.T) + filters.process_noise(cfg)
        assert np.allclose(out.mean, mc_mean, rtol=1e-3)
        assert np.allclose(np.diag(out.cov), np.diag(mc_cov), rtol=0.02)

    def test_ekf_predict_propagates_jacobian(self):
        rng = np.random.default_rng(0)
        cfg = _cfg(signal=OrnsteinUhlenbeck(6e4, 0.5, 1e4))
        b = _random_belief(rng, scale=1e3)
        out = filters.ekf_predict(b.copy(), cfg)
        jac = filters.discrete_f_jacobian(b.mean, cfg)
        expected = jac @ b.cov @ jac.T + filters.process_noise(cfg)
        assert np.allclose(out.mean, filters.discrete_f(b.mean, cfg))
        assert np.allclose(out.cov, 0.5 * (expected + expected.T))


class TestCorrect:
    def test_matches_precision_form_conditioning(self):
        # oracle: Gaussian conditioning in information form,
        # post precision = P^-1 + h h^T / r, independent of the gain algebra
        rng = np.random.default_rng(1)
        p = SpmParams(g_D=0.5, R=2.0, Delta=1.0)
        cfg = _cfg(p=p)
        b = _random_belief(rng)
        y = 0.7
        h_vec = np.array([0.0, 0.0, p.g_D])
        r = p.R / p.Delta
        prec_post = np.linalg.inv(b.cov) + np.outer(h_vec, h_vec) / r
        cov_post = np.linalg.inv(prec_post)
        mean_post = cov_post @ (np.linalg.solve(b.cov, b.mean) + h_vec * y / r)
        out, innovation, s_var = filters.kalman_correct(b, y, cfg)
        assert np.allclose(out.mean, mean_post)
        assert np.allclose(out.cov, cov_post)
        assert innovation == pytest.approx(y - p.g_D * b.mean[2])
        assert s_var == pytest.approx(r + p.g_D ** 2 * b.cov[2, 2])

    def test_update_never_inflates_measured_variance(self):
        rng = np.random.default_rng(2)
        cfg = _cfg()
        for _ in range(20):
            b = _random_belief(rng, scale=1e5)
            out, _, _ = filters.kalman_correct(b, rng.standard_normal(), cfg)
            assert out.cov[2, 2] <= b.cov[2, 2] * (1.0 + 1e-12)


class TestNumericalGuards:
    def test_ensure_psd_clips_negative_eigenvalue(self):
        p = np.diag([1.0, 1.0, -1e-3])
        out = filters._ensure_psd(p)
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 0.0
        assert np.allclose(out[:2, :2], np.eye(2))

    def test_ensure_psd_leaves_spd_untouched(self):
        p = np.diag([1.0, 2.0, 3.0])
        assert filters._ensure_psd(p) is p

    def test_cholesky_jitter_recovers_near_singular(self):
        p = np.diag([1.0, 1.0, -1e-14])
        root = filters._cholesky_with_jitter(p)
        assert np.all(np.isfinite(root))


class TestConfigAndTrace:
    def test_rejects_unknown_kind(self):
        p = SpmParams()
        with pytest.raises(ValueError):
            FilterConfig("ukf", Wiener(1.0, 0.0), default_prior(p, 1.0), p)

    def test_rejects_deterministic_internal_signal(self):
        p = SpmParams()
        with pytest.raises(ValueError):
            FilterConfig("ekf", model.Constant(1.0), default_prior(p, 1.0), p)

    def test_rejects_wrong_prior_dimension(self):
        p = SpmParams()
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            FilterConfig("ekf", Wiener(1.0, 0.0), prior, p)

    def test_empty_record_rejected(self):
        cfg = _cfg()
        with pytest.raises(ValueError):
            run_filter(cfg, MeasurementRecord(5e-6, np.empty(0)))

    def test_run_filter_trace_shapes_and_csv(self, tmp_path):
        p = SpmParams()
        cfg = _cfg(p=p)
        rng = np.random.default_rng(0)
        rec = MeasurementRecord(p.Delta, rng.standard_normal(8))
        trace = run_filter(cfg, rec)
        assert trace.mean.shape == (8, 3)
        assert trace.omega_hat.shape == (8,)
        assert np.all(trace.innovation_var > 0)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"k,t,omega_hat,sigma_omega_pred,jy_hat,jz_hat,innovation,S,nis"
        assert len(lines) == 10  # header + 8 rows + trailing newline

    def test_sigma_omega_monotone_without_process_noise(self):
        # with a static frequency model (Wiener, d_c = 0) the marginal
        # frequency variance cannot grow between measurements
        p = SpmParams()
        cfg = _cfg(p=p, sigma_omega=2e3)
        truth = p.omega_bar + 500.0
        from spinfid.sde_sim import simulate
        _, rec = simulate(p, model.Constant(truth), 5e-4, seed=7)
        trace = run_filter(cfg, rec)
        sig = np.sqrt(trace.cov[:, 0, 0])
        assert np.all(np.diff(sig) <= 1e-9 * sig[:-1])
        # and the filter should have learned something
        assert sig[-1] < 0.5 * 2e3
        assert abs(trace.omega_hat[-1] - truth) < 5.0 * sig[-1]

    def test_ckf_and_ekf_agree_on_easy_problem(self):
        p = SpmParams()
        from spinfid.sde_sim import simulate
        _, rec = simulate(p, model.Constant(p.omega_bar + 300.0), 5e-4, seed=3)
        te = run_filter(_cfg("ekf", p=p, sigma_omega=500.0), rec)
        tc = run_filter(_cfg("ckf", p=p, sigma_omega=500.0), rec)
        assert te.omega_hat[-1] == pytest.approx(tc.omega_hat[-1], abs=0.05)

    def test_default_prior_structure(self):
        p = SpmParams()
        prior = default_prior(p, 123.0, spin_cov_scale=0.5)
        assert np.array_equal(prior.mean, [p.omega_bar, 0.0, 0.5 * p.N])
        assert prior.cov[0, 0] == pytest.approx(123.0 ** 2)
        assert prior.cov[1, 1] == pytest.approx(0.5 * p.N ** 2)
