import gc
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filter_reference as reference
import sim_reference
from spinfid import filters, harness, model
from spinfid.errors import InvalidParametersError, NumericalDegeneracyError
from spinfid.filters import FilterConfig, default_prior, run_filter
from spinfid.harness import ExperimentConfig
from spinfid.model import GaussianPrior, OrnsteinUhlenbeck, SpmParams, Wiener
from spinfid.sde_sim import MeasurementRecord, simulate

_TINY = filters._TINY


def _cfg(kind="ekf", signal=None, p=None, sigma_omega=2e3):
    p = p or SpmParams()
    signal = signal or Wiener(p.omega_bar, 0.0)
    return FilterConfig(kind, signal, default_prior(p, sigma_omega), p)


def _random_belief(rng, scale=1.0):
    """(mean, cov) arrays of a random Gaussian belief."""
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.1 * np.eye(3)
    return rng.standard_normal(3) * scale, cov * scale ** 2


def _cov(x):
    return filters._matrix(x[3:])


def _rel(a, b):
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


class TestOneStepMap:
    def test_jacobian_matches_finite_differences(self):
        # the covariance the EKF propagates is J P J^T + D with J the
        # Jacobian of the one-step map, here taken by central differences
        cfg = _cfg(signal=OrnsteinUhlenbeck(6e4, 0.3, 1e5))
        m = np.array([6.3e4, 0.2e12, -0.1e12])
        cov = np.diag([1e4, 1e18, 4e18])
        cov[1, 2] = cov[2, 1] = 1e18
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-6 * max(1.0, abs(m[j]))
            fd[:, j] = (np.array(reference.point_map(*(m + e), cfg))
                        - np.array(reference.point_map(*(m - e), cfg))) / (2.0 * e[j])
        out = filters.ekf_predict(filters._state(m, cov), cfg)
        expected = fd @ cov @ fd.T + reference.process_noise(cfg)
        assert out[:3] == reference.point_map(*m, cfg)
        assert _rel(_cov(out), expected) < 1e-6

    def test_mean_map_matches_discrete_spin_law(self):
        p = SpmParams()
        cfg = _cfg(signal=Wiener(p.omega_bar, 0.0), p=p)
        m = np.array([p.omega_bar, 1e11, 2e11])
        out = reference.point_map(*m, cfg)
        a = sim_reference.discrete_spin_transition(p.omega_bar, p.Delta,
                                                   model.coherence_time(p))
        assert out[0] == m[0]
        assert np.allclose(out[1:], a @ m[1:])

    def test_process_noise_diagonal(self):
        p = SpmParams()
        cfg = _cfg(signal=Wiener(p.omega_bar, 7.0), p=p)
        t2 = model.coherence_time(p)
        d2 = 0.5 * p.q * p.N * (1.0 - math.exp(-2.0 * p.Delta / t2))
        assert cfg.step[3:5] == pytest.approx((7.0 * p.Delta, d2))
        # from a certain state the EKF's predicted covariance is D alone
        out = filters.ekf_predict(filters._state(
            np.array([p.omega_bar, 1e11, 0.0]), np.zeros((3, 3))), cfg)
        assert out[3:] == (cfg.step[3], 0.0, 0.0, cfg.step[4], 0.0, cfg.step[4])

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
        # Gaussian exactly, so with the one-step map of the six-point oracle
        # replaced by a known affine function its prediction must equal
        # L m + c, L P L^T + D
        rng = np.random.default_rng(5)
        lin = rng.standard_normal((3, 3))
        off = rng.standard_normal(3)
        monkeypatch.setattr(reference, "point_map", lambda w, jy, jz, cfg: tuple(
            (lin @ np.array([w, jy, jz]) + off).tolist()))
        cfg = _cfg("ckf")
        mean, cov = _random_belief(rng)
        out = reference.six_point_predict(filters._state(mean, cov), cfg)
        expected_cov = lin @ cov @ lin.T + reference.process_noise(cfg)
        assert np.allclose(out[:3], lin @ mean + off)
        assert np.allclose(_cov(out), expected_cov)

    def test_ckf_close_to_truth_under_mild_nonlinearity(self):
        # Monte-Carlo oracle: with a narrow frequency spread the propagated
        # moments are nearly those of the linearization, and the cubature
        # prediction must match large-sample pushforward moments
        p = SpmParams()
        cfg = _cfg("ckf", p=p)
        mean = np.array([p.omega_bar, 1e11, 2e11])
        cov = np.diag([50.0 ** 2, 1e18, 3e18])
        out = filters.ckf_predict(filters._state(mean, cov), cfg)
        rng = np.random.default_rng(0)
        x = mean + rng.standard_normal((200_000, 3)) * np.sqrt(np.diag(cov))
        fx = np.array([reference.point_map(*z, cfg) for z in x.tolist()])
        mc_cov = np.cov(fx.T) + reference.process_noise(cfg)
        assert np.allclose(out[:3], fx.mean(axis=0), rtol=1e-3)
        assert np.allclose(np.diag(_cov(out)), np.diag(mc_cov), rtol=0.02)

    def test_closed_form_matches_six_point_rule(self):
        # the closed form is the same cubature rule as the six-point oracle,
        # evaluated in another order: on random beliefs of the benchmark's
        # scales, and on one whose factorization needs a jitter rung
        rng = np.random.default_rng(8)
        p = SpmParams()
        beliefs = []
        for _ in range(199):
            scale = np.array([10.0 ** rng.uniform(0.0, 4.0),
                              10.0 ** rng.uniform(8.0, 12.0),
                              10.0 ** rng.uniform(8.0, 12.0)])
            mean, cov = _random_belief(rng)
            mean = mean * scale + [p.omega_bar, 0.0, 0.5 * p.N]
            beliefs.append((mean, cov * np.outer(scale, scale)))
        beliefs.append((np.array([p.omega_bar, 1e11, 2e11]),
                        np.diag([1e4, 1e18, -1e4])))
        assert filters._cholesky(_upper(beliefs[-1][1])) is None
        for i, (mean, cov) in enumerate(beliefs):
            cfg = _cfg("ckf", OrnsteinUhlenbeck(p.omega_bar, 0.5, 1e7),
                       SpmParams(Delta=(1e-6, 5e-6, 5e-5)[i % 3]))
            x = filters._state(mean, cov)
            out = filters.ckf_predict(x, cfg)
            want = reference.six_point_predict(x, cfg)
            assert _rel(out[:3], want[:3]) < 1e-12
            assert abs(out[0] - want[0]) <= 1e-12 * abs(want[0])
            assert _rel(_cov(out), _cov(want)) < 1e-12

    def test_ekf_predict_propagates_jacobian(self):
        rng = np.random.default_rng(0)
        cfg = _cfg(signal=OrnsteinUhlenbeck(6e4, 0.5, 1e4))
        for _ in range(20):
            mean, cov = _random_belief(rng, scale=1e3)
            mean[0] += 6e4
            out = filters.ekf_predict(filters._state(mean, cov), cfg)
            jac = reference.discrete_f_jacobian(mean, cfg)
            expected = jac @ cov @ jac.T + reference.process_noise(cfg)
            assert _rel(out[:3], reference.discrete_f(mean, cfg)) < 1e-15
            assert _rel(_cov(out), expected) < 1e-12

    def test_ckf_matches_matrix_reference(self):
        rng = np.random.default_rng(3)
        cfg = _cfg("ckf", signal=OrnsteinUhlenbeck(6e4, 0.5, 1e4))
        for _ in range(20):
            mean, cov = _random_belief(rng, scale=1e3)
            mean[0] += 6e4
            out = filters.ckf_predict(filters._state(mean, cov), cfg)
            want = reference.ckf_predict(reference.GaussianBelief(mean, cov), cfg)
            assert _rel(out[:3], want.mean) < 1e-13
            assert _rel(_cov(out), want.cov) < 1e-12


class TestCorrect:
    def test_matches_precision_form_conditioning(self):
        # oracle: Gaussian conditioning in information form,
        # post precision = P^-1 + h h^T / r, independent of the gain algebra
        rng = np.random.default_rng(1)
        p = SpmParams(g_D=0.5, R=2.0, Delta=1.0)
        cfg = _cfg(p=p)
        mean, cov = _random_belief(rng)
        y = 0.7
        h_vec = np.array([0.0, 0.0, p.g_D])
        r = p.R / p.Delta
        prec_post = np.linalg.inv(cov) + np.outer(h_vec, h_vec) / r
        cov_post = np.linalg.inv(prec_post)
        mean_post = cov_post @ (np.linalg.solve(cov, mean) + h_vec * y / r)
        out, innovation, s_var = filters.kalman_correct(
            filters._state(mean, cov), y, cfg)
        assert np.allclose(out[:3], mean_post)
        assert np.allclose(_cov(out), cov_post)
        assert innovation == pytest.approx(y - p.g_D * mean[2])
        assert s_var == pytest.approx(r + p.g_D ** 2 * cov[2, 2])

    def test_update_never_inflates_measured_variance(self):
        rng = np.random.default_rng(2)
        cfg = _cfg()
        for _ in range(20):
            mean, cov = _random_belief(rng, scale=1e5)
            out, _, _ = filters.kalman_correct(
                filters._state(mean, cov), rng.standard_normal(), cfg)
            assert out[8] <= cov[2, 2] * (1.0 + 1e-12)

    def test_matches_matrix_reference(self):
        rng = np.random.default_rng(4)
        cfg = _cfg()
        for _ in range(20):
            mean, cov = _random_belief(rng, scale=1e5)
            y = rng.standard_normal()
            out, innovation, s_var = filters.kalman_correct(
                filters._state(mean, cov), y, cfg)
            want, want_innovation, want_s = reference.kalman_correct(
                reference.GaussianBelief(mean, cov), y, cfg)
            assert _rel(out[:3], want.mean) < 1e-13
            assert _rel(_cov(out), want.cov) < 1e-12
            assert (innovation, s_var) == (want_innovation, want_s)


def _upper(p):
    return tuple(p[filters._UPPER].tolist())


def _numpy_factors(p):
    try:
        np.linalg.cholesky(p)
        return True
    except np.linalg.LinAlgError:
        return False


# P = L diag(d) L^T with unit lower-triangular L: d holds the exact Cholesky
# pivots, at least 1e-9 of the largest in magnitude, so no pivot's sign is
# left to roundoff (a zero pivot is, and either answer would be right).
_PIVOT = st.one_of(st.floats(1e-9, 1.0), st.floats(-1.0, -1e-9))


@st.composite
def _symmetric(draw, pivots=st.tuples(_PIVOT, _PIVOT, _PIVOT)):
    scale = 10.0 ** draw(st.integers(-30, 30))
    lower = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    unit = np.eye(3)
    unit[1, 0], unit[2, 0], unit[2, 1] = lower
    p = unit @ np.diag(np.array(draw(pivots)) * scale) @ unit.T
    return 0.5 * (p + p.T)


class TestNumericalGuards:
    def test_ensure_psd_clips_negative_eigenvalue(self):
        # the Joseph update of this covariance keeps P22 < 0, which fails
        # the PSD test: the step returns the clipped matrix instead
        p = _upper(np.diag([1.0, 1.0, -1e-3]))
        out = filters._matrix(filters.kalman_correct((6e4, 0.0, 1e11) + p,
                                                     0.0, _cfg())[0][3:])
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 0.0
        assert np.allclose(out[:2, :2], np.eye(2))
        assert np.array_equal(out, filters._matrix(filters._clip_to_psd(p)))

    def test_ensure_psd_leaves_spd_untouched(self, monkeypatch):
        # a covariance that passes the PSD test is not decomposed: each
        # half step gives its unclipped arithmetic
        def no_clip(p):
            raise AssertionError("clipped a positive definite covariance")
        monkeypatch.setattr(filters, "_clip_to_psd", no_clip)
        rng = np.random.default_rng(6)
        cfg = _cfg(signal=OrnsteinUhlenbeck(6e4, 0.5, 1e4))
        mean, cov = _random_belief(rng, scale=1e3)
        mean[0] += 6e4
        x, b = filters._state(mean, cov), reference.GaussianBelief(mean, cov)
        for out, want in (
                (filters.ekf_predict(x, cfg), reference.ekf_predict(b, cfg)),
                (filters.ckf_predict(x, cfg), reference.ckf_predict(b, cfg)),
                (filters.kalman_correct(x, 0.5, cfg)[0],
                 reference.kalman_correct(b, 0.5, cfg)[0])):
            assert _rel(_cov(out), want.cov) < 1e-12

    def test_cholesky_jitter_recovers_near_singular(self):
        root = filters._cholesky_with_jitter(_upper(np.diag([1.0, 1.0, -1e-14])))
        assert np.all(np.isfinite(root))

    def test_cholesky_jitter_gives_up(self):
        with pytest.raises(NumericalDegeneracyError):
            filters._cholesky_with_jitter(_upper(np.diag([1.0, 1.0, -1.0])))

    def test_zero_covariance_prior(self):
        # a certain prior, which GaussianPrior accepts: the CKF factors it
        # on the jitter floor, and its first step then matches the EKF's
        p = SpmParams()
        prior = GaussianPrior(np.array([p.omega_bar, 0.0, 0.5 * p.N]),
                              np.zeros((3, 3)))
        _, rec = simulate(p, model.Constant(p.omega_bar), 2e-4, seed=1)
        ekf, ckf = (run_filter(FilterConfig(kind, Wiener(p.omega_bar, 1e7),
                                            prior, p), rec)
                    for kind in ("ekf", "ckf"))
        assert np.all(np.isfinite(ckf.mean)) and np.all(np.isfinite(ckf.cov))
        assert np.allclose(ckf.mean[0], ekf.mean[0], rtol=1e-12, atol=0.0)
        assert np.allclose(ckf.cov[0], ekf.cov[0], rtol=1e-9, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(_symmetric(), st.sampled_from([None, (0, 0), (0, 1), (1, 2), (2, 2)]))
    def test_pd_check_agrees_with_numpy(self, p, nan_at):
        if nan_at is not None:
            p[nan_at] = p[nan_at[::-1]] = math.nan
        tiny = filters._TINY
        entries = _upper(p)
        passes = filters._cholesky(entries, tiny) is not None
        # like LAPACK, a NaN pivot passes and is left to the finiteness checks
        assert passes == _numpy_factors(p + tiny * np.eye(3))
        if not passes and nan_at is None:
            w = np.linalg.eigvalsh(filters._matrix(filters._clip_to_psd(entries)))
            assert w.min() >= -1e-12 * np.abs(np.linalg.eigvalsh(p)).max()

    @pytest.mark.parametrize("half", ["predict", "correct"])
    @pytest.mark.parametrize("entries", [
        (-_TINY, 0.0, 0.0, 1.0, 0.0, 1.0),   # first pivot exactly zero
        (1.0, 1.0, 0.0, 1.0, 0.0, 1.0),      # second pivot exactly zero
        (1.0, 0.0, 0.0, 1.0, 0.0, -_TINY),   # third pivot exactly zero
        (1.0, 0.0, 0.0, 1.0, 0.0, -1.0),     # third pivot negative
        (1.0, 0.0, 0.0, math.nan, 0.0, 1.0),  # second pivot NaN
        (1.0, 0.5, 0.0, 1.0, 0.0, 1.0),      # positive definite
    ], ids=["zero_first", "zero_second", "zero_third", "negative_third",
            "nan_second", "definite"])
    def test_each_half_step_runs_the_psd_test(self, monkeypatch, half,
                                              entries):
        # with no rotation, decay or process noise, and no gain on omega or
        # J_y, each half step hands these entries to its PSD test with the
        # pivots unchanged: it clips exactly where _cholesky(P, tiny)
        # fails, a zero pivot too, and lets a NaN pivot through to the
        # finiteness check
        p = SpmParams(T2_override=1e300)
        cfg = FilterConfig("ekf", Wiener(p.omega_bar, 0.0),
                           default_prior(p, 1.0), p)
        assert cfg.step[:5] == (1.0, 0.0, 1.0, 0.0, 0.0)
        clipped = []
        monkeypatch.setattr(filters, "_clip_to_psd",
                            lambda q: clipped.append(q) or q)
        x = (0.0, 0.0, 0.0) + entries
        if half == "correct":
            filters.kalman_correct(x, 0.0, cfg)
        elif math.isnan(entries[3]):
            with pytest.raises(NumericalDegeneracyError,
                               match="non-finite EKF prediction"):
                filters.ekf_predict(x, cfg)
        else:
            assert filters.ekf_predict(x, cfg)[3:] == entries
        fails = filters._cholesky(entries, _TINY) is None
        assert len(clipped) == fails

    @settings(max_examples=300, deadline=None)
    @given(_symmetric(st.tuples(*[st.floats(1e-3, 1.0)] * 3)))
    def test_factor_matches_numpy(self, p):
        root = filters._cholesky(_upper(p))
        l00, l10, l20, l11, l21, l22 = root
        mine = np.array([[l00, 0.0, 0.0], [l10, l11, 0.0], [l20, l21, l22]])
        assert _rel(mine, np.linalg.cholesky(p)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", range(9))
    @pytest.mark.parametrize("kind", ["ekf", "ckf"])
    def test_nonfinite_prior_raises(self, kind, at, bad):
        # a non-finite entry at position ``at`` of the state (omega, J_y,
        # J_z, P00, P01, P02, P11, P12, P22) fails the prediction with the
        # typed error, also where math.cos meets an infinite angle or the
        # PSD projection an infinite matrix before the finiteness check
        cfg = _cfg(kind)
        x = list(filters._state(cfg.prior.mean, cfg.prior.cov))
        x[at] = bad
        match = f"non-finite {kind.upper()} prediction" if at < 3 else None
        for predict in (filters.ekf_predict, filters.ckf_predict):
            with pytest.raises(NumericalDegeneracyError, match=match):
                predict(tuple(x), cfg)
        # GaussianPrior rejects a non-finite covariance, so the prior of a
        # filter pass is altered in place
        if at < 3:
            cfg.prior.mean[at] = bad
        else:
            i, j = (rows[at - 3] for rows in filters._UPPER)
            cfg.prior.cov[i, j] = cfg.prior.cov[j, i] = bad
        rec = MeasurementRecord(cfg.params.Delta, np.zeros(3))
        with pytest.raises(NumericalDegeneracyError, match=match):
            run_filter(cfg, rec)

    def test_nan_covariance_raises_in_prediction(self):
        cfg = _cfg()
        x = filters._state(np.array([6e4, 0.0, 1e11]),
                           np.diag([1.0, math.nan, 1.0]))
        for predict in (filters.ekf_predict, filters.ckf_predict):
            with pytest.raises(NumericalDegeneracyError):
                predict(x, cfg)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestFilterPass:
    @settings(max_examples=100, deadline=None)
    @given(n_atoms=_log_uniform(1e9, 1e13), delta=_log_uniform(5e-7, 5e-5),
           t2=st.one_of(st.none(), _log_uniform(1e-4, 1e-2)),
           tau=st.one_of(st.none(), _log_uniform(1e-4, 10.0)),
           d_c=st.one_of(st.just(0.0), _log_uniform(1.0, 1e9)),
           kind=st.sampled_from(["ekf", "ckf"]),
           sigma_omega=_log_uniform(1.0, 1e4), samples=st.integers(1, 300),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_covariance_psd_and_pass_is_step_composition(
            self, n_atoms, delta, t2, tau, d_c, kind, sigma_omega, samples,
            seed, data):
        # on random configs (OU when tau is set, else Wiener) every
        # corrected covariance passes the PSD test or is what the clip
        # returned, and the pass equals its one-step views composed, bit for
        # bit, as does omega_at at drawn probing indices (a repeat, the
        # first and the last among them); a pass that diverges (the
        # undersampled EKF can) must fail the same way step by step and
        # segment by segment
        p = SpmParams(N=n_atoms, Delta=delta, T2_override=t2)
        s = (Wiener(p.omega_bar, d_c) if tau is None
             else OrnsteinUhlenbeck(p.omega_bar, tau, d_c))
        _, rec = simulate(p, s, samples * delta, substeps=2, seed=seed)
        cfg = FilterConfig(kind, s, default_prior(p, sigma_omega), p)
        n = len(rec.outcomes)
        drawn = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
        ks = sorted(drawn + drawn[:1] + [1, n])
        clipped = set()
        clip = filters._clip_to_psd

        def recorded_clip(cov):
            out = clip(cov)
            clipped.add(out)
            return out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_clip_to_psd", recorded_clip)
            try:
                trace = run_filter(cfg, rec)
            except NumericalDegeneracyError as exc:
                with pytest.raises(NumericalDegeneracyError,
                                   match=re.escape(str(exc))):
                    reference.run_stepwise(cfg, rec)
                with pytest.raises(NumericalDegeneracyError,
                                   match=re.escape(str(exc))):
                    filters.omega_at(cfg, rec, ks)
                return
        for cov in trace.cov:
            entries = _upper(cov)
            assert (filters._cholesky(entries, filters._TINY) is not None
                    or entries in clipped)
        steps = reference.run_stepwise(cfg, rec)
        for name in ("mean", "cov", "innovation", "innovation_var"):
            assert np.array_equal(getattr(trace, name), getattr(steps, name))
        _assert_omega_at_reads_trace(cfg, rec, ks, trace)

    @pytest.mark.parametrize("case", ["variance_below_tiny", "clipped"])
    def test_ckf_factor_reuse_is_exact(self, case):
        # a CKF pass reuses the pivots of the last PSD test as its factor of
        # P, and the one-step views factor P afresh: they must agree bit for
        # bit where tiny does not vanish in a diagonal entry (an omega
        # variance of 1e-300, which a static frequency model keeps), and
        # where corrections are clipped (undersampled at Delta = 50 us)
        if case == "variance_below_tiny":
            p = SpmParams()
            spin_var = 0.01 * p.N ** 2
            prior = GaussianPrior(np.array([p.omega_bar, 0.0, 0.5 * p.N]),
                                  np.diag([1e-300, spin_var, spin_var]))
        else:
            p = SpmParams(N=1e10, Delta=5e-5, T2_override=1e-3)
            prior = default_prior(p, 500.0)
        s = Wiener(p.omega_bar, 0.0)
        cfg = FilterConfig("ckf", s, prior, p)
        _, rec = simulate(p, s, 100 * p.Delta, substeps=2, seed=0)
        # each segment of omega_at factors P afresh at its start: cut the
        # pass at every sample, and repeat one
        ks = sorted([*range(1, len(rec.outcomes) + 1), 50])
        with pytest.MonkeyPatch.context() as mp:
            guards = _Safeguards(mp)
            trace = run_filter(cfg, rec)
        if case == "variance_below_tiny":
            omega_var = trace.cov[:, 0, 0]
            assert np.all(omega_var + _TINY != omega_var)
            assert guards.clips == 0
        else:
            assert guards.clips > 0
        steps = reference.run_stepwise(cfg, rec)
        for name in ("mean", "cov", "innovation", "innovation_var"):
            assert np.array_equal(getattr(trace, name), getattr(steps, name))
        _assert_omega_at_reads_trace(cfg, rec, ks, trace)


def _assert_omega_at_reads_trace(cfg, rec, ks, trace):
    """omega_at at ``ks`` is the trace's omega_hat there, bit for bit."""
    got = filters.omega_at(cfg, rec, ks)
    assert all(type(w) is float for w in got)
    want = trace.omega_hat[np.array(ks) - 1]
    assert np.array(got).view(np.int64).tolist() == want.view(np.int64).tolist()


class _Safeguards:
    """Counts the eigendecomposition fallback of the PSD check and the
    jittered factorizations of the CKF while installed."""

    def __init__(self, mp):
        self.clips = 0
        self.jitters = []
        clip, chol = filters._clip_to_psd, filters._cholesky

        def counted_clip(p):
            self.clips += 1
            return clip(p)

        def counted_cholesky(p, shift=0.0):
            if shift not in (0.0, filters._TINY):
                self.jitters.append(shift)
            return chol(p, shift)
        mp.setattr(filters, "_clip_to_psd", counted_clip)
        mp.setattr(filters, "_cholesky", counted_cholesky)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Every filter run of the benchmark's mc_sampling sweep (EKF and CKF)
    and track_ou configs at seed 0: (config, record, trace, matrix-reference
    trace), and the safeguards that fired on the way.  The sweep reads its
    filters through ``omega_at``; each of its runs is also traced whole."""
    runs = []
    new_run, new_omega_at = filters.run_filter, filters.omega_at

    def both(cfg, rec):
        trace = new_run(cfg, rec)
        runs.append((cfg, rec, trace, reference.run_filter(cfg, rec)))
        return trace

    def both_at(cfg, rec, ks):
        both(cfg, rec)
        return new_omega_at(cfg, rec, ks)
    with pytest.MonkeyPatch.context() as mp:
        guards = _Safeguards(mp)
        mp.setattr(filters, "run_filter", both)
        mp.setattr(filters, "omega_at", both_at)
        harness.run_error_vs_delta(ExperimentConfig(
            sigma_omega=2000.0, estimators=("ekf", "ckf"), runs=1, seed=0,
            duration=5e-3, sweep_axis="sampling",
            sweep_values=(5e-7, 5e-6, 5e-5)))
        p = SpmParams(Delta=1e-6)
        for d_c in (1e7, 1e9):
            s = OrnsteinUhlenbeck(p.omega_bar, 1.0, d_c)
            for kind in ("ekf", "ckf"):
                harness.run_tracking(ExperimentConfig(
                    params=p, true_signal=s, assumed_signal=s,
                    estimators=(kind,), duration=5e-3, substeps=8, seed=0))
    return runs, guards


class TestBenchmarkConfigs:
    def test_safeguards_do_not_fire(self, benchmark_runs):
        runs, guards = benchmark_runs
        assert len(runs) == 10
        assert guards.clips == 0
        assert guards.jitters == []

    def test_safeguards_fire_on_indefinite_covariance(self, monkeypatch):
        guards = _Safeguards(monkeypatch)
        cfg = _cfg("ckf")
        x = filters._state(np.array([6e4, 0.0, 1e11]),
                           np.diag([1.0, 1.0, -1e-14]))
        filters.kalman_correct(x, 0.0, cfg)
        assert (guards.clips, guards.jitters) == (1, [])
        filters.ckf_predict(x, cfg)
        assert guards.jitters == [pytest.approx(1e-12 * 2.0 / 3.0)]

    def test_matches_matrix_reference(self, benchmark_runs):
        # Delta = 50 us is left out: the undersampled filter amplifies
        # roundoff, and the two paths drift apart there by more than these
        # bounds while every safeguard stays idle.  The innovation bound is
        # the omega bound in units of the signal amplitude g_D |J|: the
        # lock-in transient multiplies a relative mean error by
        # g_D |J| / sqrt(S), about 4e4 at Delta = 5 us.  On the track_ou
        # configs (Delta = 1 us) each step is also held against the
        # six-point cubature oracle: the closed form rounds differently,
        # and the EKF, which did not change, not at all.
        runs, _ = benchmark_runs
        compared = six_point = 0
        for cfg, rec, new, ref in runs:
            if cfg.params.Delta == 1e-6:
                six_point += 1
                old = reference.six_point_run_filter(cfg, rec)
                if cfg.kind == "ekf":
                    for name in ("mean", "cov", "innovation",
                                 "innovation_var"):
                        assert np.array_equal(getattr(new, name),
                                              getattr(old, name))
                assert np.all(np.abs(new.omega_hat - old.omega_hat)
                              <= 1e-12 * np.abs(old.omega_hat))
                for a, b in ((new.innovation_var, old.innovation_var),
                             (new.sigma_omega_pred, old.sigma_omega_pred)):
                    assert np.all(np.abs(a - b) <= 1e-9 * b)
            if cfg.params.Delta > 5e-6:
                continue
            compared += 1
            amplitude = cfg.params.g_D * np.hypot(ref.mean[:, 1], ref.mean[:, 2])
            assert np.all(np.abs(new.omega_hat - ref.omega_hat)
                          <= 1e-9 * np.abs(ref.omega_hat))
            assert np.all(np.abs(new.innovation - ref.innovation)
                          <= 1e-9 * amplitude)
            for a, b in ((new.innovation_var, ref.innovation_var),
                         (new.sigma_omega_pred, ref.sigma_omega_pred)):
                assert np.all(np.abs(a - b) <= 1e-6 * b)
            assert np.all(np.linalg.norm(new.cov - ref.cov, axis=(1, 2))
                          <= 1e-6 * np.linalg.norm(ref.cov, axis=(1, 2)))
        assert compared == 8
        assert six_point == 4

    def test_call_budget(self):
        # while no safeguard fires neither an EKF nor a CKF step calls a
        # Python function: the PSD tests are written into the step, and the
        # CKF reuses the pivots of the last one as its factor of P; so the
        # whole pass and omega_at at its last sample call as many on 1000
        # samples as on one
        p = SpmParams(Delta=1e-6)
        s = OrnsteinUhlenbeck(p.omega_bar, 1.0, 1e9)
        _, rec = simulate(p, s, 1e-3, substeps=8, seed=0)
        assert len(rec.outcomes) == 1000

        def calls(run, *args):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"
            # the cyclic GC fires call events when it closes a generator
            # that an earlier test left in a cycle: none may run in between
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                run(*args)
            finally:
                sys.setprofile(None)
                gc.enable()
            return count
        short = rec.truncated(1)
        for kind in ("ekf", "ckf"):
            cfg = FilterConfig(kind, s, default_prior(p, 2000.0), p)
            with pytest.MonkeyPatch.context() as mp:
                guards = _Safeguards(mp)
                run_filter(cfg, rec)
            assert (guards.clips, guards.jitters) == (0, [])
            assert calls(run_filter, cfg, rec) == calls(run_filter, cfg, short)
            assert (calls(filters.omega_at, cfg, rec, [1000])
                    == calls(filters.omega_at, cfg, short, [1]))


class TestConfigAndTrace:
    @pytest.mark.parametrize("kind", ["ekf", "ckf"])
    def test_rejects_a_record_at_another_period(self, kind):
        # a 1 us shot read at the default 5 us would be off by ~5e4 rad/s
        p = SpmParams()
        fast = SpmParams(Delta=1e-6)
        _, rec = simulate(fast, model.Constant(p.omega_bar), 1e-4, seed=1)
        with pytest.raises(InvalidParametersError, match="Delta"):
            run_filter(_cfg(kind, p=p), rec)
        assert len(run_filter(_cfg(kind, p=fast), rec).times) == 100

    def test_rejects_unknown_kind(self):
        p = SpmParams()
        with pytest.raises(InvalidParametersError):
            FilterConfig("ukf", Wiener(1.0, 0.0), default_prior(p, 1.0), p)

    def test_rejects_deterministic_internal_signal(self):
        p = SpmParams()
        with pytest.raises(InvalidParametersError):
            FilterConfig("ekf", model.Constant(1.0), default_prior(p, 1.0), p)

    def test_rejects_wrong_prior_dimension(self):
        p = SpmParams()
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidParametersError):
            FilterConfig("ekf", Wiener(1.0, 0.0), prior, p)

    def test_empty_record_rejected(self):
        cfg = _cfg()
        with pytest.raises(InvalidParametersError):
            run_filter(cfg, MeasurementRecord(5e-6, np.empty(0)))

    @pytest.mark.parametrize("ks, delta, n, match", [
        ([], 5e-6, 8, "record lengths must ascend"),
        ([0], 5e-6, 8, "record lengths must ascend"),
        ([3, 2], 5e-6, 8, "record lengths must ascend"),
        ([9], 5e-6, 8, "record lengths must ascend"),
        ([1], 5e-6, 0, "empty measurement record"),
        ([1], 1e-6, 8, "Delta"),
    ])
    def test_omega_at_rejects_bad_input_before_a_step(
            self, monkeypatch, ks, delta, n, match):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped on a bad input")
        monkeypatch.setattr(filters, "_steps", no_step)
        with pytest.raises(InvalidParametersError, match=match):
            filters.omega_at(_cfg(), MeasurementRecord(delta, np.zeros(n)), ks)

    def test_run_filter_trace_shapes_and_csv(self, tmp_path):
        p = SpmParams()
        cfg = _cfg(p=p)
        rng = np.random.default_rng(0)
        rec = MeasurementRecord(p.Delta, rng.standard_normal(8))
        trace = run_filter(cfg, rec)
        assert trace.mean.shape == (8, 3)
        assert trace.cov.shape == (8, 3, 3)
        assert np.array_equal(trace.cov, trace.cov.transpose(0, 2, 1))
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

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan, math.inf,
                                       -math.inf])
    def test_default_prior_rejects_a_spread_that_is_not_positive(self, sigma):
        with pytest.raises(InvalidParametersError, match="sigma_omega"):
            default_prior(SpmParams(), sigma)

    @pytest.mark.parametrize("n, sigma", [
        (0.44e12, 1e300), (1e200, 1e3), (10 ** 200, 1e3),
        (np.float64(1e200), 1e3), (0.44e12, np.float64(1e300))],
        ids=["float sigma", "float N", "int N", "numpy N", "numpy sigma"])
    def test_default_prior_rejects_a_variance_beyond_float_range(self, n,
                                                                 sigma):
        # the squares once raised a bare OverflowError
        with pytest.raises(InvalidParametersError,
                           match="prior variances .* must be finite"):
            default_prior(SpmParams(N=n), sigma)

    def test_default_prior_structure(self):
        p = SpmParams()
        prior = default_prior(p, 123.0)
        assert np.array_equal(prior.mean, [p.omega_bar, 0.0, 0.5 * p.N])
        assert np.array_equal(prior.cov, np.diag(
            [123.0 ** 2, 0.01 * p.N ** 2, 0.01 * p.N ** 2]))
