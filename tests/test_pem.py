import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import pem_reference
import sim_reference
from spinfid import bounds, harness, pem, sde_sim
from spinfid.errors import InvalidParametersError, MapBoundaryError
from spinfid.harness import ExperimentConfig
from spinfid.model import Constant, GaussianPrior, SpmParams
from spinfid.sde_sim import MeasurementRecord, simulate

# the probing times of the c06/c07/c08/c14 acceptance fixture
C06_TIMES = (5e-5, 1e-4, 2e-4, 3.5e-4, 5e-4, 1e-3, 2e-3, 5e-3)


def _small_params():
    # modest magnitudes keep the hand-built joint covariance well conditioned
    return SpmParams(omega_bar=3.0, g_D=1.2, R=0.8, N=50.0, q=0.5,
                     Delta=0.1, T2_override=1.0)


def _priors(p, sigma_omega=1.0, spin_sigma=None):
    prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                np.array([[sigma_omega ** 2]]))
    if spin_sigma is None:
        spin_cov = np.zeros((2, 2))
    else:
        spin_cov = spin_sigma ** 2 * np.eye(2)
    prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]), spin_cov)
    return prior_omega, prior_spin


class TestNegLogJoint:
    def test_single_step_by_hand(self):
        p = _small_params()
        prior_omega, prior_spin = _priors(p, sigma_omega=2.0, spin_sigma=3.0)
        omega, y = 3.4, 17.0
        rec = MeasurementRecord(p.Delta, np.array([y]))
        out = pem.kalman_neg_log_joint(omega, rec, p, prior_omega, prior_spin)

        t2 = 1.0
        a = sim_reference.discrete_spin_transition(omega, p.Delta, t2)
        b2 = 0.5 * p.q * p.N * (1.0 - math.exp(-2.0 * p.Delta / t2))
        m_pred = a @ prior_spin.mean
        p_pred = a @ prior_spin.cov @ a.T + b2 * np.eye(2)
        s = p.R / p.Delta + p.g_D ** 2 * p_pred[1, 1]
        resid = y - p.g_D * m_pred[1]
        expected = (0.5 * (resid ** 2 / s + math.log(s))
                    + 0.5 * (omega - p.omega_bar) ** 2 / 4.0)
        assert out.neg_log_joint == pytest.approx(expected, rel=1e-12)
        assert out.residuals[0] == pytest.approx(resid)
        assert out.innovation_vars[0] == pytest.approx(s)

    def test_matches_joint_gaussian_density(self):
        # oracle: for fixed omega the record is jointly Gaussian, so the
        # innovation-form value must equal the explicit multivariate normal
        # log-density built from the propagated mean/covariance, up to the
        # dropped (k/2) ln 2*pi constant
        p = _small_params()
        prior_omega, prior_spin = _priors(p, sigma_omega=2.0, spin_sigma=1.5)
        omega = 3.7
        k = 30
        t2 = 1.0
        a = sim_reference.discrete_spin_transition(omega, p.Delta, t2)
        b2 = 0.5 * p.q * p.N * (1.0 - math.exp(-2.0 * p.Delta / t2))

        means = []
        covs = []  # marginal 2x2 spin covariances after each step
        m = prior_spin.mean.copy()
        c = prior_spin.cov.copy()
        for _ in range(k):
            m = a @ m
            c = a @ c @ a.T + b2 * np.eye(2)
            means.append(m.copy())
            covs.append(c.copy())

        sigma_y = np.empty((k, k))
        powers = [np.eye(2)]
        for _ in range(k):
            powers.append(a @ powers[-1])
        for i in range(k):
            for j in range(i + 1):
                cross = powers[i - j] @ covs[j]  # Cov(J_i, J_j)
                sigma_y[i, j] = sigma_y[j, i] = p.g_D ** 2 * cross[1, 1]
        sigma_y += (p.R / p.Delta) * np.eye(k)
        mu_y = p.g_D * np.array([mm[1] for mm in means])

        rng = np.random.default_rng(0)
        y = mu_y + rng.standard_normal(k) * math.sqrt(sigma_y[0, 0])
        rec = MeasurementRecord(p.Delta, y)
        out = pem.kalman_neg_log_joint(omega, rec, p, prior_omega, prior_spin)
        log_lik = multivariate_normal.logpdf(y, mean=mu_y, cov=sigma_y)
        prior_quad = 0.5 * (omega - p.omega_bar) ** 2 / 4.0
        expected = -log_lik - 0.5 * k * math.log(2.0 * math.pi) + prior_quad
        assert out.neg_log_joint == pytest.approx(expected, rel=1e-9)

    def test_grid_matches_scalar(self):
        p = _small_params()
        prior_omega, prior_spin = _priors(p, spin_sigma=1.0)
        rng = np.random.default_rng(1)
        rec = MeasurementRecord(p.Delta, rng.standard_normal(25) * 5.0)
        omegas = np.linspace(1.0, 5.0, 17)
        grid_vals = pem.neg_log_joint_grid(omegas, rec, p, prior_omega, prior_spin)
        scalar_vals = [pem.kalman_neg_log_joint(w, rec, p, prior_omega,
                                                prior_spin).neg_log_joint
                       for w in omegas]
        assert np.allclose(grid_vals, scalar_vals, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(ys=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
           cuts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           omega=st.floats(0.5, 6.0))
    def test_prefixes_match_truncated_records(self, ys, cuts, omega):
        # one pass must give, at every length (repeats included), exactly
        # the J of the truncated record, for a float omega, for a grid and
        # for a complex omega
        p = _small_params()
        prior_omega, prior_spin = _priors(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.array(ys))
        lengths = sorted(min(c, len(ys)) for c in cuts)
        grid = np.linspace(omega - 0.4, omega + 0.4, 5)
        stepped = complex(omega, 1e-20)
        scalar = pem.neg_log_joint_prefixes(omega, rec, p, prior_omega,
                                            prior_spin, lengths)
        gridded = pem.neg_log_joint_prefixes(grid, rec, p, prior_omega,
                                             prior_spin, lengths)
        complexed = pem.neg_log_joint_prefixes(stepped, rec, p, prior_omega,
                                               prior_spin, lengths)
        for k, j_scalar, j_grid, j_complex in zip(lengths, scalar, gridded,
                                                  complexed):
            sub = rec.truncated(k)
            assert j_scalar == pem.kalman_neg_log_joint(
                omega, sub, p, prior_omega, prior_spin).neg_log_joint
            assert np.array_equal(j_grid, pem.neg_log_joint_grid(
                grid, sub, p, prior_omega, prior_spin))
            assert j_complex == pem.neg_log_joint_prefixes(
                stepped, sub, p, prior_omega, prior_spin, [k])[0]

    @settings(max_examples=300, deadline=None)
    @given(params=st.builds(
               SpmParams, omega_bar=st.floats(0.1, 1e5),
               g_D=st.floats(1e-3, 10.0), R=st.floats(1e-2, 1e3),
               N=st.floats(1.0, 1e6), q=st.floats(0.0, 1.0),
               Delta=st.floats(1e-6, 1.0), T2_override=st.floats(1e-4, 10.0)),
           ys=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
           cuts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
           shift=st.floats(-3.0, 3.0), spin_sigma=st.floats(0.0, 10.0))
    def test_matches_unhoisted_reference(self, params, ys, cuts, shift,
                                         spin_sigma):
        # the split passes (gains, then mean and J) with the coefficient
        # products formed once per pass round as the fused recursion with
        # the expressions written out, for a float, a complex omega and a
        # grid
        prior_omega, prior_spin = _priors(params, spin_sigma=spin_sigma)
        rec = MeasurementRecord(params.Delta, np.array(ys))
        lengths = sorted(min(c, len(ys)) for c in cuts)
        omega = params.omega_bar + shift
        for w in (omega, complex(omega, 1e-20 * omega),
                  np.linspace(omega - 1.0, omega + 1.0, 7)):
            got = pem.neg_log_joint_prefixes(w, rec, params, prior_omega,
                                             prior_spin, lengths)
            want = pem_reference.neg_log_joint_prefixes(
                w, rec, params, prior_omega, prior_spin, lengths)
            assert len(got) == len(want)
            for j_got, j_want in zip(got, want):
                assert np.array_equal(np.atleast_1d(j_got).view(np.int64),
                                      np.atleast_1d(j_want).view(np.int64))

    def test_innovations_of_wrapper(self):
        p = _small_params()
        prior_omega, prior_spin = _priors(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.random.default_rng(2).normal(size=12))
        out = pem.kalman_neg_log_joint(3.1, rec, p, prior_omega, prior_spin)
        assert out.residuals.shape == out.innovation_vars.shape == (12,)
        assert np.all(out.innovation_vars > 0.0)
        data_term = 0.5 * np.sum(out.residuals ** 2 / out.innovation_vars
                                 + np.log(out.innovation_vars))
        prior_term = 0.5 * (3.1 - p.omega_bar) ** 2
        assert out.neg_log_joint == pytest.approx(data_term + prior_term,
                                                  rel=1e-12)

    def test_nonfinite_input_raises(self):
        # a record holds finite samples only, but the square of one can
        # still overflow the running sum
        p = _small_params()
        prior_omega, prior_spin = _priors(p)
        rec = MeasurementRecord(p.Delta, np.array([1.0, 1e200]))
        with pytest.raises(FloatingPointError):
            pem.kalman_neg_log_joint(3.0, rec, p, prior_omega, prior_spin)

    @pytest.mark.parametrize("lengths", [[], [0], [-1, 3], [4, 3], [5, 6],
                                         [5, 50]])
    @pytest.mark.parametrize("omega", [3.0, complex(3.0, 1e-20),
                                       np.linspace(2.0, 4.0, 5)],
                             ids=["float", "complex", "grid"])
    def test_bad_lengths_raise_before_any_table(self, omega, lengths):
        # lengths must ascend (repeats allowed) within 1..len(record); the
        # kept table is neither replaced nor evicted by a rejected call
        p = _small_params()
        priors = _priors(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(5.0))
        kept = pem.neg_log_joint_grid(np.linspace(1.0, 2.0, 3), rec, p,
                                      *priors)
        table, = pem._gain_memo.values()
        with pytest.raises(InvalidParametersError, match="lengths"):
            pem.neg_log_joint_prefixes(omega, rec, p, *priors, lengths)
        assert list(pem._gain_memo.values()) == [table]
        assert pem.neg_log_joint_prefixes(
            3.0, rec, p, *priors, [2, 2, 5])[2] == pem.kalman_neg_log_joint(
                3.0, rec, p, *priors).neg_log_joint
        assert kept.tobytes() == pem.neg_log_joint_grid(
            np.linspace(1.0, 2.0, 3), rec, p, *priors).tobytes()

    @pytest.mark.parametrize("k", [0, 6])
    def test_score_passes_check_their_lengths(self, k):
        p = _small_params()
        priors = _priors(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(5.0))
        with pytest.raises(InvalidParametersError, match="lengths"):
            pem.neg_log_joint_score(3.0, rec, p, *priors, [k])
        with pytest.raises(InvalidParametersError, match="lengths"):
            pem.score_and_information(3.0, rec, p, *priors, k)


def _c06_priors(p, sigma=harness.DEFAULT_SIGMA_OMEGA):
    return harness._blocks(harness._prior(
        ExperimentConfig(sigma_omega=sigma), p))


def _c06_record(p, run, sigma=harness.DEFAULT_SIGMA_OMEGA):
    """Run ``run`` of the c06 fixture, simulated to its last probing time."""
    rng = harness._run_rng(0, run)
    omega = p.omega_bar + sigma * rng.standard_normal()
    duration = sde_sim.sample_indices(C06_TIMES, p.Delta)[-1] * p.Delta
    return simulate(p, Constant(omega), duration, seed=rng)[1]


class TestGainTable:
    @settings(max_examples=60, deadline=None)
    @given(ys_a=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
           ys_b=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
           cuts=st.lists(st.integers(1, 30), min_size=1, max_size=4),
           sigma=st.floats(0.01, 3.0))
    def test_warm_table_matches_cold(self, ys_a, ys_b, cuts, sigma):
        # J of record B from a table that record A built (or, when A is
        # shorter, from the table built again for B) equals J from a cold
        # table, bit for bit
        p = _small_params()
        prior_omega, prior_spin = _priors(p, sigma_omega=sigma, spin_sigma=1.0)
        grid = np.linspace(p.omega_bar - 5.0 * sigma,
                           p.omega_bar + 5.0 * sigma, 9)
        rec_a = MeasurementRecord(p.Delta, np.array(ys_a))
        rec_b = MeasurementRecord(p.Delta, np.array(ys_b))
        lengths = sorted(min(c, len(ys_b)) for c in cuts)
        pem._gain_memo.clear()
        cold = pem.neg_log_joint_prefixes(grid, rec_b, p, prior_omega,
                                          prior_spin, lengths)
        pem._gain_memo.clear()
        pem.neg_log_joint_grid(grid, rec_a, p, prior_omega, prior_spin)
        warm = pem.neg_log_joint_prefixes(grid, rec_b, p, prior_omega,
                                          prior_spin, lengths)
        assert len(pem._gain_memo) == 1
        for j_cold, j_warm in zip(cold, warm):
            assert j_cold.tobytes() == j_warm.tobytes()

    def test_fit_after_another_record_matches_fit_alone(self):
        p = SpmParams()
        priors = _c06_priors(p)
        rec_a, rec_b = _c06_record(p, 0), _c06_record(p, 1).truncated(300)
        pem._gain_memo.clear()
        alone = pem.map_estimates(rec_b, [40, 100, 300], p, *priors)
        pem._gain_memo.clear()
        pem.map_estimates(rec_a, [len(rec_a.outcomes)], p, *priors)
        assert pem.map_estimates(rec_b, [40, 100, 300], p, *priors) == alone

    @pytest.mark.parametrize("change", ["grid", "params", "spin prior"])
    def test_table_is_not_reused_for_other_inputs(self, change):
        # a table built for other gains must not serve the pass
        p = _small_params()
        prior_omega, prior_spin = _priors(p, spin_sigma=1.0)
        grid = np.linspace(2.0, 4.0, 5)
        rec = MeasurementRecord(p.Delta,
                                np.random.default_rng(7).normal(size=20))
        other = {"grid": (grid + 1e-9, p, prior_spin),
                 "params": (grid, replace(p, q=0.6), prior_spin),
                 "spin prior": (grid, p, _priors(p, spin_sigma=1.1)[1])}
        pem._gain_memo.clear()
        cold = pem.neg_log_joint_grid(grid, rec, p, prior_omega, prior_spin)
        pem._gain_memo.clear()
        g, q, s = other[change]
        pem.neg_log_joint_grid(g, rec, q, prior_omega, s)
        warm = pem.neg_log_joint_grid(grid, rec, p, prior_omega, prior_spin)
        assert warm.tobytes() == cold.tobytes()

    def test_table_is_read_only(self):
        p = _small_params()
        prior_omega, prior_spin = _priors(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta, np.arange(6.0))
        pem.neg_log_joint_grid(np.linspace(2.0, 4.0, 5), rec, p, prior_omega,
                               prior_spin)
        table, = pem._gain_memo.values()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.0

    def test_record_over_the_limit_keeps_no_table(self, monkeypatch):
        # one step past the limit, the gains are streamed, the table kept
        # before is evicted, and J keeps its bits
        p = _small_params()
        prior_omega, prior_spin = _priors(p, spin_sigma=1.0)
        rec = MeasurementRecord(p.Delta,
                                np.random.default_rng(5).normal(size=40))
        grid = np.linspace(2.0, 4.0, 7)
        kept = pem.neg_log_joint_grid(grid, rec, p, prior_omega, prior_spin)
        assert len(pem._gain_memo) == 1
        monkeypatch.setattr(pem, "_TABLE_BYTES", 39 * 4 * grid.nbytes)
        streamed = pem.neg_log_joint_grid(grid + 0.5, rec, p, prior_omega,
                                          prior_spin)
        assert not pem._gain_memo
        assert streamed.tobytes() == pem_reference.neg_log_joint_prefixes(
            grid + 0.5, rec, p, prior_omega, prior_spin, [40])[0].tobytes()
        again = pem.neg_log_joint_grid(grid, rec, p, prior_omega, prior_spin)
        assert not pem._gain_memo
        assert again.tobytes() == kept.tobytes()


class TestScore:
    @pytest.mark.parametrize("p, spin_scale", [(SpmParams(q=0.0), None),
                                               (SpmParams(), 0.1)],
                             ids=["q=0 pinned spin", "default"])
    def test_matches_richardson_central_difference(self, p, spin_scale):
        # the complex-step score of every prefix against the central
        # difference of each truncated record with its h^2 error
        # extrapolated away; that reference is good to about 1e-6
        sigma = 2.0 * math.pi * 2e3
        prior_omega, prior_spin = _priors(
            p, sigma, None if spin_scale is None else spin_scale * p.N)
        rng = np.random.default_rng(3)
        omega = p.omega_bar + sigma * rng.standard_normal()
        _, rec = simulate(p, Constant(omega), 1e-3, seed=rng)
        lengths = list(range(1, len(rec.outcomes) + 1))
        scores = pem.neg_log_joint_score(omega, rec, p, prior_omega,
                                         prior_spin, lengths)
        h = 1e-4 * sigma
        for k, score in zip(lengths, scores):
            sub = rec.truncated(k)
            coarse, fine = (bounds.neg_log_joint_gradient(
                omega, sub, p, prior_omega, prior_spin, step)
                for step in (h, h / 2.0))
            assert score == pytest.approx((4.0 * fine - coarse) / 3.0,
                                          rel=1e-5)


    @pytest.mark.parametrize("t", [1e-4, 1e-3, 5e-3])
    def test_information_matches_noiseless_fisher_information(self, t):
        # q = 0 and a pinned spin leave a deterministic damped sinusoid in
        # white noise, whose Fisher information is known in closed form
        p = SpmParams(q=0.0)
        sigma = 2.0 * math.pi * 2e3
        prior_omega, prior_spin = _priors(p, sigma)
        omega = p.omega_bar + 300.0
        _, rec = simulate(p, Constant(omega), t, seed=1)
        _, _, info = pem.score_and_information(
            omega, rec, p, prior_omega, prior_spin, len(rec.outcomes))
        assert info - 1.0 / sigma ** 2 == pytest.approx(
            bounds.fi_noiseless_discrete(omega, t, p), rel=1e-12)

    def test_information_matches_central_differences(self):
        # both terms of I, (d eps/d omega)^2 / S and (d S/d omega / S)^2 / 2,
        # from central differences of the float passes' innovations; the
        # parameters make S depend on omega strongly
        p = _small_params()
        prior_omega, prior_spin = _priors(p, sigma_omega=10.0, spin_sigma=50.0)
        rec = MeasurementRecord(p.Delta,
                                np.random.default_rng(8).normal(size=30) * 5.0)
        omega, h = 3.2, 1e-5
        _, _, info = pem.score_and_information(omega, rec, p, prior_omega,
                                               prior_spin, 30)
        mid, plus, minus = (pem.kalman_neg_log_joint(
            w, rec, p, prior_omega, prior_spin) for w in (omega, omega + h,
                                                          omega - h))
        d_resid = (plus.residuals - minus.residuals) / (2.0 * h)
        d_s = (plus.innovation_vars - minus.innovation_vars) / (2.0 * h)
        s = mid.innovation_vars
        s_term = 0.5 * np.sum((d_s / s) ** 2)
        assert s_term > 0.1 * info
        want = np.sum(d_resid ** 2 / s) + s_term + 1.0 / 10.0 ** 2
        assert info == pytest.approx(want, rel=1e-7)

    def test_score_and_j_match_their_own_passes(self):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, 2.0 * math.pi * 2e3, 0.1 * p.N)
        rec = _c06_record(p, 2)
        omega = p.omega_bar + 123.0
        j, score, _ = pem.score_and_information(omega, rec, p, prior_omega,
                                                prior_spin, 700)
        assert score == pem.neg_log_joint_score(omega, rec, p, prior_omega,
                                                prior_spin, [700])[0]
        assert j == pytest.approx(pem.neg_log_joint_prefixes(
            omega, rec, p, prior_omega, prior_spin, [700])[0], rel=1e-14)


class TestMapEstimate:
    def test_recovers_constant_frequency(self):
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        truth = p.omega_bar + 0.7 * sigma
        _, rec = simulate(p, Constant(truth), 2e-3, seed=11)
        prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                    np.array([[sigma ** 2]]))
        prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]),
                                   np.zeros((2, 2)))
        omega_hat, j_norm = pem.map_estimate(rec, p, prior_omega, prior_spin)
        assert omega_hat == pytest.approx(truth, abs=2.0)
        assert math.isfinite(j_norm)

    def test_determinism(self):
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 1e3), 5e-4, seed=2)
        prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                    np.array([[sigma ** 2]]))
        prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]),
                                   np.zeros((2, 2)))
        r1 = pem.map_estimate(rec, p, prior_omega, prior_spin)
        r2 = pem.map_estimate(rec, p, prior_omega, prior_spin)
        assert r1 == r2

    def test_refinement_beats_grid_resolution(self):
        # the returned minimum must be at least as good as every grid point
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 500.0), 5e-4, seed=4)
        prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                    np.array([[sigma ** 2]]))
        prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]),
                                   np.zeros((2, 2)))
        omega_hat, j_norm = pem.map_estimate(rec, p, prior_omega, prior_spin)
        grid = np.linspace(p.omega_bar - 5 * sigma, p.omega_bar + 5 * sigma,
                           pem.MAP_GRID_POINTS)
        j_grid = pem.neg_log_joint_grid(grid, rec, p, prior_omega, prior_spin)
        assert j_norm * len(rec.outcomes) <= j_grid.min() + 1e-9

    def test_boundary_raises(self):
        p = SpmParams()
        sigma = 100.0  # very narrow prior, truth 8 sigma away
        truth = p.omega_bar + 8.0 * sigma
        _, rec = simulate(p, Constant(truth), 2e-3, seed=0)
        prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                    np.array([[sigma ** 2]]))
        prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]),
                                   np.zeros((2, 2)))
        with pytest.raises(MapBoundaryError):
            pem.map_estimate(rec, p, prior_omega, prior_spin)

    def test_empty_record(self):
        p = SpmParams()
        prior_omega = GaussianPrior(np.array([p.omega_bar]), np.array([[1.0]]))
        prior_spin = GaussianPrior(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(InvalidParametersError):
            pem.map_estimate(MeasurementRecord(p.Delta, np.empty(0)), p,
                             prior_omega, prior_spin)

    def test_multi_length_fit_matches_truncated_fits(self):
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 800.0), 5e-4, seed=6)
        prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                    np.array([[sigma ** 2]]))
        prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]),
                                   0.01 * p.N ** 2 * np.eye(2))
        lengths = [10, 40, 40, 100]
        fits = pem.map_estimates(rec, lengths, p, prior_omega, prior_spin)
        assert fits == [pem.map_estimate(rec.truncated(k), p, prior_omega,
                                         prior_spin) for k in lengths]

    @pytest.mark.parametrize("sigma", [harness.DEFAULT_SIGMA_OMEGA, 1.0],
                             ids=["c06 prior", "sigma=1"])
    def test_matches_golden_section_reference(self, sigma):
        # the score root against the golden-section minimum on runs of the
        # c06 fixture, and on a prior as narrow as its 50 us bound
        p = SpmParams()
        priors = harness._blocks(harness._prior(
            ExperimentConfig(sigma_omega=sigma), p))
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        for r in range(3):
            rng = harness._run_rng(0, r)
            omega = p.omega_bar + sigma * rng.standard_normal()
            _, rec = simulate(p, Constant(omega), ks[-1] * p.Delta, seed=rng)
            fits = pem.map_estimates(rec, ks, p, *priors)
            for oracle in (pem_reference.map_estimates,
                           pem_reference.brent_map_estimates):
                for (w, j), (w_ref, j_ref) in zip(
                        fits, oracle(rec, ks, p, *priors)):
                    assert abs(w - w_ref) <= pem.MAP_TOL
                    assert j == pytest.approx(j_ref, rel=1e-6)

    def test_score_without_sign_change_raises(self, monkeypatch):
        terms = pem.score_and_information

        def positive_score(*args):
            j, score, info = terms(*args)
            return j, abs(score), info
        monkeypatch.setattr(pem, "score_and_information", positive_score)
        p = SpmParams()
        sigma = 2.0 * math.pi * 2e3
        _, rec = simulate(p, Constant(p.omega_bar + 500.0), 5e-4, seed=4)
        prior_omega, prior_spin = _priors(p, sigma_omega=sigma)
        with pytest.raises(MapBoundaryError, match="sign"):
            pem.map_estimate(rec, p, prior_omega, prior_spin)

    @pytest.mark.parametrize("lengths", [[], [0], [5, 3], [101]])
    def test_multi_length_fit_rejects_bad_lengths(self, lengths):
        p = SpmParams()
        prior_omega = GaussianPrior(np.array([p.omega_bar]), np.array([[1e6]]))
        prior_spin = GaussianPrior(np.zeros(2), np.zeros((2, 2)))
        rec = MeasurementRecord(p.Delta, np.zeros(100))
        with pytest.raises(InvalidParametersError):
            pem.map_estimates(rec, lengths, p, prior_omega, prior_spin)


class TestMapPassBudget:
    @staticmethod
    def _count_passes(monkeypatch):
        passes = {"grid": 0, "float": 0, "complex": 0}
        prefixes = pem.neg_log_joint_prefixes

        def counted(omega, *args, **kwargs):
            kind = ("grid" if isinstance(omega, np.ndarray) else
                    "complex" if isinstance(omega, complex) else "float")
            passes[kind] += 1
            return prefixes(omega, *args, **kwargs)
        monkeypatch.setattr(pem, "neg_log_joint_prefixes", counted)
        return passes

    def test_fits_take_one_grid_pass_and_few_complex_passes(self,
                                                            monkeypatch):
        p = SpmParams()
        priors = _c06_priors(p)
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        passes = self._count_passes(monkeypatch)
        complex_passes = 0
        runs = 4
        for r in range(runs):
            rec = _c06_record(p, r)
            passes.update(grid=0, float=0, complex=0)
            pem.map_estimates(rec, ks, p, *priors)
            assert passes["grid"] == 1
            assert passes["float"] == 0
            complex_passes += passes["complex"]
        assert complex_passes <= 4 * runs * len(ks)

    def test_bisection_fallback_converges(self, monkeypatch):
        # an information a million times too small makes every scoring step
        # leave the bracket, so the fit runs on bisection alone
        p = SpmParams()
        priors = _c06_priors(p)
        ks = sde_sim.sample_indices(C06_TIMES, p.Delta)
        rec = _c06_record(p, 0)
        fits = pem.map_estimates(rec, ks, p, *priors)
        terms = pem.score_and_information
        passes = []

        def weak_information(*args):
            passes.append(args[-1])
            j, score, info = terms(*args)
            return j, score, 1e-6 * info
        monkeypatch.setattr(pem, "score_and_information", weak_information)
        forced = pem.map_estimates(rec, ks, p, *priors)
        assert len(passes) > 10 * len(ks)
        for k, (w, j), (w_ref, _) in zip(ks, forced, fits):
            assert abs(w - w_ref) <= pem.MAP_TOL
            assert j == pytest.approx(pem.neg_log_joint_prefixes(
                w, rec, p, *priors, [k])[0] / k, rel=1e-12)
