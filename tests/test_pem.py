import math

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
        # the coefficient products formed once per pass round as the
        # expressions they replace, for a float, a complex omega and a grid
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
        p = _small_params()
        prior_omega, prior_spin = _priors(p)
        rec = MeasurementRecord(p.Delta, np.array([1.0, math.inf]))
        with pytest.raises(FloatingPointError):
            pem.kalman_neg_log_joint(3.0, rec, p, prior_omega, prior_spin)


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
            golden = pem_reference.map_estimates(rec, ks, p, *priors)
            for (w, j), (w_ref, j_ref) in zip(fits, golden):
                assert abs(w - w_ref) <= pem.MAP_TOL
                assert j == pytest.approx(j_ref, rel=1e-6)

    def test_score_without_sign_change_raises(self, monkeypatch):
        score = pem.neg_log_joint_score
        monkeypatch.setattr(pem, "neg_log_joint_score",
                            lambda *args: [abs(s) for s in score(*args)])
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
