import math

import numpy as np
import pytest

from spinfid import bounds, model, pem
from spinfid.errors import InvalidParametersError
from spinfid.model import Constant, GaussianPrior, SpmParams
from spinfid.sde_sim import simulate

TWO_PI = 2.0 * math.pi


def _priors(p, sigma_omega, spin_sigma=0.0):
    prior_omega = GaussianPrior(np.array([p.omega_bar]),
                                np.array([[sigma_omega ** 2]]))
    prior_spin = GaussianPrior(np.array([0.0, 0.5 * p.N]),
                               spin_sigma ** 2 * np.eye(2))
    return prior_omega, prior_spin


class TestScore:
    def test_prior_only_gradient(self):
        # with a vanishing readout gain the record carries no frequency
        # information, so the score reduces to the Gaussian prior term
        p = SpmParams(g_D=1e-30)
        sigma = 1e3
        prior_omega, prior_spin = _priors(p, sigma)
        omega = p.omega_bar + 700.0
        _, rec = simulate(p, Constant(omega), 1e-3, seed=0)
        grad = bounds.neg_log_joint_gradient(omega, rec, p, prior_omega,
                                             prior_spin, h=1e-2)
        assert grad == pytest.approx(700.0 / sigma ** 2, rel=1e-6)
        score, = pem.neg_log_joint_score(omega, rec, p, prior_omega,
                                         prior_spin, [len(rec.outcomes)])
        assert score == pytest.approx(700.0 / sigma ** 2, rel=1e-12)

    def test_gradient_rejects_bad_step(self):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, 1e3)
        _, rec = simulate(p, Constant(p.omega_bar), 5e-5, seed=0)
        with pytest.raises(ValueError):
            bounds.neg_log_joint_gradient(p.omega_bar, rec, p, prior_omega,
                                          prior_spin, h=0.0)


class TestNumericBound:
    def test_reproducible_and_seed_sensitive(self):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, TWO_PI * 2e3)
        args = (p, prior_omega, prior_spin, 1e-4, 3)
        r1 = bounds.bcrb_numeric(*args, seed=0)
        r2 = bounds.bcrb_numeric(*args, seed=0)
        r3 = bounds.bcrb_numeric(*args, seed=1)
        assert r1.value == r2.value
        assert r1.mc_std_err == r2.mc_std_err
        assert r1.value != r3.value

    def test_prior_limit_with_uninformative_data(self):
        # vanishing gain: the bound must recover the prior variance
        p = SpmParams(g_D=1e-30)
        sigma = 1e3
        prior_omega, prior_spin = _priors(p, sigma)
        r = bounds.bcrb_numeric(p, prior_omega, prior_spin, 5e-5, 200, seed=0)
        assert r.value == pytest.approx(sigma ** 2, rel=0.3)
        assert r.mc_std_err > 0.0
        # the MC error estimate should be in the right ballpark too
        assert r.mc_std_err < sigma ** 2

    def test_requires_two_samples(self):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, 1e3)
        with pytest.raises(ValueError):
            bounds.bcrb_numeric(p, prior_omega, prior_spin, 1e-4, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_curve_requires_two_samples(self, n_samples):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, 1e3)
        with pytest.raises(InvalidParametersError, match="2 Monte-Carlo"):
            bounds.bcrb_numeric_curve(p, prior_omega, prior_spin,
                                      [1e-4, 2e-4], n_samples)

    def test_curve_matches_per_time_scores(self):
        # the score read from one complex pass per sample equals the exact
        # score of each truncated record
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, TWO_PI * 2e3)
        times = [5e-5, 1e-4, 1e-4, 2e-4]
        curve = bounds.bcrb_numeric_curve(p, prior_omega, prior_spin, times,
                                          2, seed=3)
        sigma = TWO_PI * 2e3
        sq = np.empty((len(times), 2))
        for m, child in enumerate(np.random.SeedSequence(3).spawn(2)):
            rng = np.random.default_rng(child)
            omega = p.omega_bar + sigma * rng.standard_normal()
            _, rec = simulate(p, Constant(omega), times[-1], seed=rng)
            for i, t in enumerate(times):
                k = round(t / p.Delta)
                score, = pem.neg_log_joint_score(
                    omega, rec.truncated(k), p, prior_omega, prior_spin, [k])
                sq[i, m] = score * score
        assert [c.value for c in curve] == list(1.0 / sq.mean(axis=1))

    def test_curve_matches_single_time(self):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, TWO_PI * 2e3)
        single = bounds.bcrb_numeric(p, prior_omega, prior_spin, 1e-4, 5, seed=2)
        curve = bounds.bcrb_numeric_curve(p, prior_omega, prior_spin, [1e-4],
                                          5, seed=2)
        assert len(curve) == 1
        assert curve[0].value == single.value
        assert curve[0].mc_std_err == single.mc_std_err

    def test_curve_monotone_in_probe_time(self):
        # more data cannot loosen the information average by much; check the
        # estimated bounds decrease along the time axis
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, TWO_PI * 2e3)
        curve = bounds.bcrb_numeric_curve(p, prior_omega, prior_spin,
                                          [2e-4, 5e-4, 1e-3], 40, seed=0)
        values = [c.value for c in curve]
        assert values[0] > values[1] > values[2]

    def test_curve_rejects_bad_times(self):
        p = SpmParams()
        prior_omega, prior_spin = _priors(p, 1e3)
        with pytest.raises(ValueError):
            bounds.bcrb_numeric_curve(p, prior_omega, prior_spin, [], 5)
        with pytest.raises(ValueError):
            bounds.bcrb_numeric_curve(p, prior_omega, prior_spin, [-1e-4], 5)
        # 1 us rounds to no sample at Delta = 5 us
        with pytest.raises(InvalidParametersError):
            bounds.bcrb_numeric_curve(p, prior_omega, prior_spin,
                                      [1e-6, 1e-4], 5)

    def test_numeric_agrees_with_analytic_when_noiseless(self):
        # q = 0 and a deterministic polarized start is exactly the regime of
        # the closed-form bound; a small MC run must land within a few MC
        # standard errors of it
        p = SpmParams(q=0.0)
        sigma = TWO_PI * 2e3
        prior_omega, prior_spin = _priors(p, sigma, spin_sigma=0.0)
        t = 2e-4
        analytic = bounds.bcrb_analytic_gaussian_prior(p, sigma, t)
        numeric = bounds.bcrb_numeric(p, prior_omega, prior_spin, t, 150, seed=0)
        assert numeric.value == pytest.approx(analytic, rel=0.35)


class TestFisherInformation:
    def test_discrete_single_sample_by_hand(self):
        p = SpmParams()
        t2 = model.coherence_time(p)
        omega = TWO_PI * 1e4
        d = p.Delta
        expected = (p.N ** 2 * p.g_D ** 2 / (4.0 * p.R) * d
                    * math.exp(-2.0 * d / t2) * d * d
                    * math.sin(omega * d) ** 2)
        assert bounds.fi_noiseless_discrete(omega, d, p) == pytest.approx(expected)

    def test_discrete_vanishes_at_aliased_frequency(self):
        # sin(omega * j * Delta) = 0 for all j when omega = pi / Delta
        p = SpmParams()
        on_res = bounds.fi_noiseless_discrete(TWO_PI * 1e4, 1e-3, p)
        aliased = bounds.fi_noiseless_discrete(math.pi / p.Delta, 1e-3, p)
        assert aliased < 1e-12 * on_res

    def test_discrete_converges_to_continuous(self):
        p = SpmParams(Delta=1e-8)
        omega, t = TWO_PI * 1e4, 2e-4
        disc = bounds.fi_noiseless_discrete(omega, t, p)
        cont = bounds.fi_noiseless_continuous(omega, t, p)
        assert disc == pytest.approx(cont, rel=1e-3)

    def test_short_time_expansion(self):
        p = SpmParams()
        omega, t = TWO_PI * 1e4, 1e-7  # omega*t ~ 6e-3, t << T2
        cont = bounds.fi_noiseless_continuous(omega, t, p)
        assert bounds.fi_short_time(omega, t, p) == pytest.approx(cont, rel=1e-3)

    def test_asymptotic_value(self):
        p = SpmParams()
        t2 = model.coherence_time(p)
        omega = TWO_PI * 1e4
        cont = bounds.fi_noiseless_continuous(omega, 20.0 * t2, p)
        assert bounds.fi_asymptotic(omega, p) == pytest.approx(cont, rel=1e-6)

    def test_no_decoherence_limit(self):
        p = SpmParams(T2_override=1e6)
        omega, t = TWO_PI * 1e4, 3e-4
        cont = bounds.fi_noiseless_continuous(omega, t, p)
        assert bounds.fi_no_decoherence(omega, t, p) == pytest.approx(cont, rel=1e-6)

    def test_no_decoherence_zero_frequency(self):
        assert bounds.fi_no_decoherence(0.0, 1.0, SpmParams()) == 0.0

    def test_continuous_monotone_in_time(self):
        p = SpmParams()
        omega = TWO_PI * 1e4
        ts = [1e-5, 5e-5, 2e-4, 1e-3, 5e-3]
        vals = [bounds.fi_noiseless_continuous(omega, t, p) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAnalyticBound:
    def test_narrow_prior_limit(self):
        # a very tight prior dominates any finite information
        p = SpmParams()
        sigma = 1e-6
        assert bounds.bcrb_analytic_gaussian_prior(p, sigma, 1e-3) == \
            pytest.approx(sigma ** 2, rel=1e-4)

    def test_monotone_in_time(self):
        p = SpmParams()
        sigma = TWO_PI * 2e3
        b1 = bounds.bcrb_analytic_gaussian_prior(p, sigma, 1e-4)
        b2 = bounds.bcrb_analytic_gaussian_prior(p, sigma, 1e-3)
        b3 = bounds.bcrb_analytic_gaussian_prior(p, sigma, 5e-3)
        assert b1 > b2 > b3

    def test_floor_is_a_long_time_lower_bound(self):
        p = SpmParams()
        sigma = TWO_PI * 2e3
        t2 = model.coherence_time(p)
        floor = bounds.noiseless_bcrb_floor(p, sigma)
        late = bounds.bcrb_analytic_gaussian_prior(p, sigma, 50.0 * t2)
        assert floor <= late
        # the floor absorbs the gap between the peak and the prior-averaged
        # information, so the late-time bound sits within ~25% of it
        assert late <= 1.26 * floor

    def test_floor_prior_limit(self):
        p = SpmParams(g_D=1e-30)
        sigma = 1e3
        assert bounds.noiseless_bcrb_floor(p, sigma) == pytest.approx(
            sigma ** 2, rel=1e-9)
