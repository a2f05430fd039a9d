import math
import re

import numpy as np
import pytest

from spinfid import bounds, model, pem
from spinfid.errors import InvalidParametersError
from spinfid.model import Constant, GaussianPrior, SpmParams
from spinfid.sde_sim import simulate

TWO_PI = 2.0 * math.pi


def _prior(p, sigma_omega, spin_sigma=0.0):
    """The (omega, J_y, J_z) prior: omega ~ N(omega_bar, sigma_omega^2), the
    spin at the polarized state with isotropic spread spin_sigma."""
    return GaussianPrior(np.array([p.omega_bar, 0.0, 0.5 * p.N]), np.diag(
        [sigma_omega ** 2, spin_sigma ** 2, spin_sigma ** 2]))


class TestScore:
    def test_prior_only_gradient(self):
        # with a vanishing readout gain the record carries no frequency
        # information, so the score reduces to the Gaussian prior term
        p = SpmParams(g_D=1e-30)
        sigma = 1e3
        prior = _prior(p, sigma)
        omega = p.omega_bar + 700.0
        _, rec = simulate(p, Constant(omega), 1e-3, seed=0)
        grad = bounds.neg_log_joint_gradient(omega, rec, p, prior, h=1e-2)
        assert grad == pytest.approx(700.0 / sigma ** 2, rel=1e-6)
        score, = pem.neg_log_joint_score(omega, rec, p, prior,
                                         [len(rec.outcomes)])
        assert score == pytest.approx(700.0 / sigma ** 2, rel=1e-12)

    def test_gradient_rejects_bad_step(self):
        p = SpmParams()
        prior = _prior(p, 1e3)
        _, rec = simulate(p, Constant(p.omega_bar), 5e-5, seed=0)
        with pytest.raises(ValueError):
            bounds.neg_log_joint_gradient(p.omega_bar, rec, p, prior, h=0.0)


class TestNumericBound:
    def test_reproducible_and_seed_sensitive(self):
        p = SpmParams()
        prior = _prior(p, TWO_PI * 2e3)
        args = (p, prior, 1e-4, 3)
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
        prior = _prior(p, sigma)
        r = bounds.bcrb_numeric(p, prior, 5e-5, 200, seed=0)
        assert r.value == pytest.approx(sigma ** 2, rel=0.3)
        assert r.mc_std_err > 0.0
        # the MC error estimate should be in the right ballpark too
        assert r.mc_std_err < sigma ** 2

    def test_requires_two_samples(self):
        p = SpmParams()
        prior = _prior(p, 1e3)
        with pytest.raises(ValueError):
            bounds.bcrb_numeric(p, prior, 1e-4, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_curve_requires_two_samples(self, n_samples):
        p = SpmParams()
        prior = _prior(p, 1e3)
        with pytest.raises(InvalidParametersError, match="2 Monte-Carlo"):
            bounds.bcrb_numeric_curve(p, prior, [1e-4, 2e-4], n_samples)

    @pytest.mark.parametrize("n_samples", [2.5, True, np.float64(3.0)])
    def test_curve_rejects_a_sample_count_that_is_no_integer(self, n_samples):
        p = SpmParams()
        prior = _prior(p, 1e3)
        with pytest.raises(InvalidParametersError,
                           match="integer.*" + re.escape(repr(n_samples))):
            bounds.bcrb_numeric_curve(p, prior, [1e-4],
                                      n_samples)

    @pytest.mark.parametrize("n_samples", [2 ** 63, 2 ** 64])
    def test_curve_rejects_a_sample_count_beyond_array_sizes(self, n_samples):
        # once numpy's bare ValueError "Maximum allowed dimension exceeded"
        p = SpmParams()
        with pytest.raises(InvalidParametersError,
                           match=f"n_samples must be <= {2 ** 63 - 1}, got "
                                 f"{n_samples}"):
            bounds.bcrb_numeric_curve(p, _prior(p, 1e3), [1e-4], n_samples)

    def test_curve_takes_a_numpy_integer_sample_count(self):
        p = SpmParams()
        prior = _prior(p, 1e3)
        args = (p, prior, [5e-5])
        assert (bounds.bcrb_numeric_curve(*args, np.int64(2), seed=1)
                == bounds.bcrb_numeric_curve(*args, 2, seed=1))

    def test_curve_matches_per_time_scores(self):
        # the score read from one complex pass per sample equals the exact
        # score of each truncated record
        p = SpmParams()
        prior = _prior(p, TWO_PI * 2e3)
        times = [5e-5, 1e-4, 1e-4, 2e-4]
        curve = bounds.bcrb_numeric_curve(p, prior, times,
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
                    omega, rec.truncated(k), p, prior, [k])
                sq[i, m] = score * score
        assert [c.value for c in curve] == list(1.0 / sq.mean(axis=1))

    def test_curve_matches_single_time(self):
        p = SpmParams()
        prior = _prior(p, TWO_PI * 2e3)
        single = bounds.bcrb_numeric(p, prior, 1e-4, 5, seed=2)
        curve = bounds.bcrb_numeric_curve(p, prior, [1e-4],
                                          5, seed=2)
        assert len(curve) == 1
        assert curve[0].value == single.value
        assert curve[0].mc_std_err == single.mc_std_err

    def test_curve_monotone_in_probe_time(self):
        # more data cannot loosen the information average by much; check the
        # estimated bounds decrease along the time axis
        p = SpmParams()
        prior = _prior(p, TWO_PI * 2e3)
        curve = bounds.bcrb_numeric_curve(p, prior,
                                          [2e-4, 5e-4, 1e-3], 40, seed=0)
        values = [c.value for c in curve]
        assert values[0] > values[1] > values[2]

    def test_curve_rejects_bad_times(self):
        p = SpmParams()
        prior = _prior(p, 1e3)
        with pytest.raises(InvalidParametersError):
            bounds.bcrb_numeric_curve(p, prior, [], 5)
        with pytest.raises(InvalidParametersError):
            bounds.bcrb_numeric_curve(p, prior, [-1e-4], 5)
        # 1 us rounds to no sample at Delta = 5 us
        with pytest.raises(InvalidParametersError):
            bounds.bcrb_numeric_curve(p, prior, [1e-6, 1e-4], 5)

    def test_numeric_agrees_with_analytic_when_noiseless(self):
        # q = 0 and a deterministic polarized start is exactly the regime of
        # the closed-form bound; a small MC run must land within a few MC
        # standard errors of it
        p = SpmParams(q=0.0)
        sigma = TWO_PI * 2e3
        prior = _prior(p, sigma, spin_sigma=0.0)
        t = 2e-4
        analytic = bounds.bcrb_analytic_gaussian_prior(p, sigma, t)
        numeric = bounds.bcrb_numeric(p, prior, t, 150, seed=0)
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

    @pytest.mark.parametrize("t", [70e-6, 300e-6, 5e-3])
    def test_discrete_sums_over_the_simulated_record(self, t):
        # as many samples as a record of duration t holds; at 70 us
        # t / Delta = 13.999..., so flooring it would drop the 14th
        p = SpmParams()
        t2 = model.coherence_time(p)
        omega = TWO_PI * 1e4
        k = len(simulate(p, Constant(omega), t)[1].outcomes)
        expected = sum(math.exp(-2.0 * tj / t2) * tj * tj
                       * math.sin(omega * tj) ** 2
                       for tj in (j * p.Delta for j in range(1, k + 1)))
        expected *= p.N ** 2 * p.g_D ** 2 / (4.0 * p.R) * p.Delta
        assert bounds.fi_noiseless_discrete(omega, t, p) == pytest.approx(
            expected, rel=1e-12)

    def test_discrete_rejects_a_time_below_one_sample(self):
        p = SpmParams()
        with pytest.raises(InvalidParametersError):
            bounds.fi_noiseless_discrete(TWO_PI * 1e4, 0.4 * p.Delta, p)

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


class TestImpossibleInputs:
    @pytest.mark.parametrize("call, match", [
        (lambda p: bounds.fi_noiseless_discrete(math.nan, 1e-4, p),
         " omega must be finite"),
        (lambda p: bounds.fi_noiseless_discrete(1e5, -1e-4, p), " t must be "),
        (lambda p: bounds.fi_noiseless_continuous(math.inf, 1e-4, p),
         " omega must be finite"),
        (lambda p: bounds.fi_noiseless_continuous(1e5, -1e-4, p),
         " t must be "),
        (lambda p: bounds.fi_noiseless_continuous(1e5, math.inf, p),
         " t must be "),
        (lambda p: bounds.fi_short_time(1e5, -1e-4, p), " t must be "),
        (lambda p: bounds.fi_short_time(math.nan, 1e-4, p),
         " omega must be finite"),
        (lambda p: bounds.fi_no_decoherence(1e5, -1e-4, p), " t must be "),
        (lambda p: bounds.fi_no_decoherence(math.inf, 1e-4, p),
         " omega must be finite"),
        (lambda p: bounds.fi_asymptotic(math.inf, p), " omega must be finite"),
        (lambda p: bounds.noiseless_bcrb_floor(p, 0.0), "sigma_omega"),
        (lambda p: bounds.noiseless_bcrb_floor(p, -5.0), "sigma_omega"),
        (lambda p: bounds.noiseless_bcrb_floor(p, math.inf), "sigma_omega"),
        (lambda p: bounds.bcrb_analytic_gaussian_prior(p, 0.0, 1e-3),
         "sigma_omega"),
        (lambda p: bounds.bcrb_analytic_gaussian_prior(p, 100.0, -1e-3),
         " t must be "),
        (lambda p: bounds.bcrb_analytic_gaussian_prior(p, 100.0, math.nan),
         " t must be "),
    ], ids=["discrete nan omega", "discrete t < 0", "continuous inf omega",
            "continuous t < 0", "continuous inf t", "short-time t < 0",
            "short-time nan omega", "no-decoherence t < 0",
            "no-decoherence inf omega", "asymptotic inf omega",
            "floor sigma 0", "floor sigma < 0", "floor sigma inf",
            "analytic sigma 0", "analytic t < 0", "analytic nan t"])
    def test_raises_a_typed_error(self, call, match):
        # each of these once returned a negative or NaN value or raised an
        # untyped error
        with pytest.raises(InvalidParametersError, match=match):
            call(SpmParams())

    @pytest.mark.parametrize("call, match", [
        (lambda p: bounds.noiseless_bcrb_floor(p, 5e-324),
         "noiseless_bcrb_floor is beyond float range at sigma_omega = 5e-324$"),
        (lambda p: bounds.bcrb_analytic_gaussian_prior(p, 5e-324, 1e-5),
         "bcrb_analytic_gaussian_prior is beyond float range at "
         "sigma_omega = 5e-324$"),
        (lambda p: bounds.fi_no_decoherence(1e4, 5e-324, p),
         "fi_no_decoherence is beyond float range at omega = 10000.0, "
         "t = 5e-324$"),
        (lambda p: bounds.fi_short_time(p.omega_bar, 1e300, p),
         "fi_short_time is beyond float range at omega = 62831.8.*, "
         "t = 1e[+]300$"),
        (lambda p: bounds.fi_asymptotic(1e300, p),
         "fi_asymptotic is beyond float range at omega = 1e[+]300$"),
        (lambda p: bounds.noiseless_bcrb_floor(p, 1e300),
         "noiseless_bcrb_floor is beyond float range at "
         "sigma_omega = 1e[+]300$"),
    ], ids=["floor tiny sigma", "analytic tiny sigma", "no-decoherence tiny t",
            "short-time huge t", "asymptotic huge omega", "floor huge sigma"])
    def test_finite_values_beyond_float_range(self, call, match):
        # a square or cube of these leaves float range: each once raised a
        # bare ZeroDivisionError or OverflowError
        with pytest.raises(InvalidParametersError, match=match):
            call(SpmParams())

    def test_zero_time_stays_defined(self):
        p, sigma, omega = SpmParams(), 100.0, TWO_PI * 1e4
        assert bounds.fi_noiseless_continuous(omega, 0.0, p) == 0.0
        assert bounds.fi_short_time(omega, 0.0, p) == 0.0
        assert bounds.fi_no_decoherence(omega, 0.0, p) == 0.0
        assert bounds.bcrb_analytic_gaussian_prior(p, sigma, 0.0) == \
            pytest.approx(sigma ** 2, rel=1e-15)
