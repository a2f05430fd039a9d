import fractions
import math
import re

import numpy as np
import pytest

import bounds_reference
from spinfid import bounds, model, pem
from spinfid.errors import InvalidParametersError
from spinfid.model import Constant, GaussianPrior, SpmParams
from spinfid.sde_sim import simulate

TWO_PI = 2.0 * math.pi

# (omega, t, T2, fi_noiseless_continuous(omega, t, SpmParams(T2_override=T2)))
# with the integral's closed form evaluated in 300-digit arithmetic (mpmath)
# on the same double inputs, and checked against a 300-digit quadrature
# where that converged; among them the phases that the adaptive quadrature
# once could not resolve
EXACT = [
    (TWO_PI * 1e4, 1e-09, 0.00087, 1.247123782702477e-21),
    (TWO_PI * 1e4, 1e-06, 0.00087, 1.243569977427491e-06),
    (TWO_PI * 1e4, 1e-05, 0.00087, 0.11131717435950879),
    (TWO_PI * 1e4, 0.0001, 0.00087, 214.76441182095712),
    (TWO_PI * 1e4, 0.001, 0.00087, 52482.31726620829),
    (TWO_PI * 1e4, 0.005, 0.00087, 129909.50787980133),
    (TWO_PI * 1e4, 0.05, 0.00087, 130013.53837016087),
    (1e10, 0.0001, 0.00087, 221.78250857328595),
    (1e13, 0.0001, 0.00087, 221.78230253757874),
    (1.0, 0.0001, 0.00087, 2.609655029830513e-06),
    (3e5, 1.7e-06, 0.00087, 0.00037811584865469355),
    (2.9e5, 1.7e-06, 0.00087, 0.00035477654626089563),
    (62800.0, 0.108, 1.0, 282306293345.9327),
    (62800.0, 0.216, 1.0, 1925818679461.0603),
    (62800.0, 0.43, 1.0, 11142433585390.982),
    (6e4, 30.0, 1.0, 197437968750000.03),
    (1e3, 0.001, 0.1, 244000.47890106676),
    (TWO_PI * 1e4, 0.01, 1e9, 263249624.76361683),
    (TWO_PI * 1e4, 1e4, 1e9, 2.6324667627221495e+26),
    (1e6, 1e-07, 1e9, 3.1514938490332077e-09),
]

# (omega, T2, fi_asymptotic(omega, SpmParams(T2_override=T2))) in 300-digit
# arithmetic (mpmath) on the same double inputs; among them a tiny omega at
# a huge T2, where t2^3 times N^2 g^2 once overflowed before x2 met it, and
# an (omega T2)^2 whose cube leaves float range
ASYMPTOTIC_EXACT = [
    (1.98e-185, 8.49e96, 2.0485697547196793e+130),
    (TWO_PI * 1e4, 0.00087, 130013.53837016087),
    (1.0, 1e-3, 1.1846248509359973),
    (1e60, 1e-3, 197437.96875000003),
    (1e-150, 1e100, 1.1846278125000002e+215),
]

# (omega, t, fi_no_decoherence(omega, t, SpmParams())): the prefactor times
# the integral of tau^2 sin^2(omega tau) over [0, t], from its elementary
# antiderivative in 300-digit arithmetic (mpmath) on the same double
# inputs, at omega t from 1e-8 to 1e3; below omega t = 1e-3 a phase
# formula of its own once cancelled, to a relative error of 0.1 at 1e-4
# and 1e16 at 1e-8.  Either side of omega t = 0.5 is either side of the
# series' |z| = 1.  The seventh from last has a t^3 below the normal range
# (t below about 2.8e-103), which once lost bits before the prefactor
# lifted the product back.  The last six are finite values past a partial
# product that once overflowed: the prefactor times t^3 (beyond t =
# 4.85e97 at these parameters) and z^3 (beyond omega t = 2.82e102), with
# an input either side of each switch.
NO_DECOHERENCE_EXACT = [
    (1.0, 1e-08, 3.1590075000000005e-26),
    (1.0, 1e-06, 3.1590074999992474e-16),
    (1.0, 1e-05, 3.159007499924787e-11),
    (1.0, 0.0001, 3.159007492478555e-06),
    (1.0, 0.001, 0.31590067478554357),
    (1.0, 0.003, 76.76371775612014),
    (1.0, 0.01, 31589.322863157122),
    (1.0, 0.1, 3151493849.03321),
    (1.0, 0.5, 9299299344719.887),
    (1.0, 0.5000001, 9299308420901.256),
    (1.0, 1.0, 248047160277147.78),
    (1.0, 10.0, 2.2576944601180422e+17),
    (1.0, 100.0, 2.6667965559850077e+20),
    (1.0, 1000.0, 2.6288352006334072e+23),
    (TWO_PI * 1e4, 1.5915494309189536e-13, 1.273535489512319e-40),
    (TWO_PI * 1e4, 1e-09, 1.2471261718307205e-21),
    (TWO_PI * 1e4, 1e-08, 1.247126055777815e-16),
    (TWO_PI * 1e4, 0.0001, 253.2483006551556),
    (-TWO_PI * 1e4, 0.001, 263150.6017565516),
    (1e110, 1e-105, 2.6325090710695442e-301),
    (1e-150, 1e110, 3.159007500000001e+264),
    (1e150, 1.0, 263250625000000.03),
    (1e-100, 4.8e97, 8.049232303492242e+302),
    (1e-100, 4.9e97, 8.923363289495598e+302),
    (2.8e102, 1.0, 263250625000000.03),
    (2.9e102, 1.0, 263250625000000.03),
]

# parameters whose information prefactor N^2 g_D^2 / R is beyond float range
HUGE = SpmParams(N=1e150, g_D=1e10)

# the probing times of criterion 6's error-vs-time curve
C06_TIMES = (5e-5, 1e-4, 2e-4, 3.5e-4, 5e-4, 1e-3, 2e-3, 5e-3)


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
        with pytest.raises(InvalidParametersError) as exc:
            bounds.bcrb_numeric_curve(p, prior, [1e-4, 2e-4], n_samples)
        assert str(exc.value) == \
            f"bcrb_numeric_curve n_samples must be >= 2, got {n_samples}"

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

    @pytest.mark.parametrize("t, message", [
        (True, "time True is not a number"),
        ("a", "time 'a' is not a number"),
        (None, "time None is not a number"),
        (10 ** 400, f"time {10 ** 400} is not finite"),
    ], ids=["bool", "string", "None", "10**400"])
    def test_curve_refuses_a_time_that_is_no_finite_number(self, t, message):
        # each once converted by float() before any check: a bool read as
        # 1 s, or a bare ValueError, TypeError or OverflowError
        p = SpmParams()
        with pytest.raises(InvalidParametersError) as exc:
            bounds.bcrb_numeric_curve(p, _prior(p, 1e3), [1e-4, t], 2)
        assert str(exc.value) == message

    def test_curve_takes_times_of_any_number_type(self):
        # every number form of a time gives the bits of its float
        p = SpmParams()
        prior = _prior(p, TWO_PI * 2e3)
        floats = bounds.bcrb_numeric_curve(p, prior, [1e-4, 5e-5], 2, seed=1)
        given = bounds.bcrb_numeric_curve(
            p, prior, (np.float64(1e-4), fractions.Fraction(1, 20000)), 2,
            seed=1)
        assert [(r.value, r.mc_std_err, r.meta) for r in given] == \
            [(r.value, r.mc_std_err, r.meta) for r in floats]
        assert [type(r.meta["t"]) for r in given] == [float, float]

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

    @pytest.mark.parametrize("omega, t2, value", ASYMPTOTIC_EXACT)
    def test_asymptotic_matches_300_digit_values(self, omega, t2, value):
        p = SpmParams(T2_override=t2)
        assert bounds.fi_asymptotic(omega, p) == pytest.approx(value,
                                                               rel=1e-12)

    @pytest.mark.parametrize("omega, t2, value", ASYMPTOTIC_EXACT)
    def test_asymptotic_values_are_300_digit_arithmetic(self, omega, t2,
                                                        value):
        mpmath = pytest.importorskip("mpmath")
        p = SpmParams(T2_override=t2)
        with mpmath.workdps(300):
            t2 = mpmath.mpf(model.coherence_time(p))
            x2 = (mpmath.mpf(omega) * t2) ** 2
            exact = (mpmath.mpf(p.N) ** 2 * mpmath.mpf(p.g_D) ** 2 * t2 ** 3
                     / (32 * mpmath.mpf(p.R))
                     * x2 * (x2 * x2 + 3 * x2 + 6) / (1 + x2) ** 3)
            assert abs(exact - value) <= 1e-16 * exact

    def test_continuous_past_the_exp_range_at_a_huge_t2(self):
        # x = 2t/T2 = 2.4e3: the closed form returns the asymptotic value,
        # finite where the product once overflowed to inf
        omega, t2, value = ASYMPTOTIC_EXACT[0]
        p = SpmParams(T2_override=t2)
        assert 2.0 * 1e100 / t2 > bounds._EXP_RANGE
        assert bounds.fi_noiseless_continuous(omega, 1e100, p) == \
            pytest.approx(value, rel=1e-12)

    def test_no_decoherence_limit(self):
        # at T2 = 1e300, x = 2t/T2 is below 1e-299: the continuous
        # information is the x = 0 case to rounding
        p = SpmParams(T2_override=1e300)
        for omega in [1e-3, 1.0, TWO_PI * 1e4, -1e6, bounds.OMEGA_MAX]:
            for t in [1e-9, 1e-6, 3e-4, 0.1, 10.0]:
                assert bounds.fi_no_decoherence(omega, t, p) == pytest.approx(
                    bounds.fi_noiseless_continuous(omega, t, p), rel=1e-15)

    def test_continuous_at_a_huge_t2_keeps_finite_values(self):
        # the x = 2t/T2 < 1e-180 case of the same closed form, past the
        # same overflowed partial products
        p = SpmParams(T2_override=1e300)
        for omega, t, value in NO_DECOHERENCE_EXACT[-6:]:
            if abs(omega) <= bounds.OMEGA_MAX:
                assert bounds.fi_noiseless_continuous(omega, t, p) == \
                    pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("omega, t, value", NO_DECOHERENCE_EXACT)
    def test_no_decoherence_matches_300_digit_values(self, omega, t, value):
        assert bounds.fi_no_decoherence(omega, t, SpmParams()) == \
            pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("omega, t, value", NO_DECOHERENCE_EXACT)
    def test_no_decoherence_values_are_300_digit_arithmetic(self, omega, t,
                                                            value):
        mpmath = pytest.importorskip("mpmath")
        p = SpmParams()
        with mpmath.workdps(300):
            t, a = mpmath.mpf(t), 2 * mpmath.mpf(omega)
            sin, cos = mpmath.sin(a * t), mpmath.cos(a * t)
            integral = t ** 3 / 6 - (t * t * sin / a + 2 * t * cos / a ** 2
                                     - 2 * sin / a ** 3) / 2
            exact = (mpmath.mpf(p.N) ** 2 * mpmath.mpf(p.g_D) ** 2
                     / (4 * mpmath.mpf(p.R)) * integral)
            assert float(exact) == value

    def test_no_decoherence_zero_frequency(self):
        assert bounds.fi_no_decoherence(0.0, 1.0, SpmParams()) == 0.0

    @pytest.mark.parametrize("omega, t, t2, value", EXACT)
    def test_continuous_matches_300_digit_values(self, omega, t, t2, value):
        p = SpmParams(T2_override=t2)
        assert bounds.fi_noiseless_continuous(omega, t, p) == pytest.approx(
            value, rel=1e-12)

    @pytest.mark.parametrize("t2", [0.87e-3, 0.1])
    @pytest.mark.parametrize("omega", [0.0, 1e3, TWO_PI * 1e4, 1e5, 1e6])
    def test_continuous_matches_the_quadrature(self, omega, t2):
        # |omega| T2 >= 0.87 or omega = 0, where the closed form keeps its
        # precision, and phases the quadrature resolves
        p = SpmParams(T2_override=t2)
        for t in [1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.02, 0.1]:
            assert bounds.fi_noiseless_continuous(omega, t, p) == \
                pytest.approx(bounds_reference.fi_noiseless_continuous(
                    omega, t, p), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("t2", [0.87e-3, 1.0, 1e9])
    def test_continuous_vanishes_at_zero_frequency_or_time(self, t2):
        p = SpmParams(T2_override=t2)
        for t in [0.0, 1e-9, 1e-6, 1e-3, 1.0, 1e4, 1e300]:
            assert bounds.fi_noiseless_continuous(0.0, t, p) == 0.0
            assert bounds.fi_noiseless_continuous(-0.0, t, p) == 0.0
        for omega in [1.0, TWO_PI * 1e4, -bounds.OMEGA_MAX]:
            assert bounds.fi_noiseless_continuous(omega, 0.0, p) == 0.0

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

    def test_matches_the_quadrature_oracle(self):
        # the closed form on numpy's nodes against the quadrature on
        # scipy's
        p = SpmParams()
        for t in C06_TIMES:
            assert bounds.bcrb_analytic_gaussian_prior(
                p, TWO_PI * 2e3, t) == pytest.approx(
                bounds_reference.bcrb_analytic_gaussian_prior(
                    p, TWO_PI * 2e3, t), rel=1e-9)

    def test_node_count_is_converged(self, monkeypatch):
        # at criterion 6's prior spread and times, 4x the nodes moves the
        # bound by at most 0.27% (at 0.5 ms)
        p, sigma = SpmParams(), TWO_PI * 2e3
        base = [bounds.bcrb_analytic_gaussian_prior(p, sigma, t)
                for t in C06_TIMES]
        monkeypatch.setattr(bounds, "HERMITE_NODES", 161)
        fine = [bounds.bcrb_analytic_gaussian_prior(p, sigma, t)
                for t in C06_TIMES]
        assert fine == pytest.approx(base, rel=5e-3)

    def test_hermite_rule_is_computed_once_per_node_count(self,
                                                          monkeypatch):
        from numpy.polynomial import hermite

        hermgauss, rules = hermite.hermgauss, []

        def counted(nodes):
            rules.append(nodes)
            return hermgauss(nodes)

        monkeypatch.setattr(hermite, "hermgauss", counted)
        bounds._hermite_rule.cache_clear()
        p, sigma = SpmParams(), TWO_PI * 2e3
        first = bounds.bcrb_analytic_gaussian_prior(p, sigma, 1e-3)
        again = bounds.bcrb_analytic_gaussian_prior(p, sigma, 1e-3)
        assert rules == [bounds.HERMITE_NODES]
        assert again == first
        x, w = bounds._hermite_rule(bounds.HERMITE_NODES)
        assert x.tobytes() == hermgauss(bounds.HERMITE_NODES)[0].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0

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
        (lambda p: bounds.fi_short_time(p.omega_bar, 1e300, p),
         "fi_short_time is beyond float range at omega = 62831.8.*, "
         "t = 1e[+]300$"),
        (lambda p: bounds.fi_asymptotic(1e300, p),
         "fi_asymptotic is beyond float range at omega = 1e[+]300$"),
        (lambda p: bounds.noiseless_bcrb_floor(p, 1e300),
         "noiseless_bcrb_floor is beyond float range at "
         "sigma_omega = 1e[+]300$"),
        (lambda p: bounds.noiseless_bcrb_floor(SpmParams(T2_override=1e103),
                                               1.0),
         "noiseless_bcrb_floor is beyond float range at sigma_omega = 1.0$"),
        # every node's information is 1.5e308, their weighted sum is not
        (lambda p: bounds.bcrb_analytic_gaussian_prior(
            SpmParams(T2_override=1e3, g_D=4.9e139), 1.0, 1e6),
         "bcrb_analytic_gaussian_prior is beyond float range at "
         "sigma_omega = 1.0$"),
        # the prefactor N^2 g_D^2 = 1e320 of HUGE is beyond float range
        (lambda p: bounds.fi_asymptotic(1e-200, HUGE),
         "fi_asymptotic is beyond float range at omega = 1e-200$"),
        (lambda p: bounds.fi_no_decoherence(1.0, 1e50, HUGE),
         "fi_no_decoherence is beyond float range at omega = 1.0, "
         "t = 1e[+]50$"),
        (lambda p: bounds.fi_noiseless_discrete(1.0, 1e-4, HUGE),
         "fi_noiseless_discrete is beyond float range at omega = 1.0, "
         "t = 0.0001$"),
        (lambda p: bounds.fi_noiseless_continuous(1.0, 1e-4, HUGE),
         "fi_noiseless_continuous is beyond float range at omega = 1.0, "
         "t = 0.0001$"),
        (lambda p: bounds.noiseless_bcrb_floor(HUGE, 1.0),
         "noiseless_bcrb_floor is beyond float range at sigma_omega = 1.0$"),
        # the information at the first Hermite node
        (lambda p: bounds.bcrb_analytic_gaussian_prior(HUGE, 1.0, 1e-4),
         "fi_noiseless_continuous is beyond float range at omega = "),
        # g_D^2 N^2 = 3e294 at N = 1e150, times t^5 = 1e300
        (lambda p: bounds.fi_short_time(1.0, 1e60, SpmParams(N=1e150)),
         "fi_short_time is beyond float range at omega = 1.0, t = 1e[+]60$"),
    ], ids=["floor tiny sigma", "analytic tiny sigma", "short-time huge t",
            "asymptotic huge omega", "floor huge sigma", "floor huge T2",
            "analytic sum", "asymptotic huge prefactor",
            "no-decoherence huge prefactor", "discrete huge prefactor",
            "continuous huge prefactor", "floor huge prefactor",
            "analytic huge prefactor", "short-time huge product"])
    def test_finite_values_beyond_float_range(self, call, match):
        # a power, quotient or product of these leaves float range: each
        # once raised a bare ZeroDivisionError or OverflowError, or returned
        # nan, inf or a bound of 0.0
        with pytest.raises(InvalidParametersError, match=match):
            call(SpmParams())

    @pytest.mark.parametrize("call", [
        lambda p: bounds.bcrb_numeric(p, _prior(p, 1e3), 1e300, 2),
        lambda p: bounds.fi_noiseless_discrete(p.omega_bar, 1e16, p),
    ], ids=["numeric bound", "discrete information"])
    def test_a_time_beyond_the_index_range(self, call):
        # 2e21 samples or more at Delta = 5 us: once a bare ValueError
        # from numpy
        with pytest.raises(InvalidParametersError,
                           match=r"samples at Delta = 5e-06, the most an "
                                 r"array can index$"):
            call(SpmParams())

    @pytest.mark.parametrize("call, match", [
        (lambda p: bounds.fi_noiseless_continuous(1e300, 1e-4, p),
         "omega = 1e[+]300 at t = 0.0001 "),
        (lambda p: bounds.fi_noiseless_continuous(2 ** 64, 1e-4, p),
         "omega = 18446744073709551616 at t = 0.0001 "),
        (lambda p: bounds.fi_noiseless_continuous(-1.0000001e13, 1e-4, p),
         "omega = -10000001000000.0 at t = 0.0001 "),
        (lambda p: bounds.bcrb_analytic_gaussian_prior(p, 2 ** 64, 1e-5),
         "omega = -2.14.*e[+]20 at t = 1e-05 "),
    ], ids=["huge omega", "2**64 omega", "just beyond", "analytic 2**64 sigma"])
    def test_an_omega_beyond_the_physical_range_is_a_bad_input(self, call,
                                                               match):
        # each of the first three once raised a bare ArithmeticError from a
        # quadrature that could not resolve the oscillation
        with pytest.raises(InvalidParametersError, match=(
                "fi_noiseless_continuous " + match
                + r"is beyond the physical range \|omega\| <= 1e[+]13 rad/s")):
            call(SpmParams())

    @pytest.mark.parametrize("omega", [1e10, bounds.OMEGA_MAX,
                                       -bounds.OMEGA_MAX])
    def test_a_fast_oscillation_averages_sin_squared(self, omega):
        # a physical omega whose oscillation over t an adaptive quadrature
        # could not resolve (it raised ArithmeticError): sin^2 averages to
        # 1/2, up to a part of order 1 / (omega t)
        p, t = SpmParams(), 1e-4
        x = 2.0 * t / model.coherence_time(p)
        moment = t ** 3 * (2.0 - math.exp(-x) * (x * x + 2.0 * x + 2.0)) / x ** 3
        assert bounds.fi_noiseless_continuous(omega, t, p) == pytest.approx(
            0.5 * bounds._fi_prefactor(p) * moment, rel=1e-5)

    @pytest.mark.parametrize("t", [10.0, 1e4, 1e300])
    def test_long_times_keep_the_asymptotic_information(self, t):
        # at t >> T2 the closed form is its t -> infinity limit; a
        # quadrature over the whole of t lost the peak near tau = T2 to
        # roundoff: 0.0 at 1e4 s, a failure of the analytic bound at 10 s
        p = SpmParams()
        cont = bounds.fi_noiseless_continuous(p.omega_bar, t, p)
        assert cont == pytest.approx(bounds.fi_asymptotic(p.omega_bar, p),
                                     rel=1e-12)
        late = bounds.bcrb_analytic_gaussian_prior(p, 1e3, t)
        assert bounds.noiseless_bcrb_floor(p, 1e3) <= late < 1e6

    def test_gradient_at_a_step_whose_prior_term_overflows(self):
        # J at omega + h: once a bare OverflowError from its prior term
        p = SpmParams()
        rec = simulate(p, Constant(p.omega_bar), 1e-4, seed=0)[1]
        with pytest.raises(InvalidParametersError,
                           match="likelihood prior term is beyond float range "
                                 "at omega = "):
            bounds.neg_log_joint_gradient(p.omega_bar, rec, p,
                                          _prior(p, 1e3), h=1e300)

    def test_no_decoherence_at_a_tiny_time_underflows_to_zero(self):
        # the information is about omega^2 t^5 / 20 times the prefactor,
        # far below the smallest double: 0.0 is its correctly rounded value
        assert bounds.fi_no_decoherence(1e4, 5e-324, SpmParams()) == 0.0

    def test_zero_time_stays_defined(self):
        p, sigma, omega = SpmParams(), 100.0, TWO_PI * 1e4
        assert bounds.fi_noiseless_continuous(omega, 0.0, p) == 0.0
        assert bounds.fi_short_time(omega, 0.0, p) == 0.0
        assert bounds.fi_no_decoherence(omega, 0.0, p) == 0.0
        assert bounds.bcrb_analytic_gaussian_prior(p, sigma, 0.0) == \
            pytest.approx(sigma ** 2, rel=1e-15)
