import math
import warnings

import numpy as np
import pytest

import sim_reference
from spinfid import model
from spinfid.errors import InvalidParametersError
from spinfid.model import (Constant, GaussianPrior, OrnsteinUhlenbeck,
                           Sinusoid, SpmParams, Step, Wiener)

TWO_PI = 2.0 * math.pi


class TestSpmParams:
    def test_defaults_consistent(self):
        p = SpmParams()
        assert p.omega_bar == pytest.approx(TWO_PI * 1.0e4)
        assert model.coherence_time(p) == pytest.approx(0.87e-3)

    def test_atomic_noise_strength_value(self):
        # q*N/T2 at the reference parameters
        p = SpmParams()
        expected = 0.25 * 0.44e12 / 0.87e-3
        assert model.atomic_noise_strength(p) == pytest.approx(expected)

    def test_coherence_time_from_rates(self):
        p = SpmParams(T2_override=None)
        expected = 1.0 / (p.Gamma + p.alpha * p.N)
        assert model.coherence_time(p) == pytest.approx(expected)

    def test_with_atom_number_recomputes_t2(self):
        p = SpmParams().with_atom_number(1e13)
        assert p.N == 1e13
        assert p.T2_override is None
        assert model.coherence_time(p) == pytest.approx(
            1.0 / (p.Gamma + p.alpha * 1e13))

    @pytest.mark.parametrize("field,value", [
        ("g_D", 0.0), ("R", -1.0), ("N", 0.0), ("Delta", -1e-6),
        ("q", -0.1), ("Gamma", -1.0), ("alpha", -1.0), ("T2_override", 0.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(InvalidParametersError):
            SpmParams(**{field: value})

    @pytest.mark.parametrize("field", [
        "omega_bar", "g_D", "R", "N", "q", "Gamma", "alpha", "Delta",
        "T2_override"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_rejected(self, field, value):
        with pytest.raises(InvalidParametersError, match=f"{field} must be finite"):
            SpmParams(**{field: value})

    def test_from_dict_unknown_key(self):
        with pytest.raises(InvalidParametersError):
            SpmParams.from_dict({"bogus": 1.0})

    def test_from_dict_partial(self):
        p = SpmParams.from_dict({"N": 1e11})
        assert p.N == 1e11
        assert p.R == 96.0

    def test_from_dict_types(self):
        assert SpmParams.from_dict({"T2_override": None}).T2_override is None
        for value in ("1e12", None, True, [1e12]):
            with pytest.raises(InvalidParametersError, match="'N' must be"):
                SpmParams.from_dict({"N": value})

    def test_from_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"Delta": 1e-6}')
        assert SpmParams.from_json(path).Delta == 1e-6


class TestDiscreteSpinLaw:
    def test_transition_is_damped_rotation(self):
        a = sim_reference.discrete_spin_transition(1.0e4, 5e-6, 0.87e-3)
        e = math.exp(-5e-6 / 0.87e-3)
        # orthogonal up to the uniform damping factor
        assert np.allclose(a @ a.T, e * e * np.eye(2))
        assert np.linalg.det(a) == pytest.approx(e * e)

    def test_transition_zero_frequency(self):
        a = sim_reference.discrete_spin_transition(0.0, 5e-6, 0.87e-3)
        e = math.exp(-5e-6 / 0.87e-3)
        assert np.allclose(a, e * np.eye(2))

    def test_noise_std_small_step_limit(self):
        # b^2 -> Q*delta for delta << T2 with Q = qN/T2
        q, n, t2 = 0.25, 1e12, 0.87e-3
        delta = 1e-9
        b = model.discrete_spin_noise_std(q, n, delta, t2)
        assert b ** 2 == pytest.approx(q * n / t2 * delta, rel=1e-5)

    def test_noise_std_stationary_limit(self):
        q, n, t2 = 0.25, 1e12, 0.87e-3
        b = model.discrete_spin_noise_std(q, n, 100.0 * t2, t2)
        assert b == pytest.approx(math.sqrt(0.5 * q * n))

    def test_measurement_noise_variance(self):
        p = SpmParams()
        assert model.measurement_noise_variance(p) == pytest.approx(96.0 / 5e-6)


class TestSignals:
    def test_ou_discrete_params(self):
        s = OrnsteinUhlenbeck(100.0, 2.0, 5.0)
        delta = 0.1
        phi, offset, d1 = model.signal_discrete_params(s, delta)
        assert phi == pytest.approx(math.exp(-0.05))
        assert offset == pytest.approx(100.0 * (1.0 - phi))
        assert d1 == pytest.approx(0.5 * 2.0 * 5.0 * (1.0 - math.exp(-0.1)))

    def test_wiener_discrete_params(self):
        phi, offset, d1 = model.signal_discrete_params(Wiener(1.0, 3.0), 0.25)
        assert (phi, offset, d1) == (1.0, 0.0, pytest.approx(0.75))

    def test_constant_has_no_discrete_params(self):
        with pytest.raises(InvalidParametersError):
            model.signal_discrete_params(Constant(1.0), 0.1)

    def test_deterministic_omega_step(self):
        s = Step(10.0, ((1.0, 20.0), (2.0, 5.0)))
        assert model.deterministic_omega(s, 0.5) == 10.0
        assert model.deterministic_omega(s, 1.0) == 20.0
        assert model.deterministic_omega(s, 3.0) == 5.0

    def test_deterministic_omega_sinusoid(self):
        s = Sinusoid(10.0, 2.0, 1.0)
        assert model.deterministic_omega(s, 0.25) == pytest.approx(12.0)

    def test_step_jump_ordering(self):
        with pytest.raises(InvalidParametersError):
            Step(1.0, ((2.0, 5.0), (1.0, 3.0)))

    def test_initial_omega(self):
        assert model.initial_omega(Constant(3.0)) == 3.0
        assert model.initial_omega(OrnsteinUhlenbeck(7.0, 1.0, 1.0)) == 7.0
        assert model.initial_omega(
            OrnsteinUhlenbeck(7.0, 1.0, 1.0, omega_start=9.0)) == 9.0
        assert model.initial_omega(Wiener(4.0, 1.0)) == 4.0

    def test_signal_from_dict(self):
        s = model.signal_from_dict({"kind": "ou", "omega_bar": 1.0,
                                    "tau": 2.0, "d_c": 3.0})
        assert s == OrnsteinUhlenbeck(1.0, 2.0, 3.0)
        s = model.signal_from_dict({"kind": "step", "omega_bar": 1.0,
                                    "jumps": [[0.5, 2.0]]})
        assert s == Step(1.0, ((0.5, 2.0),))
        with pytest.raises(InvalidParametersError):
            model.signal_from_dict({"kind": "nope"})

    @pytest.mark.parametrize("d", [
        {"kind": "constant"},
        {"kind": "constant", "omega0": "1.0"},
        {"kind": "ou", "omega_bar": 1.0, "tau": 2.0},
        {"kind": "step", "omega_bar": 1.0, "jumps": 0.5},
        {"kind": "step", "omega_bar": 1.0, "jumps": [[0.5]]},
        {"kind": "step", "omega_bar": 1.0, "jumps": [[0.5, "x"]]},
        "constant",
    ])
    def test_signal_from_dict_rejects_bad_fields(self, d):
        with pytest.raises(InvalidParametersError):
            model.signal_from_dict(d)

    @pytest.mark.parametrize("signal, field", [
        (lambda v: Constant(v), "omega0"),
        (lambda v: OrnsteinUhlenbeck(v, 1.0, 1.0), "omega_bar"),
        (lambda v: OrnsteinUhlenbeck(1.0, v, 1.0), "tau"),
        (lambda v: OrnsteinUhlenbeck(1.0, 1.0, v), "d_c"),
        (lambda v: OrnsteinUhlenbeck(1.0, 1.0, 1.0, omega_start=v),
         "omega_start"),
        (lambda v: Wiener(v, 1.0), "omega0"),
        (lambda v: Wiener(1.0, v), "d_c"),
        (lambda v: Sinusoid(v, 1.0, 1.0), "omega_bar"),
        (lambda v: Sinusoid(1.0, v, 1.0), "amplitude"),
        (lambda v: Sinusoid(1.0, 1.0, v), "mod_freq"),
        (lambda v: Step(v), "omega_bar"),
        (lambda v: Step(1.0, ((0.5, 2.0), (v, 3.0))), "jumps"),
        (lambda v: Step(1.0, ((0.5, v),)), "jumps"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_fields_rejected(self, signal, field, value):
        with pytest.raises(InvalidParametersError, match=f"{field} must be finite"):
            signal(value)

    def test_is_stochastic(self):
        assert model.is_stochastic(Wiener(1.0, 1.0))
        assert model.is_stochastic(OrnsteinUhlenbeck(1.0, 1.0, 1.0))
        assert not model.is_stochastic(Constant(1.0))
        assert not model.is_stochastic(Sinusoid(1.0, 1.0, 1.0))


class TestGaussianPrior:
    def test_accepts_scalar_like(self):
        g = GaussianPrior(np.array([1.0]), np.array([[4.0]]))
        assert g.mean.shape == (1,)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidParametersError):
            GaussianPrior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidParametersError):
            GaussianPrior(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("mean, cov", [
        ([math.nan], [[1.0]]),
        ([0.0], [[math.inf]]),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]),
    ])
    def test_rejects_nonfinite(self, mean, cov):
        # checked before np.allclose, which warns on an inf entry
        with pytest.raises(InvalidParametersError, match="must be finite"):
            GaussianPrior(mean, cov)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParametersError):
            GaussianPrior(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("mean, cov", [
        (np.array([1.0 + 2.0j]), [[1.0]]),
        ("1", [[1.0]]),
        ([True], [[1.0]]),
        ([0.0], np.array([[1.0 + 0.0j]])),
        ([0.0], [["1"]]),
    ], ids=["complex mean", "string mean", "bool mean", "complex cov",
            "string cov"])
    def test_rejects_what_is_no_real_number(self, mean, cov):
        # never a ComplexWarning with the imaginary part dropped, nor a
        # string or a bool read as a number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParametersError,
                               match="integers or floats"):
                GaussianPrior(mean, cov)

    def test_stores_float64_and_keeps_a_float64_mean(self):
        mean, cov = np.zeros(2), np.eye(2)
        g = GaussianPrior(mean, cov)
        assert g.mean is mean and g.cov is cov
        g = GaussianPrior([1, 2], np.eye(2, dtype=np.float32))
        assert g.mean.dtype == g.cov.dtype == np.float64
        assert g.mean.tolist() == [1.0, 2.0]
