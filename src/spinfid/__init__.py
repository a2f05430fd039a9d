"""Simulation and Bayesian inference tools for a free-induction-decay
spin-precession magnetometer.

The package models the precessing collective spin as a nonlinear stochastic
state-space system and provides, on top of the simulator, the matching
estimation stack: extended and cubature Kalman filters for online frequency
tracking, an exact innovation-form likelihood with MAP estimation for
constant frequencies, Monte-Carlo and analytic Bayesian Cramer-Rao bounds,
and atom-number estimation from steady-state noise.
"""

from .atoms import AtomCountEstimate, estimate_atom_number, steady_state_variance
from .bounds import (BoundResult, bcrb_analytic_gaussian_prior, bcrb_numeric,
                     bcrb_numeric_curve, fi_asymptotic, fi_no_decoherence,
                     fi_noiseless_continuous, fi_noiseless_discrete,
                     fi_short_time, noiseless_bcrb_floor)
from .errors import (ExclusionLimitError, IntegrationBlowupError,
                     InvalidParametersError, MapBoundaryError,
                     NumericalDegeneracyError, SpinFidError)
from .filters import FilterConfig, FilterTrace, default_prior, run_filter
from .harness import (ErrorCurve, ExperimentConfig, TrackingResult,
                      run_error_vs_N, run_error_vs_delta, run_error_vs_time,
                      run_tracking)
from .model import (Constant, GaussianPrior, OrnsteinUhlenbeck, Sinusoid,
                    SpmParams, Step, Wiener, atomic_noise_strength,
                    coherence_time, signal_from_dict)
from .pem import kalman_neg_log_joint, map_estimate, neg_log_joint_grid
from .sde_sim import MeasurementRecord, Trajectory, simulate

__version__ = "0.1.0"

__all__ = [
    "AtomCountEstimate", "estimate_atom_number", "steady_state_variance",
    "BoundResult", "bcrb_analytic_gaussian_prior", "bcrb_numeric",
    "bcrb_numeric_curve", "fi_asymptotic", "fi_no_decoherence",
    "fi_noiseless_continuous", "fi_noiseless_discrete", "fi_short_time",
    "noiseless_bcrb_floor",
    "ExclusionLimitError", "IntegrationBlowupError", "InvalidParametersError",
    "MapBoundaryError", "NumericalDegeneracyError", "SpinFidError",
    "FilterConfig", "FilterTrace", "default_prior", "run_filter",
    "ErrorCurve", "ExperimentConfig", "TrackingResult", "run_error_vs_N",
    "run_error_vs_delta", "run_error_vs_time", "run_tracking",
    "Constant", "GaussianPrior", "OrnsteinUhlenbeck", "Sinusoid", "SpmParams",
    "Step", "Wiener", "atomic_noise_strength", "coherence_time",
    "signal_from_dict",
    "kalman_neg_log_joint", "map_estimate", "neg_log_joint_grid",
    "MeasurementRecord", "Trajectory", "simulate",
    "__version__",
]
