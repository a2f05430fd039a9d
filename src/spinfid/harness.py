"""Monte-Carlo experiment orchestration: error-vs-time curves, atom-number
and sampling-period sweeps, and single-shot tracking runs.

Every experiment is a pure function of (config, master seed): per-run RNG
streams are spawned from the master seed by run index, so results are
reproducible and independent of evaluation order.  Estimator errors are
always measured against the true instantaneous frequency of the simulated
shot, never against the nominal value.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds, filters, model, pem, sde_sim
from .errors import (ExclusionLimitError, IntegrationBlowupError,
                     InvalidParametersError, MapBoundaryError,
                     NumericalDegeneracyError)
from .model import Constant, GaussianPrior, SignalModel, SpmParams, Wiener

ESTIMATORS = ("ekf", "ckf", "pem")
BOUNDS = ("bcrb_numeric", "bcrb_analytic", "crb", "floor")
SWEEP_AXES = ("none", "time", "atoms", "sampling")
MAX_EXCLUSION_FRACTION = 0.01

DEFAULT_SIGMA_OMEGA = model.TWO_PI * 2.0e3  # rad/s

_RUN_ERRORS = (IntegrationBlowupError, NumericalDegeneracyError,
               MapBoundaryError, FloatingPointError)


@dataclass(frozen=True)
class ExperimentConfig:
    params: SpmParams = SpmParams()
    true_signal: SignalModel = None
    assumed_signal: SignalModel = None    # filter-side model; None -> static frequency
    sigma_omega: float = DEFAULT_SIGMA_OMEGA
    duration: float = 5.0e-3
    substeps: int = 5
    runs: int = 1
    seed: int = 0
    estimators: tuple = ("ekf",)
    bounds: tuple = ()
    bound_samples: int = 200
    sweep_axis: str = "none"
    sweep_values: tuple = ()

    def __post_init__(self):
        if self.runs < 1:
            raise InvalidParametersError("run count must be >= 1")
        if self.seed < 0:
            raise InvalidParametersError("seed must be non-negative")
        if self.duration <= 0.0:
            raise InvalidParametersError("duration must be positive")
        if not self.sigma_omega > 0.0:
            raise InvalidParametersError("sigma_omega must be positive")
        if self.sweep_axis not in SWEEP_AXES:
            raise InvalidParametersError(f"unknown sweep axis {self.sweep_axis!r}")
        if self.sweep_axis != "none":
            if not self.sweep_values:
                raise InvalidParametersError("sweep grid must be non-empty")
            if any(not (isinstance(v, numbers.Real) and v > 0.0)
                   for v in self.sweep_values):
                raise InvalidParametersError(
                    "sweep grid values must be positive numbers")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise InvalidParametersError(f"unknown estimator {e!r}")
        for b in self.bounds:
            if b not in BOUNDS:
                raise InvalidParametersError(f"unknown bound {b!r}")
        if "bcrb_numeric" in self.bounds and self.bound_samples < 2:
            raise InvalidParametersError("bcrb_numeric needs bound_samples >= 2")
        if self.true_signal is None:
            object.__setattr__(self, "true_signal",
                               Constant(self.params.omega_bar))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(model.check_json(cls, d, "config"))
        if "params" in d:
            d["params"] = SpmParams.from_dict(d["params"])
        for key in ("true_signal", "assumed_signal"):
            if d.get(key) is not None:
                d[key] = model.signal_from_dict(d[key])
        for key in ("estimators", "bounds", "sweep_values"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def filter_signal(self, p: SpmParams) -> SignalModel:
        """Assumed frequency model of the filters; a zero-diffusion random
        walk (static frequency) when none is configured."""
        if self.assumed_signal is not None:
            return self.assumed_signal
        return Wiener(p.omega_bar, 0.0)


@dataclass
class ErrorCurve:
    """RMS error per estimator along a sweep axis, with MC standard errors
    and bound values converted to the same rad/s scale (sqrt of the MSE
    bound)."""

    axis_name: str
    axis: np.ndarray
    rmse: dict            # estimator -> (len(axis),) rad/s
    rmse_stderr: dict     # estimator -> (len(axis),)
    bound: dict           # bound name -> (len(axis),) rad/s
    bound_stderr: dict = field(default_factory=dict)
    excluded_runs: int = 0

    def to_csv(self, path) -> None:
        cols = [self.axis_name]
        # float, so a grid of ints is also written with .10g
        series = [np.asarray(self.axis, dtype=float)]
        for name in sorted(self.rmse):
            cols += [f"rmse_{name}", f"stderr_{name}"]
            series += [self.rmse[name], self.rmse_stderr[name]]
        for name in sorted(self.bound):
            cols.append(name)
            series.append(self.bound[name])
            if name in self.bound_stderr:
                cols.append(f"stderr_{name}")
                series.append(self.bound_stderr[name])
        sde_sim._write_csv(path, ",".join(cols), zip(*series))


@dataclass
class TrackingResult:
    """One simulated shot plus the filter's view of it."""

    trace: filters.FilterTrace
    truth_omega: np.ndarray  # true instantaneous omega at measurement times

    @property
    def true_error(self) -> np.ndarray:
        return self.trace.omega_hat - self.truth_omega

    def to_csv(self, path) -> None:
        tr = self.trace
        nis = tr.nis
        sde_sim._write_csv(
            path, "k,t,omega_true,omega_hat,sigma_omega_pred,innovation,S,nis", (
                (k + 1, tr.times[k], self.truth_omega[k], tr.mean[k, 0],
                 math.sqrt(tr.cov[k, 0, 0]), tr.innovation[k],
                 tr.innovation_var[k], nis[k])
                for k in range(len(tr.times))))


def _prior(cfg: ExperimentConfig, p: SpmParams) -> GaussianPrior:
    """The reference prior over (omega, J_y, J_z) at the configured
    frequency spread."""
    return filters.default_prior(p, cfg.sigma_omega)


def _blocks(prior: GaussianPrior) -> tuple[GaussianPrior, GaussianPrior]:
    """The (omega, spin) blocks of a prior over (omega, J_y, J_z), the pair
    of priors the likelihood layer takes."""
    return (GaussianPrior(prior.mean[:1], prior.cov[:1, :1]),
            GaussianPrior(prior.mean[1:], prior.cov[1:, 1:]))


def _spin_prior(p: SpmParams, scale: float) -> GaussianPrior:
    """The spin block alone; it does not depend on sigma_omega."""
    return _blocks(filters.default_prior(p, DEFAULT_SIGMA_OMEGA, scale))[1]


def _run_rng(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(run_index,)))


def _shot(cfg: ExperimentConfig):
    """(trajectory, record) of run 0 of the configured true signal: the one
    shot that ``simulate``, ``estimate`` and ``track`` work on."""
    return sde_sim.simulate(cfg.params, cfg.true_signal, cfg.duration,
                            substeps=cfg.substeps, seed=_run_rng(cfg.seed, 0))


def _check_exclusions(failures: list, runs: int) -> int:
    if len(failures) > MAX_EXCLUSION_FRACTION * runs:
        raise ExclusionLimitError(
            f"{len(failures)} of {runs} runs failed (limit "
            f"{MAX_EXCLUSION_FRACTION:.0%}); first failure: {failures[0]}")
    return len(failures)


def _rms_and_stderr(sq_errors: np.ndarray):
    """Delta-method standard error of the RMS from per-run squared errors;
    NaN when a single run leaves no spread to estimate it from."""
    mse = sq_errors.mean(axis=-1)
    rms = np.sqrt(mse)
    n = sq_errors.shape[-1]
    if n < 2:
        return rms, np.full_like(rms, math.nan)
    se_mse = sq_errors.std(axis=-1, ddof=1) / math.sqrt(n)
    return rms, np.where(rms > 0.0, se_mse / (2.0 * np.maximum(rms, 1e-300)), 0.0)


def _single_run_errors(cfg: ExperimentConfig, p: SpmParams, rng, ks, substeps):
    """Simulate one shot with a prior-drawn constant frequency and return the
    per-estimator errors omega_hat - omega_true at the requested sample
    indices."""
    omega_true = p.omega_bar + cfg.sigma_omega * rng.standard_normal()
    duration = max(ks) * p.Delta
    _, rec = sde_sim.simulate(p, Constant(omega_true), duration,
                              substeps=substeps, seed=rng)
    out = {}
    for kind in ("ekf", "ckf"):
        if kind in cfg.estimators:
            fcfg = filters.FilterConfig(kind, cfg.filter_signal(p),
                                        _prior(cfg, p), p)
            trace = filters.run_filter(fcfg, rec)
            out[kind] = [trace.omega_hat[k - 1] - omega_true for k in ks]
    if "pem" in cfg.estimators:
        out["pem"] = [omega_hat - omega_true for omega_hat, _ in
                      pem.map_estimates(rec, ks, p, *_blocks(_prior(cfg, p)))]
    return out


def _time_bounds(cfg: ExperimentConfig, p: SpmParams, times):
    out, out_se = {}, {}
    if "bcrb_numeric" in cfg.bounds:
        results = bounds.bcrb_numeric_curve(p, *_blocks(_prior(cfg, p)), times,
                                            cfg.bound_samples,
                                            seed=cfg.seed + 1,
                                            substeps=cfg.substeps)
        vals = np.array([r.value for r in results])
        ses = np.array([r.mc_std_err for r in results])
        out["bcrb_numeric"] = np.sqrt(vals)
        out_se["bcrb_numeric"] = ses / (2.0 * np.sqrt(vals))
    if "bcrb_analytic" in cfg.bounds:
        out["bcrb_analytic"] = np.sqrt([
            bounds.bcrb_analytic_gaussian_prior(p, cfg.sigma_omega, t)
            for t in times])
    if "crb" in cfg.bounds:
        fis = [bounds.fi_noiseless_discrete(p.omega_bar, t, p) for t in times]
        out["crb"] = np.array([1.0 / math.sqrt(fi) if fi > 0.0 else math.inf
                               for fi in fis])
    if "floor" in cfg.bounds:
        floor = math.sqrt(bounds.noiseless_bcrb_floor(p, cfg.sigma_omega))
        out["floor"] = np.full(len(times), floor)
    return out, out_se


def _sweep(cfg: ExperimentConfig, axis_name: str, axis, points) -> ErrorCurve:
    """Monte-Carlo driver of every sweep axis.

    ``points`` lists (params, substeps, probe times), one per grid point;
    each contributes one curve entry per probe time.  Every point runs
    ``cfg.runs`` shots on the same per-run RNG streams, and the configured
    bounds are evaluated at its probe times.
    """
    ks = [sde_sim.sample_indices(times, p.Delta) for p, _, times in points]
    rmse = {e: [] for e in cfg.estimators}
    rmse_se = {e: [] for e in cfg.estimators}
    bound, bound_se = {}, {}
    excluded = 0
    for (p, substeps, times), point_ks in zip(points, ks):
        sq = {e: [] for e in cfg.estimators}
        failures = []
        for r in range(cfg.runs):
            rng = _run_rng(cfg.seed, r)
            try:
                errs = _single_run_errors(cfg, p, rng, point_ks, substeps)
            except _RUN_ERRORS as exc:
                failures.append(exc)
                continue
            for e, vals in errs.items():
                sq[e].append(np.square(vals))
        excluded += _check_exclusions(failures, cfg.runs)
        for e in cfg.estimators:
            rms, se = _rms_and_stderr(np.array(sq[e]).T)
            rmse[e].append(rms)
            rmse_se[e].append(se)
        b, b_se = _time_bounds(cfg, p, times)
        for name, vals in b.items():
            bound.setdefault(name, []).append(vals)
        for name, vals in b_se.items():
            bound_se.setdefault(name, []).append(vals)

    def joined(d):
        return {k: np.concatenate(v) for k, v in d.items()}
    return ErrorCurve(axis_name, np.array(axis), joined(rmse), joined(rmse_se),
                      joined(bound), joined(bound_se), excluded)


def run_error_vs_time(cfg: ExperimentConfig) -> ErrorCurve:
    """RMS estimation error at each grid time, true frequency drawn from the
    prior per run and held constant over the shot."""
    if cfg.sweep_axis != "time":
        raise InvalidParametersError("config must declare a time sweep")
    times = sorted(cfg.sweep_values)
    return _sweep(cfg, "t", times, [(cfg.params, cfg.substeps, times)])


def run_error_vs_N(cfg: ExperimentConfig) -> ErrorCurve:
    """RMS error at the configured probing time as a function of atom number;
    the coherence time is recomputed from Gamma and alpha at every grid
    point."""
    if cfg.sweep_axis != "atoms":
        raise InvalidParametersError("config must declare an atom-number sweep")
    ns = sorted(cfg.sweep_values)
    return _sweep(cfg, "N", ns, [
        (cfg.params.with_atom_number(n), cfg.substeps, [cfg.duration])
        for n in ns])


def run_error_vs_delta(cfg: ExperimentConfig) -> ErrorCurve:
    """RMS error at the configured probing time as a function of the sampling
    period; integrator substeps scale so the internal step stays <= 1 us."""
    if cfg.sweep_axis != "sampling":
        raise InvalidParametersError("config must declare a sampling-period sweep")
    deltas = sorted(cfg.sweep_values)
    # tolerance absorbs roundoff so e.g. 5e-6/1e-6 = 5.0000000000000009
    # does not force a sixth substep
    return _sweep(cfg, "Delta", deltas, [
        (replace(cfg.params, Delta=d), max(1, int(math.ceil(d / 1.0e-6 - 1e-9))),
         [cfg.duration])
        for d in deltas])


def run_tracking(cfg: ExperimentConfig) -> TrackingResult:
    """One simulated shot of the configured true signal plus a pass of the
    first filter among the estimators, with its assumed (OU or random-walk)
    model."""
    p = cfg.params
    kind = next((e for e in cfg.estimators if e in ("ekf", "ckf")), None)
    if kind is None:
        raise InvalidParametersError(
            "tracking needs a filter: estimators must include 'ekf' or 'ckf'")
    traj, rec = _shot(cfg)
    fcfg = filters.FilterConfig(kind, cfg.filter_signal(p), _prior(cfg, p), p)
    trace = filters.run_filter(fcfg, rec)
    truth = traj.states[cfg.substeps::cfg.substeps, 0]
    return TrackingResult(trace, truth)
