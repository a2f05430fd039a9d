"""Monte-Carlo experiment orchestration: error-vs-time curves, atom-number
and sampling-period sweeps, and single-shot tracking runs.

Every experiment is a pure function of (config, master seed).  Run r of a
sweep is Monte-Carlo shot r of the seed, drawn by the one shot rule
``sde_sim._mc_shot`` on the one stream rule ``sde_sim._stream``: a
frequency omega ~ N(omega_bar, sigma_omega^2) and a record at it.  The
``bcrb_numeric`` bound draws its samples by the same rule from seed + 1, at
the point's substeps.  So results are reproducible and independent of
evaluation order, and the runs and the bound draw from one law.  Estimator
errors are always measured against the true instantaneous frequency of the
simulated shot, never against the nominal value.  ``ExperimentConfig`` is
a ``model._Config``: checked on construction by the one schema rule, bounds
included, and read from and written to JSON by ``model`` alone.
A sweep run reads each filter at its probing indices only
(``filters.omega_at``, which builds no trace); a tracking run keeps the
filter's whole pass and the true frequency at the sample times only,
copied out of the substep path, which is released before the filter runs.

A config's one shot (``_shot``) is drawn once for consecutive calls on it:
the last shot drawn is kept, its truth and record read-only, keyed on
repr((params, true_signal, duration, substeps, seed)).  So tracking a shot
with the EKF and then the CKF simulates it once, and configs that differ
only in what reads the shot (estimators, assumed signal, prior spread)
share it.  The memo holds one entry, evicted before a new shot is drawn,
so no call holds two shots at once and a shot that fails to draw leaves
none kept.  Sweep runs draw through ``sde_sim._mc_shot`` and keep nothing.

A sweep point is a list of independent zero-argument tasks, its runs in
run order and then its ``bcrb_numeric`` bound's samples in contiguous
chunks, which ``_fan_out`` spreads round robin over the calling process
and ``os.fork`` children, one per CPU of the process's affinity mask
(``taskset -c 0`` makes every sweep serial).  With W workers, run r goes
to worker r mod W, and the bound takes min(W - runs mod W, bound_samples)
chunks, one on each worker that the runs leave a task short; their
squared scores are stacked in sample order before the jackknife.  Run 0
stays in the calling process, whose MAP gain table it keeps warm for the
next sweep on the same grid: a child's table is lost when it exits.  The
outcomes come back in task order, so the results, the excluded runs and
the errors raised are those of one process, bit for bit.  Without
``os.fork`` and ``os.sched_getaffinity`` (off Linux) everything runs in
the calling process.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import bounds, filters, model, pem, sde_sim
from .errors import (ExclusionLimitError, InvalidParametersError,
                     MapBoundaryError, NumericalDegeneracyError)
from .model import (Constant, Count, GaussianPrior, Index, Positive,
                    SignalModel, SpmParams, Wiener)

ESTIMATORS = (*filters.KINDS, "pem")
BOUNDS = ("bcrb_numeric", "bcrb_analytic", "crb", "floor")
SWEEP_AXES = ("none", "time", "atoms", "sampling")
MAX_EXCLUSION_FRACTION = 0.01

DEFAULT_SIGMA_OMEGA = model.TWO_PI * 2.0e3  # rad/s

_RUN_ERRORS = (NumericalDegeneracyError, MapBoundaryError, FloatingPointError)


@dataclass(frozen=True)
class ExperimentConfig(model._Config):
    params: SpmParams = SpmParams()
    true_signal: Optional[SignalModel] = None
    assumed_signal: Optional[SignalModel] = None  # filter-side model; None -> static frequency
    sigma_omega: Positive = DEFAULT_SIGMA_OMEGA
    duration: Positive = 5.0e-3
    substeps: Count = 5
    runs: Count = 1
    seed: Index = 0
    estimators: tuple[str, ...] = ("ekf",)
    bounds: tuple[str, ...] = ()
    bound_samples: int = 200
    sweep_axis: str = "none"
    sweep_values: tuple[Positive, ...] = ()

    _what = "config"

    def __post_init__(self):
        super().__post_init__()
        if self.sweep_axis not in SWEEP_AXES:
            raise InvalidParametersError(f"unknown sweep axis {self.sweep_axis!r}")
        if self.sweep_axis != "none" and not self.sweep_values:
            raise InvalidParametersError("sweep grid must be non-empty")
        for what, names, known in (("estimator", self.estimators, ESTIMATORS),
                                   ("bound", self.bounds, BOUNDS)):
            for i, name in enumerate(names):
                if name not in known:
                    raise InvalidParametersError(f"unknown {what} {name!r}")
                if name in names[:i]:
                    raise InvalidParametersError(f"{what} {name!r} named twice")
        if "bcrb_numeric" in self.bounds:  # checked before any run
            model.check_value("ExperimentConfig", "bound_samples",
                              self.bound_samples, "Samples")
        if self.true_signal is None:
            object.__setattr__(self, "true_signal",
                               Constant(self.params.omega_bar))

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
        sde_sim._write_csv(path, ",".join(cols), zip(*series, strict=True))


@dataclass
class TrackingResult:
    """One simulated shot plus the filter's view of it: the filter's trace
    and the true frequency at the sample times.  The shot's substep path is
    not kept."""

    trace: filters.FilterTrace
    truth_omega: np.ndarray  # true omega at measurement times, its own array

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


# the last shot drawn: {key: (truth, record)}, both arrays read-only
_shot_memo: dict = {}


def _shot(cfg: ExperimentConfig):
    """(truth, record) of run 0 of the configured true signal: the one shot
    that ``simulate``, ``estimate`` and ``track`` work on, with the true
    frequency at the sample times copied out of its substep path, which is
    not kept.

    The last shot drawn is kept, keyed on repr((params, true_signal,
    duration, substeps, seed)), the inputs the shot is a function of (repr
    tells -0.0 from 0.0), with its truth and outcomes read-only.  A call
    with another key evicts it before drawing, so a ``simulate`` that
    raises leaves nothing kept.
    """
    key = repr((cfg.params, cfg.true_signal, cfg.duration, cfg.substeps,
                cfg.seed))
    shot = _shot_memo.get(key)
    if shot is None:
        _shot_memo.clear()
        traj, rec = sde_sim.simulate(cfg.params, cfg.true_signal,
                                     cfg.duration, substeps=cfg.substeps,
                                     seed=sde_sim._stream(cfg.seed, 0))
        truth = traj.states[cfg.substeps::cfg.substeps, 0].copy()
        truth.flags.writeable = False
        rec.outcomes.flags.writeable = False
        shot = _shot_memo[key] = truth, rec
    return shot


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


def _single_run_errors(cfg: ExperimentConfig, p: SpmParams,
                       prior: GaussianPrior, r: int, ks, substeps):
    """Simulate run r, Monte-Carlo shot r of the config's seed
    (``sde_sim._mc_shot``), and return the per-estimator errors
    omega_hat - omega_true at the requested sample indices."""
    omega_true, rec = sde_sim._mc_shot(p, p.omega_bar, cfg.sigma_omega,
                                       max(ks), substeps, cfg.seed, r)
    out = {}
    for kind in filters.KINDS:
        if kind in cfg.estimators:
            fcfg = filters.FilterConfig(kind, cfg.filter_signal(p), prior, p)
            out[kind] = [omega_hat - omega_true for omega_hat in
                         filters.omega_at(fcfg, rec, ks)]
    if "pem" in cfg.estimators:
        out["pem"] = [omega_hat - omega_true for omega_hat, _ in
                      pem.map_estimates(rec, ks, p, prior)]
    return out


def _time_bounds(cfg: ExperimentConfig, p: SpmParams, times, numeric=None):
    """The configured bounds at ``times``, in rad/s: ``numeric``, the
    ``bounds._bound_results`` list of a sweep point, and the closed
    forms."""
    out, out_se = {}, {}
    if numeric is not None:
        vals = np.sqrt([r.value for r in numeric])
        out["bcrb_numeric"] = vals
        out_se["bcrb_numeric"] = (np.array([r.mc_std_err for r in numeric])
                                  / (2.0 * vals))
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


def _cpus() -> int:
    """Worker processes a sweep point may use: the CPUs of the affinity
    mask, or 1 where this platform cannot fork or has no such mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _work(tasks, share) -> dict:
    """{i: tasks[i](), or the exception it raised} for i in ``share``, in
    order.  An exception that is not a run failure ends the sweep, so the
    tasks after it are not run."""
    out = {}
    for i in share:
        try:
            out[i] = tasks[i]()
        except Exception as exc:
            out[i] = exc
            if not isinstance(exc, _RUN_ERRORS):
                break
    return out


def _fork(tasks, share) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that sends ``_work(tasks,
    share)`` back pickled, then exits without returning to the caller."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, rfd
    status = 1
    try:
        os.close(rfd)
        data = pickle.dumps(_work(tasks, share), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(wfd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, rfd: int) -> dict:
    """The outcomes a forked child sent, once it has exited."""
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("a sweep worker exited without its results (exit "
                           f"code {os.waitstatus_to_exitcode(status)})")
    return pickle.loads(data)


def _fan_out(tasks) -> list:
    """[task(), or the exception it raised] for each zero-argument callable
    of ``tasks``, in order.  Task i runs on worker i mod W, W =
    min(``_cpus()``, len(tasks)): worker 0 is this process, each other one
    a forked child (this process too if no child can be forked).  A task
    that follows a non-run exception on its worker is not run and reads
    None.  Every child is reaped before this returns or raises."""
    workers = min(_cpus(), len(tasks))
    own = list(range(0, len(tasks), workers))
    children = {}
    try:
        for w in range(1, workers):
            share = range(w, len(tasks), workers)
            try:
                pid, rfd = _fork(tasks, share)
            except OSError:
                own += share
                continue
            children[pid] = rfd
        out = _work(tasks, sorted(own))
        for pid in list(children):
            out.update(_receive(pid, children.pop(pid)))
        return [out.get(i) for i in range(len(tasks))]
    finally:
        for pid, rfd in children.items():
            os.close(rfd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _sweep(cfg: ExperimentConfig, axis_name: str, axis, points) -> ErrorCurve:
    """Monte-Carlo driver of every sweep axis.

    ``points`` lists (params, substeps, probe times), one per grid point;
    each contributes one curve entry per probe time.  Every point runs
    ``cfg.runs`` shots on the same per-run RNG streams, and the configured
    bounds are evaluated at its probe times.  A point's tasks are its runs,
    then the chunks of its ``bcrb_numeric`` bound's samples; their outcomes
    are read in that order, as if the tasks had been run one after the
    other here.
    """
    ks = [sde_sim.sample_indices(times, p.Delta) for p, _, times in points]
    rmse = {e: [] for e in cfg.estimators}
    rmse_se = {e: [] for e in cfg.estimators}
    bound, bound_se = {}, {}
    excluded = 0
    for (p, substeps, times), point_ks in zip(points, ks):
        prior = filters.default_prior(p, cfg.sigma_omega)
        tasks = [partial(_single_run_errors, cfg, p, prior, r, point_ks,
                         substeps) for r in range(cfg.runs)]
        if "bcrb_numeric" in cfg.bounds:
            n, workers = cfg.bound_samples, _cpus()
            # one chunk on each worker that the runs leave a task short
            parts = min(workers - cfg.runs % workers, n)
            tasks += [partial(bounds._squared_scores, p, prior, point_ks,
                              range(c * n // parts, (c + 1) * n // parts),
                              cfg.seed + 1, substeps)
                      for c in range(parts)]
        outcomes = _fan_out(tasks)
        sq = {e: [] for e in cfg.estimators}
        failures = []
        for errs in outcomes[:cfg.runs]:
            if isinstance(errs, _RUN_ERRORS):
                failures.append(errs)
                continue
            if isinstance(errs, Exception):
                raise errs
            for e, vals in errs.items():
                sq[e].append(np.square(vals))
        excluded += _check_exclusions(failures, cfg.runs)
        for e in cfg.estimators:
            rms, se = _rms_and_stderr(np.array(sq[e]).T)
            rmse[e].append(rms)
            rmse_se[e].append(se)
        chunks = outcomes[cfg.runs:]
        for chunk in chunks:
            if isinstance(chunk, Exception):
                raise chunk
        b, b_se = _time_bounds(cfg, p, times, bounds._bound_results(
            times, np.concatenate(chunks, axis=1)) if chunks else None)
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
    period; integrator substeps scale so the internal step stays <= 1 us,
    for the runs and the ``bcrb_numeric`` samples alike."""
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
    """One simulated shot of the configured true signal (``_shot``, drawn
    once for consecutive calls on it) plus a pass of the first filter among
    the estimators, with its assumed (OU or random-walk) model.  The result
    holds its own writable copy of the truth."""
    p = cfg.params
    kind = next((e for e in cfg.estimators if e in filters.KINDS), None)
    if kind is None:
        raise InvalidParametersError(
            "tracking needs a filter: estimators must include 'ekf' or 'ckf'")
    truth, rec = _shot(cfg)
    fcfg = filters.FilterConfig(kind, cfg.filter_signal(p),
                                filters.default_prior(p, cfg.sigma_omega), p)
    return TrackingResult(filters.run_filter(fcfg, rec), truth.copy())
