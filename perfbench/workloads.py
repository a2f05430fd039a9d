"""The four benchmark workloads: inputs made from a seed, one unit of work
per repetition, the outputs of a unit, and their correctness checks.

A *unit* is one repetition of a workload: a fixed list of inputs (harness
configs or atom-count trials) run through the package's public calls.  Every
call goes through a module attribute (``harness.run_error_vs_time``,
``atoms.sample_steady_state_outcomes``, ...), looked up when the unit runs,
so the spans that ``tracing`` installs on those attributes see it.

Importing this module imports ``spinfid``; the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from spinfid import atoms, harness
from spinfid.harness import ExperimentConfig
from spinfid.model import OrnsteinUhlenbeck, SpmParams, Wiener

REF_SEED = 0
SEEDS_PER_UNIT = 2  # seed values one unit may consume (config seed, bound seed)

# pem.MAP_TOL at the commit the references were recorded: each MAP estimate
# is within this of the minimiser, so two valid fits differ by up to twice it.
MAP_TOL = 1e-3  # rad/s


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]      # unit seed -> inputs of one unit
    call: Callable[[object], object]   # one input -> one result
    shots: Callable[[object], int]     # shots one input simulates
    excluded: Callable[[object], int]  # shots a result left out
    outputs: Callable[[object], dict]  # result -> {key: array}, compared bit for bit
    summary: Callable[[object], dict]  # result -> {key: float}, checked
    nominal_unit_s: float              # unit time on a 2-core x86 box, sizes the traced run
    streams: bool                      # calls stream arrays beyond the caches (run.SpeedGauge)
    probe: Callable[[int], list] = lambda seed: []  # more inputs, reference check only


def unit_seed(seed: int, rep: int) -> int:
    """Config seed of repetition ``rep``; ExperimentConfig draws its bound
    samples from seed + 1, so units are spaced SEEDS_PER_UNIT apart."""
    return seed * 100_000 + SEEDS_PER_UNIT * rep


# ---------------------------------------------------------------- mc_time

MC_TIMES = (5e-5, 1e-4, 2e-4, 3.5e-4, 5e-4, 1e-3, 2e-3, 5e-3)


def _mc_time_inputs(seed):
    # the c06/c07/c08/c14 acceptance fixture at 1 run and 10 bound samples
    p = SpmParams()
    return [ExperimentConfig(
        params=p, assumed_signal=Wiener(p.omega_bar, 10.0),
        estimators=("ekf", "pem"), bounds=("bcrb_numeric", "floor"),
        runs=1, bound_samples=10, seed=seed,
        sweep_axis="time", sweep_values=MC_TIMES)]


def _mc_time_probe(seed):
    # At the fixture's prior (sigma = 12566 rad/s) the data outweigh the
    # prior at every probing time, so a lost prior term would not show.  A
    # prior as narrow as the 50 us bound makes both count.
    return [replace(cfg, sigma_omega=1.0) for cfg in _mc_time_inputs(seed)]


# ------------------------------------------------------------ mc_sampling

def _mc_sampling_inputs(seed):
    # the c10 sweep at 1 run
    return [ExperimentConfig(
        sigma_omega=2000.0, estimators=("ekf",), runs=1, seed=seed,
        duration=5e-3, sweep_axis="sampling", sweep_values=(5e-7, 5e-6, 5e-5))]


def _curve_outputs(curve):
    out = {"excluded_runs": np.array([curve.excluded_runs], dtype=float)}
    for group in ("rmse", "rmse_stderr", "bound", "bound_stderr"):
        for key, values in getattr(curve, group).items():
            out[f"{group}.{key}"] = np.asarray(values, dtype=float)
    return out


def _curve_summary(curve):
    out = {}
    for group in ("rmse", "bound"):
        for key, values in sorted(getattr(curve, group).items()):
            for i, v in enumerate(np.asarray(values, dtype=float)):
                out[f"{group}.{key}[{i}]"] = float(v)
    return out


def _sweep_shots(cfg):
    points = 1 if cfg.sweep_axis == "time" else len(cfg.sweep_values)
    bound_shots = cfg.bound_samples if "bcrb_numeric" in cfg.bounds else 0
    return cfg.runs * points + bound_shots


# --------------------------------------------------------------- track_ou

def _track_ou_inputs(seed):
    # the c11 configs (OU truth and filter model, d_c in {1e7, 1e9}), each
    # tracked by the EKF and by the CKF
    p = SpmParams(Delta=1e-6)
    cfgs = []
    for d_c in (1e7, 1e9):
        s = OrnsteinUhlenbeck(p.omega_bar, 1.0, d_c)
        for kind in ("ekf", "ckf"):
            cfgs.append(ExperimentConfig(
                params=p, true_signal=s, assumed_signal=s, estimators=(kind,),
                duration=5e-3, substeps=8, seed=seed))
    return cfgs


def _tracking_outputs(result):
    tr = result.trace
    return {"mean": tr.mean, "cov": tr.cov, "innovation": tr.innovation,
            "innovation_var": tr.innovation_var, "truth": result.truth_omega}


def _tracking_summary(result):
    return {"rms_error": float(np.sqrt(np.mean(result.true_error ** 2))),
            "mean_nis": float(np.mean(result.trace.nis))}


# ------------------------------------------------------------- atom_count

ATOM_SAMPLES = 4_000_000  # c13's record length


@dataclass(frozen=True)
class AtomTrial:
    params: SpmParams
    seed: int


def _atom_count_inputs(seed):
    # one seed per trial
    p = SpmParams()
    return [AtomTrial(p, seed + j) for j in range(SEEDS_PER_UNIT)]


def _atom_trial(trial):
    p = trial.params
    y = atoms.sample_steady_state_outcomes(p, p.omega_bar, ATOM_SAMPLES,
                                           seed=trial.seed)
    return atoms.estimate_atom_number(y, p), p.N


def _atom_outputs(result):
    est, n = result
    return {"n_hat": np.array([est.n_hat]), "sigma_n": np.array([est.sigma_n]),
            "n": np.array([n])}


def _atom_summary(result):
    est, n = result
    return {"n_hat_over_n": est.n_hat / n, "sigma_n_over_n": est.sigma_n / n}


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_time",
        _mc_time_inputs, lambda cfg: harness.run_error_vs_time(cfg),
        _sweep_shots, lambda curve: curve.excluded_runs,
        _curve_outputs, _curve_summary, 0.5, False, _mc_time_probe),
    Workload(
        "mc_sampling",
        _mc_sampling_inputs, lambda cfg: harness.run_error_vs_delta(cfg),
        _sweep_shots, lambda curve: curve.excluded_runs,
        _curve_outputs, _curve_summary, 1.1, False),
    Workload(
        "track_ou",
        _track_ou_inputs, lambda cfg: harness.run_tracking(cfg),
        lambda cfg: 1, lambda result: 0,
        _tracking_outputs, _tracking_summary, 3.5, False),
    Workload(
        "atom_count",
        _atom_count_inputs, _atom_trial,
        lambda trial: 1, lambda result: 0,
        _atom_outputs, _atom_summary, 0.9, True),
)}


def run_unit(w: Workload, inputs):
    """Run one unit; returns the per-input results."""
    return [w.call(x) for x in inputs]


def unit_outputs(w: Workload, results) -> dict:
    return {f"{i}.{k}": v for i, r in enumerate(results)
            for k, v in w.outputs(r).items()}


def unit_summary(w: Workload, results) -> dict:
    return {f"{i}.{k}": v for i, r in enumerate(results)
            for k, v in w.summary(r).items()}


def bit_identical(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def check_finite_positive(summary: dict) -> list:
    """Problems with a unit's summary at any seed: every value is finite and
    positive."""
    return [f"{k} = {v!r} is not finite and positive"
            for k, v in summary.items() if not (math.isfinite(v) and v > 0.0)]


def tolerance(key: str) -> tuple:
    """(rtol, atol) for a summary value against its reference.

    MAP errors may move by the fit precision; filter outputs by reordered
    arithmetic (a batched or scalar-unrolled filter); the MC bound by the
    finite-difference truncation of its score (<= 1e-3 relative per
    gradient, squared and averaged); closed forms and the atom estimator
    only by roundoff.
    """
    if ".rmse.pem[" in key:
        return 1e-6, 2.0 * MAP_TOL
    if ".rmse." in key or "rms_error" in key or "mean_nis" in key:
        return 1e-4, 0.0
    if ".bound.bcrb_numeric[" in key:
        return 1e-2, 0.0
    return 1e-6, 0.0


def check_reference(summary: dict, reference: dict) -> list:
    """Problems with a reference-seed unit against the recorded values."""
    problems = []
    if summary.keys() != reference.keys():
        problems.append(f"output keys {sorted(summary)} != reference keys "
                        f"{sorted(reference)}")
    for key in sorted(summary.keys() & reference.keys()):
        got, want = summary[key], reference[key]
        rtol, atol = tolerance(key)
        if not abs(got - want) <= atol + rtol * abs(want):
            problems.append(f"{key} = {got!r}, reference {want!r} "
                            f"(rtol {rtol:g}, atol {atol:g})")
    return problems
