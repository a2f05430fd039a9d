"""Spans around the public calls of each spinfid layer, installed from the
benchmark (the package itself is not changed), and the per-layer metrics
computed from them.

A span records its name, start and end (perf_counter_ns), the span that was
open when it started, the benchmark operation (unit) it belongs to, the
class of an exception that crossed it, and up to two work counts read from
the call's arguments or result.  Spans are kept in memory and written once,
at the end of the run.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested because the
package is single-threaded.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

from spinfid import atoms, bounds, filters, harness, pem, sde_sim
from spinfid.errors import (IntegrationBlowupError, MapBoundaryError,
                            NumericalDegeneracyError)
from spinfid.model import is_stochastic

LAYERS = ("sde_sim", "filters", "pem", "bounds", "atoms", "harness")
# checked in order: IntegrationBlowupError is also a FloatingPointError
ERROR_CLASSES = (MapBoundaryError, NumericalDegeneracyError,
                 IntegrationBlowupError, FloatingPointError)
ERROR_NAMES = tuple(c.__name__ for c in ERROR_CLASSES) + ("other",)
# counts that depend only on the inputs; two traced runs must agree on them
EXACT_COUNTS = ("sde_sim.substeps", "filters.steps", "pem.grid.omega_samples",
                "pem.nlj.calls", "bounds.grad.calls", "atoms.samples")
TIME_METRICS = (
    "sde_sim.exact.substep_ns", "sde_sim.ito.substep_ns",
    "filters.ekf.step_us", "filters.ckf.step_us", "filters.predict.self_s",
    "filters.correct.self_s", "pem.map.ms_per_fit",
    "pem.grid.ns_per_omega_sample", "pem.nlj.ns_per_sample",
    "bounds.ms_per_sample", "atoms.sample_ns", "atoms.estimate_ns",
) + tuple(f"{layer}.self_s" for layer in LAYERS)


def _error_index(exc: BaseException) -> int:
    for i, cls in enumerate(ERROR_CLASSES):
        if isinstance(exc, cls):
            return i
    return len(ERROR_CLASSES)


def _getter(fn, name):
    """Read argument ``name`` of a call to ``fn`` from (args, kwargs)."""
    params = inspect.signature(fn).parameters
    pos = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default
    return get


def _harness_runs(cfg):
    return cfg.runs * (1 if cfg.sweep_axis in ("none", "time")
                       else len(cfg.sweep_values))


def _hooks():
    """(module, attribute, work(args, kwargs, result) -> (w1, w2) or None).

    Hot per-step calls get no work function, to keep their spans cheap.
    """
    sim_signal = _getter(sde_sim.simulate, "s")
    filter_cfg = _getter(filters.run_filter, "cfg")
    grid_omegas = _getter(pem.neg_log_joint_grid, "omegas")
    grid_rec = _getter(pem.neg_log_joint_grid, "rec")
    nlj_rec = _getter(pem.kalman_neg_log_joint, "rec")
    curve_n = _getter(bounds.bcrb_numeric_curve, "n_samples")
    single_n = _getter(bounds.bcrb_numeric, "n_samples")
    sample_k = _getter(atoms.sample_steady_state_outcomes, "k")

    def harness_work(a, kw, r):
        cfg = a[0] if a else kw["cfg"]
        return _harness_runs(cfg), getattr(r, "excluded_runs", 0)

    hooks = [
        # w1 substeps, w2 = 1 on the Ito-Taylor (OU/Wiener) path
        (sde_sim, "simulate", lambda a, kw, r: (
            len(r[0].times) - 1, int(is_stochastic(sim_signal(a, kw))))),
        # w1 steps, w2 = 1 for the CKF
        (filters, "run_filter", lambda a, kw, r: (
            len(r.times), int(filter_cfg(a, kw).kind == "ckf"))),
        (filters, "ekf_predict", None),
        (filters, "ckf_predict", None),
        (filters, "kalman_correct", None),
        (pem, "map_estimate", None),
        # w1 omega values x record samples
        (pem, "neg_log_joint_grid", lambda a, kw, r: (
            len(np.atleast_1d(grid_omegas(a, kw)))
            * len(grid_rec(a, kw).outcomes), 0)),
        (pem, "kalman_neg_log_joint", lambda a, kw, r: (
            len(nlj_rec(a, kw).outcomes), 0)),
        (bounds, "bcrb_numeric_curve", lambda a, kw, r: (curve_n(a, kw), 0)),
        (bounds, "bcrb_numeric", lambda a, kw, r: (single_n(a, kw), 0)),
        (bounds, "neg_log_joint_gradient", None),
        (atoms, "sample_steady_state_outcomes", lambda a, kw, r: (
            sample_k(a, kw), 0)),
        # w1 samples used, w2 = 1 when the estimate is degenerate
        (atoms, "estimate_atom_number", lambda a, kw, r: (
            r.k_used, int(r.degenerate))),
    ]
    for name in sorted(vars(harness)):
        if name.startswith("run_") and callable(getattr(harness, name)):
            hooks.append((harness, name, harness_work))
    return hooks


class Tracer:
    """Installs spans on the layer boundaries while active."""

    def __init__(self):
        self.names = []
        self.records = []
        self.op = -1
        self._stack = []
        self._hooks = _hooks()
        self._saved = []
        self._arrays = None

    def __enter__(self):
        for module, attr, work in self._hooks:
            orig = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[-1]
            name = f"{layer}.{attr}"
            if name not in self.names:
                self.names.append(name)
            setattr(module, attr, self._wrap(orig, self.names.index(name), work))
            self._saved.append((module, attr, orig))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, orig, name_id, work):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = -1
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                err = _error_index(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                records[idx] = (name_id, t0, t1, parent, self.op, err, 0, 0)
            if work is not None:
                w1, w2 = work(args, kwargs, result)
                records[idx] = (name_id, t0, t1, parent, self.op, err, w1, w2)
            return result

        span.__wrapped__ = orig
        return span

    def arrays(self) -> dict:
        if self._arrays is None or len(self._arrays["name"]) != len(self.records):
            cols = ("name", "t0", "t1", "parent", "op", "err", "w1", "w2")
            data = np.array(self.records, dtype=np.int64).reshape(-1, len(cols))
            self._arrays = {c: data[:, i] for i, c in enumerate(cols)}
        return self._arrays

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, ops) -> dict:
        """Per-layer metrics over the spans of the given operations."""
        a = self.arrays()
        dur = (a["t1"] - a["t0"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        parent_name = np.where(has_parent, a["name"][a["parent"]], -1)
        keep = np.isin(a["op"], list(ops))

        def sel(name, w2=None):
            if name not in self.names:
                return np.zeros(len(dur), dtype=bool)
            m = keep & (a["name"] == self.names.index(name))
            return m if w2 is None else m & (a["w2"] == w2)

        def layer_sel(layer):
            ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
            return keep & np.isin(a["name"], ids)

        def n(mask):
            return int(mask.sum())

        def total(mask, col="w1"):
            return int(a[col][mask].sum())

        def ratio(num, den, scale=1.0):
            return float(num) / den * scale if den else 0.0

        def self_s(mask):
            return float(self_ns[mask].sum()) / 1e9

        sim = sel("sde_sim.simulate")
        sim_x, sim_i = sel("sde_sim.simulate", 0), sel("sde_sim.simulate", 1)
        flt = sel("filters.run_filter")
        ekf, ckf = sel("filters.run_filter", 0), sel("filters.run_filter", 1)
        predict = sel("filters.ekf_predict") | sel("filters.ckf_predict")
        fit = sel("pem.map_estimate")
        grid = sel("pem.neg_log_joint_grid")
        nlj = sel("pem.kalman_neg_log_joint")
        bnd = sel("bounds.bcrb_numeric_curve") | sel("bounds.bcrb_numeric")
        grad = sel("bounds.neg_log_joint_gradient")
        smp = sel("atoms.sample_steady_state_outcomes")
        est = sel("atoms.estimate_atom_number")
        har = layer_sel("harness")
        map_id = self.names.index("pem.map_estimate")

        m = {
            "sde_sim.calls": n(sim),
            "sde_sim.substeps": total(sim),
            "sde_sim.exact.substep_ns": ratio(dur[sim_x].sum(), total(sim_x)),
            "sde_sim.ito.substep_ns": ratio(dur[sim_i].sum(), total(sim_i)),
            "filters.calls": n(flt),
            "filters.steps": total(flt),
            "filters.ekf.step_us": ratio(dur[ekf].sum(), total(ekf), 1e-3),
            "filters.ckf.step_us": ratio(dur[ckf].sum(), total(ckf), 1e-3),
            "filters.predict.self_s": self_s(predict),
            "filters.correct.self_s": self_s(sel("filters.kalman_correct")),
            "pem.map.calls": n(fit),
            "pem.map.ms_per_fit": ratio(dur[fit].sum(), n(fit), 1e-6),
            "pem.grid.calls": n(grid),
            "pem.grid.omega_samples": total(grid),
            "pem.grid.ns_per_omega_sample": ratio(dur[grid].sum(), total(grid)),
            "pem.nlj.calls": n(nlj),
            "pem.nlj.samples": total(nlj),
            "pem.nlj.ns_per_sample": ratio(dur[nlj].sum(), total(nlj)),
            "pem.nlj_per_map": ratio(n(nlj & (parent_name == map_id)), n(fit)),
            "bounds.calls": n(bnd),
            "bounds.samples": total(bnd),
            "bounds.ms_per_sample": ratio(dur[bnd].sum(), total(bnd), 1e-6),
            "bounds.grad.calls": n(grad),
            "bounds.grad_per_sample": ratio(n(grad), total(bnd)),
            "atoms.sample.calls": n(smp),
            "atoms.samples": total(smp),
            "atoms.sample_ns": ratio(dur[smp].sum(), total(smp)),
            "atoms.estimate_ns": ratio(dur[est].sum(), total(est)),
            "atoms.degenerate": total(est, "w2"),
            "harness.runs": total(har),
            "harness.excluded_runs": total(har, "w2"),
        }
        for layer in LAYERS:
            mask = layer_sel(layer)
            m[f"{layer}.self_s"] = self_s(mask)
            for i, cls in enumerate(ERROR_NAMES):
                m[f"{layer}.errors.{cls}"] = n(mask & (a["err"] == i))
        m["trace.spans"] = n(keep)
        return m
