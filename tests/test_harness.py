import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from spinfid import harness
from spinfid.bounds import noiseless_bcrb_floor
from spinfid.errors import (ExclusionLimitError, InvalidParametersError,
                            MapBoundaryError, NumericalDegeneracyError)
from spinfid.harness import (ErrorCurve, ExperimentConfig, run_error_vs_N,
                             run_error_vs_delta, run_error_vs_time,
                             run_tracking)
from spinfid.model import (Constant, OrnsteinUhlenbeck, Sinusoid, SpmParams,
                           Wiener, deterministic_omega)

TWO_PI = 2.0 * math.pi


def _run_outcomes(cfg: ExperimentConfig, r: int) -> np.ndarray:
    """The outcomes of run r's record in a time sweep, simulated as the
    sweep simulates them."""
    p = cfg.params
    rng = harness._run_rng(cfg.seed, r)
    omega = p.omega_bar + cfg.sigma_omega * rng.standard_normal()
    k = max(harness.sde_sim.sample_indices(cfg.sweep_values, p.Delta))
    _, rec = harness.sde_sim.simulate(p, Constant(omega), k * p.Delta,
                                      substeps=cfg.substeps, seed=rng)
    return rec.outcomes


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.true_signal == Constant(cfg.params.omega_bar)
        assert cfg.filter_signal(cfg.params) == Wiener(cfg.params.omega_bar, 0.0)

    def test_assumed_signal_passthrough(self):
        s = OrnsteinUhlenbeck(1.0, 2.0, 3.0)
        cfg = ExperimentConfig(assumed_signal=s)
        assert cfg.filter_signal(cfg.params) is s

    @pytest.mark.parametrize("kwargs", [
        {"runs": 0},
        {"duration": 0.0},
        {"sweep_axis": "voltage"},
        {"sweep_axis": "time", "sweep_values": ()},
        {"sweep_axis": "time", "sweep_values": (-1.0,)},
        {"estimators": ("ekf", "mystery")},
        {"bounds": ("bcrb_numeric", "mystery")},
        {"bounds": ("bcrb_numeric",), "bound_samples": 1},
        {"sigma_omega": 0.0},
        {"seed": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParametersError):
            ExperimentConfig(**kwargs)

    def test_bound_samples_checked_only_for_numeric_bound(self):
        cfg = ExperimentConfig(bounds=("crb", "floor"), bound_samples=1)
        assert cfg.bound_samples == 1

    def test_from_dict_round_trip(self):
        d = {
            "params": {"N": 1e11},
            "true_signal": {"kind": "ou", "omega_bar": 1.0, "tau": 2.0,
                            "d_c": 3.0},
            "estimators": ["ekf", "ckf"],
            "sweep_axis": "time",
            "sweep_values": [1e-4, 2e-4],
            "runs": 7,
        }
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.params.N == 1e11
        assert cfg.true_signal == OrnsteinUhlenbeck(1.0, 2.0, 3.0)
        assert cfg.estimators == ("ekf", "ckf")
        assert cfg.sweep_values == (1e-4, 2e-4)

    def test_from_dict_unknown_key(self):
        with pytest.raises(InvalidParametersError):
            ExperimentConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("d, message", [
        ({"estimators": "ekf"}, "'estimators' must be a list"),
        ({"runs": 3.0}, "'runs' must be an integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"duration": "1e-3"}, "'duration' must be a number"),
        ({"sweep_axis": "time", "sweep_values": ["1e-4"]}, "positive numbers"),
        ({"true_signal": 5}, "signal must be an object"),
        ([("runs", 3)], "config must be an object"),
    ])
    def test_from_dict_rejects_mistyped_values(self, d, message):
        with pytest.raises(InvalidParametersError, match=message):
            ExperimentConfig.from_dict(d)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"runs": 3}))
        assert ExperimentConfig.from_json(path).runs == 3


class TestErrorVsTime:
    def test_requires_time_axis(self):
        with pytest.raises(InvalidParametersError):
            run_error_vs_time(ExperimentConfig())

    def test_rejects_grid_time_outside_record(self):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-6, 1e-4),
                               runs=2)
        with pytest.raises(InvalidParametersError):
            run_error_vs_time(cfg)

    def test_smoke_curve(self):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4, 2e-4),
                               runs=6, estimators=("ekf", "pem"),
                               bounds=("bcrb_analytic", "crb", "floor"))
        curve = run_error_vs_time(cfg)
        assert curve.axis_name == "t"
        assert np.array_equal(curve.axis, [1e-4, 2e-4])
        for e in ("ekf", "pem"):
            assert curve.rmse[e].shape == (2,)
            assert np.all(curve.rmse[e] > 0.0)
            assert np.all(curve.rmse_stderr[e] > 0.0)
        assert np.all(np.diff(curve.bound["bcrb_analytic"]) < 0.0)
        assert curve.bound["floor"][0] == curve.bound["floor"][1]
        assert curve.excluded_runs == 0

    @pytest.mark.filterwarnings("error")
    def test_single_run_reports_nan_stderr(self):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4, 2e-4),
                               runs=1, estimators=("ekf", "pem"))
        curve = run_error_vs_time(cfg)
        for e in ("ekf", "pem"):
            assert np.all(curve.rmse[e] > 0.0)
            assert np.all(np.isnan(curve.rmse_stderr[e]))

    def test_crb_evaluates_fisher_information_once_per_time(self, monkeypatch):
        calls = []
        fi = harness.bounds.fi_noiseless_discrete

        def counted(*args):
            calls.append(args[1])
            return fi(*args)
        monkeypatch.setattr(harness.bounds, "fi_noiseless_discrete", counted)
        cfg = ExperimentConfig(bounds=("crb",))
        out, _ = harness._time_bounds(cfg, cfg.params, [1e-4, 2e-4])
        assert calls == [1e-4, 2e-4]
        assert np.all(np.isfinite(out["crb"]))

    def test_crb_counts_the_samples_of_the_record(self):
        # at 70 us, t / Delta = 13.999...; the record holds 14 samples and
        # the crb column is the information of those 14
        p = SpmParams()
        t = 70e-6
        assert len(harness.sde_sim.simulate(p, Constant(p.omega_bar),
                                            t)[1].outcomes) == 14
        curve = run_error_vs_time(ExperimentConfig(
            sweep_axis="time", sweep_values=(t,), bounds=("crb",)))
        fi = harness.bounds.fi_noiseless_discrete(p.omega_bar, 14 * p.Delta, p)
        assert curve.bound["crb"][0] == 1.0 / math.sqrt(fi)

    def test_stderr_shrinks_with_runs(self):
        base = dict(sweep_axis="time", sweep_values=(1e-4,),
                    estimators=("ekf",))
        se_small = run_error_vs_time(
            ExperimentConfig(runs=20, **base)).rmse_stderr["ekf"][0]
        se_large = run_error_vs_time(
            ExperimentConfig(runs=80, **base)).rmse_stderr["ekf"][0]
        assert se_large < se_small

    def test_exclusion_cap_enforced(self, monkeypatch):
        def boom(*args, **kwargs):
            raise MapBoundaryError("forced failure")
        monkeypatch.setattr(harness.pem, "map_estimates", boom)
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=5, estimators=("pem",))
        with pytest.raises(RuntimeError, match="forced failure"):
            run_error_vs_time(cfg)

    def test_score_without_sign_change_excludes_the_run(self, monkeypatch):
        # the score is positive across run 0's MAP bracket, so that fit
        # raises and the sweep keeps only the second run; run 0's record is
        # recognised by its outcomes, in whichever process fits it
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=2, estimators=("pem",))
        first = _run_outcomes(cfg, 0)
        terms = harness.pem.score_and_information

        def first_record_positive(omega, rec, *args):
            j, score, info = terms(omega, rec, *args)
            return (j, abs(score) if np.array_equal(rec.outcomes, first)
                    else score, info)
        monkeypatch.setattr(harness.pem, "score_and_information",
                            first_record_positive)
        failures = []
        check = harness._check_exclusions

        def kept_failures(found, runs):
            failures.extend(found)
            return check(found, runs)
        monkeypatch.setattr(harness, "_check_exclusions", kept_failures)
        monkeypatch.setattr(harness, "MAX_EXCLUSION_FRACTION", 0.5)
        curve = run_error_vs_time(cfg)
        assert curve.excluded_runs == 1
        failure, = failures
        assert isinstance(failure, MapBoundaryError)
        assert "sign" in str(failure)
        assert np.all(np.isfinite(curve.rmse["pem"]))

    def test_check_exclusions_unit(self):
        assert harness._check_exclusions([], 10) == 0
        assert harness._check_exclusions([ValueError("x")], 200) == 1
        with pytest.raises(ExclusionLimitError):
            harness._check_exclusions([ValueError("x")], 50)


class TestSweepReductions:
    def test_atom_sweep_single_point_matches_time_sweep(self):
        # a one-point atom-number grid at the base N must reproduce the
        # time-sweep endpoint, since the per-run RNG streams only depend on
        # (seed, run index)
        p = SpmParams(T2_override=None)
        common = dict(params=p, runs=4, estimators=("ekf",), seed=9)
        t_curve = run_error_vs_time(ExperimentConfig(
            sweep_axis="time", sweep_values=(2e-4,), **common))
        n_curve = run_error_vs_N(ExperimentConfig(
            sweep_axis="atoms", sweep_values=(p.N,), duration=2e-4, **common))
        assert n_curve.rmse["ekf"][0] == pytest.approx(
            t_curve.rmse["ekf"][0], rel=1e-12)

    def test_delta_sweep_single_point_matches_time_sweep(self):
        common = dict(runs=4, estimators=("ekf",), seed=9)
        t_curve = run_error_vs_time(ExperimentConfig(
            sweep_axis="time", sweep_values=(2e-4,), **common))
        d_curve = run_error_vs_delta(ExperimentConfig(
            sweep_axis="sampling", sweep_values=(5e-6,), duration=2e-4,
            **common))
        assert d_curve.axis_name == "Delta"
        assert d_curve.rmse["ekf"][0] == pytest.approx(
            t_curve.rmse["ekf"][0], rel=1e-12)

    def test_delta_sweep_rejects_too_short_duration(self):
        cfg = ExperimentConfig(sweep_axis="sampling", sweep_values=(1e-2,),
                               duration=1e-3, runs=2)
        with pytest.raises(InvalidParametersError):
            run_error_vs_delta(cfg)

    def test_delta_sweep_reports_configured_bounds(self):
        cfg = ExperimentConfig(sweep_axis="sampling",
                               sweep_values=(1e-5, 2.5e-6), duration=1e-4,
                               runs=2, bounds=("floor",))
        curve = run_error_vs_delta(cfg)
        expected = [math.sqrt(noiseless_bcrb_floor(
            replace(cfg.params, Delta=d), cfg.sigma_omega))
            for d in (2.5e-6, 1e-5)]
        assert set(curve.bound) == {"floor"}
        assert np.array_equal(curve.bound["floor"], expected)

    def test_axis_guards(self):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,))
        with pytest.raises(InvalidParametersError):
            run_error_vs_N(cfg)
        with pytest.raises(InvalidParametersError):
            run_error_vs_delta(cfg)


class TestTracking:
    def test_truth_follows_waveform(self):
        p = SpmParams()
        s = Sinusoid(p.omega_bar, TWO_PI * 200.0, 500.0)
        cfg = ExperimentConfig(true_signal=s, duration=1e-3, runs=1)
        result = run_tracking(cfg)
        times = p.Delta * np.arange(1, len(result.truth_omega) + 1)
        expected = np.array([deterministic_omega(s, t) for t in times])
        assert np.allclose(result.truth_omega, expected)
        assert np.array_equal(result.true_error,
                              result.trace.omega_hat - result.truth_omega)

    def test_tracks_constant_frequency(self):
        p = SpmParams()
        truth = p.omega_bar + 800.0
        cfg = ExperimentConfig(true_signal=Constant(truth), duration=2e-3,
                               sigma_omega=TWO_PI * 500.0)
        result = run_tracking(cfg)
        assert abs(result.true_error[-1]) < 1.0

    def test_rejects_config_without_a_filter(self):
        cfg = ExperimentConfig(estimators=("pem",), duration=1e-4)
        with pytest.raises(InvalidParametersError):
            run_tracking(cfg)

    def test_csv_outputs(self, tmp_path):
        cfg = ExperimentConfig(true_signal=Constant(SpmParams().omega_bar),
                               duration=1e-4)
        result = run_tracking(cfg)
        path = tmp_path / "track.csv"
        result.to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"k,t,omega_true,omega_hat,sigma_omega_pred,innovation,S,nis"
        assert len(lines) == 22  # header + 20 rows + trailing newline

    def test_error_curve_csv(self, tmp_path):
        curve = ErrorCurve(
            "t", np.array([1.0, 2.0]),
            {"ekf": np.array([0.5, 0.25])},
            {"ekf": np.array([0.05, 0.02])},
            {"floor": np.array([0.1, 0.1])})
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rmse_ekf,stderr_ekf,floor"
        assert lines[1].startswith("1,0.5,0.05,0.1")


def _sweep_on(monkeypatch, workers, run, cfg):
    """run(cfg) with ``workers`` sweep workers: its curve, or the exception
    it raised.  No child process is left either way."""
    monkeypatch.setattr(harness, "_cpus", lambda: workers)
    try:
        return run(cfg)
    except Exception as exc:
        return exc
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _assert_same_curves(a, b):
    assert isinstance(a, ErrorCurve) and isinstance(b, ErrorCurve)
    assert a.axis_name == b.axis_name
    assert a.axis.tobytes() == b.axis.tobytes()
    assert a.excluded_runs == b.excluded_runs
    for group in ("rmse", "rmse_stderr", "bound", "bound_stderr"):
        da, db = getattr(a, group), getattr(b, group)
        assert list(da) == list(db)
        for key in da:
            assert da[key].dtype == db[key].dtype
            assert da[key].tobytes() == db[key].tobytes(), (group, key)


def _assert_same_error(a, b):
    assert isinstance(a, Exception) and type(a) is type(b)
    assert str(a) == str(b)


def _fail_runs(monkeypatch, cfg, errors):
    """Make the MAP fit of run r raise errors[r]; the other runs fit as
    usual."""
    fit = harness.pem.map_estimates
    marked = {_run_outcomes(cfg, r).tobytes(): exc for r, exc in errors.items()}

    def fit_or_fail(rec, *args):
        exc = marked.get(rec.outcomes.tobytes())
        if exc is not None:
            raise exc
        return fit(rec, *args)
    monkeypatch.setattr(harness.pem, "map_estimates", fit_or_fail)


_EVERY_KIND = dict(runs=3, estimators=("ekf", "ckf", "pem"), bound_samples=4,
                   bounds=("bcrb_numeric", "bcrb_analytic", "crb", "floor"))


class TestFanOut:
    @pytest.mark.parametrize("run, cfg", [
        (run_error_vs_time, ExperimentConfig(
            sweep_axis="time", sweep_values=(1e-4, 2e-4), seed=3,
            **_EVERY_KIND)),
        (run_error_vs_N, ExperimentConfig(
            sweep_axis="atoms", sweep_values=(1e11, 2e11), duration=1e-4,
            params=SpmParams(T2_override=None), **_EVERY_KIND)),
        (run_error_vs_delta, ExperimentConfig(
            sweep_axis="sampling", sweep_values=(1e-5, 5e-6), duration=1e-4,
            **_EVERY_KIND)),
    ], ids=["time", "atoms", "sampling"])
    def test_parallel_equals_serial(self, monkeypatch, run, cfg):
        serial = _sweep_on(monkeypatch, 1, run, cfg)
        assert isinstance(serial, ErrorCurve)
        assert set(serial.bound) == set(cfg.bounds)
        # 2 workers: runs 0, 2 here, runs 1, 3 and the bound in a child;
        # 4: every item in its own process
        for workers in (2, 4):
            _assert_same_curves(_sweep_on(monkeypatch, workers, run, cfg),
                                serial)

    def test_split(self, monkeypatch):
        # run r on worker r mod W, the bound on the last worker
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_single_run_errors",
                            lambda *args: os.getpid())
        monkeypatch.setattr(harness, "_numeric_bound",
                            lambda *args: os.getpid())
        cfg = ExperimentConfig(runs=3, bounds=("bcrb_numeric",))
        pids = harness._point_outcomes(cfg, cfg.params, 5, [1e-4], [20])
        here = os.getpid()
        assert pids[0] == pids[2] == here
        assert pids[1] == pids[3] != here
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_item_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(harness.os, "fork", no_fork)
        cfg = ExperimentConfig(sweep_axis="sampling", sweep_values=(1e-5, 5e-6),
                               duration=1e-4, bounds=("crb", "floor"))
        assert isinstance(_sweep_on(monkeypatch, 2, run_error_vs_delta, cfg),
                          ErrorCurve)

    def test_run_0_warms_the_gain_table_here(self, monkeypatch):
        # the bound goes to a child, and the MAP table of run 0 stays here
        monkeypatch.setattr(harness.pem, "_gain_memo", {})
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               estimators=("pem",), bounds=("bcrb_numeric",),
                               bound_samples=4)
        assert isinstance(_sweep_on(monkeypatch, 2, run_error_vs_time, cfg),
                          ErrorCurve)
        assert len(harness.pem._gain_memo) == 1

    @pytest.mark.parametrize("limit", [0.5, harness.MAX_EXCLUSION_FRACTION])
    def test_runs_failed_in_a_child_are_excluded_as_in_serial(
            self, monkeypatch, limit):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=4, estimators=("pem",))
        # run 1 fails in the child, run 2 here
        _fail_runs(monkeypatch, cfg, {1: MapBoundaryError("run 1"),
                                      2: MapBoundaryError("run 2")})
        monkeypatch.setattr(harness, "MAX_EXCLUSION_FRACTION", limit)
        serial = _sweep_on(monkeypatch, 1, run_error_vs_time, cfg)
        parallel = _sweep_on(monkeypatch, 2, run_error_vs_time, cfg)
        if limit == 0.5:
            assert serial.excluded_runs == 2
            _assert_same_curves(parallel, serial)
        else:
            assert isinstance(serial, ExclusionLimitError)
            assert str(serial) == ("2 of 4 runs failed (limit 1%); "
                                   "first failure: run 1")
            _assert_same_error(parallel, serial)

    @pytest.mark.parametrize("errors, message", [
        ({1: ValueError("run 1"), 3: ValueError("run 3")}, "run 1"),
        ({1: MapBoundaryError("run 1"), 2: ValueError("run 2"),
          3: ValueError("run 3")}, "run 2"),
        ({2: ValueError("run 2"), 3: ValueError("run 3")}, "run 2"),
        ({1: ValueError("run 1"), 2: ValueError("run 2")}, "run 1"),
    ])
    def test_the_first_run_error_is_raised_as_in_serial(self, monkeypatch,
                                                         errors, message):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=4, estimators=("pem",))
        _fail_runs(monkeypatch, cfg, errors)
        monkeypatch.setattr(harness, "MAX_EXCLUSION_FRACTION", 0.5)
        serial = _sweep_on(monkeypatch, 1, run_error_vs_time, cfg)
        assert isinstance(serial, ValueError) and str(serial) == message
        _assert_same_error(_sweep_on(monkeypatch, 2, run_error_vs_time, cfg),
                           serial)

    @pytest.mark.parametrize("failed_runs", [{}, {1: MapBoundaryError("run 1")}])
    def test_bound_error_is_raised_after_the_exclusion_check(
            self, monkeypatch, failed_runs):
        def broken(*args, **kwargs):
            raise NumericalDegeneracyError("bound broke")
        monkeypatch.setattr(harness.bounds, "bcrb_numeric_curve", broken)
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=2, estimators=("pem",),
                               bounds=("bcrb_numeric", "floor"))
        _fail_runs(monkeypatch, cfg, failed_runs)
        serial = _sweep_on(monkeypatch, 1, run_error_vs_time, cfg)
        expected = (ExclusionLimitError if failed_runs
                    else NumericalDegeneracyError)
        assert type(serial) is expected
        _assert_same_error(_sweep_on(monkeypatch, 2, run_error_vs_time, cfg),
                           serial)

    def test_no_fork_runs_everything_here(self, monkeypatch):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               seed=3, **_EVERY_KIND)
        serial = _sweep_on(monkeypatch, 1, run_error_vs_time, cfg)

        def no_process(*args):
            raise BlockingIOError("no process to be had")
        monkeypatch.setattr(harness.os, "fork", no_process)
        fds = sorted(os.listdir("/proc/self/fd"))
        _assert_same_curves(_sweep_on(monkeypatch, 2, run_error_vs_time, cfg),
                            serial)
        assert sorted(os.listdir("/proc/self/fd")) == fds  # no pipe left open

    def test_a_child_that_dies_is_reported(self, monkeypatch):
        parent = os.getpid()
        run = harness._single_run_errors

        def die_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args)
        monkeypatch.setattr(harness, "_single_run_errors", die_in_a_child)
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,), runs=2)
        error = _sweep_on(monkeypatch, 2, run_error_vs_time, cfg)
        assert isinstance(error, RuntimeError)
        assert str(error) == ("a sweep worker exited without its results "
                              "(exit code 3)")

    def test_cpus_is_the_affinity_mask(self, monkeypatch):
        assert harness._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "fork")
        assert harness._cpus() == 1
