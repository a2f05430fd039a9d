import json
import math
import os
import threading
import weakref
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from spinfid import atoms, harness
from spinfid.bounds import noiseless_bcrb_floor
from spinfid.errors import (ExclusionLimitError, IntegrationBlowupError,
                            InvalidParametersError, MapBoundaryError,
                            NumericalDegeneracyError)
from spinfid.harness import (ErrorCurve, ExperimentConfig, run_error_vs_N,
                             run_error_vs_delta, run_error_vs_time,
                             run_tracking)
from spinfid.model import (Constant, OrnsteinUhlenbeck, Sinusoid, SpmParams,
                           Step, Wiener, deterministic_omega)

TWO_PI = 2.0 * math.pi


def _run_outcomes(cfg: ExperimentConfig, r: int) -> np.ndarray:
    """The outcomes of run r's record in a time sweep, simulated as the
    sweep simulates them."""
    p = cfg.params
    k = max(harness.sde_sim.sample_indices(cfg.sweep_values, p.Delta))
    return harness.sde_sim._mc_shot(p, p.omega_bar, cfg.sigma_omega, k,
                                    cfg.substeps, cfg.seed, r)[1].outcomes


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
        {"duration": math.nan},
        {"duration": math.inf},
        {"sigma_omega": math.inf},
        {"sweep_axis": "time", "sweep_values": (1e-4, math.inf)},
        {"sweep_axis": "time", "sweep_values": (math.nan,)},
        {"sweep_axis": "time", "sweep_values": (True, 1e-4)},
        {"estimators": ("ekf", "ekf")},
        {"bounds": ("floor", "crb", "floor")},
        {"substeps": 0},
        {"substeps": -3},
        # once refused only by the bound, after a sweep had run
        {"bounds": ("bcrb_numeric",), "bound_samples": 2 ** 70},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParametersError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("name", ["runs", "seed", "substeps",
                                      "bound_samples"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(InvalidParametersError,
                           match=f"'{name}' must be an integer"):
            ExperimentConfig(**{name: value})
        assert getattr(ExperimentConfig(**{name: np.int64(3)}), name) == 3

    def test_bound_samples_checked_only_for_numeric_bound(self):
        cfg = ExperimentConfig(bounds=("crb", "floor"), bound_samples=1)
        assert cfg.bound_samples == 1
        assert ExperimentConfig(bound_samples=2 ** 70).bound_samples == 2 ** 70

    @pytest.mark.parametrize("value, bound", [
        (1, ">= 2"), (-5, ">= 2"), (10 ** 400, "<= %d" % np.iinfo(np.intp).max),
    ], ids=["1", "-5", "10**400"])
    def test_bound_samples_are_samples(self, value, bound):
        # the Monte-Carlo sample count of the bound's own schema entry
        with pytest.raises(InvalidParametersError) as exc:
            ExperimentConfig(bounds=("bcrb_numeric",), bound_samples=value)
        assert str(exc.value) == \
            f"ExperimentConfig bound_samples must be {bound}, got {value!r}"
        assert ExperimentConfig(bound_samples=value).bound_samples == value

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
        ({"sweep_axis": "time", "sweep_values": ["1e-4"]},
         "'sweep_values' must be a list of numbers"),
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

    def test_rejects_grid_time_beyond_the_index_range(self, monkeypatch):
        # once a bare ValueError from numpy, after the config was accepted
        def no_shot(*args):
            raise AssertionError("simulated a run")
        monkeypatch.setattr(harness.sde_sim, "_mc_shot", no_shot)
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e300,),
                               runs=1, bounds=("crb",))
        with pytest.raises(InvalidParametersError,
                           match=r"^time 1e\+300 .* at Delta = 5e-06, "):
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

    def test_delta_sweep_bound_simulates_at_the_point_substeps(
            self, monkeypatch):
        # at Delta = 10 us the internal step stays <= 1 us with 10 substeps,
        # for the bound's samples as for the runs
        shots = _recorded_shots(monkeypatch)
        cfg = ExperimentConfig(sweep_axis="sampling", sweep_values=(1e-5,),
                               duration=1e-4, runs=1, bounds=("bcrb_numeric",),
                               bound_samples=2)
        run_error_vs_delta(cfg)
        assert [substeps for _, _, substeps in shots] == [10, 10, 10]

    def test_axis_guards(self):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,))
        with pytest.raises(InvalidParametersError):
            run_error_vs_N(cfg)
        with pytest.raises(InvalidParametersError):
            run_error_vs_delta(cfg)


def _recorded_shots(monkeypatch) -> list:
    """Run every sweep task here and record each simulated shot as (omega,
    outcome bytes, substeps) in the list returned."""
    monkeypatch.setattr(harness, "_cpus", lambda: 1)
    simulate, shots = harness.sde_sim.simulate, []

    def recorded(p, s, duration, substeps=5, seed=0):
        traj, rec = simulate(p, s, duration, substeps=substeps, seed=seed)
        shots.append((s.omega0, rec.outcomes.tobytes(), substeps))
        return traj, rec
    monkeypatch.setattr(harness.sde_sim, "simulate", recorded)
    return shots


class TestShotRule:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bound_sample_m_is_sweep_run_m(self, monkeypatch, seed):
        # sample m of the bound at seed s and run m of a time sweep at seed
        # s are one shot: SeedSequence(s, spawn_key=(m,)), then omega = mu +
        # sigma z, then a record of k samples at omega
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(5e-5, 1e-4),
                               runs=3, seed=seed, substeps=3)
        p = cfg.params
        k = max(harness.sde_sim.sample_indices(cfg.sweep_values, p.Delta))
        want = []
        for m in range(cfg.runs):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(m,)))
            omega = p.omega_bar + cfg.sigma_omega * rng.standard_normal()
            _, rec = harness.sde_sim.simulate(p, Constant(omega), k * p.Delta,
                                              substeps=3, seed=rng)
            want.append((omega, rec.outcomes.tobytes(), 3))
            got, rec = harness.sde_sim._mc_shot(p, p.omega_bar,
                                                cfg.sigma_omega, k, 3, seed, m)
            assert (got, rec.outcomes.tobytes(), 3) == want[-1]
        shots = _recorded_shots(monkeypatch)
        harness.bounds.bcrb_numeric_curve(
            p, harness.filters.default_prior(p, cfg.sigma_omega),
            cfg.sweep_values, cfg.runs, seed=seed, substeps=3)
        assert shots[:cfg.runs] == want
        del shots[:]
        run_error_vs_time(cfg)
        assert shots == want


class TestSeedBeyondFloatRange:
    """A seed is an Index however large: 10**400 draws like any other."""

    SEED = 10 ** 400

    def test_tracking_draws_shot_0(self):
        cfg = ExperimentConfig(duration=5e-4, substeps=3, seed=self.SEED)
        result = run_tracking(cfg)
        traj, rec = harness.sde_sim.simulate(
            cfg.params, cfg.true_signal, cfg.duration, substeps=3,
            seed=harness.sde_sim._stream(self.SEED, 0))
        assert result.truth_omega.tobytes() == traj.states[3::3, 0].tobytes()
        assert harness._shot(cfg)[1].outcomes.tobytes() == \
            rec.outcomes.tobytes()

    def test_sweep_bound_draws_from_seed_plus_1(self, monkeypatch):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(5e-5, 1e-4),
                               runs=2, seed=self.SEED, substeps=3,
                               bounds=("bcrb_numeric",), bound_samples=2)
        p = cfg.params
        k = max(harness.sde_sim.sample_indices(cfg.sweep_values, p.Delta))
        want = []
        for seed in (self.SEED, self.SEED + 1):
            for m in range(2):
                omega, rec = harness.sde_sim._mc_shot(
                    p, p.omega_bar, cfg.sigma_omega, k, 3, seed, m)
                want.append((omega, rec.outcomes.tobytes(), 3))
        shots = _recorded_shots(monkeypatch)
        curve = run_error_vs_time(cfg)
        assert shots == want
        assert np.all(np.isfinite(curve.bound["bcrb_numeric"]))


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

    @pytest.mark.parametrize("signal", [
        OrnsteinUhlenbeck(SpmParams().omega_bar, 1e-3, 1e9),
        Wiener(SpmParams().omega_bar, 1e9),
        Step(SpmParams().omega_bar,
             ((2e-4, SpmParams().omega_bar + TWO_PI * 300.0),)),
    ], ids=["ou", "wiener", "step"])
    def test_truth_is_its_own_array_of_the_shot(self, signal):
        cfg = ExperimentConfig(true_signal=signal, duration=5e-4, substeps=3,
                               seed=4)
        truth = run_tracking(cfg).truth_omega
        traj, _ = harness.sde_sim.simulate(
            cfg.params, signal, cfg.duration, substeps=cfg.substeps,
            seed=harness.sde_sim._stream(cfg.seed, 0))
        assert truth.base is None and truth.flags.c_contiguous
        want = traj.states[cfg.substeps::cfg.substeps, 0]
        assert truth.dtype == want.dtype and truth.shape == want.shape
        assert truth.tobytes() == want.tobytes()

    def test_substep_path_is_freed_before_the_filter_pass(self, monkeypatch):
        simulate, run_filter = (harness.sde_sim.simulate,
                                harness.filters.run_filter)
        refs, passes = [], []

        def kept_simulate(*args, **kwargs):
            traj, rec = simulate(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj, rec

        def checked_run_filter(cfg, rec):
            assert len(refs) == 1 and refs[0]() is None
            passes.append(cfg.kind)
            return run_filter(cfg, rec)

        monkeypatch.setattr(harness, "_shot_memo", {})
        monkeypatch.setattr(harness.sde_sim, "simulate", kept_simulate)
        monkeypatch.setattr(harness.filters, "run_filter", checked_run_filter)
        cfg = ExperimentConfig(
            true_signal=OrnsteinUhlenbeck(SpmParams().omega_bar, 1e-3, 1e9),
            duration=2e-4)
        assert len(run_tracking(cfg).truth_omega) == 40
        assert passes == ["ekf"]

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

    def test_error_curve_csv_rejects_ragged_series(self, tmp_path):
        # one RMS per axis point, never cut to the shorter length
        curve = ErrorCurve(
            "Delta", np.array([1e-6, 5e-6, 2e-5]),
            {"ekf": np.arange(6.0)}, {"ekf": np.arange(6.0)}, {})
        with pytest.raises(ValueError, match="zip"):
            curve.to_csv(tmp_path / "curve.csv")


def _counted_draws(monkeypatch) -> list:
    """Start from an empty shot memo and record each shot ``simulate``
    draws as the repr of its signal, in the list returned."""
    monkeypatch.setattr(harness, "_shot_memo", {})
    simulate, draws = harness.sde_sim.simulate, []

    def counted(p, s, *args, **kwargs):
        draws.append(repr(s))
        return simulate(p, s, *args, **kwargs)
    monkeypatch.setattr(harness.sde_sim, "simulate", counted)
    return draws


def _tracking_bytes(result) -> list:
    tr = result.trace
    return [a.tobytes() for a in (tr.mean, tr.cov, tr.innovation,
                                  tr.innovation_var, result.truth_omega)]


class TestShotMemo:
    CFG = ExperimentConfig(
        params=SpmParams(Delta=1e-6),
        true_signal=OrnsteinUhlenbeck(SpmParams().omega_bar, 1.0, 1e9),
        assumed_signal=OrnsteinUhlenbeck(SpmParams().omega_bar, 1.0, 1e9),
        duration=2e-4, substeps=4, seed=3)

    def test_both_filters_of_a_config_share_one_draw(self, monkeypatch):
        cold = {}
        for kind in ("ekf", "ckf"):
            monkeypatch.setattr(harness, "_shot_memo", {})
            cold[kind] = _tracking_bytes(run_tracking(
                replace(self.CFG, estimators=(kind,))))
        draws = _counted_draws(monkeypatch)
        for kind in ("ekf", "ckf"):
            result = run_tracking(replace(self.CFG, estimators=(kind,)))
            assert _tracking_bytes(result) == cold[kind]
        assert len(draws) == 1
        assert cold["ekf"][-1] == cold["ckf"][-1]  # one truth

    def test_a_change_to_what_draws_the_shot_draws_again(self, monkeypatch):
        base = self.CFG
        p = base.params
        omega_bar = p.omega_bar
        changed = [replace(base, seed=4), replace(base, substeps=5),
                   replace(base, duration=3e-4),
                   replace(base, true_signal=replace(base.true_signal,
                                                     d_c=2e9)),
                   replace(base, true_signal=Constant(omega_bar))]
        for f in fields(SpmParams):
            changed.append(replace(base, params=replace(
                p, **{f.name: 1.5 * getattr(p, f.name)})))
        # equal configs whose signals hold 0.0 and -0.0 draw apart
        pos, neg = (replace(base, true_signal=Sinusoid(omega_bar, a, 500.0))
                    for a in (0.0, -0.0))
        assert pos == neg
        draws = _counted_draws(monkeypatch)
        for first, cfg in [(base, c) for c in changed] + [(pos, neg)]:
            harness._shot_memo.clear()
            del draws[:]
            harness._shot(first)
            harness._shot(cfg)
            assert len(draws) == 2, cfg

    def test_a_change_to_what_reads_the_shot_does_not(self, monkeypatch):
        draws = _counted_draws(monkeypatch)
        for cfg in (self.CFG, replace(self.CFG, estimators=("ckf", "pem")),
                    replace(self.CFG, assumed_signal=None),
                    replace(self.CFG, sigma_omega=1.0),
                    replace(self.CFG, runs=7)):
            harness._shot(cfg)
        assert len(draws) == 1

    def test_one_shot_is_kept(self, monkeypatch):
        draws = _counted_draws(monkeypatch)
        other = replace(self.CFG, seed=4)
        for cfg in (self.CFG, other, self.CFG, self.CFG):
            harness._shot(cfg)
            assert len(harness._shot_memo) == 1
        assert len(draws) == 3

    def test_kept_arrays_are_read_only_and_not_the_results(self,
                                                           monkeypatch):
        monkeypatch.setattr(harness, "_shot_memo", {})
        truth, rec = harness._shot(self.CFG)
        assert not truth.flags.writeable
        assert not rec.outcomes.flags.writeable
        with pytest.raises(ValueError):
            truth[0] = 0.0
        result = run_tracking(self.CFG)
        assert harness._shot(self.CFG)[0] is truth
        assert result.truth_omega.flags.writeable
        assert not np.shares_memory(result.truth_omega, truth)
        assert not np.shares_memory(result.truth_omega, rec.outcomes)
        assert result.truth_omega.tobytes() == truth.tobytes()

    def test_a_failed_draw_keeps_nothing(self, monkeypatch):
        draws = _counted_draws(monkeypatch)
        harness._shot(self.CFG)
        failing = replace(self.CFG, seed=9)

        def blown(*args, **kwargs):
            draws.append("blown")
            raise IntegrationBlowupError("trajectory diverged")
        monkeypatch.setattr(harness.sde_sim, "simulate", blown)
        for _ in range(2):
            with pytest.raises(IntegrationBlowupError):
                run_tracking(failing)
            assert harness._shot_memo == {}
        assert draws[1:] == ["blown", "blown"]


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
        # 2 workers: runs 0, 2 here, run 1 and the bound in a child; 4:
        # every item in its own process
        for workers in (2, 4):
            _assert_same_curves(_sweep_on(monkeypatch, workers, run, cfg),
                                serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_task_i_runs_on_worker_i_mod_w(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "_cpus", lambda: workers)
        errors = {4: MapBoundaryError, 6: ValueError}

        def task(i):
            if i in errors:
                raise errors[i]((i, os.getpid()))
            return i, os.getpid()
        outcomes = harness._fan_out([partial(task, i) for i in range(7)])
        for i, exc in errors.items():
            assert type(outcomes[i]) is exc
        seen = [o.args[0] if isinstance(o, Exception) else o
                for o in outcomes]
        assert [i for i, _ in seen] == list(range(7))
        pids = [pid for _, pid in seen]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == workers
        assert pids == [pids[i % workers] for i in range(7)]
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
        # the MAP table of run 0 stays here: with one run the whole bound
        # goes to a child, with two a chunk of it runs here after run 0
        for runs in (1, 2):
            monkeypatch.setattr(harness.pem, "_gain_memo", {})
            cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                                   runs=runs, estimators=("pem",),
                                   bounds=("bcrb_numeric",), bound_samples=4)
            assert isinstance(_sweep_on(monkeypatch, 2, run_error_vs_time,
                                        cfg), ErrorCurve)
            assert len(harness.pem._gain_memo) == 1, runs

    @pytest.mark.parametrize("runs", [1, 2, 3, 5])
    @pytest.mark.parametrize("bound_samples", [2, 5])
    def test_bound_chunks_equal_the_serial_bound(self, monkeypatch, runs,
                                                 bound_samples):
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(5e-5, 1e-4),
                               runs=runs, seed=6, bounds=("bcrb_numeric",),
                               bound_samples=bound_samples)
        serial = _sweep_on(monkeypatch, 1, run_error_vs_time, cfg)
        assert isinstance(serial, ErrorCurve)
        for workers in (2, 3, 4):
            _assert_same_curves(_sweep_on(monkeypatch, workers,
                                          run_error_vs_time, cfg), serial)

    @pytest.mark.parametrize("runs", [1, 2, 3, 5])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_run_0_here_and_a_chunk_on_each_worker_a_task_short(
            self, monkeypatch, workers, runs):
        # the worker of each task, read off the process that ran it
        fan_out, placed = harness._fan_out, []

        def where(task):
            return os.getpid(), task()

        def spy(tasks):
            outcomes = fan_out([partial(where, task) for task in tasks])
            placed.append([(task.func, pid)
                           for task, (pid, _) in zip(tasks, outcomes)])
            return [outcome for _, outcome in outcomes]
        monkeypatch.setattr(harness, "_fan_out", spy)
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=runs, bounds=("bcrb_numeric",),
                               bound_samples=5)
        assert isinstance(_sweep_on(monkeypatch, workers, run_error_vs_time,
                                    cfg), ErrorCurve)
        (tasks,) = placed
        funcs, pids = zip(*tasks)
        assert funcs[:runs] == (harness._single_run_errors,) * runs
        assert set(funcs[runs:]) == {harness.bounds._squared_scores}
        assert pids[0] == os.getpid()
        assert len(set(pids)) == workers
        run_pids = pids[:runs]
        short = [pid for pid in set(pids)
                 if run_pids.count(pid) == runs // workers]
        assert sorted(pids[runs:]) == sorted(short)

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
        # the bound's last sample fails: with 2 or 4 workers it lies in a
        # chunk other than the first
        cfg = ExperimentConfig(sweep_axis="time", sweep_values=(1e-4,),
                               runs=2, estimators=("pem",), bound_samples=4,
                               bounds=("bcrb_numeric", "floor"))
        _fail_runs(monkeypatch, cfg, failed_runs)
        shot = harness.sde_sim._mc_shot

        def last_sample_fails(*args):
            if args[-2:] == (cfg.seed + 1, cfg.bound_samples - 1):
                raise NumericalDegeneracyError("bound broke")
            return shot(*args)
        monkeypatch.setattr(harness.sde_sim, "_mc_shot", last_sample_fails)
        serial = _sweep_on(monkeypatch, 1, run_error_vs_time, cfg)
        expected = (ExclusionLimitError if failed_runs
                    else NumericalDegeneracyError)
        assert type(serial) is expected
        for workers in (2, 3, 4):
            _assert_same_error(_sweep_on(monkeypatch, workers,
                                         run_error_vs_time, cfg), serial)

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

    def test_no_drawer_thread_is_alive_at_a_fork(self, monkeypatch):
        # the noise drawer's worker, used here by a diffusing shot and the
        # atom sampler, and in each task by a diffusing shot, is joined by
        # then: every fork finds the threads there were before
        p = SpmParams()
        signal = OrnsteinUhlenbeck(p.omega_bar, 0.3, 1e9)
        duration = 2 * harness.sde_sim._BLOCK * p.Delta  # two blocks

        def task(seed):
            return harness.sde_sim.simulate(p, signal, duration, substeps=1,
                                            seed=seed)[1].outcomes.tobytes()
        tasks = [partial(task, seed) for seed in range(3)]
        before = threading.enumerate()
        task(9)
        atoms.sample_steady_state_outcomes(p, p.omega_bar, 50_000)
        forks = []
        fork = os.fork

        def spy():
            # checked before the fork: a child that needs a thread the fork
            # did not copy may never finish
            assert threading.enumerate() == before
            forks.append(None)
            return fork()
        monkeypatch.setattr(harness.os, "fork", spy)
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        assert harness._fan_out(tasks) == [t() for t in tasks]
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cpus_is_the_affinity_mask(self, monkeypatch):
        assert harness._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "fork")
        assert harness._cpus() == 1
