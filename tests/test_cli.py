import csv
import inspect
import json
import math
import subprocess
from pathlib import Path

import pytest

from spinfid import cli, harness
from spinfid.errors import NumericalDegeneracyError
from spinfid.harness import ExperimentConfig

TWO_PI = 2.0 * math.pi


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    return cli.main([*argv, "--out", str(out)]), out


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code, _ = _run(tmp_path, "simulate", "--config",
                       str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = _run(tmp_path, "simulate", "--config", str(path))
        assert code == 2

    def test_invalid_config_values(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"runs": 0})
        code, _ = _run(tmp_path, "simulate", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("command, payload", [
        ("estimate", {"duration": math.nan}),
        ("estimate", {"duration": math.inf}),
        ("sweep-time", {"sweep_axis": "time", "sweep_values": [math.inf]}),
        ("estimate", {"params": {"q": math.nan}}),
        ("estimate", {"sigma_omega": math.inf}),
    ])
    def test_nonfinite_numbers(self, tmp_path, capsys, command, payload):
        cfg = _write_cfg(tmp_path, payload)  # json writes NaN and Infinity
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    @pytest.mark.parametrize("command, payload", [
        ("simulate", {"true_signal": {"kind": "constant",
                                      "omega0": math.nan}}),
        ("track", {"true_signal": {"kind": "ou", "omega_bar": TWO_PI * 1e4,
                                   "tau": 1.0, "d_c": math.nan},
                   "duration": 1e-4}),
        ("simulate", {"true_signal": {"kind": "step", "omega_bar": 1.0,
                                      "jumps": [[math.nan, 1.0]]}}),
        ("track", {"assumed_signal": {"kind": "wiener", "omega0": math.nan,
                                      "d_c": 1e7}, "duration": 1e-4}),
    ], ids=["constant omega0", "ou d_c", "step jump time", "wiener omega0"])
    def test_nonfinite_signal_fields(self, tmp_path, capsys, command, payload):
        # a configuration error, not a diverged run or a silent one
        cfg = _write_cfg(tmp_path, payload)
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    @pytest.mark.parametrize("command", ["sweep-time", "estimate", "track"])
    @pytest.mark.parametrize("payload", [
        {"sigma_omega": 1e300}, {"params": {"N": 1e200}}],
        ids=["sigma_omega", "N"])
    def test_prior_variance_beyond_float_range(self, tmp_path, capsys,
                                               command, payload):
        # a configuration error, not a numerical failure (exit 3)
        cfg = _write_cfg(tmp_path, {**payload, "duration": 1e-4,
                                    "sweep_axis": "time",
                                    "sweep_values": [1e-4]})
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        assert "prior variances" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    @pytest.mark.parametrize("command, payload", [
        ("estimate", {}),
        ("sweep-time", {"estimators": ["pem"]}),
        ("sweep-time", {"estimators": ["ekf"], "bounds": ["bcrb_numeric"]}),
    ], ids=["estimate", "sweep pem", "sweep bcrb_numeric"])
    def test_prior_spread_beyond_the_complex_step(self, tmp_path, capsys,
                                                  command, payload):
        # the score's complex step 1e-20 sigma = 1e10 rad/s overflows the
        # rotation's cosine: once "numerical failure: math range error"
        cfg = _write_cfg(tmp_path, {**payload, "sigma_omega": 1e30,
                                    "duration": 1e-4, "runs": 1,
                                    "sweep_axis": "time",
                                    "sweep_values": [1e-4]})
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        assert ("configuration error: the rotation at omega = "
                in capsys.readouterr().err)
        assert not (out / f"{command}.csv").exists()

    @pytest.mark.parametrize("command, payload", [
        ("simulate", {"duration": 1e300}),
        ("sweep-time", {"sweep_axis": "time", "sweep_values": [1e16],
                        "bounds": ["crb"], "runs": 1}),
    ], ids=["simulate", "sweep-time"])
    def test_sample_count_beyond_the_index_range(self, tmp_path, capsys,
                                                 command, payload):
        # once a traceback and exit 1 (numpy's bare ValueError)
        cfg = _write_cfg(tmp_path, payload)
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        assert "the most an array can index" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_path_beyond_the_index_range(self, tmp_path, capsys, command):
        # 2e18 substeps, within np.intp, whose path of (n + 1) x 3 doubles
        # is not: once a traceback and exit 1 (numpy's bare ValueError
        # "array is too big"); refused before anything is allocated
        cfg = _write_cfg(tmp_path, {"duration": 1e13, "substeps": 1})
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: simulate duration ")
        assert "the most an array can index" in err
        assert not (out / f"{command}.csv").exists()

    def test_analytic_bound_beyond_the_physical_range(self, tmp_path,
                                                       capsys):
        # a spread that puts the Hermite nodes beyond any Larmor frequency:
        # a configuration error, not a numerical failure (exit 3)
        cfg = _write_cfg(tmp_path, {
            "sigma_omega": 2 ** 64, "duration": 1e-4, "runs": 1,
            "bounds": ["bcrb_analytic"], "sweep_axis": "time",
            "sweep_values": [1e-5]})
        code, out = _run(tmp_path, "sweep-time", "--config", cfg)
        assert code == 2
        assert ("configuration error: fi_noiseless_continuous omega = "
                in capsys.readouterr().err)
        assert not (out / "sweep-time.csv").exists()

    def test_analytic_bound_at_a_wide_spread(self, tmp_path, capsys):
        # nodes within the physical range whose oscillation over t an
        # adaptive quadrature could not resolve (it exited 3): a finite bound
        cfg = _write_cfg(tmp_path, {
            "sigma_omega": 1e9, "duration": 1e-4, "runs": 1,
            "bounds": ["bcrb_analytic"], "sweep_axis": "time",
            "sweep_values": [1e-4]})
        code, out = _run(tmp_path, "sweep-time", "--config", cfg)
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(
            (out / "sweep-time.csv").read_text().splitlines()))
        assert len(rows) == 1
        assert 0.0 < float(rows[0]["bcrb_analytic"]) < 1e9

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("substeps", [0, -3])
    def test_substeps_below_one(self, tmp_path, capsys, command, substeps):
        # every subcommand, not only the ones that integrate, rejects it
        cfg = _write_cfg(tmp_path, {"substeps": substeps, "duration": 1e-4})
        code, out = _run(tmp_path, command, "--config", cfg)
        assert code == 2
        assert "substeps must be >= 1" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    def test_removed_spin_cov_scale_key(self, tmp_path):
        # the spin prior's scale is no longer a config field
        cfg = _write_cfg(tmp_path, {"spin_cov_scale": 0.01})
        code, out = _run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert not (out / "simulate.csv").exists()

    # numpy would stop either one mid-run with a bare ValueError
    def test_negative_seed_override(self, tmp_path):
        code, out = _run(tmp_path, "simulate", "--seed", "-1")
        assert code == 2
        assert not (out / "simulate.csv").exists()

    def test_negative_seed_in_config(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"seed": -1})
        code, out = _run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert not (out / "simulate.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_outcomes(self, tmp_path):
        # g_D * J_z overflows, so the record would hold inf samples
        cfg = _write_cfg(tmp_path, {"params": {"g_D": 1e300},
                                    "duration": 1e-4})
        code, out = _run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert not (out / "simulate.csv").exists()

    def test_numerical_failure(self, tmp_path):
        # truth far outside a very narrow prior drives the MAP search into
        # the bracket edge
        cfg = _write_cfg(tmp_path, {
            "true_signal": {"kind": "constant",
                            "omega0": TWO_PI * 1e4 + 8000.0},
            "sigma_omega": 100.0,
            "duration": 1e-3,
        })
        code, out = _run(tmp_path, "estimate", "--config", cfg)
        assert code == 3
        assert not (out / "manifest.json").exists()

    def test_sweep_with_every_run_failed(self, tmp_path, monkeypatch):
        # the sweep excludes each failed run, then stops at the exclusion
        # cap with a typed error
        def boom(*args, **kwargs):
            raise NumericalDegeneracyError("forced failure")
        monkeypatch.setattr(harness.filters, "omega_at", boom)
        cfg = _write_cfg(tmp_path, {"sweep_axis": "time",
                                    "sweep_values": [1e-4], "runs": 3})
        code, out = _run(tmp_path, "sweep-time", "--config", cfg)
        assert code == 3
        assert not (out / "sweep-time.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("payload", [
        {"bound_samples": 1},
        {"bound_samples": 1, "bounds": ["bcrb_numeric"]},
    ])
    def test_bcrb_needs_two_samples(self, tmp_path, payload):
        cfg = _write_cfg(tmp_path, {"duration": 1e-4, **payload})
        code, out = _run(tmp_path, "bcrb", "--config", cfg)
        assert code == 2
        assert not (out / "bcrb.csv").exists()

    def test_bound_time_between_samples(self, tmp_path):
        # 1 us rounds to no sample at the default Delta = 5 us
        cfg = _write_cfg(tmp_path, {"sweep_axis": "time",
                                    "sweep_values": [1e-6, 1e-4],
                                    "bound_samples": 2})
        code, out = _run(tmp_path, "bcrb", "--config", cfg)
        assert code == 2
        assert not (out / "bcrb.csv").exists()

    @pytest.mark.parametrize("payload", [
        {"runs": "3"},
        {"params": {"N": "1e12"}},
        {"true_signal": {"kind": "constant"}},
        {"estimators": "ekf"},
        {"true_signal": {"kind": "step", "omega_bar": 1.0,
                         "jumps": [[0.5, "2.0"]]}},
        {"sweep_axis": "time", "sweep_values": [True, 1e-4]},
    ], ids=["string run count", "string parameter", "signal missing a field",
            "string estimators", "string step jump", "bool sweep value"])
    def test_mistyped_config(self, tmp_path, payload):
        cfg = _write_cfg(tmp_path, payload)
        code, out = _run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert not (out / "simulate.csv").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("payload", [
        {"estimators": ["ekf", "ekf"]},
        {"bounds": ["floor", "floor"]},
    ])
    def test_repeated_names(self, tmp_path, capsys, payload):
        # a repeated estimator once gave two RMS values per grid point,
        # which the CSV then wrote one row off
        cfg = _write_cfg(tmp_path, {"sweep_axis": "sampling",
                                    "sweep_values": [1e-6, 5e-6, 2e-5],
                                    "duration": 1e-4, **payload})
        code, out = _run(tmp_path, "sweep-delta", "--config", cfg)
        assert code == 2
        assert "named twice" in capsys.readouterr().err
        assert not (out / "sweep-delta.csv").exists()

    def test_track_without_a_filter(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"estimators": ["pem"], "duration": 1e-4})
        code, out = _run(tmp_path, "track", "--config", cfg)
        assert code == 2
        assert not (out / "track.csv").exists()

    def test_atoms_record_below_two_samples(self, tmp_path):
        # 1 ns is no sample at the default Delta = 5 us, 6 us is one
        for duration, code_wanted in ((1e-9, 2), (6e-6, 2), (1e-5, 0)):
            cfg = _write_cfg(tmp_path, {"duration": duration, "runs": 1})
            code, out = _run(tmp_path, "atoms", "--config", cfg)
            assert code == code_wanted
            assert (out / "atoms.csv").exists() == (code_wanted == 0)

    def test_atoms_names_the_sample_count(self, tmp_path, capsys):
        # 6 us holds one sample at the default Delta = 5 us
        cfg = _write_cfg(tmp_path, {"duration": 6e-6, "runs": 1})
        code, _ = _run(tmp_path, "atoms", "--config", cfg)
        assert code == 2
        assert ("atoms sample count of duration 6e-06 at Delta 5e-06 must "
                "be >= 2, got 1") in capsys.readouterr().err

    def test_atoms_at_q_zero(self, tmp_path, capsys):
        # the variance holds no N: once exit 3, "float division by zero"
        cfg = _write_cfg(tmp_path, {"params": {"q": 0.0}, "duration": 1e-4,
                                    "runs": 1})
        code, out = _run(tmp_path, "atoms", "--config", cfg)
        assert code == 2
        assert "atom counting needs q > 0" in capsys.readouterr().err
        assert not (out / "atoms.csv").exists()

    def test_success_writes_manifest(self, tmp_path):
        code, out = _run(tmp_path, "simulate", "--seed", "4")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 4
        assert "git_revision" in manifest
        assert manifest["wall_time_s"] >= 0.0
        assert ExperimentConfig.from_dict(manifest["config"]) == \
            ExperimentConfig(seed=4)


    def test_seed_beyond_float_range(self, tmp_path):
        # every digit reaches the manifest, whose config redraws the shot
        seed = 10 ** 400
        code, first = _run(tmp_path / "a", "simulate", "--seed", str(seed))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["seed"] == seed
        path = tmp_path / "manifest_config.json"
        path.write_text(json.dumps(manifest["config"], allow_nan=False))
        code, second = _run(tmp_path / "b", "simulate", "--config", str(path))
        assert code == 0
        assert (second / "simulate.csv").read_bytes() == \
            (first / "simulate.csv").read_bytes()


def _git(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], cwd=cwd, capture_output=True, text=True)


@pytest.fixture
def other_repo(tmp_path):
    """A git repository with one commit, unrelated to the package's."""
    repo = tmp_path / "other"
    repo.mkdir()
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "x"]):
        assert _git(repo, *args).returncode == 0
    return repo


class TestGitRevision:
    def test_names_the_package_checkout_not_the_working_directory(
            self, other_repo, monkeypatch):
        source = Path(cli.__file__).resolve()
        tracked = _git(source.parent, "ls-files", "--error-unmatch",
                       source.name).returncode == 0
        want = (_git(source.parent, "rev-parse", "HEAD").stdout.strip()
                if tracked else "unknown")
        monkeypatch.chdir(other_repo)
        code, out = _run(other_repo, "simulate", "--config", _write_cfg(
            other_repo, {"duration": 1e-4}))
        assert code == 0
        got = json.loads((out / "manifest.json").read_text())["git_revision"]
        assert got == want
        assert got != _git(other_repo, "rev-parse", "HEAD").stdout.strip()

    def test_untracked_source_is_unknown(self, other_repo, monkeypatch):
        # a copy of the source that its directory's checkout does not track
        monkeypatch.setattr(cli, "__file__", str(other_repo / "cli.py"))
        assert cli._git_revision() == "unknown"


# one small config per subcommand
ROUND_TRIP = {
    "simulate": {"true_signal": {"kind": "step", "omega_bar": TWO_PI * 1e4,
                                 "jumps": [[1e-4, TWO_PI * 1e4 + 300.0]]},
                 "duration": 3e-4},
    "estimate": {"duration": 5e-4, "params": {"N": 1e12, "T2_override": None}},
    "bcrb": {"duration": 1e-4, "bound_samples": 3},
    "sweep-time": {"sweep_axis": "time", "sweep_values": [2e-4, 1e-4],
                   "runs": 2, "estimators": ["ekf", "pem"],
                   "bounds": ["floor", "crb"],
                   "assumed_signal": {"kind": "wiener", "omega0": TWO_PI * 1e4,
                                      "d_c": 10.0}},
    "sweep-n": {"sweep_axis": "atoms", "sweep_values": [1e11, 1e12],
                "duration": 1e-4, "runs": 2},
    "sweep-delta": {"sweep_axis": "sampling", "sweep_values": [1e-5, 5e-6],
                    "duration": 1e-4, "runs": 2, "substeps": 3},
    "track": {"true_signal": {"kind": "ou", "omega_bar": TWO_PI * 1e4,
                              "tau": 1.0, "d_c": 1e7},
              "assumed_signal": {"kind": "ou", "omega_bar": TWO_PI * 1e4,
                                 "tau": 1.0, "d_c": 1e7},
              "estimators": ["ckf"], "duration": 2e-4},
    "atoms": {"duration": 1e-3, "runs": 2,
              "true_signal": {"kind": "sinusoid", "omega_bar": 1.0,
                              "amplitude": 2.0, "mod_freq": 3.0}},
}


class TestManifestRoundTrip:
    @pytest.mark.parametrize("command", list(ROUND_TRIP))
    def test_manifest_config_reproduces_the_run(self, tmp_path, command):
        # the overrides land in the manifest's config too
        code, first = _run(tmp_path / "a", command, "--config",
                           _write_cfg(tmp_path, ROUND_TRIP[command]),
                           "--seed", "3", "--runs", "2")
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        path = tmp_path / "manifest_config.json"
        path.write_text(json.dumps(manifest["config"], allow_nan=False))
        code, second = _run(tmp_path / "b", command, "--config", str(path))
        assert code == 0
        assert (second / f"{command}.csv").read_bytes() == \
            (first / f"{command}.csv").read_bytes()
        again = json.loads((second / "manifest.json").read_text())
        assert again["config"] == manifest["config"]
        assert manifest["config"]["seed"] == 3


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"duration": 5e-4})
        code1, out1 = cli.main(["simulate", "--config", cfg, "--out",
                                str(tmp_path / "a")]), tmp_path / "a"
        code2, out2 = cli.main(["simulate", "--config", cfg, "--out",
                                str(tmp_path / "b")]), tmp_path / "b"
        assert code1 == code2 == 0
        assert (out1 / "simulate.csv").read_bytes() == \
            (out2 / "simulate.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cli.main(["simulate", "--seed", "1", "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "simulate.csv").read_bytes() != \
            (tmp_path / "b" / "simulate.csv").read_bytes()


class TestSubcommands:
    def test_simulate_output_shape(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"duration": 1e-4})
        code, out = _run(tmp_path, "simulate", "--config", cfg)
        assert code == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 21

    def test_estimate(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "true_signal": {"kind": "constant", "omega0": TWO_PI * 1e4 + 500.0},
            "duration": 1e-3,
        })
        code, out = _run(tmp_path, "estimate", "--config", cfg)
        assert code == 0
        lines = (out / "estimate.csv").read_text().splitlines()
        assert lines[0] == "omega_hat,neg_log_joint_per_sample"
        omega_hat = float(lines[1].split(",")[0])
        assert omega_hat == pytest.approx(TWO_PI * 1e4 + 500.0, abs=5.0)

    def test_bcrb(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "duration": 1e-4,
            "bound_samples": 5,
        })
        code, out = _run(tmp_path, "bcrb", "--config", cfg)
        assert code == 0
        lines = (out / "bcrb.csv").read_text().splitlines()
        assert lines[0] == "t,bound,stderr,kind"
        assert lines[1].endswith("bcrb_numeric")

    def test_sweep_time(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "sweep_axis": "time",
            "sweep_values": [1e-4, 2e-4],
            "runs": 3,
            "estimators": ["ekf"],
            "bounds": ["floor"],
        })
        code, out = _run(tmp_path, "sweep-time", "--config", cfg)
        assert code == 0
        lines = (out / "sweep-time.csv").read_text().splitlines()
        assert lines[0] == "t,rmse_ekf,stderr_ekf,floor"
        assert len(lines) == 3

    def test_sweep_n(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "sweep_axis": "atoms",
            "sweep_values": [1e11, 1e12],
            "duration": 1e-4,
            "runs": 3,
            "estimators": ["ekf"],
        })
        code, out = _run(tmp_path, "sweep-n", "--config", cfg)
        assert code == 0
        lines = (out / "sweep-n.csv").read_text().splitlines()
        assert lines[0] == "N,rmse_ekf,stderr_ekf"
        assert len(lines) == 3

    def test_sweep_delta(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "sweep_axis": "sampling",
            "sweep_values": [5e-6, 1e-5],
            "duration": 2e-4,
            "runs": 3,
            "estimators": ["ekf"],
        })
        code, out = _run(tmp_path, "sweep-delta", "--config", cfg)
        assert code == 0
        lines = (out / "sweep-delta.csv").read_text().splitlines()
        assert lines[0] == "Delta,rmse_ekf,stderr_ekf"
        assert len(lines) == 3

    def test_track(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "true_signal": {"kind": "wiener", "omega0": TWO_PI * 1e4,
                            "d_c": 1e7},
            "assumed_signal": {"kind": "wiener", "omega0": TWO_PI * 1e4,
                               "d_c": 1e7},
            "duration": 5e-4,
        })
        code, out = _run(tmp_path, "track", "--config", cfg)
        assert code == 0
        lines = (out / "track.csv").read_text().splitlines()
        assert lines[0] == "k,t,omega_true,omega_hat,sigma_omega_pred,innovation,S,nis"
        assert len(lines) == 101

    def test_atoms(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"duration": 5e-2, "runs": 2})
        code, out = _run(tmp_path, "atoms", "--config", cfg)
        assert code == 0
        lines = (out / "atoms.csv").read_text().splitlines()
        assert lines[0] == "run,n_hat,sigma_n,k,degenerate"
        assert len(lines) == 3

    def test_runs_override(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"duration": 5e-2, "runs": 1})
        code, out = _run(tmp_path, "atoms", "--config", cfg, "--runs", "3")
        assert code == 0
        lines = (out / "atoms.csv").read_text().splitlines()
        assert len(lines) == 4


class TestPublicSurface:
    # a deletion or rename must not silently drop a public name
    def test_package_all(self):
        import spinfid
        assert sorted(spinfid.__all__) == [
            "AtomCountEstimate", "BoundResult", "Constant", "ErrorCurve",
            "ExclusionLimitError", "ExperimentConfig", "FilterConfig", "FilterTrace",
            "GaussianPrior", "IntegrationBlowupError",
            "InvalidParametersError", "MapBoundaryError", "MeasurementRecord",
            "NumericalDegeneracyError", "OrnsteinUhlenbeck", "Sinusoid",
            "SpinFidError", "SpmParams", "Step", "TrackingResult",
            "Trajectory", "Wiener", "__version__", "atomic_noise_strength",
            "bcrb_analytic_gaussian_prior", "bcrb_numeric",
            "bcrb_numeric_curve", "coherence_time", "default_prior",
            "estimate_atom_number", "fi_asymptotic", "fi_no_decoherence",
            "fi_noiseless_continuous", "fi_noiseless_discrete",
            "fi_short_time", "kalman_neg_log_joint", "map_estimate",
            "neg_log_joint_grid", "noiseless_bcrb_floor", "run_error_vs_N",
            "run_error_vs_delta", "run_error_vs_time", "run_filter",
            "run_tracking", "signal_from_dict", "simulate",
            "steady_state_variance"]
        assert all(hasattr(spinfid, name) for name in spinfid.__all__)

    def test_parameter_names(self):
        # every option of the public callables; an exception class takes
        # Exception's arguments
        import spinfid
        signatures = {
            name: list(inspect.signature(obj).parameters)
            for name in spinfid.__all__
            for obj in [getattr(spinfid, name)]
            if callable(obj) and not (isinstance(obj, type)
                                      and issubclass(obj, BaseException))}
        assert signatures == {
            "AtomCountEstimate": ["n_hat", "sigma_n", "k_used", "degenerate"],
            "BoundResult": ["value", "mc_std_err", "meta"],
            "Constant": ["omega0"],
            "ErrorCurve": ["axis_name", "axis", "rmse", "rmse_stderr",
                           "bound", "bound_stderr", "excluded_runs"],
            "ExperimentConfig": [
                "params", "true_signal", "assumed_signal", "sigma_omega",
                "duration", "substeps", "runs", "seed", "estimators",
                "bounds", "bound_samples", "sweep_axis", "sweep_values"],
            "FilterConfig": ["kind", "signal", "prior", "params"],
            "FilterTrace": ["times", "mean", "cov", "innovation",
                            "innovation_var"],
            "GaussianPrior": ["mean", "cov"],
            "MeasurementRecord": ["delta", "outcomes"],
            "OrnsteinUhlenbeck": ["omega_bar", "tau", "d_c", "omega_start"],
            "Sinusoid": ["omega_bar", "amplitude", "mod_freq"],
            "SpmParams": ["omega_bar", "g_D", "R", "N", "q", "Gamma", "alpha",
                          "Delta", "T2_override"],
            "Step": ["omega_bar", "jumps"],
            "TrackingResult": ["trace", "truth_omega"],
            "Trajectory": ["times", "states"],
            "Wiener": ["omega0", "d_c"],
            "atomic_noise_strength": ["p"],
            "bcrb_analytic_gaussian_prior": ["p", "sigma_omega", "t"],
            "bcrb_numeric": ["p", "prior", "t", "n_samples", "seed",
                             "substeps"],
            "bcrb_numeric_curve": ["p", "prior", "times", "n_samples", "seed",
                                   "substeps"],
            "coherence_time": ["p"],
            "default_prior": ["p", "sigma_omega"],
            "estimate_atom_number": ["samples", "p"],
            "fi_asymptotic": ["omega", "p"],
            "fi_no_decoherence": ["omega", "t", "p"],
            "fi_noiseless_continuous": ["omega", "t", "p"],
            "fi_noiseless_discrete": ["omega", "t", "p"],
            "fi_short_time": ["omega", "t", "p"],
            "kalman_neg_log_joint": ["omega", "rec", "p", "prior"],
            "map_estimate": ["rec", "p", "prior"],
            "neg_log_joint_grid": ["omegas", "rec", "p", "prior"],
            "noiseless_bcrb_floor": ["p", "sigma_omega"],
            "run_error_vs_N": ["cfg"],
            "run_error_vs_delta": ["cfg"],
            "run_error_vs_time": ["cfg"],
            "run_filter": ["cfg", "rec"],
            "run_tracking": ["cfg"],
            "signal_from_dict": ["d"],
            "simulate": ["p", "s", "duration", "substeps", "seed"],
            "steady_state_variance": ["samples"],
        }

    def test_cli_subcommands(self):
        assert list(cli._COMMANDS) == [
            "simulate", "estimate", "bcrb", "sweep-time", "sweep-n",
            "sweep-delta", "track", "atoms"]
