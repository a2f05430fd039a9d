"""Outputs at fixed seeds, pinned bit for bit to digests recorded before the
order-1.5 step, the damped-rotation AR(1) and the sweep loops were each
merged into one implementation.  The tracking cases and the CLI files were
recorded before the filter's step model moved onto its config and the CSV
writers were merged into one.

The outputs that run a filter were re-recorded when the filter step moved
from 3x3 numpy arrays to unrolled Python floats, which rounds differently.
The matrix-form filter is kept as ``filter_reference``; run in its place it
still reproduces the digests recorded before, and ``test_filters`` bounds
the distance between the two paths.

The outputs whose truth has a per-step pole (OU, Wiener, Sinusoid and Step
signals) were re-recorded when every ``simulate`` path moved onto one
vectorised recurrence, which rounds differently from the per-substep loops.
The loops are kept as ``sim_reference``; run in their place they still
reproduce every digest recorded before, and ``test_sde`` bounds the distance
between the two paths.

The outputs that fit a MAP estimate or evaluate the Monte-Carlo bound were
re-recorded when both moved from a golden-section search and a
central-difference score to the exact score by complex step.  The old pair
is kept as ``pem_reference``; run in place of the new code it still
reproduces the digests recorded before, and ``test_pem`` bounds the distance
between the two.

The outputs that run the CKF were re-recorded when its six-point cubature
prediction was evaluated in closed form on three rotations, which rounds
differently.  The six-point rule is kept in ``filter_reference``; run in
place of the closed form it still reproduces the digests recorded before,
and ``test_filters`` bounds the distance between the two.  The loop-simulator
and golden-section oracles run with it, so that each oracle still
reproduces every digest recorded before its own change.

The outputs that fit a MAP estimate were re-recorded when the fit moved from
Brent's method on the score, followed by a float pass for J, to Fisher
scoring that reads J from its last complex pass.  Brent's fit is kept as
``pem_reference.brent_map_estimates``; run in place of the new fit it still
reproduces the digests recorded before, and ``test_pem`` bounds the distance
between the two.  The matrix-filter, six-point and loop-simulator oracles run
with it, so that each of them still reproduces every digest recorded before
its own change.

Every output that simulates was re-recorded when ``model.damped_rotation``
solved its constant-pole recurrence in numpy, chunk by chunk, in place of
scipy's linear filter, which rounds differently.  The filter is kept as
``sim_reference.lfilter_recurrence``; run in place of the numpy solve it
still reproduces the digests recorded before, and ``test_sde`` bounds the
distance between the two.  The new digests, and the bit-identical prefixes
and blocks that the numpy solve gives, were checked with numpy 2.4 on an
AVX-512 x86-64 CPU; the prefix tests in ``test_sde`` and ``test_atoms`` fail
loudly if another numpy build rounds a sample by its place in the array.
Every other oracle runs with it, so that each of them still reproduces every
digest recorded before its own change.

The outputs that fit a MAP estimate were re-recorded when Fisher scoring
moved its start from the grid minimum to the vertex of the parabola through
the grid minimum and its two neighbours.  The grid-point start is kept as
``pem_reference.grid_start_map_estimates``; run in place of the new fit, with
the numpy solve or with scipy's linear filter, it still reproduces the
digests recorded before, and ``test_pem`` bounds the distance between the
two.

The outputs that evaluate the analytic bound were re-recorded when the
continuous Fisher information moved from adaptive quadrature to its closed
form and the bound's Hermite nodes from scipy to numpy, which round
differently.  The quadrature pair is kept as ``bounds_reference``; run in
place of the closed form it still reproduces the digests recorded before,
and ``test_bounds`` bounds the distance between the two.  Every other oracle
runs with it, so that each of them still reproduces every digest recorded
before its own change.  The CLI files, written to ten digits, did not move.

The sweeps read each filter at its probing indices through
``filters.omega_at``, which builds no trace.  The matrix-filter and
six-point fixtures replace it with their oracle's whole pass read at the
same indices, so every sweep still runs on the oracle filter.

A digest is the leading 16 hex digits of the SHA-256 of the outputs' float64
bytes, or of a CLI output file's bytes.  They were recorded with numpy 2.4
and scipy 1.17 on x86-64 Linux; a different libm or BLAS build may
legitimately change the last bits.
"""

import hashlib
import json

import numpy as np
import pytest

import bounds_reference
import filter_reference as reference
import pem_reference
import sim_reference
from spinfid import atoms, bounds, cli, filters, harness, model, pem, sde_sim
from spinfid.harness import ExperimentConfig
from spinfid.model import (Constant, OrnsteinUhlenbeck, Sinusoid, SpmParams,
                           Step, Wiener)

P = SpmParams()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _simulate(p, s, duration, substeps, seed):
    traj, rec = sde_sim.simulate(p, s, duration, substeps=substeps, seed=seed)
    return [traj.times, traj.states, rec.outcomes]


def _constant(n):
    p = SpmParams(N=n)
    return [a for sub in (1, 5, 50)
            for a in _simulate(p, Constant(p.omega_bar * 1.01), 2e-4, sub,
                               seed=sub)]


def _curve(c):
    out = [c.axis, np.array([c.excluded_runs])]
    for group in (c.rmse, c.rmse_stderr, c.bound, c.bound_stderr):
        out += [np.asarray(group[k]) for k in sorted(group)]
    return out


def _track(kind):
    # the track_ou benchmark config at d_c = 1e9, cut to 1 ms
    p = SpmParams(Delta=1e-6)
    s = OrnsteinUhlenbeck(p.omega_bar, 1.0, 1e9)
    result = harness.run_tracking(ExperimentConfig(
        params=p, true_signal=s, assumed_signal=s, estimators=(kind,),
        duration=1e-3, substeps=8, seed=0))
    tr = result.trace
    return [tr.mean, tr.cov, tr.innovation, tr.innovation_var,
            result.truth_omega]


CASES = {
    "simulate constant N=1e9": lambda: _constant(1e9),
    "simulate constant N=4.4e11": lambda: _constant(4.4e11),
    "simulate constant N=1e13": lambda: _constant(1e13),
    # recorded as Constant(1.0) started at omega = 5 by the former
    # ``omega_init`` argument; the start frequency is now the signal's own
    "simulate constant omega_init": lambda: _simulate(
        P, Constant(5.0), 1e-4, 5, seed=3),
    "simulate ou": lambda: _simulate(
        SpmParams(Delta=1e-6), OrnsteinUhlenbeck(P.omega_bar, 1.0, 1e9),
        1e-3, 8, seed=11),
    "simulate ou omega_start": lambda: _simulate(
        P, OrnsteinUhlenbeck(P.omega_bar, 0.3, 1e7,
                             omega_start=P.omega_bar + 50.0), 3e-4, 1, seed=7),
    "simulate wiener": lambda: _simulate(
        P, Wiener(P.omega_bar, 1e8), 3e-4, 8, seed=7),
    "simulate sinusoid": lambda: _simulate(
        P, Sinusoid(P.omega_bar, 2e3, 500.0), 3e-4, 8, seed=7),
    "simulate step": lambda: _simulate(
        P, Step(P.omega_bar, ((1e-4, P.omega_bar + 300.0),)), 3e-4, 8, seed=7),
    "sweep time": lambda: _curve(harness.run_error_vs_time(ExperimentConfig(
        sweep_axis="time", sweep_values=(1e-4, 5e-5, 2e-4), runs=3,
        estimators=("ekf", "pem"),
        bounds=("bcrb_numeric", "bcrb_analytic", "crb", "floor"),
        bound_samples=5, seed=4))),
    "sweep time 13 runs": lambda: _curve(harness.run_error_vs_time(
        ExperimentConfig(sweep_axis="time", sweep_values=(5e-5, 1e-4, 1.5e-4),
                         runs=13, estimators=("ekf", "ckf"), seed=5))),
    "sweep N": lambda: _curve(harness.run_error_vs_N(ExperimentConfig(
        params=SpmParams(T2_override=None), sweep_axis="atoms",
        sweep_values=(4e11, 1e11), duration=1e-4, runs=11,
        estimators=("ekf", "pem"),
        bounds=("bcrb_numeric", "bcrb_analytic", "crb", "floor"),
        bound_samples=4, seed=2))),
    "sweep delta": lambda: _curve(harness.run_error_vs_delta(ExperimentConfig(
        sweep_axis="sampling", sweep_values=(5e-6, 2.5e-6, 1e-5),
        duration=1e-4, runs=10, estimators=("ekf", "pem"), seed=3))),
    "track ou ekf": lambda: _track("ekf"),
    "track ou ckf": lambda: _track("ckf"),
    "atoms exact": lambda: [atoms.sample_steady_state_outcomes(
        P, P.omega_bar, 1000, seed=seed) for seed in (0, 1)],
    "atoms integrator": lambda: [
        sim_reference.integrated_steady_state_outcomes(
            SpmParams(N=1e9), P.omega_bar, 50, seed=2)],
}

RECORDED = {
    "atoms exact": "212fd4825b89b71c",
    "atoms integrator": "7a3d7e0239b5855b",
    "simulate constant N=1e13": "6793976ead011c1e",
    "simulate constant N=1e9": "d88071635877d7e5",
    "simulate constant N=4.4e11": "5886fb89959ad416",
    "simulate constant omega_init": "f5a15c115b79fe98",
    "simulate ou": "deae06e61ce91737",
    "simulate ou omega_start": "71b0cc8a25b828d6",
    "simulate sinusoid": "77a5b2dd90681071",
    "simulate step": "d31af5218b5b7ddf",
    "simulate wiener": "b196deef86ff7640",
    "sweep N": "1b81d7f26c7dbc14",
    "sweep delta": "594ffc468a296ff7",
    "sweep time": "8b0d9d569d3cdaf6",
    "sweep time 13 runs": "70ca2853355ff9b8",
    "track ou ckf": "0f511365827980b9",
    "track ou ekf": "4f5dce05db71f42c",
}


# the outputs that changed, as the quadrature and scipy's Hermite nodes gave
# the analytic bound
RECORDED_QUADRATURE = {
    "sweep N": "b26654f947ed9818",
    "sweep time": "dace8ab5ee2ee2ad",
}

# the outputs that run the CKF, as the six-point cubature rule gave them
RECORDED_SIX_POINT = {
    "sweep time 13 runs": "ee5dd9632c9729eb",
    "track ou ckf": "d08bd277eac3f881",
}


# the outputs that run a filter, as the matrix-form filter gave them
RECORDED_MATRIX_FILTER = {
    "sweep N": "accb7c6c1c7d1cbd",
    "sweep delta": "7e8780e1f3bb0318",
    "sweep time": "52f7e3cf9f424074",
    "sweep time 13 runs": "cc6d9705128b36e4",
    "track ou ckf": "83aa1571be8c4a2c",
    "track ou ekf": "0f30baa317046f7c",
}


# the outputs that changed, as the per-substep simulator loops gave them
RECORDED_LOOP_SIMULATOR = {
    "simulate ou": "57f0366e5cec1514",
    "simulate ou omega_start": "ba29d6b634112139",
    "simulate sinusoid": "c874f7649013a2e1",
    "simulate step": "6f5d45608b346496",
    "simulate wiener": "5a568a0311f0ce69",
    "track ou ckf": "86b101ad693b9619",
    "track ou ekf": "6154e867c4de71d6",
}

# the outputs that changed, as the golden-section fit and the
# central-difference bound gave them
RECORDED_GOLDEN_SECTION = {
    "sweep N": "34520be996d781bd",
    "sweep delta": "fb0c07ed287b0078",
    "sweep time": "a5f9f8c9c3f0f3a1",
}

# the outputs that changed, as Brent's method on the score gave them
RECORDED_BRENT = {
    "sweep N": "8a0c639fdb3334a0",
    "sweep delta": "0ac13ec6de9b82f2",
    "sweep time": "977517b704669345",
}

RECORDED_LOOP_SIMULATOR_MATRIX_FILTER = {
    "track ou ckf": "6fae5aa661c50a1f",
    "track ou ekf": "e68ae6d26b5ec7e9",
}

# the outputs that changed, as scipy's linear filter solved the
# constant-pole recurrence
RECORDED_LFILTER = {
    "atoms exact": "9a770dab6687b5e2",
    "atoms integrator": "98e5da1ea34b9001",
    "simulate constant N=1e13": "fc457814d0c6e9ec",
    "simulate constant N=1e9": "345a1085e0d43254",
    "simulate constant N=4.4e11": "02b3d8266d3fbba5",
    "simulate constant omega_init": "30af6f4f332ebe0e",
    "simulate ou": "0e80f00f7ba2de60",
    "simulate ou omega_start": "738e55cebedc23c3",
    "simulate sinusoid": "9490538c3e788554",
    "simulate step": "7cc907eb36f4c259",
    "simulate wiener": "ab8be40e3e877a6a",
    "sweep N": "7783c375561b7407",
    "sweep delta": "a1835523a7af966c",
    "sweep time": "c2c341e65cb53e6d",
    "sweep time 13 runs": "b63e5ecf8296e2b0",
    "track ou ckf": "0ec1678974ce00c3",
    "track ou ekf": "09154eb67c2dadcd",
}

# the outputs that changed, as Fisher scoring started at the grid minimum
# gave them, with the numpy solve and with scipy's linear filter
RECORDED_GRID_START = {
    "sweep N": "70a763293964c0bf",
    "sweep delta": "3b0e309575ae54aa",
    "sweep time": "58f2210060500b90",
}

RECORDED_GRID_START_LFILTER = {
    "sweep N": "8acb62f5284ca016",
    "sweep delta": "5f1147f0962eb67a",
    "sweep time": "a12786444d91da48",
}


@pytest.fixture
def quadrature(monkeypatch):
    monkeypatch.setattr(bounds, "bcrb_analytic_gaussian_prior",
                        bounds_reference.bcrb_analytic_gaussian_prior)


@pytest.fixture
def lfilter_recurrence(monkeypatch, quadrature):
    # a shot kept by ``harness._shot`` was drawn by the numpy solve; every
    # simulator oracle builds on this fixture, so each starts from none
    monkeypatch.setattr(harness, "_shot_memo", {})
    monkeypatch.setattr(model, "_recurrence", sim_reference.lfilter_recurrence)


@pytest.fixture
def grid_start(monkeypatch, quadrature):
    monkeypatch.setattr(pem, "map_estimates",
                        pem_reference.grid_start_map_estimates)


@pytest.fixture
def loop_simulator(monkeypatch, lfilter_recurrence):
    monkeypatch.setattr(sde_sim, "_states", sim_reference.states)


@pytest.fixture
def brent(monkeypatch, lfilter_recurrence):
    monkeypatch.setattr(pem, "map_estimates", pem_reference.brent_map_estimates)


@pytest.fixture
def matrix_filter(monkeypatch, brent):
    monkeypatch.setattr(filters, "run_filter", reference.run_filter)
    monkeypatch.setattr(filters, "omega_at", reference.omega_at)


@pytest.fixture
def six_point_cubature(monkeypatch, brent):
    monkeypatch.setattr(filters, "run_filter", reference.six_point_run_filter)
    monkeypatch.setattr(filters, "omega_at", reference.six_point_omega_at)


@pytest.fixture
def golden_section(monkeypatch, brent):
    monkeypatch.setattr(pem, "map_estimates", pem_reference.map_estimates)
    monkeypatch.setattr(bounds, "_squared_scores",
                        pem_reference.squared_scores)
    monkeypatch.setattr(bounds, "_bound_results", pem_reference.bound_results)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recorded(name):
    assert _digest(CASES[name]()) == RECORDED[name]


@pytest.mark.parametrize("name", sorted(RECORDED_QUADRATURE))
def test_quadrature_output_matches_recorded(name, quadrature):
    assert _digest(CASES[name]()) == RECORDED_QUADRATURE[name]


@pytest.mark.parametrize("name", sorted(RECORDED_LFILTER))
def test_lfilter_output_matches_recorded(name, lfilter_recurrence):
    assert _digest(CASES[name]()) == RECORDED_LFILTER[name]


@pytest.mark.parametrize("name", sorted(RECORDED_GRID_START))
def test_grid_start_output_matches_recorded(name, grid_start):
    assert _digest(CASES[name]()) == RECORDED_GRID_START[name]


@pytest.mark.parametrize("name", sorted(RECORDED_GRID_START_LFILTER))
def test_grid_start_lfilter_output_matches_recorded(name, grid_start,
                                                    lfilter_recurrence):
    assert _digest(CASES[name]()) == RECORDED_GRID_START_LFILTER[name]


@pytest.mark.parametrize("name", sorted(RECORDED_BRENT))
def test_brent_output_matches_recorded(name, brent):
    assert _digest(CASES[name]()) == RECORDED_BRENT[name]


@pytest.mark.parametrize("name", sorted(RECORDED_MATRIX_FILTER))
def test_matrix_filter_output_matches_recorded(name, matrix_filter):
    assert _digest(CASES[name]()) == RECORDED_MATRIX_FILTER[name]


@pytest.mark.parametrize("name", sorted(RECORDED_SIX_POINT))
def test_six_point_cubature_output_matches_recorded(name, six_point_cubature):
    assert _digest(CASES[name]()) == RECORDED_SIX_POINT[name]


@pytest.mark.parametrize("name", sorted(RECORDED_GOLDEN_SECTION))
def test_golden_section_output_matches_recorded(name, golden_section,
                                                six_point_cubature):
    assert _digest(CASES[name]()) == RECORDED_GOLDEN_SECTION[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_loop_simulator_output_matches_recorded(name, loop_simulator,
                                                six_point_cubature):
    expected = {**RECORDED, **RECORDED_LFILTER, **RECORDED_BRENT,
                **RECORDED_SIX_POINT, **RECORDED_LOOP_SIMULATOR}
    assert _digest(CASES[name]()) == expected[name]


@pytest.mark.parametrize("name", sorted(RECORDED_MATRIX_FILTER))
def test_loop_simulator_matrix_filter_output_matches_recorded(
        name, loop_simulator, matrix_filter):
    expected = {**RECORDED_MATRIX_FILTER, **RECORDED_LOOP_SIMULATOR_MATRIX_FILTER}
    assert _digest(CASES[name]()) == expected[name]


WIENER = {"kind": "wiener", "omega0": P.omega_bar, "d_c": 1e7}

# subcommand -> JSON config; each run at --seed 9
CLI_CASES = {
    "track": {"true_signal": WIENER, "assumed_signal": WIENER,
              "estimators": ["ckf"], "duration": 5e-4},
    "sweep-time": {"sweep_axis": "time", "sweep_values": [1e-4, 5e-5, 2e-4],
                   "runs": 3, "estimators": ["ekf", "ckf", "pem"],
                   "bounds": ["bcrb_numeric", "bcrb_analytic", "crb", "floor"],
                   "bound_samples": 3},
    # integer grid values, written with the same .10g as float ones
    "sweep-n": {"params": {"T2_override": None}, "sweep_axis": "atoms",
                "sweep_values": [100000000000, 400000000000],
                "duration": 1e-4, "runs": 2},
    "estimate": {"true_signal": {"kind": "constant",
                                 "omega0": P.omega_bar + 500.0},
                 "duration": 1e-3},
    "bcrb": {"sweep_axis": "time", "sweep_values": [1e-4, 5e-5],
             "bound_samples": 4},
    "atoms": {"duration": 5e-2, "runs": 2},
}

RECORDED_CSV = {
    "atoms": "8888285670638245",
    "bcrb": "64a4858fc177f70b",
    "estimate": "b1519b6ca2147071",
    "sweep-n": "2f5bcf83c88fac7d",
    "sweep-time": "76c7160298b05dd1",
    "track": "b024089ed5726cd3",
}

RECORDED_SIX_POINT_CSV = {
    "sweep-time": "215d7bc1a7848c91",
    "track": "5c32a5b2c1d34f2b",
}


RECORDED_MATRIX_FILTER_CSV = {
    "sweep-n": "43ddca81fd9f8cb2",
    "sweep-time": "315556ae632e0f48",
    "track": "cb02e0ebcbd9facd",
}

RECORDED_GOLDEN_SECTION_CSV = {
    "bcrb": "152240f41454a005",
    "estimate": "8e2dd7d97590a029",
    "sweep-time": "5afafaac5d3c4218",
}

# Brent's fit writes the estimate CSV that scoring from the grid minimum wrote
RECORDED_BRENT_CSV = {"estimate": "89004b7223e647ec",
                      "sweep-time": "26d240a3a96a2373"}

RECORDED_LOOP_SIMULATOR_CSV = {"track": "98697494fabff3dd"}

RECORDED_LOOP_SIMULATOR_MATRIX_FILTER_CSV = {"track": "4cb516eee932b13d"}

RECORDED_LFILTER_CSV = {
    "bcrb": "647089fa7e3732be",
    "sweep-n": "e33b298b5c217210",
    "sweep-time": "30294545888b221d",
    "track": "9a479d4ceac395e2",
}

RECORDED_GRID_START_CSV = {
    "estimate": "89004b7223e647ec",
    "sweep-time": "f01a6d248233b0ab",
}

RECORDED_GRID_START_LFILTER_CSV = {"sweep-time": "24f2153a187cb7b0"}


def _cli_digest(name, tmp_path) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CLI_CASES[name]))
    out = tmp_path / "out"
    assert cli.main([name, "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
    return hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_csv_matches_recorded(name, tmp_path):
    assert _cli_digest(name, tmp_path) == RECORDED_CSV[name]


@pytest.mark.parametrize("name", sorted(RECORDED_LFILTER_CSV))
def test_lfilter_cli_csv_matches_recorded(name, tmp_path, lfilter_recurrence):
    assert _cli_digest(name, tmp_path) == RECORDED_LFILTER_CSV[name]


@pytest.mark.parametrize("name", sorted(RECORDED_GRID_START_CSV))
def test_grid_start_cli_csv_matches_recorded(name, tmp_path, grid_start):
    assert _cli_digest(name, tmp_path) == RECORDED_GRID_START_CSV[name]


@pytest.mark.parametrize("name", sorted(RECORDED_GRID_START_LFILTER_CSV))
def test_grid_start_lfilter_cli_csv_matches_recorded(name, tmp_path,
                                                     grid_start,
                                                     lfilter_recurrence):
    assert (_cli_digest(name, tmp_path)
            == RECORDED_GRID_START_LFILTER_CSV[name])


@pytest.mark.parametrize("name", sorted(RECORDED_BRENT_CSV))
def test_brent_cli_csv_matches_recorded(name, tmp_path, brent):
    assert _cli_digest(name, tmp_path) == RECORDED_BRENT_CSV[name]


@pytest.mark.parametrize("name", sorted(RECORDED_MATRIX_FILTER_CSV))
def test_matrix_filter_cli_csv_matches_recorded(name, tmp_path, matrix_filter):
    assert _cli_digest(name, tmp_path) == RECORDED_MATRIX_FILTER_CSV[name]


@pytest.mark.parametrize("name", sorted(RECORDED_SIX_POINT_CSV))
def test_six_point_cubature_cli_csv_matches_recorded(name, tmp_path,
                                                     six_point_cubature):
    assert _cli_digest(name, tmp_path) == RECORDED_SIX_POINT_CSV[name]


@pytest.mark.parametrize("name", sorted(RECORDED_GOLDEN_SECTION_CSV))
def test_golden_section_cli_csv_matches_recorded(name, tmp_path,
                                                 golden_section,
                                                 six_point_cubature):
    assert _cli_digest(name, tmp_path) == RECORDED_GOLDEN_SECTION_CSV[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_loop_simulator_cli_csv_matches_recorded(name, tmp_path,
                                                  loop_simulator,
                                                  six_point_cubature):
    expected = {**RECORDED_CSV, **RECORDED_LFILTER_CSV, **RECORDED_BRENT_CSV,
                **RECORDED_SIX_POINT_CSV, **RECORDED_LOOP_SIMULATOR_CSV}
    assert _cli_digest(name, tmp_path) == expected[name]


@pytest.mark.parametrize("name", sorted(RECORDED_MATRIX_FILTER_CSV))
def test_loop_simulator_matrix_filter_cli_csv_matches_recorded(
        name, tmp_path, loop_simulator, matrix_filter):
    expected = {**RECORDED_MATRIX_FILTER_CSV,
                **RECORDED_LOOP_SIMULATOR_MATRIX_FILTER_CSV}
    assert _cli_digest(name, tmp_path) == expected[name]
