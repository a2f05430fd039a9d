"""Command-line front end: each subcommand runs one experiment from a JSON
config and writes ``<subcommand>.csv`` plus a ``manifest.json`` with the
resolved configuration, seed, git revision and wall time.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import atoms, bounds, harness, pem, sde_sim
from .errors import InvalidParametersError, SpinFidError
from .harness import ExperimentConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _json_safe(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        d = {"kind": type(obj).__name__}
        d.update({f.name: _json_safe(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)})
        return d
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    return obj


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(out_dir: Path, subcommand: str, cfg, seed: int,
                    wall_time: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": _json_safe(cfg),
        "seed": seed,
        "git_revision": _git_revision(),
        "wall_time_s": wall_time,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        cfg = ExperimentConfig.from_json(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.runs is not None:
        updates["runs"] = args.runs
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _cmd_simulate(cfg: ExperimentConfig, path: Path) -> None:
    rng = harness._run_rng(cfg.seed, 0)
    _, rec = sde_sim.simulate(cfg.params, cfg.true_signal, cfg.duration,
                              substeps=cfg.substeps, seed=rng)
    rec.to_csv(path)


def _cmd_estimate(cfg: ExperimentConfig, path: Path) -> None:
    """Simulate one shot and fit the constant-frequency MAP estimate."""
    p = cfg.params
    rng = harness._run_rng(cfg.seed, 0)
    _, rec = sde_sim.simulate(p, cfg.true_signal, cfg.duration,
                              substeps=cfg.substeps, seed=rng)
    fit = pem.map_estimate(rec, p, *harness._blocks(harness._prior(cfg, p)))
    sde_sim._write_csv(path, "omega_hat,neg_log_joint_per_sample", [fit])


def _cmd_bcrb(cfg: ExperimentConfig, path: Path) -> None:
    p = cfg.params
    times = cfg.sweep_values if cfg.sweep_axis == "time" else (cfg.duration,)
    results = bounds.bcrb_numeric_curve(
        p, *harness._blocks(harness._prior(cfg, p)), times, cfg.bound_samples,
        seed=cfg.seed, substeps=cfg.substeps)
    sde_sim._write_csv(path, "t,bound,stderr,kind", (
        (r.meta["t"], r.value, r.mc_std_err, "bcrb_numeric") for r in results))


def _cmd_atoms(cfg: ExperimentConfig, path: Path) -> None:
    p = cfg.params
    k = sde_sim.sample_indices([cfg.duration], p.Delta)[0]
    if k < 2:
        raise InvalidParametersError(
            f"atom counting needs at least 2 samples; duration {cfg.duration} "
            f"holds 1 at Delta = {p.Delta}")
    rows = []
    for r in range(cfg.runs):
        samples = atoms.sample_steady_state_outcomes(
            p, p.omega_bar, k, seed=harness._run_rng(cfg.seed, r))
        est = atoms.estimate_atom_number(samples, p)
        rows.append((r, est.n_hat, est.sigma_n, est.k_used, int(est.degenerate)))
    sde_sim._write_csv(path, "run,n_hat,sigma_n,k,degenerate", rows)


# subcommand -> command(cfg, path of <subcommand>.csv)
_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "bcrb": _cmd_bcrb,
    "sweep-time": lambda cfg, f: harness.run_error_vs_time(cfg).to_csv(f),
    "sweep-n": lambda cfg, f: harness.run_error_vs_N(cfg).to_csv(f),
    "sweep-delta": lambda cfg, f: harness.run_error_vs_delta(cfg).to_csv(f),
    "track": lambda cfg, f: harness.run_tracking(cfg).to_csv(f),
    "atoms": _cmd_atoms,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfid",
        description="Simulation and inference experiments for a "
                    "spin-precession magnetometer")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", type=Path, default=None,
                       help="JSON experiment configuration")
        s.add_argument("--seed", type=int, default=None,
                       help="master seed override")
        s.add_argument("--runs", type=int, default=None,
                       help="Monte-Carlo run count override")
        s.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out
    try:
        cfg = _load_config(args)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    start = time.monotonic()
    try:
        _COMMANDS[args.subcommand](cfg, out_dir / f"{args.subcommand}.csv")
    except InvalidParametersError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpinFidError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, args.subcommand, cfg, cfg.seed,
                    time.monotonic() - start)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
