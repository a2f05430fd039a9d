"""Command-line front end: each subcommand runs one experiment from a JSON
config and writes ``<subcommand>.csv`` plus a ``manifest.json`` with the
resolved configuration, seed, git revision of the package's own checkout
and wall time.  A config is read and checked by the one config base,
``model._Config``, and the manifest's ``"config"`` (``model.as_json``) is
a ``--config`` file that reproduces the run.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 1
any other error (a traceback; e.g. a MemoryError).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

from . import atoms, bounds, filters, harness, model, pem, sde_sim
from .errors import InvalidParametersError, SpinFidError
from .harness import ExperimentConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _git_revision() -> str:
    """HEAD of the git checkout this package's source is tracked in, asked
    in the package's own directory, whatever the working directory; "unknown"
    when the source is tracked in none (an installed copy) or git fails."""
    here = Path(__file__).resolve()
    try:
        runs = [subprocess.run(["git", *args], cwd=here.parent,
                               capture_output=True, text=True, timeout=5)
                for args in (["ls-files", "--error-unmatch", here.name],
                             ["rev-parse", "HEAD"])]
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if any(run.returncode for run in runs):
        return "unknown"
    return runs[-1].stdout.strip()


def _write_manifest(out_dir: Path, subcommand: str, cfg,
                    wall_time: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": model.as_json(cfg),
        "seed": cfg.seed,
        "git_revision": _git_revision(),
        "wall_time_s": wall_time,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig() if args.config is None
           else ExperimentConfig.from_json(args.config))
    overrides = {"seed": args.seed, "runs": args.runs}
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items()
                                       if v is not None})


def _cmd_simulate(cfg: ExperimentConfig, path: Path) -> None:
    harness._shot(cfg)[1].to_csv(path)


def _cmd_estimate(cfg: ExperimentConfig, path: Path) -> None:
    """Simulate one shot and fit the constant-frequency MAP estimate."""
    p = cfg.params
    _, rec = harness._shot(cfg)
    fit = pem.map_estimate(rec, p, filters.default_prior(p, cfg.sigma_omega))
    sde_sim._write_csv(path, "omega_hat,neg_log_joint_per_sample", [fit])


def _cmd_bcrb(cfg: ExperimentConfig, path: Path) -> None:
    p = cfg.params
    times = cfg.sweep_values if cfg.sweep_axis == "time" else (cfg.duration,)
    results = bounds.bcrb_numeric_curve(
        p, filters.default_prior(p, cfg.sigma_omega), times, cfg.bound_samples,
        seed=cfg.seed, substeps=cfg.substeps)
    sde_sim._write_csv(path, "t,bound,stderr,kind", (
        (r.meta["t"], r.value, r.mc_std_err, "bcrb_numeric") for r in results))


def _cmd_atoms(cfg: ExperimentConfig, path: Path) -> None:
    p = cfg.params
    k = model.check_value(
        "atoms", f"sample count of duration {cfg.duration} at Delta {p.Delta}",
        sde_sim.sample_indices([cfg.duration], p.Delta)[0], "Samples")
    rows = []
    for r in range(cfg.runs):
        samples = atoms.sample_steady_state_outcomes(
            p, p.omega_bar, k, seed=sde_sim._stream(cfg.seed, r))
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
    except (SpinFidError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, args.subcommand, cfg, time.monotonic() - start)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
