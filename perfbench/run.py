"""spinfid benchmark: one workload per process, end-to-end metrics with
tracing off (--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 perfbench/run.py --workload mc_time --seed 1 --seconds 18 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record (the
environment, per-unit figures, check results) goes to
``perfbench/results/``.  The exit code is 0 only when every correctness
check passed.  Untraced times are scaled to a fixed machine speed by a
speed gauge (SpeedGauge).  See perfbench/README.md for the workloads and
metrics.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported,
# here and in the set-up probes, which inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("mc_time", "mc_sampling", "track_ou", "atom_count")
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60.0
# About the seconds one speed-gauge sample takes on the development machine
# (a 2-vCPU Xeon VM) in its fast state: times are reported at this speed.
GAUGE_REF_S = 0.002
GAUGE_PERIOD_S = 0.05       # one sample per this much wall time of a call
GAUGE_STREAM_LEN = 500_000  # doubles per array: 4 MB, two of them beyond L2


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import spinfid from this checkout's src/, never from elsewhere, and
    return the workloads module."""
    if not (SRC / "spinfid" / "__init__.py").is_file():
        _fail(f"no spinfid package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spinfid
    if Path(spinfid.__file__).resolve().parent != SRC / "spinfid":
        _fail(f"imported spinfid from {spinfid.__file__}, not from {SRC}")
    import workloads
    return workloads


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ------------------------------------------------------------- environment

def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            dep = config["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError):
            return "unknown"

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "spinfid").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


# ------------------------------------------------------------ speed gauge

class WallClock:
    """Times a call on the wall clock alone; see SpeedGauge.run."""

    def run(self, fn, x):
        t0 = time.perf_counter()
        try:
            return fn(x)
        finally:
            self.timing = (time.perf_counter() - t0, math.nan)


class SpeedGauge:
    """Times a call and, while it runs, how long a fixed piece of work takes.

    The host this benchmark is developed on changes speed under contention
    from other tenants, by up to 2x, for seconds to minutes at a time, and a
    call's time changes with it.  Every GAUGE_PERIOD_S of a call, a timer
    signal interrupts it (between two bytecodes) to time one *sample* of
    work like the workload's: a loop of small-array operations driven from
    Python, like a filter step, and, for a workload that ``streams``, a
    streaming pass over two arrays larger than L2, like an atom-count
    record.  Scaling the call's time by GAUGE_REF_S over the mean sample
    time leaves the program's own cost at a fixed machine speed.  The
    samples' own time is taken out of the call's.  A set-up probe process
    samples the same way while it imports the package.  The gauge is benchmark
    code, the same on every commit, so a change to the program moves the
    scaled times as it moves the wall-clock ones.
    """

    def __init__(self, streams: bool):
        self.small = np.arange(64.0)
        self.a = np.ones(GAUGE_STREAM_LEN) if streams else None
        self.b = np.ones(GAUGE_STREAM_LEN) if streams else None
        self.loops = 150 if streams else 600  # about 2 ms either way
        self.samples = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.loops):
            acc += math.sin(float((self.small * 1.0001 + 0.5).sum()) * 1e-9)
        if self.a is not None:
            np.multiply(self.a, 1.0001, out=self.b)
            np.add(self.b, self.a, out=self.b)
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def stop(self) -> tuple:
        """Stop sampling and take one more sample.  Returns (seconds the
        samples took since start, mean sample time)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        during = sum(self.samples)
        self.sample()
        return during, statistics.mean(self.samples)

    def run(self, fn, x):
        """Return fn(x), sampling the gauge while it runs and once after.
        Sets ``timing`` to (the call's wall time less the samples', mean
        sample time), also when fn raises."""
        self.start()
        t0 = time.perf_counter()
        try:
            return fn(x)
        finally:
            wall = time.perf_counter() - t0
            during, mean_sample = self.stop()
            self.timing = (wall - during, mean_sample)


def at_reference_speed(seconds: float, sample_s: float) -> float:
    """A time measured while a gauge sample took ``sample_s``, scaled to the
    speed at which it takes GAUGE_REF_S."""
    return seconds * GAUGE_REF_S / sample_s


# ----------------------------------------------------------------- set-up

def setup_probe(workload: str, seed: int) -> None:
    """Body of a set-up probe process: import the package and build the
    workload's inputs under the speed gauge (interpreter samples, as an
    import is interpreter work), then report the samples."""
    gauge = SpeedGauge(streams=False)
    gauge.start()
    W = import_package()
    W.WORKLOADS[workload].inputs(W.unit_seed(seed, 0))
    during, mean_sample = gauge.stop()
    print(f"ready {during!r} {mean_sample!r}", flush=True)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter until it has imported the
    package and built the workload's inputs, once per probe process, each as
    (wall seconds less the probe's gauge samples, mean sample time)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        report = line.split()
        if code != 0 or len(report) != 3 or report[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        during, mean_sample = float(report[1]), float(report[2])
        times.append((t1 - t0 - during, mean_sample))
    return times


# ------------------------------------------------------------------- units

class Tally:
    """Shots attempted and failed, and every correctness problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, shots: int, failed: int, problems=()):
        self.attempted += shots
        self.failed += failed
        self.problems.extend(problems)


def run_checked(W, w, inputs, tally, label, clock, reference=None):
    """Run one unit call by call on ``clock`` (a SpeedGauge or a WallClock)
    and check its outputs.  Returns (results, or None if a call raised;
    clock.timing per call; shots finished per call)."""
    shots = [w.shots(x) for x in inputs]
    results, timing = [], []
    for x in inputs:
        try:
            results.append(clock.run(w.call, x))
        except Exception:  # a failed unit is counted and the run goes on
            timing.append(clock.timing)
            print(f"{label}: call raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            tally.add(sum(shots), sum(shots),
                      [f"{label}: raised"] if reference is not None else [])
            return None, timing, [0] * len(timing)
        timing.append(clock.timing)
    summary = W.unit_summary(w, results)
    problems = [f"{label}: {p}" for p in W.check_finite_positive(summary)]
    if reference is not None:
        problems += [f"{label}: {p}" for p in W.check_reference(summary, reference)]
    if problems:
        finished = [0] * len(shots)
    else:
        finished = [n - min(n, w.excluded(r)) for n, r in zip(shots, results)]
    tally.add(sum(shots), sum(shots) - sum(finished), problems)
    return results, timing, finished


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


def reference_check(W, w, tally) -> float:
    """Run the unit at the reference seed and compare it with the values
    recorded in reference.json.  Also warms the process up before timing.
    Returns the process's peak resident memory, in MiB, after the unit and
    before the speed gauge's buffers are made, so that they do not count."""
    ref = load_reference(w.name)
    seed = W.unit_seed(W.REF_SEED, 0)
    run_checked(W, w, w.inputs(seed) + w.probe(seed), tally,
                "reference unit", WallClock(), reference=ref)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -------------------------------------------------------------- end to end

def unit_calls(inputs, timing, finished, w) -> list:
    """One (input position, seconds, gauge sample seconds, shots, finished)
    per call."""
    return [(j, wall, gauge, w.shots(x), fin) for j, (x, (wall, gauge), fin)
            in enumerate(zip(inputs, timing, finished))]


def shot_rate(calls: list, at_reference=True) -> float:
    """Shots finished per second of the calls' time, at reference speed or
    on the wall clock."""
    seconds = sum(at_reference_speed(c[1], c[2]) if at_reference else c[1]
                  for c in calls)
    return sum(c[4] for c in calls) / seconds


def run_untraced(W, w, args, tally, record, peak_rss_mb):
    gauge = SpeedGauge(w.streams)
    calls = []
    t_start = time.perf_counter()
    rep = 0
    while True:
        inputs = w.inputs(W.unit_seed(args.seed, rep))
        _, timing, finished = run_checked(W, w, inputs, tally, f"unit {rep}",
                                          gauge)
        calls += unit_calls(inputs, timing, finished, w)
        rep += 1
        if time.perf_counter() - t_start >= args.seconds:
            break
    timed = time.perf_counter() - t_start
    setup = measure_setup(w.name, args.seed)
    record.update(units=rep, calls=calls, timed_s=timed, setup_s_samples=setup,
                  wall_shots_per_s=shot_rate(calls, at_reference=False),
                  wall_setup_s=statistics.median(t for t, _ in setup),
                  gauge_sample_s=statistics.median(c[2] for c in calls))
    return {
        "setup_s": statistics.median(at_reference_speed(t, g) for t, g in setup),
        "shots_per_s": shot_rate(calls),
        "success_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }


# ------------------------------------------------------------------ traced

def traced_units(w, seconds: float) -> int:
    """Units in a traced run: a fixed number for given --seconds, so that
    counts from two traced runs, or two commits, cover the same work.  Each
    unit runs twice (traced and not), hence the factor 2."""
    return max(2, round(seconds / (2.0 * w.nominal_unit_s)))


def run_traced(W, w, args, tally, record):
    import tracing

    tracer = tracing.Tracer()
    # no speed gauge: its samples would land inside the spans
    clock = WallClock()
    reps = traced_units(w, args.seconds)
    calls = {False: [], True: []}
    for rep in range(reps):
        inputs = w.inputs(W.unit_seed(args.seed, rep))
        results = {}
        tracer.op = rep
        # alternate which side runs first, so drift does not favour one
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            label = f"{'traced ' if traced else ''}unit {rep}"
            if traced:
                with tracer:
                    res, timing, finished = run_checked(W, w, inputs, tally,
                                                        label, clock)
            else:
                res, timing, finished = run_checked(W, w, inputs, tally,
                                                    label, clock)
            results[traced] = res
            calls[traced] += unit_calls(inputs, timing, finished, w)
        if None in results.values():
            tally.problems.append(f"unit {rep}: a call raised, so traced and "
                                  "untraced outputs cannot be compared")
        elif not W.bit_identical(W.unit_outputs(w, results[False]),
                                 W.unit_outputs(w, results[True])):
            tally.problems.append(f"unit {rep}: traced outputs differ from untraced")

    # the first unit again, traced: its exact counts must repeat
    tracer.op = reps
    with tracer:
        run_checked(W, w, w.inputs(W.unit_seed(args.seed, 0)), tally,
                    "repeated traced unit 0", clock)
    first, again = tracer.metrics([0]), tracer.metrics([reps])
    for name in tracing.EXACT_COUNTS:
        if first[name] != again[name]:
            tally.problems.append(
                f"exact count {name} differs between two traced runs of unit 0: "
                f"{first[name]} != {again[name]}")

    # counts are totals over the traced units; times are the least value a
    # traced unit gave, since contention from other tenants only adds time
    metrics = tracer.metrics(range(reps))
    per_unit = [tracer.metrics([rep]) for rep in range(reps)]
    for name in tracing.TIME_METRICS:
        metrics[name] = min((m[name] for m in per_unit if m[name] > 0), default=0.0)
    metrics["trace.overhead_frac"] = (
        shot_rate(calls[False], at_reference=False)
        / shot_rate(calls[True], at_reference=False) - 1.0)
    RESULTS.mkdir(exist_ok=True)
    tracer.save(RESULTS / f"{w.name}-seed{args.seed}-spans.npz")
    record.update(units=reps, calls=calls[False], traced_calls=calls[True],
                  exact_counts={n: metrics[n] for n in tracing.EXACT_COUNTS})
    return metrics


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    W = import_package()
    w = W.WORKLOADS[args.workload]

    tally = Tally()
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    peak_rss_mb = reference_check(W, w, tally)
    if args.trace:
        values = run_traced(W, w, args, tally, record)
    else:
        values = run_untraced(W, w, args, tally, record, peak_rss_mb)
    correct = not tally.problems

    units = declared_units(args.trace)
    if units.keys() != values.keys():
        raise RuntimeError(f"metrics {sorted(values.keys() ^ units.keys())} are "
                           "measured or declared, not both")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record.update(correct=correct, attempted=tally.attempted,
                  failed=tally.failed, problems=tally.problems, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    env = record["environment"]
    print(f"# {w.name} seed {args.seed}: rev {env['git_revision']} src "
          f"{env['src_sha256'][:12]}, nproc {env['nproc']}, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['numpy_blas']} / {env['scipy_blas']}")
    for name, m in metrics.items():
        label = " (exact count)" if name in record.get("exact_counts", ()) else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{label}")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} shots)")
    if "wall_shots_per_s" in record:
        print(f"# on the wall clock, not rescaled to the gauge's reference "
              f"speed: shots_per_s = {record['wall_shots_per_s']:.6g} 1/s, "
              f"setup_s = {record['wall_setup_s']:.6g} s; median gauge sample "
              f"{record['gauge_sample_s']:.6g} s against {GAUGE_REF_S:g} s")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
