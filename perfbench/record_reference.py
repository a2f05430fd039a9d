"""Record the reference-seed outputs of every workload in reference.json.

    python3 perfbench/record_reference.py

Run it from the root of a checkout, and only for a change that is meant to
alter the package's outputs; the correctness check of every benchmark run
compares against this file.
"""

import json
import sys

import run

W = run.import_package()
record = {"seed": W.REF_SEED, "environment": run.environment(), "workloads": {}}
for name, w in W.WORKLOADS.items():
    seed = W.unit_seed(W.REF_SEED, 0)
    results = W.run_unit(w, w.inputs(seed) + w.probe(seed))
    summary = W.unit_summary(w, results)
    problems = W.check_finite_positive(summary)
    if problems:
        sys.exit(f"{name}: {problems}")
    record["workloads"][name] = summary
    print(name, summary, flush=True)
with open(run.REFERENCE, "w") as fh:
    json.dump(record, fh, indent=1)
    fh.write("\n")
