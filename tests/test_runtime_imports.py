"""The runtime loads numpy alone: importing the package and the CLI,
simulating, filtering, fitting, the Monte-Carlo bound, the continuous Fisher
information, the analytic bound, the atom sampler and ``spinfid simulate``
import no scipy module.  Importing the package loads no thread pool: the
atom sampler imports its executor when it runs, so that the import does not
add to the start-up of every program that uses the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import tempfile

from spinfid import atoms, bounds, cli, filters, pem, sde_sim
from spinfid.model import Constant, OrnsteinUhlenbeck, SpmParams, Wiener

p = SpmParams()
_, rec = sde_sim.simulate(p, Constant(p.omega_bar + 30.0), 2e-4, seed=1)
sde_sim.simulate(p, OrnsteinUhlenbeck(p.omega_bar, 1.0, 1e9), 2e-4, seed=2)
prior = filters.default_prior(p, 100.0)
for kind in ("ekf", "ckf"):
    filters.run_filter(filters.FilterConfig(
        kind, Wiener(p.omega_bar, 0.0), prior, p), rec)
pem.map_estimate(rec, p, prior)
bounds.bcrb_numeric(p, prior, 1e-4, 2, seed=3)
bounds.fi_noiseless_continuous(p.omega_bar, 1e-3, p)
bounds.bcrb_analytic_gaussian_prior(p, 100.0, 1e-4)
atoms.sample_steady_state_outcomes(p, p.omega_bar, 5000, seed=4)
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["simulate", "--out", out]) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

IMPORT_ONLY = """
import sys

import spinfid
import spinfid.atoms
import spinfid.cli
print(" ".join(m for m in sys.modules if m.startswith("concurrent.futures")))
"""


def _modules_after(script: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return out.stdout.split()


def test_runtime_imports_no_scipy():
    assert _modules_after(SCRIPT) == []


def test_importing_the_package_loads_no_executor():
    assert _modules_after(IMPORT_ONLY) == []

