"""The benchmark's tracer (``perfbench/tracing.py``) wraps public functions of
every layer, looked up by name, and reads some of their arguments by name
from the live signatures.  Building and entering it here makes a rename or a
signature change of a hooked function fail the suite, not only a traced
benchmark run.  Nothing under ``perfbench/`` is written.
"""

from pathlib import Path

import numpy as np

from spinfid import bounds, filters, pem
from spinfid.model import SpmParams
from spinfid.sde_sim import MeasurementRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_every_layer_and_reads_its_work(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = {(m.__name__, attr): getattr(m, attr)
                 for m, attr, _ in tracing._hooks()}
    p = SpmParams()
    prior = filters.default_prior(p, 1e3)
    rec = MeasurementRecord(p.Delta, np.zeros(20))
    with tracing.Tracer() as tracer:
        grid = np.linspace(p.omega_bar - 1.0, p.omega_bar + 1.0, 3)
        pem.neg_log_joint_grid(grid, rec, p, prior)
        pem.kalman_neg_log_joint(p.omega_bar, rec, p, prior)
        bounds.bcrb_numeric(p, prior, 1e-4, 2)
    assert {(m.__name__, attr): getattr(m, attr)
            for m, attr, _ in tracing._hooks()} == originals
    work = {tracer.names[name]: w1
            for name, *_, w1, _ in tracer.records}
    # 3 omegas x 20 samples; 20 samples; 20 samples x 5 substeps a shot;
    # 2 Monte-Carlo samples
    assert work == {"pem.neg_log_joint_grid": 60,
                    "pem.kalman_neg_log_joint": 20,
                    "sde_sim.simulate": 100,
                    "bounds.bcrb_numeric_curve": 2,
                    "bounds.bcrb_numeric": 2}
