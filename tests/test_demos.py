"""Smoke runs of the tracking demos, which use the public filter API the
README shows."""

import importlib.util
import math
import re
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name, capsys) -> str:
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    return capsys.readouterr().out


def _value_after(out: str, label: str) -> float:
    line = next(ln for ln in out.splitlines() if ln.startswith(label))
    # the number after the line's last ':' or '='
    return float(re.split("[:=]", line)[-1].split()[0].rstrip("%"))


def test_single_shot_tracking(capsys):
    out = _run_demo("single_shot_tracking", capsys)
    nis = _value_after(out, "post-lock NIS")
    assert 0.5 < nis < 2.0
    assert math.isfinite(_value_after(out, "final error"))


def test_step_response(capsys):
    out = _run_demo("step_response", capsys)
    for label in ("first jump", "second jump"):
        assert 0.0 <= _value_after(out, label) < 100.0
