"""The benchmark's output contract: exit 0 and a last stdout line that is one
JSON result carrying exactly the metric names ``BENCHMARK.json`` declares.

A traced line that drops a metric (for example because a traced package
name went away) can no longer be compared with earlier runs, so this runs
the real script in both modes on the smallest solver workload and on
``cli_shipped``, whose ``fam_tanh`` config runs a 20k-path isometry check
through the Monte Carlo reducers' sampler thread with the tracer installed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section, workload", [
    pytest.param(trace, section, workload,
                 id=f"{trace}-{section}" + ("" if workload == "ibmot_g15" else f"-{workload}"))
    for workload in ("ibmot_g15", "cli_shipped")
    for trace, section in ((1, "per_layer"), (0, "end_to_end"))
])
def test_result_line_carries_the_declared_metrics(trace, section, workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC[section]]
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
