"""A traced benchmark run prints one strict-JSON line with every per-layer metric.

``apsbench/run.py --trace 1`` wraps the package's public functions and
classes and reports the metrics that ``BENCHMARK.json`` lists as per-layer.
A rename or a new signature in the package can make a hook go missing (the
metric is then marked ``absent``) or break the run's last line.  Each test
runs one round of a workload from a copy of ``src/`` and ``apsbench/``, so
nothing is written into the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def strict_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", ["index_fresh", "solve_verify"])
def test_traced_round_reports_every_layer_metric(workload, tmp_path):
    for part in ("src", "apsbench"):
        shutil.copytree(
            os.path.join(ROOT, part),
            tmp_path / part,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = subprocess.run(
        [sys.executable, os.path.join("apsbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=strict_constant)
    assert out["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert len(per_layer) == 22
    assert set(out["metrics"]) == per_layer
    assert [name for name, m in out["metrics"].items() if m.get("absent")] == []
