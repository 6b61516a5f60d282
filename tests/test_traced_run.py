"""A traced benchmark run prints one strict-JSON line with every per-layer metric.

``apsbench/run.py --trace 1`` wraps the package's public functions and
classes and reports the metrics that ``BENCHMARK.json`` lists as per-layer.
A rename or a new signature in the package can make a hook go missing (the
metric is then marked ``absent``) or break the run's last line.  Each test
runs one round of a workload from a copy of ``src/`` and ``apsbench/``, so
nothing is written into the checkout.  The per-operation counts of a traced
``index_fresh`` round must also be the same at two seeds; its index path must
build no adjoint problem, no adjoint condition and no validated sigma_0, and
its certificate no basis but the doubled lattice; the solve path builds no
adjoint problem.  A ``scenario_batch`` round re-runs every ``index()`` call of
the batch with ``certify=True``, so it fails if the program passes ``index()``
a problem it cannot certify.
"""

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def strict_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Run one traced round of a workload at a seed; each run is made once per module."""
    tree = tmp_path_factory.mktemp("tree")
    for part in ("src", "apsbench"):
        shutil.copytree(
            os.path.join(ROOT, part),
            tree / part,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    runs = {}

    def run(workload, seed):
        if (workload, seed) not in runs:
            proc = subprocess.run(
                [sys.executable, os.path.join("apsbench", "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                cwd=tree, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            last = proc.stdout.strip().splitlines()[-1]
            runs[workload, seed] = json.loads(last, parse_constant=strict_constant)
        return runs[workload, seed]

    return run


@pytest.mark.parametrize("workload", ["index_fresh", "scenario_batch", "solve_verify"])
def test_traced_round_reports_every_layer_metric(workload, traced):
    out = traced(workload, 1)
    assert out["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert len(per_layer) == 22
    assert set(out["metrics"]) == per_layer
    assert [name for name, m in out["metrics"].items() if m.get("absent")] == []


def test_traced_counts_repeat_across_seeds(traced):
    # the workload fixes every structural size per slot, and the factorizations
    # split on sparsity patterns only, so the counts must not depend on the seed
    with open(os.path.join(ROOT, "apsbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    counters = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["COUNTERS"]
    )
    names = [key.value for key in counters.keys] + ["linalg.calls", "cylinder_solver.constraint_cells"]
    assert len(names) == 10
    one, two = (traced("index_fresh", seed)["metrics"] for seed in (1, 2))
    assert {n: one[n]["value"] for n in names} == {n: two[n]["value"] for n in names}


def test_traced_index_path_builds_no_adjoint(traced):
    # the cokernel is read from the problem's own spans and SigmaZero.scalar is
    # built in closed form; building either adjoint again shows in these counts.
    # The three bases are P's, its negation and the certificate's doubled
    # lattice: a band-limited problem is not rebuilt at 2N.
    metrics = traced("index_fresh", 1)["metrics"]
    names = [
        "cylinder_solver.adjoint_problem_calls",
        "boundary_conditions.adjoint_calls",
        "spectral_core.sigma_builds",
        "spectral_core.basis_builds",
        "cylinder_solver.constraint_cells",
    ]
    assert {n: metrics[n]["value"] for n in names} == dict(zip(names, [0, 0, 0, 3, 68]))
    solve = traced("solve_verify", 1)["metrics"]
    assert solve["cylinder_solver.adjoint_problem_calls"]["value"] == 0
