"""Run one workload of the apslab benchmark and print its metrics.

    python3 apsbench/run.py --workload index_fresh --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes over
the same rounds and reports the per-layer metrics.  Human-readable detail
goes to standard error and to ``apsbench/out/``.
"""

import os

# One BLAS thread, set before numpy is first imported in this process.  On a
# shared two-core machine OpenBLAS's default threads made dense index() times
# swing by an order of magnitude from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("index_fresh", "scenario_batch", "solve_verify")
SETUP_SAMPLES = 5  # this process plus four short set-up-only processes
SETUP_ROUNDS = 32  # rounds generated during set-up; later rounds are generated on demand


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import apslab from this checkout's ``src/`` and nothing else."""
    init = os.path.join(SRC, "apslab", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no apslab sources at {init}")
    sys.path.insert(0, SRC)
    import apslab

    if os.path.abspath(apslab.__file__) != os.path.abspath(init):
        raise SystemExit(f"error: imported apslab from {apslab.__file__}, not {init}")
    import workloads

    return workloads


class Inputs:
    """Rounds of operation inputs, drawn from the workload seed round by round."""

    def __init__(self, make_round, seed: int):
        self.make_round = make_round
        self.seed = seed
        self.rounds = [make_round(seed, k) for k in range(SETUP_ROUNDS)]

    def __getitem__(self, k: int) -> list:
        while k >= len(self.rounds):
            self.rounds.append(self.make_round(self.seed, len(self.rounds)))
        return self.rounds[k]


def setup(workload: str, seed: int):
    t0 = time.perf_counter()
    wl = import_program()
    inputs = Inputs(wl.WORKLOADS[workload][0], seed)
    return wl, inputs, time.perf_counter() - t0


def setup_samples(workload: str, seed: int, own: float) -> list:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_rounds(wl, workload, inputs, seconds=None, n_rounds=None, first=0, tracer=None,
               verdict=None):
    """Closed loop over whole rounds from round ``first``, for ``seconds`` or ``n_rounds``.

    When ``verdict`` is given, each output is collected and checked right
    after its operation, outside the timed region, and then dropped, so the
    process never holds more than one output and its peak memory does not grow
    with the number of operations.  Returns per-operation seconds, (input,
    ok) pairs and the loop's wall time without the untimed work.
    """
    _, op, collect = wl.WORKLOADS[workload]
    times, verdicts = [], []
    untimed = 0.0
    clock = time.perf_counter
    start = clock()
    k = first
    while True:
        for p in inputs[k]:
            t0 = clock()
            try:
                out = tracer.run_op(op, p) if tracer else op(p)
            except Exception as e:  # an operation that raises counts as failed
                out = e
            t1 = clock()
            times.append(t1 - t0)
            if verdict is not None:
                verdicts.append((p, verdict(p, out if isinstance(out, Exception) else collect(out))))
            untimed += clock() - t1
        k += 1
        if n_rounds is not None:
            if k - first >= n_rounds:
                break
        elif clock() - start - untimed >= seconds:
            break
    return times, verdicts, clock() - start - untimed


def make_verdict(wl, workload):
    """The check of one (input, output) pair against the independent computations."""
    import checks

    template = wl.load_batch_template()

    def verdict(p, out) -> bool:
        if isinstance(out, Exception):
            print(f"operation raised {type(out).__name__}: {out}", file=sys.stderr)
            return False
        if workload == "index_fresh":
            graph_end = p["left_w"] or p["right_w"]
            return checks.index_ok(p, out) and (not graph_end or checks.rho_invariant(p, out))
        if workload == "solve_verify":
            return checks.solve_ok(p, out)
        return checks.batch_ok(template, out)

    return verdict


def tally(wl, verdicts) -> tuple:
    """(correct, failed): failed counts every failed check, correct ignores the known fault."""
    correct, failed = True, 0
    for p, ok in verdicts:
        if not ok:
            failed += 1
            if p.get("kind") not in wl.KNOWN_FAULT_KINDS:
                correct = False
                print(f"check failed: {json.dumps(p, default=str)[:300]}", file=sys.stderr)
    return correct, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, inputs, own_setup):
    _, op, _ = wl.WORKLOADS[args.workload]
    op(inputs[0][0])  # warm-up: lazy imports and first-call costs, not timed
    times, verdicts, wall = run_rounds(wl, args.workload, inputs, seconds=args.seconds,
                                          verdict=make_verdict(wl, args.workload))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, failed = tally(wl, verdicts)
    setup = setup_samples(args.workload, args.seed, own_setup)
    print(f"{args.workload}: {len(times)} ops, set-up samples {[round(s, 4) for s in setup]}",
          file=sys.stderr)
    metrics = {
        "op_ms_p50": metric(1000.0 * statistics.median(times), "ms"),
        "ops_per_s": metric(len(times) / wall, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return correct, len(times), failed, metrics


# per-layer counters: metric -> span name whose calls it counts
COUNTERS = {
    "spectral_core.basis_builds": "spectral_core:EigenmodeBasis.__init__",
    "spectral_core.sigma_builds": "spectral_core:SigmaZero.__init__",
    "spectral_core.from_dense_calls": "spectral_core:BoundarySection.from_dense",
    "boundary_conditions.adjoint_calls": "boundary_conditions:adjoint",
    "boundary_conditions.perp_span_calls": "boundary_conditions:BoundaryCondition.perp_span_matrix",
    "cylinder_solver.adjoint_problem_calls": "cylinder_solver:adjoint_problem",
    "expoly.first_order_solve_calls": "expoly:first_order_solve",
    "index_calculus.kernel_dim_calls": "index_calculus:kernel_dim",
}
# per-layer times: metric -> span name whose inclusive time it reports
SVD, QR = "linalg:svd", "linalg:qr"
TIMERS = {
    "linalg.svd_ms": SVD,
    "linalg.qr_ms": QR,
    "scenario_cli.parse_ms": "scenario_cli:parse_scenario_file",
    "scenario_cli.emit_ms": "scenario_cli:emit",
}
CONSTRAINT_MATRIX = "cylinder_solver:homogeneous_constraint_matrix"
INDEX = "index_calculus:index"


def certificate_seconds(calls) -> float:
    """Certified minus uncertified time of the captured index() calls, re-run untraced."""
    total = 0.0
    for fn, a, kw in calls:
        t0 = time.perf_counter()
        fn(*a, **{**kw, "certify": True})
        t1 = time.perf_counter()
        fn(*a, **{**kw, "certify": False})
        total += (t1 - t0) - (time.perf_counter() - t1)
    return total


def per_layer(args, wl, inputs):
    """Alternate untraced and traced passes over the same rounds for ``--seconds``.

    Alternating keeps slow drifts of the machine's speed out of
    ``trace.overhead_ms``.  Only the untraced outputs are checked; a check
    would add its own spans to the traced ones.
    """
    import tracer as tr

    _, op, _ = wl.WORKLOADS[args.workload]
    op(inputs[0][0])  # warm-up, as in end_to_end
    verdict = make_verdict(wl, args.workload)
    t = tr.Tracer()
    cells = [0]
    t.on_result[CONSTRAINT_MATRIX] = lambda m: cells.__setitem__(0, cells[0] + m.shape[0] * m.shape[1])
    t.capture[INDEX] = []  # the index() calls of the first traced round
    plain, traced, verdicts, index_calls = [], [], [], None
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        times, v, _ = run_rounds(wl, args.workload, inputs, n_rounds=1, first=k, verdict=verdict)
        plain += times
        verdicts += v
        t.install()
        try:
            times, _, _ = run_rounds(wl, args.workload, inputs, n_rounds=1, first=k, tracer=t)
        finally:
            t.uninstall()
        traced += times
        if index_calls is None:
            index_calls = t.capture.pop(INDEX)
        k += 1
    cert_s = certificate_seconds(index_calls) / len(inputs[0])

    t.write(os.path.join(wl.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    summary = t.summary()
    with open(os.path.join(wl.OUT_DIR, f"layers-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    n = len(traced)
    by_name = summary["by_name"]

    def calls(key):
        return by_name.get(key, {}).get("calls", 0) / n

    def ms(key):
        return 1000.0 * by_name.get(key, {}).get("total_s", 0.0) / n

    hooked_layers = {key.split(":", 1)[0] for key in t.wrapped}
    rows = [(f"{layer}.self_ms", 1000.0 * summary["layer_self_s"].get(layer, 0.0) / n, "ms",
             layer in hooked_layers) for layer in tr.LAYERS]
    rows += [(name, calls(key), "count", key in t.wrapped) for name, key in COUNTERS.items()]
    rows += [(name, ms(key), "ms", key in t.wrapped) for name, key in TIMERS.items()]
    rows += [
        ("linalg.calls", calls(SVD) + calls(QR), "count", {SVD, QR} <= t.wrapped),
        ("cylinder_solver.constraint_cells", cells[0] / n, "count", CONSTRAINT_MATRIX in t.wrapped),
        ("index_calculus.certificate_ms", 1000.0 * cert_s, "ms", INDEX in t.wrapped),
        ("trace.overhead_ms", 1000.0 * (statistics.median(traced) - statistics.median(plain)),
         "ms", True),
    ]
    out = {}
    for name, value, unit, hooked in rows:
        out[name] = metric(value, unit)
        if not hooked:  # the hook's target no longer exists in the program
            out[name]["absent"] = True
            print(f"absent hook: {name}", file=sys.stderr)
    correct, failed = tally(wl, verdicts)
    return correct, len(plain), failed, out


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, inputs, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    if args.trace:
        correct, attempted, failed, metrics = per_layer(args, wl, inputs)
    else:
        correct, attempted, failed, metrics = end_to_end(args, wl, inputs, own_setup)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
