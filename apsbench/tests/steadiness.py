"""Steadiness check: run each workload on several seeds and compare spreads with bounds.

    python3 apsbench/tests/steadiness.py --runs 10 --first-seed 100
    python3 apsbench/tests/steadiness.py --runs 5 --workloads scenario_batch

For each workload and end-to-end metric it prints the median over the runs,
the distance between the first and third quartile as a share of that median,
and the metric's bound from BENCHMARK.json, and marks spreads above a third of
the bound.  It also prints the share of failed operations in each run, which
must be the same in every run.  Raw results go to apsbench/out/.  Exits 1 when
a spread exceeds its bound (``setup_s`` excepted, whose runs are compared by
median only), when a run is not correct, or when failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    ok = True
    record = {}
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(spec, workload, seed, args.seconds))
            r = runs[-1]
            print(f"  {workload} seed {seed}: attempted {r['attempted']} failed {r['failed']} "
                  f"wall {r['wall_s']:.1f}s", flush=True)
        record[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: correct={correct} failed shares={sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            flag = "" if s < m["bound"] / 3 else ("  above bound/3" if s <= m["bound"] else "  ABOVE BOUND")
            print(f"  {m['name']:<12} median {statistics.median(values):12.4f} {m['unit']:<4} "
                  f"spread {s:7.4f}  bound {m['bound']:.2f}{flag}")
            if m["name"] != "setup_s" and s > m["bound"]:
                ok = False
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"steadiness-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
