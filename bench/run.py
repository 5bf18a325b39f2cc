"""Benchmark for bigmrf.

    python3 bench/run.py --workload {membership,sample,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is used from ``src/`` (it
need not be installed).  A run is three fresh worker processes, started one
at a time with BLAS pinned to one thread, each measuring for S/3 seconds;
their samples are pooled and each metric is a median over the pool.  Fresh
processes differ in where their memory lands, which moves per-call times by
up to a third from one process to the next, so three of them per run steady
the medians.  ``setup_s`` is the median of the three workers' set-up times.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("membership", "sample", "oracle")
PARTS = 3
# Seconds a run may take beyond twice its window (set-up, probes, checks)
# before its workers are killed.
BUDGET_MARGIN_S = 110.0


def _spawn(argv, env, timeout):
    """Run a worker; (seconds until it printed READY, stdout lines, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        lines = [first] + proc.stdout.read().splitlines()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY":
        ready = None
    return ready, lines, proc.returncode


def _read_spans(paths) -> list:
    spans = []
    for path in paths:
        with open(path) as f:
            spans.extend(json.loads(line) for line in f)
    return spans


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = ROOT / "src"
    if not (src / "bigmrf" / "__init__.py").is_file():
        print(f"run.py: no bigmrf package under {src}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    start = time.perf_counter()
    budget = 2.0 * args.seconds + BUDGET_MARGIN_S
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("GMRF_THREADS", None)
    out = HERE / "out"
    out.mkdir(exist_ok=True)

    setups, results = [], []
    for part in range(PARTS):
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds / PARTS),
                "--trace", str(args.trace), "--out", str(out), "--part", str(part)]
        ready, lines, code = _spawn(argv, env, budget - (time.perf_counter() - start))
        if ready is None or code != 0:
            print(f"run.py: worker part {part} exited {code}", file=sys.stderr)
            return 1
        setups.append(ready)
        results.append(json.loads(lines[-1]))

    pooled: dict = {}
    for res in results:
        for name, values in res["samples"].items():
            pooled.setdefault(name, []).extend(values)
    values = {name: statistics.median(v) for name, v in pooled.items() if v}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = statistics.median(res["peak_rss_mb"] for res in results)
    correct = results[0]["correct"]
    if any(res["digest"] != results[0]["digest"] for res in results):
        print("run.py: workers' outputs differ on the same inputs", file=sys.stderr)
        correct = False

    if args.trace:
        layers = layer_metrics(_read_spans(
            out / f"trace-{args.workload}-seed{args.seed}-part{part}.jsonl"
            for part in range(PARTS)))
        layers.update(results[0]["cli_layers"])
        with open(out / f"trace-{args.workload}-seed{args.seed}-summary.json", "w") as f:
            json.dump({"end_to_end": values, "per_layer": layers}, f, indent=1)
        values = layers

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
