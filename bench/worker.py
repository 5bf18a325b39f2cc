"""One part of a run of one workload, in a fresh process started by ``run.py``.

Prints ``READY`` once bigmrf is imported and the inputs are made.  Then it
runs whole rounds of the workload for about ``--seconds``, then
``PROBE_ROUNDS`` rounds of the fixed probes of the other workloads, and
prints one JSON object as its last line: the raw
samples of every end-to-end metric, its peak memory, the attempted and
failed operation counts, and a digest of its outputs.  Part 0 also checks
every output and reports whether all checks passed; the other parts make
the same calls on the same inputs, so ``run.py`` compares their digests
with part 0's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import Tracer
from workloads import KINDS, Ops

PROBE_SEED = 0
PROBE_ROUNDS = 2
# Fixed inputs for the CLI layer figures: a valid theta on the membership grid.
CLI_ARGV = ["check", "--method=circulant", "--n1=201", "--n2=150", "--phi=0.1",
            "--rho11=0.2", "--rho12=0.05", "--rho21=-0.05", "--rho22=0.2"]


def _process_s(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def cli_layers(ops) -> dict:
    """cli.import_s (fresh interpreter, minus a bare start) and cli.main_ms."""
    import bigmrf.cli
    main_s = []
    for _ in range(9):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = ops.call(bigmrf.cli.main, CLI_ARGV)
            main_s.append(time.perf_counter() - t0)
        if code not in (None, 0):  # None: ops.call has counted the failure
            ops.failed += 1
    bare, imported = [], []
    for _ in range(5):
        bare.append(_process_s([sys.executable, "-c", "pass"]))
        imported.append(_process_s([sys.executable, "-c", "import bigmrf.cli"]))
    return {"cli.import_s": statistics.median(imported) - statistics.median(bare),
            "cli.main_ms": statistics.median(main_s) * 1e3}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(KINDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--part", type=int, required=True)
    args = p.parse_args()

    tmpdir = tempfile.mkdtemp(dir=args.out, prefix="run-")
    try:
        own = KINDS[args.workload](args.seed, True, tmpdir)
        probes = [cls(PROBE_SEED, False, tmpdir)
                  for name, cls in KINDS.items() if name != args.workload]
        print("READY", flush=True)

        ops = Ops()
        tracer = Tracer(bool(args.trace), first_id=args.part * 10**9)
        tracer.install()
        start = time.perf_counter()
        deadline = start + args.seconds
        rounds = 0
        last = 0.0
        # A round starts only if one more round as long as the last one fits.
        while rounds == 0 or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            own.run_round(rounds, ops, tracer)
            rounds += 1
            last = time.perf_counter() - t0
        # The probes run after the own rounds, never between them.  glibc
        # keeps freed memory on the heap only once a block as large has been
        # freed, and the sample and oracle probes free larger blocks than
        # membership does: a probe inside the window would make the own calls
        # after it several times cheaper than those before it.  This way
        # every own round follows the same calls in every run.
        for r in range(PROBE_ROUNDS):
            for probe in probes:
                probe.run_round(r, ops, tracer)
        t_window = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.uninstall()

        result = {"peak_rss_mb": peak_rss_mb, "samples": {}}
        for w in (own, *probes):
            result["samples"].update(w.samples())
        result["digest"] = hashlib.sha256(
            repr([w.outputs() for w in (own, *probes)]).encode()).hexdigest()
        if args.trace:
            tracer.write(os.path.join(
                args.out, f"trace-{args.workload}-seed{args.seed}-part{args.part}.jsonl"))
            if args.part == 0:
                result["cli_layers"] = cli_layers(ops)
        if args.part == 0:
            import checks  # loads scipy.optimize; kept out of the set-up time
            errors = [e for w in (own, *probes) for e in checks.check(w)]
            for e in errors:
                print(f"check failed: {e}", file=sys.stderr)
            result["correct"] = not errors
        print(f"worker part {args.part}: {rounds} rounds, window and probes "
              f"{t_window - start:.1f} s, after them {time.perf_counter() - t_window:.1f} s",
              file=sys.stderr)
        result.update(attempted=ops.attempted, failed=ops.failed)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
