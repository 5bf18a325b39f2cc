"""In-memory spans around the calls into each bigmrf layer.

A span holds its name, start and end (``perf_counter_ns``), the id of the
span that was open when it started, and a few attributes (rows, method,
iterations).  The benchmark opens spans around its own calls into the
package, and the traced run also replaces a few module-level names inside
the package with timing wrappers, so that calls one layer makes into
another (``validity`` into ``spectrum``, ``sampler`` into its chunk
evaluation) get spans too.  Nothing inside ``src/`` changes.  Spans stay in
memory and are written as JSON lines when a worker ends; ``run.py`` pools
the spans of a run's workers into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time

# (module, attribute, span name): calls between layers that get spans in the
# traced run.  The module is the caller, so the wrapper sees exactly the
# calls that module makes.
WRAPPED = (
    ("bigmrf.validity", "min_eig_perturbed", "spectrum.min_eig_perturbed"),
    ("bigmrf.validity", "limit_constant", "spectrum.limit_constant"),
    ("bigmrf.validity", "build_inner_precision", "core.build_inner_precision"),
    ("bigmrf.study", "build_inner_precision", "core.build_inner_precision"),
    ("bigmrf.validity", "lanczos_extreme", "oracle.lanczos_extreme"),
    ("bigmrf.study", "lanczos_extreme", "oracle.lanczos_extreme"),
    ("bigmrf.sampler", "_evaluate", "sampler.chunk"),
    ("bigmrf.sampler", "min_eigs_batch", "spectrum.min_eigs_batch"),
    ("bigmrf.sampler", "batch_circulant_valid", "sampler.batch_circulant_valid"),
)


def _call_attrs(name, args, result):
    if name == "oracle.lanczos_extreme":
        return {"dim": int(args[0].dim), "iterations": int(result.iterations)}
    if name == "sampler.chunk":
        return {"rows": int(len(args[0])), "method": args[2]}
    if name in ("spectrum.min_eigs_batch", "sampler.batch_circulant_valid"):
        return {"rows": int(len(args[0]))}
    return {}


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack()
        self.record["parent"] = stack[-1]["id"] if stack else None
        stack.append(self.record)
        self.record["start_ns"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc):
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.record)
        return False


class _Off:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_OFF = _Off()


class Tracer:
    """Span recorder; a disabled tracer records nothing and wraps nothing."""

    def __init__(self, enabled: bool, first_id: int = 0):
        self.enabled = enabled
        self.spans: list = []
        self._local = threading.local()
        self._next_id = first_id
        self._saved: list = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _OFF
        self._next_id += 1
        return _Span(self, {"id": self._next_id, "name": name, **attrs})

    def install(self):
        """Wrap the inter-layer calls listed in WRAPPED (traced runs only)."""
        if not self.enabled:
            return
        for mod_name, attr, name in WRAPPED:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                rec.update(_call_attrs(name, args, result))
            return result
        return traced

    def write(self, path: str):
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


def _dur(rec) -> int:
    return rec["end_ns"] - rec["start_ns"]


def layer_metrics(spans: list) -> dict:
    """Per-layer figures from the spans of one traced run (values only)."""
    by_id = {rec["id"]: rec for rec in spans}
    children: dict = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)

    def named(name, parent=None):
        return [rec for rec in spans if rec["name"] == name
                and (parent is None or by_id.get(rec["parent"], {}).get("name") == parent)]

    def med(values):
        return float(statistics.median(values))

    circ_chunks = {rec["id"] for rec in named("sampler.chunk") if rec["method"] == "circulant"}
    lanczos = named("oracle.lanczos_extreme")
    samples = [rec for rec in named("sampler.sample_valid") if rec["method"] == "circulant"]
    return {
        "core.build_inner_precision_ms":
            med([_dur(r) for r in named("core.build_inner_precision")]) / 1e6,
        "spectrum.min_eig_perturbed_us":
            med([_dur(r) for r in named("spectrum.min_eig_perturbed",
                                        "validity.circulant_check")]) / 1e3,
        "spectrum.min_eig_perturbed_doubled_us":
            med([_dur(r) for r in named("spectrum.min_eig_perturbed",
                                        "validity.certified_check")]) / 1e3,
        "spectrum.min_eigs_batch_us_per_proposal":
            med([_dur(r) / r["rows"] for r in named("spectrum.min_eigs_batch")
                 if r["parent"] in circ_chunks]) / 1e3,
        "spectrum.limit_constant_us":
            med([_dur(r) for r in named("spectrum.limit_constant")]) / 1e3,
        "validity.circulant_self_us":
            med([_dur(r) - sum(_dur(c) for c in children.get(r["id"], []))
                 for r in named("validity.circulant_check")]) / 1e3,
        "oracle.lanczos_extreme_s": med([_dur(r) for r in lanczos]) / 1e9,
        "oracle.lanczos_iterations": med([r["iterations"] for r in lanczos]),
        "oracle.lanczos_basis_mb":
            max(r["iterations"] * r["dim"] * 8 for r in lanczos) / 1e6,
        "sampler.chunk_ms":
            med([_dur(r) for r in spans if r["id"] in circ_chunks]) / 1e6,
        "sampler.write_csv_rows_per_s":
            med([r["rows"] / _dur(r) * 1e9 for r in named("sampler.write_csv")]),
        "sampler.batch_circulant_valid_us_per_proposal":
            med([_dur(r) / r["rows"] for r in named("sampler.batch_circulant_valid")]) / 1e3,
        "sampler.acceptance_rate":
            sum(r["accepted"] for r in samples) / sum(r["rows"] for r in samples),
        "study.convergence_sweep_s":
            med([_dur(r) for r in named("study.convergence_sweep")]) / 1e9,
    }
