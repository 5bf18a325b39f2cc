"""The benchmark's workloads: inputs made through the package's API, and one
round of timed calls each.

Every workload is one closed-loop caller.  A round makes the same calls on
the same inputs every time (only the coverage experiment draws a fresh seed
per round, so that its counts can be pooled), so a run's outputs must repeat
exactly from round to round; each workload keeps its first round's outputs
for the checks in ``checks.py`` and compares later rounds against them.

``full=False`` builds the small, fixed probe of a workload that the other
workloads run after their own rounds (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

from bigmrf import (GridDims, Theta, certified_check, circulant_check,
                    convergence_sweep, dd_coverage_experiment, draw_limit_valid,
                    exact_check, fit_loglog, limit_check, sample_valid,
                    write_fits_csv, write_study_csv)

NAMES = ("phi", "rho11", "rho12", "rho21", "rho22")


class Ops:
    """Counts the program operations a run attempts and those that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # counted as a failed operation, run goes on
            self.failed += 1
            print(f"operation failed: {getattr(fn, '__name__', fn)}: {err!r}",
                  file=sys.stderr)
            return None


def boundary_scales(u, dims: GridDims):
    """Scales at which s*u meets the doubled-grid and the grid periodic boundary.

    Every periodic symbol block is the identity plus a linear function of
    theta, so the periodic minimum at s*u is 1 + s*(m - 1) for s >= 0, where m
    is the minimum at u.  The doubled grid's boundary certifies the lattice
    by interlacing; the grid's own boundary is where ``circulant`` flips.
    """
    t = Theta.from_array(u)
    m_cert = certified_check(t, dims).min_eig_evidence
    m_circ = circulant_check(t, dims).min_eig_evidence
    return 1.0 / (1.0 - m_cert), 1.0 / (1.0 - m_circ)


def symmetry(u, k: int) -> np.ndarray:
    """One of 16 orthogonal similarities of the lattice precision, on theta.

    Bit 0 flips the sign of variable 2 (phi, rho12, rho21), bit 1 flips a
    checkerboard sign on both variables (every neighbour coupling), bit 2
    swaps the two variables (rho11 <-> rho22, rho12 <-> rho21) and bit 3
    reverses the lattice (rho12 <-> rho21).  The spectrum is unchanged at
    every grid size.
    """
    phi, r11, r12, r21, r22 = (float(v) for v in u)
    a = -1.0 if k & 1 else 1.0
    b = -1.0 if k & 2 else 1.0
    phi, r11, r12, r21, r22 = a * phi, b * r11, a * b * r12, a * b * r21, b * r22
    if k & 4:
        r11, r22, r12, r21 = r22, r11, r21, r12
    if k & 8:
        r12, r21 = r21, r12
    return np.array([phi, r11, r12, r21, r22])


def _timed(ops, tracer, span, fn, *args, **kwargs):
    """(result, seconds) of one program call inside a span."""
    with tracer.span(span):
        t0 = time.perf_counter()
        result = ops.call(fn, *args, **kwargs)
        elapsed = time.perf_counter() - t0
    return result, elapsed


class Membership:
    """Single-theta membership questions on one non-square grid with an odd side."""

    DIMS = GridDims(201, 150)
    METHODS = (("circulant", circulant_check, True),
               ("certified", certified_check, True),
               ("limit", limit_check, False))
    CLI_CALLS = (("circulant", 0), ("certified", 1), ("limit", 3))
    PROBE_CLI_CALLS = CLI_CALLS[:1]

    def __init__(self, seed: int, full: bool, tmpdir: str):
        self.full = full
        rng = np.random.default_rng([seed, 1])
        self.thetas = []
        for k in range(8 if full else 4):
            u = rng.uniform(-1.0, 1.0, 5)
            if k % 2 == 0:
                u[3] = u[2]
            s_cert, s_circ = boundary_scales(u, self.DIMS)
            self.thetas.append(Theta.from_array(u * s_cert * rng.uniform(0.5, 0.98)))
            self.thetas.append(Theta.from_array(u * s_circ * rng.uniform(1.05, 1.5)))
        self.cli_calls = self.CLI_CALLS if full else self.PROBE_CLI_CALLS
        self.times = {name: [] for name, _, _ in self.METHODS}
        self.cli_times = []
        self.verdicts = None      # [theta][method] -> ValidityVerdict, round 0
        self.cli = None           # [(method, theta index, returncode, stdout)], round 0
        self.drift = []

    def _cli_argv(self, method, theta):
        return ([sys.executable, "-m", "bigmrf.cli", "check", f"--method={method}",
                 f"--n1={self.DIMS.n1}", f"--n2={self.DIMS.n2}"]
                + [f"--{name}={getattr(theta, name)!r}" for name in NAMES])

    def run_round(self, r, ops, tracer):
        # One method over the whole stream at a time, as a caller screening
        # a list of theta would, so consecutive calls share a warm cache.
        by_method = []
        for name, fn, gridded in self.METHODS:
            column = []
            for theta in self.thetas:
                args = (theta, self.DIMS) if gridded else (theta,)
                v, elapsed = _timed(ops, tracer, f"validity.{name}_check", fn, *args)
                self.times[name].append(elapsed)
                column.append(v)
            by_method.append(column)
        verdicts = [list(row) for row in zip(*by_method)]
        cli = []
        for method, i in self.cli_calls:
            with tracer.span("cli.check_process", method=method):
                t0 = time.perf_counter()
                proc = subprocess.run(self._cli_argv(method, self.thetas[i]),
                                      capture_output=True, text=True, timeout=120)
                self.cli_times.append(time.perf_counter() - t0)
            ops.attempted += 1
            if proc.returncode not in (0, 1, 2):
                ops.failed += 1
                print(f"bigmrf check exited {proc.returncode}: {proc.stderr}",
                      file=sys.stderr)
            cli.append((method, i, proc.returncode, proc.stdout))
        if self.verdicts is None:
            self.verdicts, self.cli = verdicts, cli
            return
        if [list(map(_key, row)) for row in verdicts] != [
                list(map(_key, row)) for row in self.verdicts]:
            self.drift.append(f"membership round {r}: verdicts differ from round 0")
        for (_, _, code, out), (_, _, code0, out0) in zip(cli, self.cli):
            if code != code0 or _drop_elapsed(out) != _drop_elapsed(out0):
                self.drift.append(f"membership round {r}: CLI output differs from round 0")

    def samples(self):
        return {
            "check_circulant_us": [t * 1e6 for t in self.times["circulant"]],
            "check_certified_us": [t * 1e6 for t in self.times["certified"]],
            "check_limit_us": [t * 1e6 for t in self.times["limit"]],
            "cli_check_s": self.cli_times,
        }

    def outputs(self):
        return ([list(map(_key, row)) for row in self.verdicts],
                [(code, _drop_elapsed(out)) for _, _, code, out in self.cli])


def _key(verdict):
    """What must repeat exactly between rounds (the elapsed time may not)."""
    return None if verdict is None else (verdict.valid, verdict.min_eig_evidence)


def _drop_elapsed(stdout: str):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    doc.pop("elapsed_ns", None)
    return doc


class Sample:
    """Mapping the valid region at 100x100: rejection sampling and coverage."""

    DIMS = GridDims(100, 100)

    def __init__(self, seed: int, full: bool, tmpdir: str):
        self.full = full
        self.seed = seed
        self.n_sample, self.n_coverage, self.n_limit = (
            (8192, 1024, 256) if full else (2048, 256, 64))
        self.coverage_seeds = [int(s) for s in
                               np.random.SeedSequence([seed, 2]).generate_state(256)]
        self.csv_path = os.path.join(tmpdir, f"sample-{'full' if full else 'probe'}.csv")
        self.rates = {"sample": [], "coverage": [], "limit": []}
        self.batch = None
        self.csv_digest = None
        self.limit_batch = None
        self.coverages = []
        self.drift = []

    def run_round(self, r, ops, tracer):
        with tracer.span("sampler.sample_valid", method="circulant",
                         rows=self.n_sample) as rec:
            t0 = time.perf_counter()
            batch = ops.call(sample_valid, self.DIMS, self.n_sample,
                             method="circulant", seed=self.seed, threads=1)
            if batch is not None:
                rec["accepted"] = batch.n_accepted
        if batch is not None:
            with tracer.span("sampler.write_csv", rows=self.n_sample):
                ops.call(batch.write_csv, self.csv_path, include_rejected=True)
            self.rates["sample"].append(self.n_sample / (time.perf_counter() - t0))

        cov, elapsed = _timed(ops, tracer, "sampler.dd_coverage_experiment",
                                 dd_coverage_experiment, self.DIMS, self.n_coverage,
                                 seed=self.coverage_seeds[r])
        if cov is not None:
            self.rates["coverage"].append(cov.n_proposed / elapsed)
            self.coverages.append(cov)

        with tracer.span("sampler.sample_valid", method="limit", rows=self.n_limit):
            t0 = time.perf_counter()
            limit_batch = ops.call(sample_valid, self.DIMS, self.n_limit,
                                   method="limit", seed=self.seed, threads=1)
            elapsed = time.perf_counter() - t0
        if limit_batch is not None:
            self.rates["limit"].append(self.n_limit / elapsed)

        if batch is None or limit_batch is None:
            return
        with open(self.csv_path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if self.batch is None:
            self.batch, self.csv_digest, self.limit_batch = batch, digest, limit_batch
        elif (digest != self.csv_digest
              or not np.array_equal(limit_batch.min_eig, self.limit_batch.min_eig)):
            self.drift.append(f"sample round {r}: outputs differ from round 0")

    def samples(self):
        return {
            "sample_proposals_per_s": self.rates["sample"],
            "coverage_proposals_per_s": self.rates["coverage"],
            "limit_sample_proposals_per_s": self.rates["limit"],
        }

    def outputs(self):
        return (self.csv_digest, self.limit_batch.min_eig.tolist(), self.coverages[0])


class Oracle:
    """Ground truth: the exact check on Lanczos-path grids, and the convergence study.

    The oracle's cost follows the spectrum, so the inputs come from four fixed
    base directions (two with rho12 == rho21).  The seed picks one
    spectrum-preserving symmetry of each direction and the scales within each
    class, so every seed asks equally hard questions with different inputs.
    """

    GRIDS = (GridDims(33, 32), GridDims(64, 48))
    BIG = GridDims(100, 100)
    CLASSES = ("valid", "near", "invalid")
    STUDY_GRIDS = tuple(GridDims(m, m) for m in (24, 44, 64))
    PROBE_STUDY_GRIDS = tuple(GridDims(m, m) for m in (24, 34, 44))
    BASE_SEED = 20160418
    STUDY_DRAW_SEED = 7

    def __init__(self, seed: int, full: bool, tmpdir: str):
        base = np.random.default_rng(self.BASE_SEED).uniform(-1.0, 1.0, (4, 5))
        base[0::2, 3] = base[0::2, 2]
        rng = np.random.default_rng([seed, 3])
        dirs = [symmetry(u, int(k)) for u, k in zip(base, rng.integers(16, size=4))]
        plan = [(dims, (gi + ci) % 4, cls)
                for gi, dims in enumerate(self.GRIDS if full else self.GRIDS[:1])
                for ci, cls in enumerate(self.CLASSES)]
        if full:
            plan.append((self.BIG, 1, "near"))
        self.checks = [(dims, cls, self._scaled(dirs[d], dims, cls, rng))
                       for dims, d, cls in plan]
        self.n_study = 2 if full else 1
        self.study_grids = self.STUDY_GRIDS if full else self.PROBE_STUDY_GRIDS
        self.study_symmetries = [int(k) for k in rng.integers(16, size=self.n_study)]
        self.records_path = os.path.join(tmpdir, "study_records.csv")
        self.fits_path = os.path.join(tmpdir, "study_fits.csv")
        self.exact_times = []
        self.study_times = []
        self.verdicts = None
        self.study = None         # (thetas, records, fits) of round 0
        self.drift = []

    @staticmethod
    def _scaled(u, dims, cls, rng) -> Theta:
        s_cert, s_circ = boundary_scales(u, dims)
        if cls == "valid":
            s = s_cert * rng.uniform(0.4, 0.8)
        elif cls == "near":
            s = s_cert * (1.0 - rng.uniform(0.001, 0.01))
        else:
            s = s_circ * rng.uniform(1.2, 1.5)
        return Theta.from_array(u * s)

    def run_round(self, r, ops, tracer):
        t0 = time.perf_counter()
        verdicts = [_timed(ops, tracer, "validity.exact_check", exact_check, theta, dims)[0]
                    for dims, _, theta in self.checks]
        self.exact_times.append((time.perf_counter() - t0) / len(self.checks))

        t0 = time.perf_counter()
        drawn = _timed(ops, tracer, "sampler.draw_limit_valid", draw_limit_valid,
                       self.n_study, seed=self.STUDY_DRAW_SEED)[0] or []
        thetas = [Theta.from_array(symmetry(t.as_array(), k))
                  for t, k in zip(drawn, self.study_symmetries)]
        records = _timed(ops, tracer, "study.convergence_sweep", convergence_sweep,
                         thetas, self.study_grids, threads=1)[0] or []
        fits = []
        for idx in range(len(thetas)):
            mine = [rec for rec in records if rec.theta_idx == idx]
            for fld in ("delta", "eps"):
                try:
                    fits.append((idx, fld, fit_loglog(mine, fld)))
                except ValueError:
                    pass  # too few positive points for a log fit, as in the CLI
        ops.call(write_study_csv, records, self.records_path)
        ops.call(write_fits_csv, fits, self.fits_path)
        self.study_times.append(time.perf_counter() - t0)

        if self.verdicts is None:
            self.verdicts, self.study = verdicts, (thetas, records, fits)
            return
        if (list(map(_key, verdicts)) != list(map(_key, self.verdicts))
                or records != self.study[1]):
            self.drift.append(f"oracle round {r}: outputs differ from round 0")

    def samples(self):
        return {"exact_check_s": self.exact_times, "study_s": self.study_times}

    def outputs(self):
        return list(map(_key, self.verdicts)), self.study


KINDS = {"membership": Membership, "sample": Sample, "oracle": Oracle}
