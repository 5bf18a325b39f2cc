"""Convergence-rate experiment and membership-test timing benchmark.

The convergence sweep tracks, per parameter vector and grid, the minimum
eigenvalue of the lattice precision (oracle), of its periodic counterpart
(closed form), and the continuous-symbol limit, together with the two error
measures

    eps   = |lam_min(periodic) - lam_min(lattice)|,
    delta = |lam_min(lattice) - C(theta)|,

whose decay against the grid area is summarised by log-log least-squares
fits.  The benchmark times the closed-form membership check against an
assemble-plus-iterate baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridDims, Theta, _as_dims, _open_out, build_inner_precision
from .oracle import LanczosNonConvergence, lanczos_extreme
from .sampler import DEFAULT_BOX
from .spectrum import (exact_symmetric_min_eig, limit_constant, min_eig_perturbed,
                       min_eigs_batch)

__all__ = [
    "ConvergenceRecord",
    "SlopeFit",
    "ParityStudy",
    "BenchRecord",
    "convergence_sweep",
    "fit_loglog",
    "parity_patterns",
    "bench_membership",
    "STUDY_CSV_HEADER",
    "FITS_CSV_HEADER",
    "BENCH_CSV_HEADER",
    "write_study_csv",
    "write_fits_csv",
    "write_bench_csv",
]


@dataclass(frozen=True)
class ConvergenceRecord:
    theta_idx: int
    theta: Theta
    dims: GridDims
    lam_q: float        # lattice minimum eigenvalue (NaN if the oracle failed)
    lam_qt: float       # periodic minimum eigenvalue, closed form
    c_theta: float
    eps: float
    delta: float
    parity: tuple       # (n1 % 2, n2 % 2)
    converged: bool


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_excluded: int = 0


@dataclass(frozen=True)
class ParityStudy:
    theta: Theta
    records: list
    by_parity: dict      # parity tuple -> list of records
    sign_changes: list   # dims where sign(lam_qt - lam_q) flips


@dataclass(frozen=True)
class BenchRecord:
    dims: GridDims
    case: str            # "valid" | "invalid"
    method: str          # "fast" | "baseline"
    median_ns: int
    ratio: float         # median(baseline) / median(fast) for this (dims, case)


def _lam_q_oracle(theta: Theta, dims: GridDims):
    """(lam_min(Q), converged); a failed run reports its best Ritz value."""
    q = build_inner_precision(theta, dims)
    try:
        return lanczos_extreme(q, min_eig_perturbed(theta, dims.doubled())).value, True
    except LanczosNonConvergence as err:
        return float(err.best_value), False


def convergence_sweep(thetas, grids, lam_q_solver=None,
                      threads: Optional[int] = 1) -> list:
    """One record per (theta, grid), in canonical (theta, grid) order.

    ``lam_q_solver(theta, dims) -> float`` overrides the default oracle
    (shift-invert Lanczos); oracle non-convergence flags the record
    instead of failing the sweep.  The (theta, grid) pairs are independent,
    so ``threads`` may fan them out; every pair's arithmetic is self-contained
    and the output order is fixed, making results scheduling-independent.
    """
    thetas = list(thetas)
    grids = [_as_dims(g) for g in grids]
    if not grids:
        raise ValueError("grids must be nonempty")
    limits = [limit_constant(theta).value for theta in thetas]

    def one(task):
        t_idx, dims = task
        theta = thetas[t_idx]
        lam_qt = min_eig_perturbed(theta, dims)
        if lam_q_solver is not None:
            lam_q, converged = float(lam_q_solver(theta, dims)), True
        else:
            lam_q, converged = _lam_q_oracle(theta, dims)
        c = limits[t_idx]
        return ConvergenceRecord(
            theta_idx=t_idx, theta=theta, dims=dims,
            lam_q=lam_q if converged else float("nan"),
            lam_qt=lam_qt, c_theta=c,
            eps=abs(lam_qt - lam_q) if converged else float("nan"),
            delta=abs(lam_q - c) if converged else float("nan"),
            parity=(dims.n1 % 2, dims.n2 % 2),
            converged=converged)

    tasks = [(t_idx, dims) for t_idx in range(len(thetas)) for dims in grids]
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1 or len(tasks) == 1:
        return [one(task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, tasks))


def fit_loglog(records, field: str = "delta") -> SlopeFit:
    """Least-squares line of log10(field) against log10(n1*n2).

    Records with non-positive or non-finite field values are excluded (their
    count is reported); at least three usable points, on at least two
    distinct grid areas, are required.
    """
    if field not in ("eps", "delta"):
        raise ValueError("field must be 'eps' or 'delta'")
    vals = np.array([getattr(r, field) for r in records])
    area = np.array([r.dims.n for r in records], dtype=np.float64)
    usable = np.isfinite(vals) & (vals > 0.0)
    n_excluded = int((~usable).sum())
    if usable.sum() < 3:
        raise ValueError(f"need >= 3 usable points, got {int(usable.sum())} "
                         f"({n_excluded} excluded)")
    if np.unique(area[usable]).size < 2:
        raise ValueError("usable points must span at least two distinct grid areas")
    x = np.log10(area[usable])
    y = np.log10(vals[usable])
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(((y - (intercept + slope * x)) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r2,
                    n_points=int(usable.sum()), n_excluded=n_excluded)


def parity_patterns(theta: Theta, grids) -> ParityStudy:
    """Stratify the sweep by grid parity and trace sign changes of lam_qt - lam_q.

    For symmetric cross couplings (rho12 == rho21) the lattice minimum
    eigenvalue comes from its closed form instead of the iterative oracle,
    which keeps large-grid parity scans cheap.
    """
    grids = [_as_dims(g) for g in grids]
    solver = None
    if theta.rho12 == theta.rho21:
        solver = exact_symmetric_min_eig
    records = convergence_sweep([theta], grids, lam_q_solver=solver)
    by_parity: dict = {}
    for rec in records:
        by_parity.setdefault(rec.parity, []).append(rec)
    sign_changes = []
    prev_sign = 0.0
    for rec in records:
        if not rec.converged:
            continue
        sign = np.sign(rec.lam_qt - rec.lam_q)
        if sign != 0.0 and prev_sign != 0.0 and sign != prev_sign:
            sign_changes.append(rec.dims)
        if sign != 0.0:
            prev_sign = sign
    return ParityStudy(theta=theta, records=records, by_parity=by_parity,
                       sign_changes=sign_changes)


def _median_ns(fn, reps: int) -> int:
    fn()  # warm-up, discarded
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))


_CLASSIFY_MAX_TRIES = 200_000


def _draw_classified(dims: GridDims, n_valid: int, n_invalid: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    valid, invalid = [], []
    for _ in range(0, _CLASSIFY_MAX_TRIES, 256):
        thetas = rng.uniform(DEFAULT_BOX[:, 0], DEFAULT_BOX[:, 1], size=(256, 5))
        mins = min_eigs_batch(thetas, dims)
        for t, ev in zip(thetas, mins):
            if ev > 0.0 and len(valid) < n_valid:
                valid.append(Theta.from_array(t))
            elif ev <= 0.0 and len(invalid) < n_invalid:
                invalid.append(Theta.from_array(t))
        if len(valid) == n_valid and len(invalid) == n_invalid:
            return valid, invalid
    raise RuntimeError("could not classify enough parameter draws")


def bench_membership(dims_list, n_valid: int, n_invalid: int, seed: int = 0,
                     reps: int = 20, baseline_reps: Optional[int] = None) -> list:
    """Median wall times: closed-form membership check vs assemble-and-iterate.

    For valid parameters the fast path also assembles the matrix (a valid
    draw is kept, so the matrix is needed downstream anyway); for invalid
    ones it stops at the closed-form check.  The baseline always assembles
    and then runs the iterative oracle, shift-invert Lanczos at the
    doubled-grid lower bound.  Timings use the monotonic clock, one discarded
    warm-up, and the median of ``reps`` repetitions; ``baseline_reps`` may
    lower the repetition count for the slower baseline runs, whose medians
    stabilise far sooner than the microsecond fast path.
    """
    if n_valid < 1 or n_invalid < 1:
        raise ValueError("need at least one valid and one invalid draw")
    if reps < 1 or (baseline_reps is not None and baseline_reps < 1):
        raise ValueError("reps must be >= 1")
    if baseline_reps is None:
        baseline_reps = reps
    out = []
    for dims in (_as_dims(d) for d in dims_list):
        valid, invalid = _draw_classified(dims, n_valid, n_invalid, seed)
        for case, thetas in (("valid", valid), ("invalid", invalid)):

            def fast():
                for theta in thetas:
                    ok = min_eig_perturbed(theta, dims) > 0.0
                    if ok and case == "valid":
                        build_inner_precision(theta, dims)

            def baseline():
                for theta in thetas:
                    _lam_q_oracle(theta, dims)

            fast_ns = _median_ns(fast, reps)
            base_ns = _median_ns(baseline, baseline_reps)
            ratio = base_ns / fast_ns
            out.append(BenchRecord(dims=dims, case=case, method="fast",
                                   median_ns=fast_ns, ratio=ratio))
            out.append(BenchRecord(dims=dims, case=case, method="baseline",
                                   median_ns=base_ns, ratio=ratio))
    return out


STUDY_CSV_HEADER = "theta_idx,n1,n2,parity1,parity2,lam_q,lam_qt,c_theta,eps,delta"
FITS_CSV_HEADER = "theta_idx,field,slope,intercept,r2,n_points"
BENCH_CSV_HEADER = "n1,n2,case,method,median_ns,ratio"


def write_study_csv(records, f) -> None:
    with _open_out(f) as out:
        out.write(STUDY_CSV_HEADER + "\n")
        for r in records:
            out.write(f"{r.theta_idx},{r.dims.n1},{r.dims.n2},"
                      f"{r.parity[0]},{r.parity[1]},{r.lam_q!r},{r.lam_qt!r},"
                      f"{r.c_theta!r},{r.eps!r},{r.delta!r}\n")


def write_fits_csv(fits, f) -> None:
    """``fits`` is an iterable of (theta_idx, field, SlopeFit)."""
    with _open_out(f) as out:
        out.write(FITS_CSV_HEADER + "\n")
        for theta_idx, field, fit in fits:
            out.write(f"{theta_idx},{field},{fit.slope!r},{fit.intercept!r},"
                      f"{fit.r_squared!r},{fit.n_points}\n")


def write_bench_csv(records, f) -> None:
    with _open_out(f) as out:
        out.write(BENCH_CSV_HEADER + "\n")
        for r in records:
            out.write(f"{r.dims.n1},{r.dims.n2},{r.case},{r.method},"
                      f"{r.median_ns},{r.ratio!r}\n")
