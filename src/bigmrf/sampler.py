"""Rejection sampling of parameter vectors from the valid parameter space.

Proposals are uniform on a box (default [-1, 1]^5, a superset of the valid
space at every grid size).  Draws are generated in fixed-size chunks, each
chunk from its own spawned child of the batch seed, so the output is
reproducible and independent of worker scheduling or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import GridDims, Theta, _as_dims, _open_out, _write_rows
from .spectrum import _grid_modes, limit_constants, lower_branch_min, min_eigs_batch
from .validity import LIMIT_TOL, _dd_margins, circulant_check, exact_check

__all__ = [
    "SampleBatch",
    "CoverageResult",
    "LowAcceptanceError",
    "DEFAULT_BOX",
    "BATCH_CSV_HEADER",
    "sample_valid",
    "sample_conditional_slice",
    "draw_conditioning_points",
    "draw_limit_valid",
    "dd_coverage_experiment",
    "batch_circulant_valid",
]

DEFAULT_BOX = np.array([[-1.0, 1.0]] * 5)
_CHUNK = 2048
_WARMUP = 4096
_MIN_RATE = 1e-4
_COVERAGE_CHUNK = 16384
_COVERAGE_MAX_PROPOSALS = 200_000_000
_LIMIT_MAX_TRIES = 2_000_000
_CONDITIONING_MAX_TRIES = 100_000

BATCH_CSV_HEADER = "idx,phi,rho11,rho12,rho21,rho22,valid,dd_valid,min_eig"


class LowAcceptanceError(RuntimeError):
    """Raised when almost nothing in the proposal box is accepted."""


@dataclass
class SampleBatch:
    """Columnar record of one rejection-sampling run.

    One row per proposal: the parameter vector, whether the primary method
    accepted it, its diagonal-dominance tag, and the primary method's
    minimum-eigenvalue evidence.  Same seed, same batch, regardless of the
    worker count.
    """

    dims: GridDims
    seed: int
    method: str
    box: np.ndarray                 # (5, 2) bounds
    thetas: np.ndarray              # (N, 5)
    accepted: np.ndarray            # (N,) bool, primary method says valid
    dd_valid: np.ndarray            # (N,) bool
    min_eig: np.ndarray             # (N,) evidence of the primary method
    fixed_mask: np.ndarray = field(default_factory=lambda: np.zeros(5, bool))

    @property
    def n_proposed(self) -> int:
        return int(self.thetas.shape[0])

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposed if self.n_proposed else 0.0

    def accepted_thetas(self) -> np.ndarray:
        return self.thetas[self.accepted]

    def theta_at(self, idx: int) -> Theta:
        return Theta.from_array(self.thetas[idx])

    def write_csv(self, f, include_rejected: bool = False) -> None:
        rows = (np.arange(self.n_proposed) if include_rejected
                else np.flatnonzero(self.accepted))
        with _open_out(f) as out:
            out.write(BATCH_CSV_HEADER + "\n")
            _write_rows(out, "%d,%r,%r,%r,%r,%r,%s,%s,%r\n", rows,
                        [np.arange(self.n_proposed), *self.thetas.T,
                         self.accepted, self.dd_valid, self.min_eig])


def _evaluate(thetas: np.ndarray, dims: GridDims, method: str):
    """(accepted, evidence) for one chunk of proposals under the given method."""
    if method == "circulant":
        ev = min_eigs_batch(thetas, dims)
        return ev > 0.0, ev
    if method == "certified":
        ev = min_eigs_batch(thetas, dims.doubled())
        return ev > 0.0, ev
    if method == "diag_dominance":
        ev = _dd_margins(thetas)
        return ev > 0.0, ev
    if method == "limit":
        ev = limit_constants(thetas)
        return ev > LIMIT_TOL, ev
    if method == "exact":
        verdicts = [exact_check(Theta.from_array(t), dims) for t in thetas]
        return (np.array([v.valid is True for v in verdicts]),
                np.array([v.min_eig_evidence for v in verdicts]))
    raise ValueError(f"unknown validity method {method!r}")


def _run_chunks(dims, n_draws, method, seed, threads, proposer):
    n_chunks = math.ceil(n_draws / _CHUNK)
    children = np.random.SeedSequence(seed).spawn(max(n_chunks, 1))

    def work(c):
        size = min(_CHUNK, n_draws - c * _CHUNK)
        rng = np.random.default_rng(children[c])
        thetas = proposer(rng, size)
        ok, ev = _evaluate(thetas, dims, method)
        return thetas, ok, ev, _dd_margins(thetas) > 0.0

    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1 or n_chunks == 1:
        parts = [work(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, range(n_chunks)))

    thetas = np.concatenate([p[0] for p in parts])
    accepted = np.concatenate([p[1] for p in parts])
    evidence = np.concatenate([p[2] for p in parts])
    dd = np.concatenate([p[3] for p in parts])

    if n_draws >= _WARMUP and accepted[:_WARMUP].mean() < _MIN_RATE:
        raise LowAcceptanceError(
            f"acceptance rate {accepted[:_WARMUP].mean():.2e} below {_MIN_RATE:g} "
            f"after {_WARMUP} proposals (method={method}, dims=({dims.n1},{dims.n2}))")
    return thetas, accepted, evidence, dd


def sample_valid(dims, n_draws: int, method: str = "circulant",
                 seed: int = 0, box: Optional[np.ndarray] = None,
                 threads: Optional[int] = None) -> SampleBatch:
    """Propose ``n_draws`` uniform parameter vectors, tag each with its verdict.

    Acceptance means the chosen method declared the proposal valid; every
    proposal additionally carries its diagonal-dominance tag.  Aborts with
    :class:`LowAcceptanceError` when the acceptance rate after a warm-up
    budget falls below 1e-4.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    dims = _as_dims(dims)
    box = DEFAULT_BOX if box is None else np.asarray(box, dtype=np.float64)
    if box.shape != (5, 2) or not (box[:, 1] >= box[:, 0]).all():
        raise ValueError("box must be a (5, 2) array of [low, high] bounds")

    def proposer(rng, size):
        return rng.uniform(box[:, 0], box[:, 1], size=(size, 5))

    thetas, accepted, evidence, dd = _run_chunks(
        dims, n_draws, method, seed, threads, proposer)
    return SampleBatch(dims=dims, seed=seed, method=method, box=box,
                       thetas=thetas, accepted=accepted, dd_valid=dd,
                       min_eig=evidence)


def sample_conditional_slice(phi: float, rho11: float, rho22: float, dims,
                             n_draws: int, seed: int = 0,
                             method: str = "circulant",
                             threads: Optional[int] = None) -> SampleBatch:
    """Slice the space over the cross couplings at fixed (phi, rho11, rho22).

    Proposes (rho12, rho21) uniform on [-1, 1]^2, accepts by the chosen
    method, and tags each proposal with its diagonal-dominance status (the
    two-colour display of the slice).
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    dims = _as_dims(dims)
    phi, rho11, rho22 = float(phi), float(rho11), float(rho22)

    def proposer(rng, size):
        cross = rng.uniform(-1.0, 1.0, size=(size, 2))
        thetas = np.empty((size, 5))
        thetas[:, 0] = phi
        thetas[:, 1] = rho11
        thetas[:, 2] = cross[:, 0]
        thetas[:, 3] = cross[:, 1]
        thetas[:, 4] = rho22
        return thetas

    box = np.array([[phi, phi], [rho11, rho11], [-1.0, 1.0], [-1.0, 1.0],
                    [rho22, rho22]])
    thetas, accepted, evidence, dd = _run_chunks(
        dims, n_draws, method, seed, threads, proposer)
    return SampleBatch(dims=dims, seed=seed, method=method, box=box,
                       thetas=thetas, accepted=accepted, dd_valid=dd,
                       min_eig=evidence,
                       fixed_mask=np.array([1, 1, 0, 0, 1], dtype=bool))


def _screen_modes(dims: GridDims):
    """(csum, ssum) of 16 grid modes: quarter-spaced Fourier indices on each
    axis, always including 0 and the band edge n//2."""
    ii = np.unique((np.arange(4) * dims.n2) // 4)
    jj = np.unique((np.arange(4) * dims.n1) // 4)
    return _grid_modes(dims.n1, dims.n2, np.repeat(ii, jj.size), np.tile(jj, ii.size))


def batch_circulant_valid(thetas: np.ndarray, dims) -> np.ndarray:
    """Exact circulant validity for a (B, 5) array, with screened rejection.

    Verdicts are identical to ``min_eigs_batch(...) > 0``: the 16-mode
    minimum upper-bounds the minimum over all modes, so a non-positive screen
    value is a sound rejection and only survivors pay for the O(n1 + n2)
    hull modes.
    """
    dims = _as_dims(dims)
    thetas = np.asarray(thetas, dtype=np.float64)
    ok = lower_branch_min(thetas, *_screen_modes(dims)) > 0.0
    if ok.any():
        ok[ok] = min_eigs_batch(thetas[ok], dims) > 0.0
    return ok


@dataclass(frozen=True)
class CoverageResult:
    """Diagonal-dominance coverage of the valid region, by counting."""

    dims: GridDims
    seed: int
    n_valid: int
    n_dd_valid: int
    n_proposed: int
    ratio: float


def dd_coverage_experiment(dims, n_valid: int, seed: int = 0) -> CoverageResult:
    """Count diagonally dominant points among ``n_valid`` accepted draws.

    Proposes uniform parameter vectors on [-1, 1]^5 until ``n_valid`` of them
    pass the circulant validity check at the given grid size (the valid
    region fills only ~0.2% of the box, so the accepted count is the one
    that controls the precision of the ratio).  Memory stays O(chunk); the
    screened validity check keeps the throughput at millions of proposals
    per second.  Raises :class:`LowAcceptanceError` after 200,000,000
    proposals.
    """
    if n_valid < 1:
        raise ValueError("n_valid must be >= 1")
    dims = _as_dims(dims)
    n_seen = 0
    n_acc = 0
    n_dd = 0
    c = 0
    while n_acc < n_valid:
        if n_seen >= _COVERAGE_MAX_PROPOSALS:
            raise LowAcceptanceError(
                f"only {n_acc}/{n_valid} accepted after {n_seen} proposals")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        thetas = rng.uniform(-1.0, 1.0, size=(_COVERAGE_CHUNK, 5))
        ok = batch_circulant_valid(thetas, dims)
        hits = np.flatnonzero(ok)
        if n_acc + hits.size > n_valid:
            # stop exactly at the proposal giving the n_valid-th acceptance
            cutoff = hits[n_valid - n_acc - 1]
            n_seen += int(cutoff) + 1
            hits = hits[:n_valid - n_acc]
        else:
            n_seen += _COVERAGE_CHUNK
        n_acc += hits.size
        n_dd += int((_dd_margins(thetas[hits]) > 0.0).sum())
        c += 1
    return CoverageResult(dims=dims, seed=seed, n_valid=n_acc, n_dd_valid=n_dd,
                          n_proposed=n_seen, ratio=n_dd / n_acc)


def draw_limit_valid(n: int, seed: int = 0) -> list:
    """Draw n parameter vectors whose continuous-symbol minimum is positive.

    Uniform proposals on [-1, 1]^5, in blocks of 1024; only vectors with
    ``limit_check(...) is True`` (C(theta) > LIMIT_TOL) are kept.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    c = 0
    tried = 0
    while len(out) < n:
        if tried >= _LIMIT_MAX_TRIES:
            raise LowAcceptanceError(
                f"only {len(out)}/{n} limit-valid draws in {tried} proposals")
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        thetas = rng.uniform(-1.0, 1.0, size=(1024, 5))
        tried += 1024
        for row in thetas[limit_constants(thetas) > LIMIT_TOL][:n - len(out)]:
            out.append(Theta.from_array(row))
        c += 1
    return out


def draw_conditioning_points(k: int, dims, seed: int = 0) -> np.ndarray:
    """Draw k triples (phi, rho11, rho22) valid at zero cross coupling.

    Rejection-samples uniform triples on [-1, 1]^3 until the periodic check
    accepts (phi, rho11, 0, 0, rho22); used to pick slice conditioning points.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dims = _as_dims(dims)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    found = []
    for _ in range(_CONDITIONING_MAX_TRIES):
        phi, r11, r22 = rng.uniform(-1.0, 1.0, 3)
        theta = Theta(phi, r11, 0.0, 0.0, r22)
        if circulant_check(theta, dims).valid:
            found.append((phi, r11, r22))
            if len(found) == k:
                return np.array(found)
    raise LowAcceptanceError(f"could not find {k} conditioning points "
                             f"in {_CONDITIONING_MAX_TRIES} tries")
