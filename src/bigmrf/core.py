"""Sparse assembly of the bivariate lattice precision matrix.

The field lives on a regular n1 x n2 lattice and carries two variables per
site.  Sites are ordered row-major with the n1 direction fastest (flat index
``i * n1 + j`` for row ``i < n2`` and column ``j < n1``) and the full state
vector stacks all n sites of variable 1 followed by all n sites of variable 2.

Three matrices are assembled here:

* ``Q``      -- the 2n x 2n precision matrix built from four block-Toeplitz
                blocks (tridiagonal sub-blocks, diagonal neighbour blocks),
* ``Q~``     -- its periodic counterpart, where every tridiagonal sub-block is
                wrapped into a circulant and block-level wrap blocks are added
                (toroidal boundary conditions on the lattice),
* ``delta Q`` = ``Q~ - Q`` -- the boundary perturbation, supported on the
                wrap positions only.

All three come from one triplet path: ``_inner_triplets`` lists the upper
triangle of the two diagonal blocks and the whole cross block, and
``SparseSymMatrix`` sorts and merges those triplets once.  ``delta Q`` is
Q~'s triplets followed by Q's with negated values; every entry the two share
cancels exactly in that merge and is dropped.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Theta",
    "Tau",
    "GridDims",
    "SparseSymMatrix",
    "PrecisionBundle",
    "build_inner_precision",
    "build_precision",
    "build_bundle",
    "write_matrix_market",
]


@dataclass(frozen=True)
class Theta:
    """Interaction parameters of the bivariate field.

    ``phi`` couples the two variables at the same site, ``rho11``/``rho22``
    couple neighbouring sites within variable 1/2, and ``rho12``/``rho21``
    couple the two variables across neighbouring sites.  The cross couplings
    are deliberately allowed to differ; the matrix stays symmetric either way.

    No range restriction is imposed here: deciding which values yield a
    positive-definite precision is exactly what the rest of the package does.
    """

    phi: float
    rho11: float
    rho12: float
    rho21: float
    rho22: float

    def __post_init__(self):
        for name in ("phi", "rho11", "rho12", "rho21", "rho22"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"theta component {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def as_array(self) -> np.ndarray:
        return np.array([self.phi, self.rho11, self.rho12, self.rho21, self.rho22])

    @classmethod
    def from_array(cls, values) -> "Theta":
        phi, r11, r12, r21, r22 = (float(v) for v in values)
        return cls(phi, r11, r12, r21, r22)

    @classmethod
    def zero(cls) -> "Theta":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Tau:
    """Marginal standard deviations (tau1, tau2), both strictly positive."""

    tau1: float
    tau2: float

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GridDims:
    """Lattice dimensions.

    ``n1`` is the fast (within-block, tridiagonal) direction, ``n2`` the slow
    (block) direction.  Both must be at least 3 so the circulant wrap entries
    land strictly off the tridiagonal band and off the first neighbour block.
    """

    n1: int
    n2: int

    def __post_init__(self):
        for name in ("n1", "n2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 3:
                raise ValueError(f"{name} must be >= 3, got {value}")
            object.__setattr__(self, name, int(value))

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    def doubled(self) -> "GridDims":
        return GridDims(2 * self.n1, 2 * self.n2)


def _as_dims(dims) -> GridDims:
    if isinstance(dims, GridDims):
        return dims
    n1, n2 = dims
    return GridDims(n1, n2)


class SparseSymMatrix:
    """Symmetric sparse matrix stored as deduplicated upper-triangle triplets.

    Exactly one triplet is stored per unordered index pair (``row <= col``),
    entries are sorted lexicographically and explicit zeros are dropped, so
    nonzero counts are well defined and bit-exact comparisons of the pattern
    are possible.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_csr")

    def __init__(self, dim, rows, cols, vals):
        dim = int(dim)
        if dim <= 0:
            raise ValueError("dim must be positive")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be 1-D arrays of equal length")
        if rows.size and (rows.min() < 0 or cols.min() < 0
                          or rows.max() >= dim or cols.max() >= dim):
            raise ValueError("triplet index out of bounds")

        # Fold to the upper triangle, merge duplicates, drop exact zeros.
        swap = rows > cols
        r = np.where(swap, cols, rows)
        c = np.where(swap, rows, cols)
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], vals[order]
        if r.size:
            key_change = np.empty(r.size, dtype=bool)
            key_change[0] = True
            key_change[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            group = np.cumsum(key_change) - 1
            merged = np.zeros(group[-1] + 1)
            np.add.at(merged, group, v)
            r, c = r[key_change], c[key_change]
            v = merged
            keep = v != 0.0
            r, c, v = r[keep], c[keep], v[keep]

        self.dim = dim
        self.rows = r
        self.cols = c
        self.vals = v
        self._csr = None

    @property
    def nnz(self) -> int:
        """Nonzero count of the full symmetric matrix (mirrored entries counted)."""
        return int(self.vals.size + np.count_nonzero(self.rows != self.cols))

    @property
    def nnz_stored(self) -> int:
        return int(self.vals.size)

    def trace(self) -> float:
        on_diag = self.rows == self.cols
        return float(self.vals[on_diag].sum())

    def norm1(self) -> float:
        """Maximum absolute row sum (equals the 1-norm by symmetry)."""
        acc = np.zeros(self.dim)
        a = np.abs(self.vals)
        np.add.at(acc, self.rows, a)
        off = self.rows != self.cols
        np.add.at(acc, self.cols[off], a[off])
        return float(acc.max()) if self.dim else 0.0

    def to_csr(self) -> sp.csr_matrix:
        """Expand to a full (unfolded) CSR matrix; cached."""
        if self._csr is None:
            off = self.rows != self.cols
            r = np.concatenate([self.rows, self.cols[off]])
            c = np.concatenate([self.cols, self.rows[off]])
            v = np.concatenate([self.vals, self.vals[off]])
            self._csr = sp.coo_matrix((v, (r, c)), shape=(self.dim, self.dim)).tocsr()
        return self._csr

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out[self.rows, self.cols] = self.vals
        off = self.rows != self.cols
        out[self.cols[off], self.rows[off]] = self.vals[off]
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"vector length {v.shape} does not match dim {self.dim}")
        return self.to_csr() @ v

    def __repr__(self):
        return f"SparseSymMatrix(dim={self.dim}, nnz={self.nnz})"


@dataclass(frozen=True)
class PrecisionBundle:
    """The precision matrix, its periodic counterpart, and their difference."""

    q: SparseSymMatrix
    q_tilde: SparseSymMatrix
    delta_q: SparseSymMatrix
    dims: GridDims
    theta: Theta


def _block_triplets(x, y, z, dims: GridDims, wrap: bool):
    """Triplet arrays for T(x, y, z) (wrap=False) or C(x, y, z) (wrap=True).

    Layout: tridiag(x, y, z) sub-blocks on the block diagonal, diag(z) on the
    first block superdiagonal, diag(x) on the first block subdiagonal.  The
    circulant version adds the corner entries x at (0, n1-1) / z at (n1-1, 0)
    inside every diagonal sub-block plus the block-level wrap blocks diag(x)
    at (0, n2-1) and diag(z) at (n2-1, 0).  Zero couplings are never stored.
    """
    n1, n2, n = dims.n1, dims.n2, dims.n
    idx = np.arange(n)
    rows, cols, vals = [], [], []

    def add(r, c, value):
        if value != 0.0 and r.size:
            rows.append(r)
            cols.append(c)
            vals.append(np.full(r.size, value))

    add(idx, idx, y)
    in_row = idx[idx % n1 != n1 - 1]          # within-block band
    add(in_row, in_row + 1, z)
    add(in_row + 1, in_row, x)
    lower = idx[idx < n - n1]                  # first neighbour blocks
    add(lower, lower + n1, z)
    add(lower + n1, lower, x)
    if wrap:
        first = np.arange(n2) * n1             # sub-block corners
        add(first, first + n1 - 1, x)
        add(first + n1 - 1, first, z)
        head = np.arange(n1)                   # block-level wrap
        tail = head + n - n1
        add(head, tail, x)
        add(tail, head, z)

    if rows:
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    return (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)


def _inner_triplets(theta: Theta, dims: GridDims, wrap: bool):
    """Upper-triangle triplets of the 2n x 2n inner precision (wrap=True: Q~).

    The blocks [[T11, T12], [T12^T, T22]] are placed on or above the block
    diagonal and only their entries with row <= col are kept: the upper
    triangle of the symmetric diagonal blocks and all of the cross block.
    """
    n = dims.n
    rows, cols, vals = [], [], []
    for (x, y, z), dr, dc in (((theta.rho11, 1.0, theta.rho11), 0, 0),
                              ((theta.rho21, theta.phi, theta.rho12), 0, n),
                              ((theta.rho22, 1.0, theta.rho22), n, n)):
        r, c, v = _block_triplets(x, y, z, dims, wrap)
        r, c = r + dr, c + dc
        upper = r <= c
        rows.append(r[upper])
        cols.append(c[upper])
        vals.append(v[upper])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def build_inner_precision(theta: Theta, dims) -> SparseSymMatrix:
    """The 2n x 2n precision matrix with unit marginal scales.

    Positive-definiteness of the full precision is equivalent to that of this
    inner matrix for any valid tau (congruence by a positive diagonal matrix),
    so all validity work operates on it.
    """
    dims = _as_dims(dims)
    return SparseSymMatrix(2 * dims.n, *_inner_triplets(theta, dims, wrap=False))


def build_precision(theta: Theta, tau: Tau, dims) -> SparseSymMatrix:
    """The full precision matrix, i.e. the inner matrix scaled by 1/tau per variable."""
    dims = _as_dims(dims)
    r, c, v = _inner_triplets(theta, dims, wrap=False)
    s = np.repeat([1.0 / tau.tau1, 1.0 / tau.tau2], dims.n)
    return SparseSymMatrix(2 * dims.n, r, c, v * (s[r] * s[c]))


def build_bundle(theta: Theta, dims) -> PrecisionBundle:
    """Assemble Q, its periodic counterpart and their difference.

    The difference is kept explicit (its entries feed the perturbation-bound
    diagnostics) and satisfies: at most 8(n1+n2) nonzeros, zero trace.
    """
    dims = _as_dims(dims)
    dim = 2 * dims.n
    rq, cq, vq = _inner_triplets(theta, dims, wrap=False)
    rt, ct, vt = _inner_triplets(theta, dims, wrap=True)
    q = SparseSymMatrix(dim, rq, cq, vq)
    q_tilde = SparseSymMatrix(dim, rt, ct, vt)
    # Q~ repeats every entry of Q with the same value (the wrap positions are
    # disjoint from Q's for n1, n2 >= 3), so the merge cancels them exactly.
    delta_q = SparseSymMatrix(dim, np.concatenate([rt, rq]), np.concatenate([ct, cq]),
                              np.concatenate([vt, -vq]))
    return PrecisionBundle(q=q, q_tilde=q_tilde, delta_q=delta_q, dims=dims, theta=theta)


@contextmanager
def _open_out(f):
    """Yield a writable text stream: ``f`` itself, or the path ``f`` (a str or
    ``os.PathLike``) opened for writing and closed on exit."""
    if isinstance(f, (str, os.PathLike)):
        with open(f, "w") as out:
            yield out
    else:
        yield f


_TRI = np.array(["false", "true"])


def _write_rows(out, fmt: str, rows: np.ndarray, columns) -> None:
    """Write ``fmt % row`` for the given row indices of 1-D columns (booleans
    as true/false), 1024 rows at a time: one ``tolist`` per column and one
    write per block, so the block's Python lists stay small."""
    for lo in range(0, rows.size, 1024):
        block = rows[lo:lo + 1024]
        cells = [(_TRI[c[block].view(np.uint8)] if c.dtype == bool else c[block]).tolist()
                 for c in columns]
        out.write("".join([fmt % row for row in zip(*cells)]))


def write_matrix_market(m: SparseSymMatrix, f) -> None:
    """Dump a matrix in MatrixMarket coordinate format (1-based indices), with
    the ``symmetric`` qualifier and the lower triangle (the MatrixMarket
    convention)."""
    with _open_out(f) as out:
        out.write("%%MatrixMarket matrix coordinate real symmetric\n")
        out.write(f"{m.dim} {m.dim} {m.nnz_stored}\n")
        for r, c, v in zip(m.rows, m.cols, m.vals):
            out.write(f"{c + 1} {r + 1} {float(v)!r}\n")
