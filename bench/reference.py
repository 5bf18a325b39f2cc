"""Reference computations the benchmark checks the program against.

Nothing here imports bigmrf.  Each quantity is recomputed from the model's
definition with general-purpose numpy/scipy routines, so a fault in the
package's closed forms, assembly or eigensolvers cannot hide in its own
reference:

* per-mode 2x2 Hermitian symbol blocks of the periodic precision, solved by
  ``numpy.linalg.eigvalsh``;
* the lattice precision assembled entry by entry from the neighbour
  relation, with the two variables interleaved per site so that it is
  banded, factorised by LAPACK banded Cholesky and solved by ARPACK
  shift-invert;
* the minimum of the continuous symbol by a grid plus a Nelder-Mead polish;
* the sine-mode spectrum of the lattice precision when rho12 == rho21.

A parameter vector is a length-5 sequence (phi, rho11, rho12, rho21, rho22).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# symbol_min: points per side of the coarse grid of angles, and how many of
# its lowest points the Nelder-Mead polish starts from.
SYMBOL_GRID = 96
SYMBOL_STARTS = 3


def scale(theta) -> float:
    """Size of the largest matrix entry sum; rounding errors are relative to it."""
    return 1.0 + 4.0 * float(np.abs(np.asarray(theta, dtype=float)).sum())


def _symbol_blocks(theta, ea, eb):
    """Hermitian 2x2 symbol blocks at unit phases ea = exp(i a), eb = exp(i b).

    A circulant with x on the subdiagonal, y on the diagonal and z on the
    superdiagonal maps the Fourier vector v_r = exp(i r b) to
    (y + z exp(i b) + x exp(-i b)) v_r; the transposed cross block yields the
    complex conjugate.
    """
    phi, r11, r12, r21, r22 = (float(v) for v in theta)
    fwd = ea + eb
    bwd = np.conj(ea) + np.conj(eb)
    h = np.empty(np.broadcast(ea, eb).shape + (2, 2), dtype=complex)
    h[..., 0, 0] = 1.0 + r11 * (fwd + bwd)
    h[..., 1, 1] = 1.0 + r22 * (fwd + bwd)
    h[..., 0, 1] = phi + r12 * fwd + r21 * bwd
    h[..., 1, 0] = np.conj(h[..., 0, 1])
    return h


def periodic_min(theta, n1: int, n2: int) -> float:
    """Minimum eigenvalue of the periodic (toroidal) precision on n1 x n2.

    Modes (a, b) and (-a, -b) have conjugate blocks with equal eigenvalues,
    so the rows a = 2*pi*k/n2 with k <= n2/2 cover every eigenvalue.
    """
    ea = np.exp(2j * np.pi * np.arange(n2 // 2 + 1) / n2)[:, None]
    eb = np.exp(2j * np.pi * np.arange(n1) / n1)[None, :]
    blocks = _symbol_blocks(theta, ea, eb).reshape(-1, 2, 2)
    return float(np.linalg.eigvalsh(blocks)[:, 0].min())


def _symbol_lower(theta, angles) -> float:
    ea, eb = np.exp(1j * angles[0]), np.exp(1j * angles[1])
    return float(np.linalg.eigvalsh(_symbol_blocks(theta, ea, eb))[0])


def symbol_min(theta) -> float:
    """Minimum of the continuous lower-branch symbol over the torus of angles."""
    grid = SYMBOL_GRID
    ang = 2.0 * np.pi * np.arange(grid) / grid
    ea = np.exp(1j * ang)
    lower = np.linalg.eigvalsh(_symbol_blocks(theta, ea[:, None], ea[None, :]))[..., 0]
    best = float(lower.min())
    for flat in np.argsort(lower, axis=None)[:SYMBOL_STARTS]:
        i, j = divmod(int(flat), grid)
        res = scipy.optimize.minimize(
            lambda x: _symbol_lower(theta, x), np.array([ang[i], ang[j]]),
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-17, "maxiter": 4000})
        best = min(best, float(res.fun))
    return best


def _lattice_triplets(theta, n1: int, n2: int):
    """Upper-triangle (row, col, value) of the lattice precision, interleaved.

    Site (r, c) has row r < n2 and column c < n1.  Its "forward" neighbours
    are (r, c + 1) and (r + 1, c); the cross coupling from variable 1 at a
    site to variable 2 at its forward neighbour is rho12, to variable 2 at its
    backward neighbour rho21.  Sites are numbered along the shorter side first
    and the two variables of a site are adjacent, so the half bandwidth is
    2 * min(n1, n2) + 1.
    """
    phi, r11, r12, r21, r22 = (float(v) for v in theta)
    r, c = np.meshgrid(np.arange(n2), np.arange(n1), indexing="ij")
    order = r * n1 + c if n1 <= n2 else c * n2 + r

    def idx(var, site):
        return 2 * site + var

    rows, cols, vals = [], [], []

    def put(i, j, v):
        if v != 0.0 and i.size:
            rows.append(np.minimum(i, j))
            cols.append(np.maximum(i, j))
            vals.append(np.full(i.size, v))

    s = order.ravel()
    put(idx(0, s), idx(0, s), 1.0)
    put(idx(1, s), idx(1, s), 1.0)
    put(idx(0, s), idx(1, s), phi)
    for a, b in ((order[:, :-1], order[:, 1:]), (order[:-1, :], order[1:, :])):
        a, b = a.ravel(), b.ravel()          # b is the forward neighbour of a
        put(idx(0, a), idx(0, b), r11)
        put(idx(1, a), idx(1, b), r22)
        put(idx(0, a), idx(1, b), r12)
        put(idx(0, b), idx(1, a), r21)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def cholesky_ok(theta, n1: int, n2: int) -> bool:
    """True when LAPACK banded Cholesky factorises the lattice precision."""
    i, j, v = _lattice_triplets(theta, n1, n2)
    kd = int((j - i).max())
    ab = np.zeros((kd + 1, 2 * n1 * n2))
    ab[kd + i - j, j] = v
    try:
        scipy.linalg.cholesky_banded(ab, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


def lattice_min(theta, n1: int, n2: int) -> float:
    """Minimum eigenvalue of the lattice precision by ARPACK shift-invert.

    The lattice precision is a principal submatrix of the periodic one on the
    doubled grid, so that grid's minimum is a lower bound; shifting just
    below it makes the wanted eigenvalue the one nearest the shift.
    """
    i, j, v = _lattice_triplets(theta, n1, n2)
    off = i != j
    dim = 2 * n1 * n2
    q = sp.csc_matrix((np.concatenate([v, v[off]]),
                       (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]))),
                      shape=(dim, dim))
    sigma = periodic_min(theta, 2 * n1, 2 * n2) - 1e-3 * scale(theta)
    w = spla.eigsh(q, k=1, sigma=sigma, which="LM", return_eigenvectors=False,
                   v0=np.ones(dim))
    return float(w[0])


def sine_mode_min(theta, n1: int, n2: int) -> float:
    """Minimum eigenvalue of the lattice precision when rho12 == rho21.

    All four blocks are then polynomials in the same symmetric tridiagonal
    shift, whose sine eigenvectors reduce the precision to one symmetric 2x2
    block per mode.
    """
    phi, r11, r12, r21, r22 = (float(v) for v in theta)
    if r12 != r21:
        raise ValueError("sine modes need rho12 == rho21")
    s = 2.0 * (np.cos(np.pi * np.arange(1, n2 + 1) / (n2 + 1))[:, None]
               + np.cos(np.pi * np.arange(1, n1 + 1) / (n1 + 1))[None, :]).ravel()
    blocks = np.empty((s.size, 2, 2))
    blocks[:, 0, 0] = 1.0 + r11 * s
    blocks[:, 1, 1] = 1.0 + r22 * s
    blocks[:, 0, 1] = blocks[:, 1, 0] = phi + r12 * s
    return float(np.linalg.eigvalsh(blocks)[:, 0].min())


def dd_margins(thetas) -> np.ndarray:
    """Worst-row diagonal-dominance margin of the lattice precision on 4x4,
    for each row of ``thetas``.

    An interior site has every neighbour, so on any grid of at least 3x3 the
    worst row is an interior one and the margin does not depend on the grid.
    Every entry the assembly puts is a constant or one component of theta,
    so the 4x4 matrix is Q(0) + sum_k theta_k (Q(e_k) - Q(0)).
    """
    def dense(theta):
        i, j, v = _lattice_triplets(theta, 4, 4)
        q = np.zeros((32, 32))
        np.add.at(q, (i, j), v)
        off = i != j
        np.add.at(q, (j[off], i[off]), v[off])
        return q

    q0 = dense(np.zeros(5))
    basis = np.stack([dense(e) - q0 for e in np.eye(5)])
    q = q0 + np.einsum("nk,kij->nij", np.asarray(thetas, dtype=float), basis)
    diag = np.abs(np.diagonal(q, axis1=1, axis2=2))
    return (2.0 * diag - np.abs(q).sum(axis=2)).min(axis=1)


def validate_schema(value, schema, path="$") -> list:
    """Errors of ``value`` against the JSON-schema subset VERDICT_SCHEMA uses."""
    errors = []
    kinds = schema.get("type")
    if kinds is not None:
        kinds = [kinds] if isinstance(kinds, str) else kinds
        checks = {
            "object": lambda x: isinstance(x, dict),
            "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
            "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
            "null": lambda x: x is None,
            "string": lambda x: isinstance(x, str),
        }
        if not any(checks[k](value) for k in kinds):
            return [f"{path}: {value!r} is not of type {kinds}"]
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: {value!r} below {schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing {key!r}")
        for key, item in value.items():
            if key in props:
                errors.extend(validate_schema(item, props[key], f"{path}.{key}"))
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected {key!r}")
    return errors
