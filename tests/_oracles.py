"""Independent dense constructions used as test oracles.

Everything here builds matrices entry-by-entry with explicit index
arithmetic, deliberately sharing no code with the package's sparse
assembly path.  The CSV writers at the end format one cell at a time, as
the reference for the package's columnar writers.
"""

import io

import numpy as np
from scipy.optimize import linear_sum_assignment

from bigmrf import BATCH_CSV_HEADER, SPECTRUM_CSV_HEADER, Theta


def dense_toeplitz_block(x, y, z, n1, n2):
    n = n1 * n2
    m = np.zeros((n, n))
    for i in range(n2):
        for j in range(n1):
            r = i * n1 + j
            m[r, r] = y
            if j + 1 < n1:
                m[r, r + 1] = z
                m[r + 1, r] = x
            if i + 1 < n2:
                m[r, r + n1] = z
                m[r + n1, r] = x
    return m


def dense_circulant_block(x, y, z, n1, n2):
    m = dense_toeplitz_block(x, y, z, n1, n2)
    for i in range(n2):
        base = i * n1
        m[base, base + n1 - 1] += x
        m[base + n1 - 1, base] += z
    for j in range(n1):
        m[j, (n2 - 1) * n1 + j] += x
        m[(n2 - 1) * n1 + j, j] += z
    return m


def dense_inner_precision(theta, n1, n2, wrap=False):
    block = dense_circulant_block if wrap else dense_toeplitz_block
    b11 = block(theta.rho11, 1.0, theta.rho11, n1, n2)
    b12 = block(theta.rho21, theta.phi, theta.rho12, n1, n2)
    b22 = block(theta.rho22, 1.0, theta.rho22, n1, n2)
    return np.block([[b11, b12], [b12.T, b22]])


def dense_precision(theta, tau, n1, n2):
    n = n1 * n2
    d = np.concatenate([np.full(n, 1.0 / tau.tau1), np.full(n, 1.0 / tau.tau2)])
    return dense_inner_precision(theta, n1, n2) * np.outer(d, d)


def row_margins(m):
    """Diagonal-dominance margin |m_ii| - sum_{j != i} |m_ij| of each row."""
    diag = np.abs(np.diag(m))
    return diag - (np.abs(m).sum(axis=1) - diag)


def rand_theta(rng, scale=1.0):
    return Theta.from_array(rng.uniform(-scale, scale, 5))


def complex_multisets_close(a, b, tol):
    """Best complex-to-complex matching distance below tol."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= tol


def torus_lower_branch(theta, s, t):
    """Lower eigenvalue of the 2x2 symbol block at free angles (s[i], t[j])."""
    csum = np.cos(s)[:, None] + np.cos(t)[None, :]
    ssum = np.sin(s)[:, None] + np.sin(t)[None, :]
    a = 1.0 + 2.0 * theta.rho11 * csum
    d = 1.0 + 2.0 * theta.rho22 * csum
    re = theta.phi + (theta.rho12 + theta.rho21) * csum
    im = (theta.rho21 - theta.rho12) * ssum
    return 0.5 * (a + d) - 0.5 * np.sqrt((a - d) ** 2 + 4.0 * (re * re + im * im))


def torus_min_grid_search(theta, coarse=256, tol=1e-10):
    """C(theta) by brute force: a coarse x coarse grid of angle pairs, then a
    shrinking 17 x 17 local grid around the best point until its step is below
    tol.  Returns (value, (s, t))."""
    angles = 2.0 * np.pi * np.arange(coarse) / coarse
    grid = torus_lower_branch(theta, angles, angles)
    i, j = divmod(int(np.argmin(grid)), coarse)
    s0, t0, value = float(angles[i]), float(angles[j]), float(grid[i, j])
    h = 2.0 * np.pi / coarse
    while h > tol:
        offs = np.linspace(-h, h, 17)
        local = torus_lower_branch(theta, s0 + offs, t0 + offs)
        di, dj = divmod(int(np.argmin(local)), 17)
        s0 += float(offs[di])
        t0 += float(offs[dj])
        value = float(local[di, dj])
        h /= 4.0
    return value, (s0 % (2.0 * np.pi), t0 % (2.0 * np.pi))


def batch_csv_per_cell(batch, include_rejected):
    """The sampler's CSV of a SampleBatch, one row and one cell at a time."""
    tri = {True: "true", False: "false"}
    out = io.StringIO()
    out.write(BATCH_CSV_HEADER + "\n")
    for idx in range(batch.n_proposed):
        if not (include_rejected or batch.accepted[idx]):
            continue
        coords = ",".join(repr(float(v)) for v in batch.thetas[idx])
        out.write(f"{idx},{coords},"
                  f"{tri[bool(batch.accepted[idx])]},"
                  f"{tri[bool(batch.dd_valid[idx])]},"
                  f"{float(batch.min_eig[idx])!r}\n")
    return out.getvalue()


def spectrum_csv_per_cell(grid, spec):
    """The per-mode eigenvalue CSV of a SpectralGrid and a PerturbedSpectrum,
    one row and one cell at a time, row-major in (i, j)."""
    out = io.StringIO()
    out.write(SPECTRUM_CSV_HEADER + "\n")
    n2, n1 = grid.lam11.shape
    for i in range(n2):
        for j in range(n1):
            cells = (grid.lam11[i, j], grid.lam22[i, j],
                     grid.lam12[i, j].real, grid.lam12[i, j].imag,
                     spec.minus[i, j], spec.plus[i, j])
            out.write(f"{i},{j}," + ",".join(repr(float(v)) for v in cells) + "\n")
    return out.getvalue()
