"""Closed-form spectra of the periodic precision and its continuous limit.

Everything here is matrix-free.  A block-circulant lattice block C(x, y, z)
has eigenvalues given by its symbol at the Fourier angles a = 2*pi*i/n2 and
b = 2*pi*j/n1:

    lam(a, b) = y + z*exp(-1j*a) + x*exp(+1j*a) + z*exp(-1j*b) + x*exp(+1j*b)
              = y + (x + z)*(cos a + cos b) + 1j*(x - z)*(sin a + sin b).

Stacking the two variables gives, per Fourier mode, a 2x2 Hermitian block
whose eigenvalues, 0.5*(lam11 + lam22) -/+ sqrt(((lam11 - lam22)/2)^2 +
|lam12|^2), are center -/+ root at the mode's point (csum, ssum) = (cos a +
cos b, sin a + sin b): center = 1 + (rho11 + rho22)*csum and root =
|((rho11 - rho22)*csum, phi + (rho12 + rho21)*csum, (rho21 - rho12)*ssum)|.
So the whole 2n-point spectrum costs O(n).

The minimum costs O(n1 + n2).  The lower branch, center - root, is affine
minus the norm of an affine map, so it is concave in (csum, ssum) and its
minimum over the grid's n points sits on the boundary of their convex hull
(Rockafellar, Convex Analysis, 1970, section 32).  The boundary mode extreme
in direction psi pairs the a and the b nearest to psi.  As psi turns once,
the nearest a changes n2 times and the nearest b n1 times; each arc between
changes gives one mode, and where both change at once the two cross pairs on
that hull edge are kept too: n1 + n2 modes for most grids and 3n on an n x n
grid.  The cos and sin tables are computed up to pi and mirrored past it, so
the mode (-i, -j) has the same csum and exactly -ssum, and the lower branch
sees ssum only through its square.  The boundary is mirror-symmetric, so only
its modes with ssum >= 0 are evaluated: 176 of 30,150 at 201x150, 151 of
10,000 at 100x100, and the minimum over them is the same float as over all n.

Free angles fill the disk |csum + i*ssum| <= 2, so the continuous-symbol
minimum C(theta), which lower-bounds the minimum eigenvalue at every grid
size and is its limit, lies on the circle 2*exp(i*psi).  With c = cos psi,
k = 2*(rho11 + rho22) and Q(c) = 4*(rho11 - rho22)^2*c^2 + (phi + 2*(rho12 +
rho21)*c)^2 + 4*(rho21 - rho12)^2*(1 - c^2), it is the minimum over
c in [-1, 1] of 1 + k*c - sqrt(Q(c)): at c = +/-1 or at a root of the
quadratic 4*k^2*Q = Q'^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import GridDims, Theta, _as_dims, _open_out, _write_rows

__all__ = [
    "SpectralGrid",
    "PerturbedSpectrum",
    "LimitConstant",
    "spectral_grid",
    "perturbed_spectrum",
    "min_eig_perturbed",
    "min_eigs_batch",
    "lower_branch_min",
    "exact_symmetric_spectrum",
    "exact_symmetric_min_eig",
    "limit_constant",
    "limit_constants",
    "transect_min_eig",
    "lattice_min_eig",
    "SPECTRUM_CSV_HEADER",
    "write_spectrum_csv",
]


def _axis_trig(m: int):
    """cos and sin of 2*pi*k/m, computed for k <= m/2 and mirrored past it, so
    entry (m - k) % m holds cos[k] and -sin[k] bit for bit (sin is 0 at k = m/2)."""
    k = np.arange(m)
    angle = 2.0 * np.pi * np.minimum(k, m - k) / m
    return np.cos(angle), np.sign(m - 2 * k) * np.sin(angle)


@lru_cache(maxsize=128)
def _trig(n1: int, n2: int):
    arrs = (*_axis_trig(n2), *_axis_trig(n1))
    for arr in arrs:
        arr.flags.writeable = False
    return arrs


def _grid_modes(n1: int, n2: int, ii, jj):
    """(csum, ssum) of the modes (ii[k], jj[k]), from the cached trig tables."""
    cos_a, sin_a, cos_b, sin_b = _trig(n1, n2)
    return cos_a[ii] + cos_b[jj], sin_a[ii] + sin_b[jj]


@lru_cache(maxsize=128)
def _hull_modes(n1: int, n2: int):
    """(csum, ssum) of the modes on the boundary of the grid's convex hull
    with ssum >= 0.

    Integer arithmetic on one turn of 2*n1*n2 units: a_i sits at 2*n1*i and
    b_j at 2*n2*j, so the nearest a changes at (2i+1)*n1 and the nearest b at
    (2j+1)*n2.  Each arc starting at a change gives one (i, j); a change of
    both adds the cross pairs of the arcs before and after it.  The mirror
    (-i, -j) of a boundary mode is one too, with the same lower branch.
    """
    a_breaks = (2 * np.arange(n2) + 1) * n1
    b_breaks = (2 * np.arange(n1) + 1) * n2
    starts = np.union1d(a_breaks, b_breaks)
    ii = ((starts + n1) // (2 * n1)) % n2
    jj = ((starts + n2) // (2 * n2)) % n1
    both = np.isin(starts, a_breaks) & np.isin(starts, b_breaks)
    ii_before, jj_before = np.roll(ii, 1), np.roll(jj, 1)
    csum, ssum = _grid_modes(n1, n2,
                             np.concatenate([ii, ii[both], ii_before[both]]),
                             np.concatenate([jj, jj_before[both], jj[both]]))
    keep = ssum >= 0.0
    modes = csum[keep], ssum[keep]
    for arr in modes:
        arr.flags.writeable = False
    return modes


def _center_root(thetas: np.ndarray, csum, ssum):
    """(B, M) center and root of the 2x2 blocks of (B, 5) thetas at modes (M,)
    or (B, M); the blocks' eigenvalues are center -/+ root."""
    phi, r11, r12, r21, r22 = (thetas[:, k, None] for k in range(5))
    root = np.square((r11 - r22) * csum)
    root += np.square(phi + (r12 + r21) * csum)
    root += np.square((r21 - r12) * ssum)
    return 1.0 + (r11 + r22) * csum, np.sqrt(root, out=root)


def _branches(thetas: np.ndarray, csum, ssum):
    """Lower and upper eigenvalues of the 2x2 blocks."""
    center, root = _center_root(thetas, csum, ssum)
    return center - root, center + root


# (theta, mode) values per block of lower_branch_min.  8192 keeps each
# temporary at 64 KB: in cache, and below glibc's default 128 KB mmap
# threshold, above which every block would page-fault fresh memory.
_BLOCK = 8192


def lower_branch_min(thetas: np.ndarray, csum, ssum) -> np.ndarray:
    """Lower-branch minimum of each (B, 5) theta row over the modes (csum, ssum).

    The one symbol kernel: the periodic minima, the certificate, the sampler's
    screen and C(theta) all evaluate the lower branch, center - root, through
    it, in blocks of rows and without forming the upper branch.
    """
    out = np.empty(thetas.shape[0])
    rows = max(1, _BLOCK // np.shape(csum)[-1])
    for lo in range(0, thetas.shape[0], rows):
        sl = slice(lo, lo + rows)
        c, s = (csum, ssum) if np.ndim(csum) == 1 else (csum[sl], ssum[sl])
        center, root = _center_root(thetas[sl], c, s)
        center -= root
        out[sl] = center.min(axis=1)
    return out


def _full_grid(dims: GridDims):
    """(csum, ssum) of all n modes, flat in row-major (i, j) order."""
    cos_a, sin_a, cos_b, sin_b = _trig(dims.n1, dims.n2)
    return (cos_a[:, None] + cos_b).ravel(), (sin_a[:, None] + sin_b).ravel()


@dataclass(frozen=True)
class SpectralGrid:
    """Per-mode eigenvalues of the three distinct circulant blocks C(x, y, z).

    Entry (i, j) is the block's symbol at (2*pi*i/n2, 2*pi*j/n1).
    """

    dims: GridDims
    lam11: np.ndarray   # (n2, n1) real, block (rho11, 1, rho11)
    lam22: np.ndarray   # (n2, n1) real, block (rho22, 1, rho22)
    lam12: np.ndarray   # (n2, n1) complex, block (rho21, phi, rho12)


def spectral_grid(theta: Theta, dims) -> SpectralGrid:
    dims = _as_dims(dims)
    csum, ssum = (m.reshape(dims.n2, dims.n1) for m in _full_grid(dims))
    return SpectralGrid(dims=dims, lam11=1.0 + (2.0 * theta.rho11) * csum,
                        lam22=1.0 + (2.0 * theta.rho22) * csum,
                        lam12=((theta.phi + (theta.rho12 + theta.rho21) * csum)
                               + 1j * ((theta.rho21 - theta.rho12) * ssum)))


@dataclass(frozen=True)
class PerturbedSpectrum:
    """Both 2x2-branch eigenvalue sheets of the periodic precision."""

    dims: GridDims
    minus: np.ndarray   # (n2, n1), lower branch
    plus: np.ndarray    # (n2, n1), upper branch
    min_eig: float
    argmin: tuple       # (i, j, "minus"), first occurrence in row-major order


def perturbed_spectrum(theta: Theta, dims) -> PerturbedSpectrum:
    """All 2n eigenvalues of the periodic precision, in O(n).

    A full scan of every mode: the reference the hull-mode minimum of
    :func:`min_eig_perturbed` is tested against.
    """
    dims = _as_dims(dims)
    shape = (dims.n2, dims.n1)
    minus, plus = (b.reshape(shape) for b in _branches(
        theta.as_array()[None, :], *_full_grid(dims)))
    flat = int(np.argmin(minus))
    i, j = divmod(flat, dims.n1)
    return PerturbedSpectrum(dims=dims, minus=minus, plus=plus,
                             min_eig=float(minus[i, j]), argmin=(i, j, "minus"))


def min_eig_perturbed(theta: Theta, dims) -> float:
    """Minimum eigenvalue of the periodic precision, from the O(n1 + n2) hull modes."""
    return float(min_eigs_batch(theta.as_array()[None, :], dims)[0])


def _as_thetas(thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != 5:
        raise ValueError("thetas must have shape (B, 5)")
    return thetas


def min_eigs_batch(thetas: np.ndarray, dims) -> np.ndarray:
    """Periodic minimum eigenvalues for a (B, 5) parameter array, over the hull modes."""
    dims = _as_dims(dims)
    return lower_branch_min(_as_thetas(thetas), *_hull_modes(dims.n1, dims.n2))


def exact_symmetric_spectrum(theta: Theta, dims) -> np.ndarray:
    """Exact spectrum of the (non-periodic) precision when rho12 == rho21.

    In that case all four lattice blocks are simultaneously diagonalised by
    the sine eigenbasis of tridiag(1, 0, 1), whose size-m eigenvalues are
    2*cos(k*pi/(m+1)).  Each mode contributes a symmetric 2x2 block with
    entries a = 1 + rho11*s, d = 1 + rho22*s, b = phi + rho12*s where
    s = 2*(cos(j*pi/(n1+1)) + cos(k*pi/(n2+1))).  Returns the 2n roots sorted
    ascending.
    """
    dims = _as_dims(dims)
    if theta.rho12 != theta.rho21:
        raise ValueError("exact symmetric spectrum requires rho12 == rho21")
    minus, plus = _branches(theta.as_array()[None, :], _sine_mode_sums(dims).ravel(), 0.0)
    return np.sort(np.concatenate([minus.ravel(), plus.ravel()]))


def _sine_mode_sums(dims: GridDims) -> np.ndarray:
    """s/2 per sine mode: with rho12 == rho21 and ssum = 0, the periodic
    symbol at csum = s/2 is exactly the sine mode's 2x2 block."""
    c1 = np.cos(np.pi * np.arange(1, dims.n1 + 1) / (dims.n1 + 1))
    c2 = np.cos(np.pi * np.arange(1, dims.n2 + 1) / (dims.n2 + 1))
    return c2[:, None] + c1[None, :]


def exact_symmetric_min_eig(theta: Theta, dims) -> float:
    """Minimum of :func:`exact_symmetric_spectrum` in O(1).

    The lower branch is concave in the mode sum s (affine terms minus a
    Euclidean norm of an affine map), so its minimum over the attainable
    s-values sits at one of the two extreme modes.
    """
    dims = _as_dims(dims)
    if theta.rho12 != theta.rho21:
        raise ValueError("exact symmetric spectrum requires rho12 == rho21")
    hi = np.cos(np.pi / (dims.n1 + 1)) + np.cos(np.pi / (dims.n2 + 1))
    return float(lower_branch_min(theta.as_array()[None, :], np.array([-hi, hi]), 0.0)[0])


@dataclass(frozen=True)
class LimitConstant:
    """Minimum of the continuous symbol over the torus of angles."""

    value: float
    argmin_angles: tuple   # (s, t) in [0, pi]^2, here always s == t


def _circle_modes(thetas: np.ndarray):
    """(csum, ssum), each (B, 4), of the points 2*exp(i*psi) where C(theta) may sit.

    c = cos(psi) is -1, 1 or a root in [-1, 1] of 4*k^2*Q = Q'^2, which with
    Q = qa*c^2 + qb*c + qc and d = k^2 - qa reads
    qa*d*c^2 + qb*d*c + (k^2*qc - qb^2/4) = 0; other roots become -1.
    """
    phi, r11, r12, r21, r22 = thetas.T
    k2 = (2.0 * (r11 + r22)) ** 2
    qa = 4.0 * (r11 - r22) ** 2 + 16.0 * r12 * r21
    qb = 4.0 * phi * (r12 + r21)
    a2, a1 = qa * (k2 - qa), qb * (k2 - qa)
    a0 = k2 * (phi * phi + 4.0 * (r21 - r12) ** 2) - 0.25 * qb * qb
    # Cancellation-free roots q/a2 and a0/q; a2 == 0 leaves the linear root
    # in a0/q.  A discriminant rounded below zero is a double root, and where
    # it is truly negative the extra point is merely one more candidate.
    with np.errstate(all="ignore"):
        q = -0.5 * (a1 + np.copysign(np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0)), a1))
        c = np.stack([-np.ones_like(q), np.ones_like(q), q / a2, a0 / q], axis=1)
    c[~(np.abs(c) <= 1.0)] = -1.0
    return 2.0 * c, 2.0 * np.sqrt(1.0 - c * c)


def limit_constants(thetas: np.ndarray) -> np.ndarray:
    """C(theta) for each row of a (B, 5) parameter array, in closed form."""
    thetas = _as_thetas(thetas)
    return lower_branch_min(thetas, *_circle_modes(thetas))


def limit_constant(theta: Theta) -> LimitConstant:
    """C(theta), the minimum of the continuous lower-branch symbol, in closed form.

    It lower-bounds the periodic minimum eigenvalue at every grid size, is
    its large-grid limit, and equals ``limit_constants`` of the same theta.
    """
    row = theta.as_array()[None, :]
    csum, ssum = _circle_modes(row)
    lower = _branches(row, csum, ssum)[0][0]
    best = int(np.argmin(lower))
    psi = float(np.arccos(0.5 * csum[0, best]))
    return LimitConstant(value=float(lower[best]), argmin_angles=(psi, psi))


def transect_min_eig(rho: float, n: int, kind: str) -> float:
    """Minimum eigenvalue of the 1-D chain precision, closed form.

    ``kind="toeplitz"`` is tridiag(rho, 1, rho) of size n (n >= 2):
    1 - 2|rho| cos(pi/(n+1)).  ``kind="circulant"`` is circ(rho, 1, rho)
    (n >= 3): 1 - 2|rho| for rho <= 0 or even n, else the odd-n Fourier mode
    closest to the band edge, 1 + 2|rho| cos((2*pi/n) * floor(n/2)).
    """
    rho = float(rho)
    n = int(n)
    if kind == "toeplitz":
        if n < 2:
            raise ValueError("toeplitz transect needs n >= 2")
        return 1.0 - 2.0 * abs(rho) * np.cos(np.pi / (n + 1))
    if kind == "circulant":
        if n < 3:
            raise ValueError("circulant transect needs n >= 3")
        if rho <= 0.0 or n % 2 == 0:
            return 1.0 - 2.0 * abs(rho)
        return 1.0 + 2.0 * abs(rho) * np.cos((2.0 * np.pi / n) * (n // 2))
    raise ValueError(f"kind must be 'toeplitz' or 'circulant', got {kind!r}")


def lattice_min_eig(rho: float, dims, kind: str) -> float:
    """Minimum eigenvalue of the single-variable lattice precision, closed form.

    ``kind="toeplitz"`` is the lattice block T(rho, 1, rho), with sine modes:
    1 - 2|rho| (cos(pi/(n1+1)) + cos(pi/(n2+1))).  ``kind="circulant"`` is
    C(rho, 1, rho), with Fourier modes: 1 - 4|rho| for rho <= 0, and for
    rho > 0 the per-axis minimum cosine is -1 on an even axis or
    -cos(pi/m) on an odd axis of length m.
    """
    dims = _as_dims(dims)
    rho = float(rho)
    if kind == "toeplitz":
        return 1.0 - 2.0 * abs(rho) * (np.cos(np.pi / (dims.n1 + 1))
                                       + np.cos(np.pi / (dims.n2 + 1)))
    if kind == "circulant":
        if rho <= 0.0:
            return 1.0 - 4.0 * abs(rho)

        def axis_min_cos(m):
            return -1.0 if m % 2 == 0 else -np.cos(np.pi / m)

        return 1.0 + 2.0 * rho * (axis_min_cos(dims.n1) + axis_min_cos(dims.n2))
    raise ValueError(f"kind must be 'toeplitz' or 'circulant', got {kind!r}")


SPECTRUM_CSV_HEADER = "i,j,lam11,lam22,re_lam12,im_lam12,lam_minus,lam_plus"


def write_spectrum_csv(theta: Theta, dims, f) -> None:
    """Dump the per-mode eigenvalue table, row-major in (i, j)."""
    dims = _as_dims(dims)
    grid = spectral_grid(theta, dims)
    spec = perturbed_spectrum(theta, dims)
    rows = np.arange(dims.n)
    with _open_out(f) as out:
        out.write(SPECTRUM_CSV_HEADER + "\n")
        _write_rows(out, "%d,%d,%r,%r,%r,%r,%r,%r\n", rows,
                    [rows // dims.n1, rows % dims.n1, grid.lam11.ravel(), grid.lam22.ravel(),
                     grid.lam12.real.ravel(), grid.lam12.imag.ravel(),
                     spec.minus.ravel(), spec.plus.ravel()])
