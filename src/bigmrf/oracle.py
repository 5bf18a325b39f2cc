"""Ground-truth eigenvalues of sparse symmetric matrices.

Up to dimension ``DENSE_DIM_CAP``, ``validity.exact_check`` calls a dense
symmetric eigensolver itself.  Beyond it, this module uses ARPACK's
implicitly restarted Lanczos method in shift-invert mode (Lehoucq, Sorensen
& Yang, *ARPACK Users' Guide*, 1998): the caller supplies a rigorous lower
bound on the smallest eigenvalue, the shift sits just below it, and a sparse
LU factorisation of the shifted matrix (Rue & Held, *Gaussian Markov Random
Fields*, 2005, ch. 2) makes the wanted eigenvalue the dominant one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core import SparseSymMatrix

__all__ = [
    "DENSE_DIM_CAP",
    "EigResult",
    "LanczosNonConvergence",
    "lanczos_extreme",
]

DENSE_DIM_CAP = 2000


@dataclass(frozen=True)
class EigResult:
    value: float
    vector: Optional[np.ndarray]
    iterations: int
    residual: float


class LanczosNonConvergence(RuntimeError):
    """Raised when the iteration budget runs out; carries the best Ritz data."""

    def __init__(self, best_value: float, residual: float, iterations: int):
        super().__init__(
            f"Lanczos did not converge in {iterations} iterations "
            f"(best Ritz value {best_value:.6g}, residual {residual:.3g})")
        self.best_value = best_value
        self.residual = residual
        self.iterations = iterations


def lanczos_extreme(m: SparseSymMatrix, lower_bound: float) -> EigResult:
    """Smallest eigenvalue of a sparse symmetric matrix by shift-invert Lanczos.

    ``lower_bound`` must not exceed the smallest eigenvalue; otherwise the
    result is the eigenvalue nearest the shift.  The shift is
    ``lower_bound - 1e-6 * ||M||_1``, so ``M - sigma*I`` is positive definite
    and its LU factorisation (minimum-degree ordering on M + M^T) is stable.
    ``iterations`` counts the LU solves.  The start vector is fixed, so the
    run is deterministic.  ARPACK non-convergence raises
    :class:`LanczosNonConvergence` with the best Ritz pair it returned.
    """
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh, splu)

    if m.dim < 2:
        raise ValueError("lanczos_extreme needs dim >= 2")
    a = m.to_csr()
    sigma = lower_bound - 1e-6 * m.norm1()
    lu = splu((a - sigma * sp.identity(m.dim, format="csr")).tocsc(),
              permc_spec="MMD_AT_PLUS_A")
    solves = 0

    def solve(v):
        nonlocal solves
        solves += 1
        return lu.solve(v)

    op_inv = LinearOperator(a.shape, matvec=solve, dtype=np.float64)
    try:
        w, v = eigsh(a, k=1, sigma=sigma, which="LM", OPinv=op_inv,
                     v0=np.ones(m.dim))
        converged = True
    except ArpackNoConvergence as err:
        w, v, converged = err.eigenvalues, err.eigenvectors, False
    if len(w) == 0:
        raise LanczosNonConvergence(np.nan, np.nan, solves)
    value, vec = float(w[0]), v[:, 0]
    residual = float(np.linalg.norm(a @ vec - value * vec))
    if not converged:
        raise LanczosNonConvergence(value, residual, solves)
    return EigResult(value=value, vector=vec, iterations=solves, residual=residual)

