"""Membership tests for the valid parameter space.

A parameter vector is valid at a given grid size when the (inner) precision
matrix is strictly positive-definite.  Five methods are provided, from cheap
and conservative to exact:

* ``diag_dominance`` -- strict diagonal dominance, closed form,
                        grid-independent; sufficient only, so a
                        non-positive margin is "unknown".
* ``circulant``      -- positivity of the O(n) closed-form periodic spectrum;
                        asymptotically exact, no guarantee at finite n.
* ``certified``      -- periodic spectrum on the doubled grid.  The periodic
                        matrix at (2*n1, 2*n2) contains the original lattice
                        precision as a principal submatrix, so by Cauchy
                        interlacing a positive doubled-grid minimum is a
                        rigorous certificate; a non-positive one proves
                        nothing, hence the three-valued verdict.
* ``limit``          -- sign of the continuous-symbol minimum C(theta):
                        positive means valid at every grid size, negative
                        means the periodic model fails on all large grids.
* ``exact``          -- minimum eigenvalue of the assembled matrix (dense
                        solver up to dimension 2000, shift-invert Lanczos
                        at the doubled-grid bound beyond).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridDims, Theta, _as_dims, build_inner_precision
from .oracle import DENSE_DIM_CAP, lanczos_extreme
from .spectrum import limit_constant, min_eig_perturbed

__all__ = [
    "METHODS",
    "ValidityVerdict",
    "VERDICT_SCHEMA",
    "diag_dominance_margin",
    "diag_dominance_check",
    "circulant_check",
    "certified_check",
    "limit_check",
    "exact_check",
]

METHODS = ("diag_dominance", "circulant", "certified", "limit", "exact")


@dataclass(frozen=True)
class ValidityVerdict:
    """Outcome of one membership test.

    ``valid`` is three-valued: True, False, or None for "unknown" (the method
    could not decide).  For ``method="limit"``, False means invalid on all
    sufficiently large grids; the finite-grid status is not claimed.
    ``min_eig_evidence`` is the eigenvalue or bound the decision rests on.
    """

    method: str
    valid: Optional[bool]
    min_eig_evidence: float
    dims: Optional[GridDims]
    theta: Theta
    elapsed_ns: int

    def to_json_dict(self) -> dict:
        tri = {True: "true", False: "false", None: "unknown"}
        return {
            "method": self.method,
            "valid": tri[self.valid],
            "min_eig": self.min_eig_evidence,
            "n1": self.dims.n1 if self.dims is not None else None,
            "n2": self.dims.n2 if self.dims is not None else None,
            "theta": {
                "phi": self.theta.phi,
                "rho11": self.theta.rho11,
                "rho12": self.theta.rho12,
                "rho21": self.theta.rho21,
                "rho22": self.theta.rho22,
            },
            "elapsed_ns": self.elapsed_ns,
        }


VERDICT_SCHEMA = {
    "type": "object",
    "required": ["method", "valid", "min_eig", "n1", "n2", "theta", "elapsed_ns"],
    "additionalProperties": False,
    "properties": {
        "method": {"enum": list(METHODS)},
        "valid": {"enum": ["true", "false", "unknown"]},
        "min_eig": {"type": "number"},
        "n1": {"type": ["integer", "null"]},
        "n2": {"type": ["integer", "null"]},
        "elapsed_ns": {"type": "integer", "minimum": 0},
        "theta": {
            "type": "object",
            "required": ["phi", "rho11", "rho12", "rho21", "rho22"],
            "additionalProperties": False,
            "properties": {k: {"type": "number"}
                           for k in ("phi", "rho11", "rho12", "rho21", "rho22")},
        },
    },
}


def diag_dominance_margin(theta: Theta) -> float:
    """Worst-row diagonal-dominance margin, in closed form.

    On any grid with n1, n2 >= 3 the binding rows are the interior ones,
    whose absolute off-diagonal sum is 4|rho11| (or 4|rho22|) + |phi|
    + 2|rho12| + 2|rho21| against a unit diagonal; boundary rows only drop
    terms.  The margin is therefore grid-independent, and a positive margin
    implies the matrix is strictly diagonally dominant at every grid size.
    """
    return float(_dd_margins(theta.as_array()[None, :])[0])


def _dd_margins(thetas: np.ndarray) -> np.ndarray:
    """:func:`diag_dominance_margin` of each row of a (B, 5) parameter array."""
    shared = (np.abs(thetas[:, 0]) + 2.0 * np.abs(thetas[:, 2])
              + 2.0 * np.abs(thetas[:, 3]))
    return 1.0 - (4.0 * np.maximum(np.abs(thetas[:, 1]), np.abs(thetas[:, 4])) + shared)


def diag_dominance_check(theta: Theta, dims) -> ValidityVerdict:
    """Strict diagonal dominance of the inner precision, by its closed-form margin.

    The worst-row margin (:func:`diag_dominance_margin`) is a Gershgorin
    lower bound on the minimum eigenvalue, so a positive margin proves
    positive definiteness.  Dominance is sufficient and far from necessary:
    any other margin is "unknown" (None), never "invalid".
    """
    dims = _as_dims(dims)
    t0 = time.perf_counter_ns()
    margin = diag_dominance_margin(theta)
    return ValidityVerdict(method="diag_dominance",
                           valid=True if margin > 0.0 else None,
                           min_eig_evidence=margin, dims=dims, theta=theta,
                           elapsed_ns=time.perf_counter_ns() - t0)


def circulant_check(theta: Theta, dims) -> ValidityVerdict:
    """Positivity of the closed-form periodic spectrum; O(n), no assembly."""
    dims = _as_dims(dims)
    t0 = time.perf_counter_ns()
    ev = min_eig_perturbed(theta, dims)
    return ValidityVerdict(method="circulant", valid=ev > 0.0,
                           min_eig_evidence=ev, dims=dims, theta=theta,
                           elapsed_ns=time.perf_counter_ns() - t0)


def certified_check(theta: Theta, dims) -> ValidityVerdict:
    """Doubled-grid certificate: rigorous when positive, unknown otherwise."""
    dims = _as_dims(dims)
    t0 = time.perf_counter_ns()
    bound = min_eig_perturbed(theta, dims.doubled())
    return ValidityVerdict(method="certified",
                           valid=True if bound > 0.0 else None,
                           min_eig_evidence=bound, dims=dims, theta=theta,
                           elapsed_ns=time.perf_counter_ns() - t0)


# Decision band of limit_check: |C(theta)| <= LIMIT_TOL is "unknown".
LIMIT_TOL = 1e-8


def limit_check(theta: Theta) -> ValidityVerdict:
    """Grid-size-independent test via the continuous-symbol minimum.

    C(theta) > LIMIT_TOL certifies validity for every grid size (the
    doubled-grid certificate holds uniformly); C(theta) < -LIMIT_TOL means the
    periodic model fails on all large grids ("asymptotically invalid",
    reported as False); anything in between is unknown.
    """
    t0 = time.perf_counter_ns()
    c = limit_constant(theta).value
    if c > LIMIT_TOL:
        valid: Optional[bool] = True
    elif c < -LIMIT_TOL:
        valid = False
    else:
        valid = None
    return ValidityVerdict(method="limit", valid=valid, min_eig_evidence=c,
                           dims=None, theta=theta,
                           elapsed_ns=time.perf_counter_ns() - t0)


def exact_check(theta: Theta, dims) -> ValidityVerdict:
    """Ground truth: minimum eigenvalue of the assembled inner precision.

    Dense solver for dimension 2n <= 2000, shift-invert Lanczos beyond, shifted
    just below the doubled-grid lower bound.  The minimum must exceed 0 on the
    dense path and 1e-10 * ||Q||_1 on the iterative one; oracle
    non-convergence propagates as an error rather than a verdict.
    """
    dims = _as_dims(dims)
    t0 = time.perf_counter_ns()
    q = build_inner_precision(theta, dims)
    if q.dim <= DENSE_DIM_CAP:
        ev = float(np.linalg.eigvalsh(q.to_dense())[0])
        tol = 0.0
    else:
        ev = lanczos_extreme(q, min_eig_perturbed(theta, dims.doubled())).value
        tol = 1e-10 * q.norm1()
    return ValidityVerdict(method="exact", valid=ev > tol,
                           min_eig_evidence=ev, dims=dims, theta=theta,
                           elapsed_ns=time.perf_counter_ns() - t0)
