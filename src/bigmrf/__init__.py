"""Valid parameter space of a bivariate lattice Gaussian Markov random field.

The precision matrix of the field couples two variables on a regular n1 x n2
lattice through five interaction parameters.  This package assembles that
matrix sparsely, computes closed-form spectra of its periodic (toroidal)
counterpart in O(n), certifies positive-definiteness rigorously through a
doubled-grid argument, cross-checks everything against dense and
shift-invert Lanczos eigensolvers, and ships the sampling, convergence and
timing studies built on top.
"""

from .core import (GridDims, PrecisionBundle, SparseSymMatrix, Tau, Theta,
                   build_bundle, build_inner_precision, build_precision,
                   write_matrix_market)
from .oracle import (DENSE_DIM_CAP, EigResult, LanczosNonConvergence,
                     lanczos_extreme)
from .sampler import (BATCH_CSV_HEADER, CoverageResult, LowAcceptanceError,
                      SampleBatch, batch_circulant_valid,
                      dd_coverage_experiment, draw_conditioning_points,
                      draw_limit_valid, sample_conditional_slice, sample_valid)
from .spectrum import (SPECTRUM_CSV_HEADER, LimitConstant, PerturbedSpectrum,
                       SpectralGrid, exact_symmetric_min_eig,
                       exact_symmetric_spectrum, lattice_min_eig,
                       limit_constant, limit_constants, min_eig_perturbed,
                       min_eigs_batch, perturbed_spectrum, spectral_grid,
                       transect_min_eig, write_spectrum_csv)
from .study import (BENCH_CSV_HEADER, FITS_CSV_HEADER, STUDY_CSV_HEADER,
                    BenchRecord, ConvergenceRecord, ParityStudy, SlopeFit,
                    bench_membership, convergence_sweep, fit_loglog,
                    parity_patterns, write_bench_csv, write_fits_csv,
                    write_study_csv)
from .validity import (METHODS, VERDICT_SCHEMA, ValidityVerdict,
                       certified_check, circulant_check, diag_dominance_check,
                       diag_dominance_margin, exact_check, limit_check)

__version__ = "0.1.0"

__all__ = [
    "GridDims", "PrecisionBundle", "SparseSymMatrix", "Tau", "Theta",
    "build_bundle", "build_inner_precision", "build_precision",
    "write_matrix_market",
    "DENSE_DIM_CAP", "EigResult", "LanczosNonConvergence", "lanczos_extreme",
    "BATCH_CSV_HEADER", "CoverageResult", "LowAcceptanceError", "SampleBatch",
    "batch_circulant_valid", "dd_coverage_experiment",
    "draw_conditioning_points", "draw_limit_valid",
    "sample_conditional_slice", "sample_valid",
    "SPECTRUM_CSV_HEADER", "LimitConstant", "PerturbedSpectrum", "SpectralGrid",
    "exact_symmetric_min_eig", "exact_symmetric_spectrum",
    "lattice_min_eig", "limit_constant", "limit_constants", "min_eig_perturbed",
    "min_eigs_batch",
    "perturbed_spectrum", "spectral_grid", "transect_min_eig", "write_spectrum_csv",
    "BENCH_CSV_HEADER", "FITS_CSV_HEADER", "STUDY_CSV_HEADER",
    "BenchRecord", "ConvergenceRecord", "ParityStudy", "SlopeFit",
    "bench_membership", "convergence_sweep", "fit_loglog", "parity_patterns",
    "write_bench_csv", "write_fits_csv", "write_study_csv",
    "METHODS", "VERDICT_SCHEMA", "ValidityVerdict", "certified_check",
    "circulant_check", "diag_dominance_check", "diag_dominance_margin",
    "exact_check", "limit_check",
    "__version__",
]
