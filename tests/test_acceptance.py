"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with plain ``pytest tests/test_acceptance.py``; the status lines print
straight to the terminal even under capture.  The full module is a long run
(dominated by the iterative-oracle sweeps); every tolerance is fixed here,
nothing is calibrated at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np

from bigmrf import (GridDims, Theta, bench_membership, build_bundle,
                    build_inner_precision, convergence_sweep,
                    dd_coverage_experiment, diag_dominance_margin,
                    draw_conditioning_points, draw_limit_valid, exact_check,
                    exact_symmetric_spectrum, fit_loglog, lattice_min_eig,
                    min_eig_perturbed, min_eigs_batch, perturbed_spectrum,
                    sample_conditional_slice, transect_min_eig)


@contextmanager
def _criterion(capsys, name):
    t0 = time.time()
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {name} ({time.time() - t0:.1f}s)")


def _uniform_thetas(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, 5))


def _dense_min(theta, dims):
    return float(np.linalg.eigvalsh(build_inner_precision(theta, dims).to_dense())[0])


def _lam_q(theta, dims):
    return exact_check(theta, dims).min_eig_evidence


def test_criterion_01_spectral_exactness(capsys):
    with _criterion(capsys, "1. closed-form periodic spectrum == dense (1e-10)"):
        for row in _uniform_thetas(200, seed=101):
            theta = Theta.from_array(row)
            for dims in [(3, 3), (3, 4), (4, 5), (5, 6)]:
                spec = perturbed_spectrum(theta, dims)
                closed = np.sort(np.concatenate([spec.minus.ravel(),
                                                 spec.plus.ravel()]))
                dense = np.linalg.eigvalsh(
                    build_bundle(theta, dims).q_tilde.to_dense())
                assert np.abs(closed - dense).max() <= 1e-10, (theta, dims)


def test_criterion_02_symmetric_case_exactness(capsys):
    with _criterion(capsys, "2. symmetric-case exact spectrum == dense (1e-10)"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            phi, r11, r12, r22 = rng.uniform(-1, 1, 4)
            theta = Theta(phi, r11, r12, r12, r22)
            for dims in [(3, 3), (4, 4), (3, 5), (5, 4), (6, 6)]:
                closed = exact_symmetric_spectrum(theta, dims)
                dense = np.linalg.eigvalsh(
                    build_inner_precision(theta, dims).to_dense())
                assert np.abs(closed - dense).max() <= 1e-10, (theta, dims)


def test_criterion_03_interlacing_soundness(capsys):
    with _criterion(capsys, "3. doubled-grid periodic minimum <= lattice minimum"):
        for row in _uniform_thetas(500, seed=103):
            theta = Theta.from_array(row)
            for dims in [(4, 5), (6, 7)]:
                doubled = GridDims(*dims).doubled()
                lhs = np.linalg.eigvalsh(
                    build_bundle(theta, doubled).q_tilde.to_dense())[0]
                assert lhs <= _dense_min(theta, dims) + 1e-9, (theta, dims)


def test_criterion_04_no_false_positives(capsys):
    with _criterion(capsys, "4. certified valid implies exactly valid (10,000 draws)"):
        thetas = _uniform_thetas(10_000, seed=104)
        certified = min_eigs_batch(thetas, GridDims(6, 7).doubled()) > 0.0
        hits = np.flatnonzero(certified)
        assert hits.size >= 10  # the experiment is not vacuous
        for idx in hits:
            theta = Theta.from_array(thetas[idx])
            assert _dense_min(theta, (6, 7)) > 0.0, theta


def test_criterion_05_limit_convergence(capsys):
    with _criterion(capsys, "5. |lattice - periodic| minimum gap < 1e-3 by 80x80"):
        thetas = draw_limit_valid(20, seed=20260809)
        for theta in thetas:
            diffs = [abs(_lam_q(theta, dims) - min_eig_perturbed(theta, dims))
                     for dims in [(10, 10), (20, 20), (40, 40), (80, 80)]]
            assert diffs[-1] < 1e-3, (theta, diffs)
            assert diffs[-1] <= diffs[0] + 1e-8, (theta, diffs)


def test_criterion_06_delta_slope_study(capsys):
    with _criterion(capsys, "6. per-theta delta fits: R2 >= 0.99, slope in [-1.15,-0.85]"):
        thetas = draw_limit_valid(20, seed=20260809)
        grids = [(m, m) for m in range(20, 81, 2)]
        records = convergence_sweep(thetas, grids)
        assert all(r.converged for r in records)
        slopes = []
        for idx in range(len(thetas)):
            fit = fit_loglog([r for r in records if r.theta_idx == idx], "delta")
            assert fit.r_squared >= 0.99, (idx, fit)
            assert -1.15 <= fit.slope <= -0.85, (idx, fit)
            slopes.append(fit.slope)
        with capsys.disabled():
            print(f"    median delta slope {np.median(slopes):+.4f} over "
                  f"{len(thetas)} thetas x {len(grids)} grids")


def test_criterion_07_univariate_parity_rates(capsys):
    with _criterion(capsys, "7. chain rates -2/-3, lattice rate -1 (closed forms)"):
        ns = np.array([65, 129, 257, 513, 1025, 2049, 4097])

        eps_neg = [abs(transect_min_eig(-0.4, n, "toeplitz")
                       - transect_min_eig(-0.4, n, "circulant")) for n in ns]
        slope = np.polyfit(np.log10(ns), np.log10(eps_neg), 1)[0]
        assert abs(slope - (-2.0)) <= 0.1, slope

        eps_pos = [abs(transect_min_eig(0.4, n, "toeplitz")
                       - transect_min_eig(0.4, n, "circulant")) for n in ns]
        slope = np.polyfit(np.log10(ns), np.log10(eps_pos), 1)[0]
        assert abs(slope - (-3.0)) <= 0.15, slope

        eps_lat = [abs(lattice_min_eig(-0.4, (m, m), "toeplitz")
                       - lattice_min_eig(-0.4, (m, m), "circulant")) for m in ns]
        slope = np.polyfit(np.log10(ns.astype(float) ** 2), np.log10(eps_lat), 1)[0]
        assert abs(slope - (-1.0)) <= 0.1, slope


def test_criterion_08_dd_coverage_ratio(capsys):
    with _criterion(capsys, "8. dominance coverage of the valid region in [0.109, 0.149]"):
        res = dd_coverage_experiment((100, 100), n_valid=100_000, seed=20260809)
        with capsys.disabled():
            print(f"    ratio {res.ratio:.4f} ({res.n_dd_valid}/{res.n_valid} "
                  f"over {res.n_proposed} proposals)")
        assert 0.109 <= res.ratio <= 0.149, res


def test_criterion_09_slice_geometry(capsys):
    with _criterion(capsys, "9. slice panels: a zero-coverage panel exists; "
                            "dominant region symmetric, valid region not"):
        dims = (100, 100)
        points = draw_conditioning_points(4, dims, seed=1)
        zero_coverage = 0
        asymmetric = 0
        for k, (phi, r11, r22) in enumerate(points):
            batch = sample_conditional_slice(phi, r11, r22, dims, 10_000,
                                             seed=100 + k)
            assert batch.n_accepted > 0
            accepted = batch.thetas[batch.accepted]
            dd_pts = batch.thetas[batch.accepted & batch.dd_valid]
            if len(dd_pts) == 0:
                zero_coverage += 1
            for row in dd_pts:
                mirrored = Theta(phi, r11, -row[2], -row[3], r22)
                assert diag_dominance_margin(mirrored) >= 0.0
            for row in accepted[:400]:
                mirrored = Theta(phi, r11, -row[2], -row[3], r22)
                if min_eig_perturbed(mirrored, dims) <= 0.0:
                    asymmetric += 1
                    break
        assert zero_coverage >= 1
        assert asymmetric >= 1


def test_criterion_10_membership_benchmark(capsys):
    with _criterion(capsys, "10. fast check beats assemble-and-iterate, gap grows"):
        records = bench_membership([(100, 100), (200, 200)], n_valid=2,
                                   n_invalid=2, seed=0, reps=20, baseline_reps=2)
        ratios = {(r.dims.n1, r.case): r.ratio for r in records
                  if r.method == "baseline"}
        with capsys.disabled():
            print(f"    invalid-case ratios: {ratios[(100, 'invalid')]:.0f}x at "
                  f"100x100, {ratios[(200, 'invalid')]:.0f}x at 200x200")
        assert ratios[(100, "invalid")] > 3.0
        assert ratios[(200, "invalid")] > ratios[(100, "invalid")]


def test_criterion_11_structural_invariants(capsys):
    with _criterion(capsys, "11. nonzero bounds, zero trace, indefinite difference"):
        generic = Theta(0.3, 0.2, 0.11, -0.17, 0.23)
        for n1, n2 in [(4, 6), (5, 7)]:
            bundle = build_bundle(generic, (n1, n2))
            assert bundle.q.nnz == 20 * n1 * n2 - 8 * n1 - 8 * n2
            assert bundle.delta_q.nnz == 8 * (n1 + n2)
            assert bundle.delta_q.trace() == 0.0
        rng = np.random.default_rng(111)
        for _ in range(20):
            theta = Theta.from_array(rng.uniform(-1, 1, 5))
            bundle = build_bundle(theta, (4, 4))
            assert bundle.q.nnz <= 20 * 16 - 8 * 4 - 8 * 4
            assert bundle.delta_q.nnz <= 8 * 8
            assert bundle.delta_q.trace() == 0.0
            eigs = np.linalg.eigvalsh(bundle.delta_q.to_dense())
            assert eigs[0] < -1e-12 and eigs[-1] > 1e-12, theta
