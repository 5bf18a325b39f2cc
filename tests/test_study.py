"""Convergence records, log-log fits, parity stratification, benchmark."""

import io

import numpy as np
import pytest

import bigmrf.study
from bigmrf import (BENCH_CSV_HEADER, FITS_CSV_HEADER, STUDY_CSV_HEADER,
                    ConvergenceRecord, GridDims, LanczosNonConvergence, Theta,
                    bench_membership, convergence_sweep, fit_loglog,
                    lattice_min_eig, parity_patterns, transect_min_eig,
                    write_bench_csv, write_fits_csv, write_study_csv)


def _synthetic_records(power, grids, c=3.7):
    out = []
    for m in grids:
        dims = GridDims(m, m)
        val = c / dims.n ** power
        out.append(ConvergenceRecord(
            theta_idx=0, theta=Theta.zero(), dims=dims, lam_q=1.0, lam_qt=1.0,
            c_theta=1.0, eps=val, delta=val, parity=(m % 2, m % 2),
            converged=True))
    return out


class TestFitLogLog:
    def test_exact_inverse_law(self):
        fit = fit_loglog(_synthetic_records(1.0, [10, 14, 20, 28, 40]), "delta")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 5 and fit.n_excluded == 0

    def test_exact_inverse_square_law(self):
        fit = fit_loglog(_synthetic_records(2.0, [10, 14, 20, 28]), "eps")
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog(_synthetic_records(1.0, [10, 14]), "delta")

    def test_nonpositive_values_excluded_with_count(self):
        records = _synthetic_records(1.0, [10, 14, 20, 28, 40])
        zeroed = records[0]
        records[0] = ConvergenceRecord(
            theta_idx=0, theta=zeroed.theta, dims=zeroed.dims, lam_q=1.0,
            lam_qt=1.0, c_theta=1.0, eps=0.0, delta=0.0,
            parity=zeroed.parity, converged=True)
        fit = fit_loglog(records, "delta")
        assert fit.n_points == 4 and fit.n_excluded == 1

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            fit_loglog(_synthetic_records(1.0, [10, 14, 20]), "gamma")


class TestConvergenceSweep:
    def test_constant_spectrum_theta(self):
        # pure within-site coupling: both spectra are {1 +- phi} at every size
        records = convergence_sweep([Theta(0.5, 0, 0, 0, 0)],
                                    [(6, 6), (10, 12), (16, 16)])
        for r in records:
            assert r.converged
            assert r.eps <= 1e-8
            assert r.delta <= 1e-8

    def test_single_variable_even_grids_delta_equals_eps(self):
        rho = 0.2
        theta = Theta(0, rho, 0, 0, rho)
        records = convergence_sweep([theta], [(8, 8), (12, 12), (16, 16)])
        for r in records:
            assert r.lam_qt == pytest.approx(1 - 4 * rho, abs=1e-14)
            assert r.c_theta == pytest.approx(1 - 4 * rho, abs=1e-9)
            assert r.delta == pytest.approx(r.eps, abs=1e-8)

    def test_eps_below_delta_at_large_grids(self):
        theta = Theta(0.25, 0.12, 0.06, -0.09, 0.15)  # limit-valid
        records = convergence_sweep([theta], [(32, 32), (40, 40)])
        for r in records:
            assert r.eps <= r.delta + 1e-8

    def test_oracle_failure_flags_record(self, monkeypatch):
        def fail(m, lower_bound):
            raise LanczosNonConvergence(0.1, 1e-3, 3)

        monkeypatch.setattr(bigmrf.study, "lanczos_extreme", fail)
        records = convergence_sweep([Theta(0.3, 0.1, 0.05, -0.1, 0.2)],
                                    [(16, 16)])
        assert len(records) == 1
        assert not records[0].converged
        assert np.isnan(records[0].eps)

    def test_record_level_invariants(self):
        # triangle inequality between the two gaps, and the symbol minimum
        # lower-bounds the periodic minimum on every grid
        theta = Theta(0.25, 0.12, 0.06, -0.09, 0.15)
        records = convergence_sweep([theta], [(10, 10), (13, 17), (20, 20)])
        for r in records:
            assert r.eps <= r.delta + abs(r.lam_qt - r.c_theta) + 1e-12
            assert r.lam_qt >= r.c_theta - 1e-9

    def test_threaded_sweep_matches_serial(self):
        thetas = [Theta(0.2, 0.1, 0.05, -0.05, 0.1), Theta(0.4, 0, 0.1, 0.1, 0)]
        grids = [(8, 8), (12, 10), (16, 16)]
        serial = convergence_sweep(thetas, grids)
        threaded = convergence_sweep(thetas, grids, threads=4)
        assert [(r.theta_idx, r.dims, r.lam_q, r.lam_qt, r.eps, r.delta)
                for r in serial] == \
               [(r.theta_idx, r.dims, r.lam_q, r.lam_qt, r.eps, r.delta)
                for r in threaded]

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            convergence_sweep([Theta.zero()], [])


class TestParityPatterns:
    def test_negative_rho_slope_minus_one_all_parities(self):
        rho = -0.35
        theta = Theta(0, rho, 0, 0, rho)
        study = parity_patterns(theta, [(m, m) for m in range(24, 97, 4)])
        fit = fit_loglog(study.records, "eps")
        assert fit.slope == pytest.approx(-1.0, abs=0.1)
        # closed-form cross-check of the record contents
        rec = study.records[0]
        assert rec.lam_q == pytest.approx(
            lattice_min_eig(rho, rec.dims, "toeplitz"), abs=1e-13)
        assert rec.lam_qt == pytest.approx(
            lattice_min_eig(rho, rec.dims, "circulant"), abs=1e-13)

    def test_positive_rho_even_grids_constant_lower_bound(self):
        rho = 0.3
        theta = Theta(0, rho, 0, 0, rho)
        study = parity_patterns(theta, [(m, m) for m in range(20, 81, 10)])
        even = study.by_parity[(0, 0)]
        assert len(even) >= 3
        for r in even:
            assert r.lam_qt == pytest.approx(1 - 4 * rho, abs=1e-14)
            assert r.lam_qt <= r.lam_q + 1e-14

    def test_positive_rho_odd_grids_slope(self):
        rho = 0.3
        theta = Theta(0, rho, 0, 0, rho)
        study = parity_patterns(theta, [(m, m) for m in range(33, 130, 8)])
        odd = study.by_parity[(1, 1)]
        fit = fit_loglog(odd, "eps")
        assert fit.slope == pytest.approx(-1.5, abs=0.15)
        for r in odd:  # periodic minimum sits above the lattice one here
            assert r.lam_qt >= r.lam_q - 1e-14

    def test_sign_change_is_traced(self):
        rho = 0.3
        theta = Theta(0, rho, 0, 0, rho)
        grids = [(32, 32), (33, 33), (34, 34), (35, 35)]
        study = parity_patterns(theta, grids)
        assert len(study.sign_changes) >= 1


class TestTransectRates:
    def test_negative_rho_rate(self):
        ns = [65, 129, 257, 513, 1025, 2049, 4097]
        eps = [abs(transect_min_eig(-0.4, n, "toeplitz")
                   - transect_min_eig(-0.4, n, "circulant")) for n in ns]
        slope = np.polyfit(np.log10(ns), np.log10(eps), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_positive_rho_odd_rate(self):
        ns = [65, 129, 257, 513, 1025, 2049, 4097]
        eps = [abs(transect_min_eig(0.4, n, "toeplitz")
                   - transect_min_eig(0.4, n, "circulant")) for n in ns]
        slope = np.polyfit(np.log10(ns), np.log10(eps), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.15)


class TestBench:
    def test_invalid_case_fast_path_wins(self):
        records = bench_membership([(30, 30)], n_valid=1, n_invalid=2,
                                   seed=0, reps=3)
        by_key = {(r.dims.n1, r.case, r.method): r for r in records}
        assert by_key[(30, "invalid", "baseline")].ratio > 1.0
        assert by_key[(30, "invalid", "fast")].median_ns < \
               by_key[(30, "invalid", "baseline")].median_ns

    def test_csv_output(self):
        records = bench_membership([(20, 20)], n_valid=1, n_invalid=1,
                                   seed=1, reps=2)
        buf = io.StringIO()
        write_bench_csv(records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 1 + 4  # 2 cases x 2 methods

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bench_membership([(20, 20)], n_valid=0, n_invalid=1)
        with pytest.raises(ValueError):
            bench_membership([(20, 20)], n_valid=1, n_invalid=1, reps=0)

    def test_classification_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(bigmrf.study, "_CLASSIFY_MAX_TRIES", 256)
        with pytest.raises(RuntimeError, match="could not classify"):
            bench_membership([(20, 20)], n_valid=1000, n_invalid=1)


class TestCsvWriters:
    def test_study_and_fits_roundtrip(self):
        theta = Theta(0, -0.3, 0, 0, -0.3)
        study = parity_patterns(theta, [(10, 10), (14, 14), (20, 20)])
        buf = io.StringIO()
        write_study_csv(study.records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == STUDY_CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[1] == "10" and first[2] == "10"
        assert float(first[5]) == study.records[0].lam_q

        fit = fit_loglog(study.records, "eps")
        buf = io.StringIO()
        write_fits_csv([(0, "eps", fit)], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == FITS_CSV_HEADER
        cells = lines[1].split(",")
        assert cells[1] == "eps"
        assert float(cells[2]) == fit.slope
