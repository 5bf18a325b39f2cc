"""Rejection sampling: reproducibility, soundness ordering, slice geometry."""

import io

import numpy as np
import pytest

import bigmrf.sampler
from bigmrf import (BATCH_CSV_HEADER, LowAcceptanceError, Theta,
                    batch_circulant_valid, dd_coverage_experiment,
                    diag_dominance_margin, draw_conditioning_points,
                    draw_limit_valid, exact_check, limit_check, min_eig_perturbed,
                    min_eigs_batch, sample_conditional_slice, sample_valid)

from _oracles import batch_csv_per_cell


class TestReproducibility:
    def test_same_seed_same_batch(self):
        a = sample_valid((10, 10), 3000, seed=42)
        b = sample_valid((10, 10), 3000, seed=42)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.accepted, b.accepted)
        np.testing.assert_array_equal(a.min_eig, b.min_eig)

    def test_thread_count_does_not_change_batch(self):
        a = sample_valid((10, 10), 5000, seed=7, threads=1)
        b = sample_valid((10, 10), 5000, seed=7, threads=4)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_different_seeds_differ(self):
        a = sample_valid((10, 10), 1000, seed=1)
        b = sample_valid((10, 10), 1000, seed=2)
        assert not np.array_equal(a.thetas, b.thetas)


class TestAcceptance:
    def test_tiny_box_accepts_everything(self):
        box = np.array([[-0.01, 0.01]] * 5)
        batch = sample_valid((15, 15), 500, seed=3, box=box)
        assert batch.acceptance_rate == 1.0
        assert batch.dd_valid.all()  # diagonal dominance holds throughout

    def test_low_acceptance_aborts(self):
        box = np.array([[0.9, 1.0]] * 5)  # far outside the valid region
        with pytest.raises(LowAcceptanceError):
            sample_valid((10, 10), 20000, seed=4, box=box)

    def test_method_strength_ordering(self):
        # per-proposal implication: dominant => certified => circulant-valid
        box = np.array([[-0.35, 0.35]] * 5)
        dd = sample_valid((8, 9), 4000, method="diag_dominance", seed=5, box=box)
        cert = sample_valid((8, 9), 4000, method="certified", seed=5, box=box)
        circ = sample_valid((8, 9), 4000, method="circulant", seed=5, box=box)
        np.testing.assert_array_equal(dd.thetas, cert.thetas)
        assert not (dd.accepted & ~cert.accepted).any()
        assert not (cert.accepted & ~circ.accepted).any()
        assert dd.n_accepted < cert.n_accepted < circ.n_accepted

    def test_certified_acceptances_pass_exact(self):
        box = np.array([[-0.35, 0.35]] * 5)
        batch = sample_valid((6, 7), 3000, method="certified", seed=6, box=box)
        picked = batch.accepted_thetas()[:1000]
        assert len(picked) > 100
        for row in picked:
            assert exact_check(Theta.from_array(row), (6, 7)).valid is True

    def test_dd_rejects_zero_margin(self):
        # theta = (1, 0, 0, 0, 0): margin exactly 0, singular precision
        box = np.array([[1.0, 1.0]] + [[0.0, 0.0]] * 4)
        batch = sample_valid((5, 5), 10, method="diag_dominance", seed=21, box=box)
        assert (batch.min_eig == 0.0).all()
        assert not batch.accepted.any()

    def test_dd_tag_excludes_zero_margin(self):
        # a singular precision is not diagonally dominant
        box = [[1, 1]] + [[0, 0]] * 4
        batch = sample_valid((5, 5), 3, method="diag_dominance", box=box)
        assert (batch.min_eig == 0.0).all()
        assert not batch.dd_valid.any()

    def test_limit_verdicts_match_limit_check(self):
        box = np.array([[-0.4, 0.4]] * 5)
        batch = sample_valid((10, 10), 400, method="limit", seed=22, box=box)
        assert 0 < batch.n_accepted < 400
        for row, ok, ev in zip(batch.thetas, batch.accepted, batch.min_eig):
            v = limit_check(Theta.from_array(row))
            assert ok == (v.valid is True)
            assert ev == v.min_eig_evidence

    def test_evidence_matches_min_eig(self):
        batch = sample_valid((9, 11), 300, seed=8)
        for idx in range(0, 300, 37):
            theta = batch.theta_at(idx)
            assert batch.min_eig[idx] == min_eig_perturbed(theta, (9, 11))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_valid((5, 5), 0)
        with pytest.raises(ValueError):
            sample_valid((5, 5), 10, box=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            sample_valid((5, 5), 10, method="cholesky")
        with pytest.raises(ValueError):
            sample_valid((5, 5), 10, threads=0)


class TestScreenedValidity:
    def test_matches_unscreened(self):
        rng = np.random.default_rng(9)
        thetas = rng.uniform(-1, 1, (5000, 5))
        fast = batch_circulant_valid(thetas, (20, 24))
        slow = min_eigs_batch(thetas, (20, 24)) > 0.0
        np.testing.assert_array_equal(fast, slow)


class TestCoverageExperiment:
    def test_small_run_determinism_and_bounds(self):
        a = dd_coverage_experiment((30, 30), n_valid=300, seed=11)
        b = dd_coverage_experiment((30, 30), n_valid=300, seed=11)
        assert a == b
        assert a.n_valid == 300
        assert 0 <= a.n_dd_valid <= a.n_valid
        assert a.n_proposed >= a.n_valid

    def test_dd_points_counted_are_valid_subset(self):
        res = dd_coverage_experiment((20, 20), n_valid=500, seed=12)
        assert 0.0 < res.ratio < 1.0

    def test_proposal_cap_raises(self, monkeypatch):
        monkeypatch.setattr(bigmrf.sampler, "_COVERAGE_CHUNK", 256)
        monkeypatch.setattr(bigmrf.sampler, "_COVERAGE_MAX_PROPOSALS", 1024)
        with pytest.raises(LowAcceptanceError, match="after 1024 proposals"):
            dd_coverage_experiment((20, 20), n_valid=1000, seed=12)


class TestConditionalSlice:
    def test_fixed_coordinates_and_reproducibility(self):
        a = sample_conditional_slice(0.1, 0.05, 0.08, (12, 12), 2000, seed=13)
        b = sample_conditional_slice(0.1, 0.05, 0.08, (12, 12), 2000, seed=13)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert (a.thetas[:, 0] == 0.1).all()
        assert (a.thetas[:, 1] == 0.05).all()
        assert (a.thetas[:, 4] == 0.08).all()
        assert a.fixed_mask.tolist() == [True, True, False, False, True]

    def test_origin_slice_swap_symmetry(self):
        # at (0,0,0) the acceptance region is invariant under swapping the
        # two cross couplings: the spectrum depends on |lam12| only
        batch = sample_conditional_slice(0.0, 0.0, 0.0, (10, 10), 2000, seed=14)
        acc = batch.accepted_thetas()
        assert len(acc) > 50
        for row in acc[:200]:
            swapped = Theta(0.0, 0.0, row[3], row[2], 0.0)
            assert min_eig_perturbed(swapped, (10, 10)) == batch.min_eig[
                np.flatnonzero((batch.thetas == row).all(axis=1))[0]]

    def test_origin_slice_sign_flip_symmetry(self):
        batch = sample_conditional_slice(0.0, 0.0, 0.0, (10, 10), 2000, seed=15)
        acc = batch.accepted_thetas()
        for row in acc[:200]:
            flipped = Theta(0.0, 0.0, -row[2], -row[3], 0.0)
            assert min_eig_perturbed(flipped, (10, 10)) > 0.0

    def test_dd_region_symmetric_valid_region_not_necessarily(self):
        # the dominance criterion only sees absolute values
        batch = sample_conditional_slice(0.3, 0.05, -0.1, (10, 10), 4000, seed=16)
        acc = batch.thetas[batch.accepted]
        dd = batch.thetas[batch.accepted & batch.dd_valid]
        for row in dd:
            mirrored = Theta(0.3, 0.05, -row[2], -row[3], -0.1)
            assert diag_dominance_margin(mirrored) >= 0.0

    def test_csv_roundtrip(self):
        batch = sample_conditional_slice(0.0, 0.1, 0.1, (8, 8), 500, seed=17)
        buf = io.StringIO()
        batch.write_csv(buf, include_rejected=True)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == BATCH_CSV_HEADER
        assert len(lines) == 1 + 500
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == 0.0 and float(cells[2]) == 0.1
        assert cells[6] in ("true", "false")
        buf2 = io.StringIO()
        batch.write_csv(buf2)  # accepted rows only
        assert len(buf2.getvalue().strip().split("\n")) == 1 + batch.n_accepted


class TestCsvBytes:
    @staticmethod
    def _assert_matches_per_cell(batch):
        for include_rejected in (True, False):
            buf = io.StringIO()
            batch.write_csv(buf, include_rejected=include_rejected)
            assert buf.getvalue() == batch_csv_per_cell(batch, include_rejected)

    @pytest.mark.parametrize("method", ["circulant", "certified", "diag_dominance", "limit"])
    def test_matches_per_cell_writer(self, method):
        # sizes around the writer's 1024-row blocks and the sampler's 2048-row chunks
        box = np.array([[-0.25, 0.25]] * 5)
        for n in (1, 1023, 1024, 1025, 2049):
            batch = sample_valid((6, 7), n, method=method, seed=n, box=box)
            self._assert_matches_per_cell(batch)

    def test_no_accepted_rows(self):
        box = np.array([[0.9, 1.0]] * 5)
        batch = sample_valid((6, 7), 1500, seed=23, box=box)
        assert batch.n_accepted == 0
        self._assert_matches_per_cell(batch)


class TestHelperDraws:
    def test_conditioning_points_reproducible_and_valid(self):
        pts = draw_conditioning_points(4, (20, 20), seed=18)
        again = draw_conditioning_points(4, (20, 20), seed=18)
        np.testing.assert_array_equal(pts, again)
        assert pts.shape == (4, 3)
        for phi, r11, r22 in pts:
            assert min_eig_perturbed(Theta(phi, r11, 0, 0, r22), (20, 20)) > 0

    def test_limit_valid_draws(self):
        thetas = draw_limit_valid(3, seed=19)
        assert len(thetas) == 3
        for theta in thetas:
            assert limit_check(theta).valid is True
        again = draw_limit_valid(3, seed=19)
        assert [t.as_array().tolist() for t in thetas] == \
               [t.as_array().tolist() for t in again]

    def test_conditioning_points_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(bigmrf.sampler, "_CONDITIONING_MAX_TRIES", 5)
        with pytest.raises(LowAcceptanceError, match="in 5 tries"):
            draw_conditioning_points(6, (20, 20), seed=18)

    def test_limit_valid_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(bigmrf.sampler, "_LIMIT_MAX_TRIES", 1024)
        with pytest.raises(LowAcceptanceError, match="in 1024 proposals"):
            draw_limit_valid(1000, seed=19)
