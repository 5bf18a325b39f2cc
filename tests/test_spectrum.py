"""Closed-form spectra against dense eigensolver oracles."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bigmrf import (GridDims, Theta, build_bundle, build_inner_precision,
                    exact_symmetric_min_eig, exact_symmetric_spectrum,
                    lattice_min_eig, limit_constant, limit_constants,
                    min_eig_perturbed, min_eigs_batch, perturbed_spectrum,
                    spectral_grid, transect_min_eig, write_spectrum_csv,
                    SPECTRUM_CSV_HEADER)
from bigmrf.spectrum import _hull_modes, _trig

from _oracles import (complex_multisets_close, dense_circulant_block,
                      dense_toeplitz_block, rand_theta, spectrum_csv_per_cell,
                      torus_lower_branch, torus_min_grid_search)

coupling = st.floats(-1.0, 1.0)
thetas = st.builds(Theta, coupling, coupling, coupling, coupling, coupling)
side = st.integers(3, 60)

# Square, odd, coprime and n = 3 grids; the hull modes differ most between
# them (on an n x n grid every change of nearest root is shared by both axes).
HULL_GRIDS = [(3, 3), (3, 8), (4, 4), (4, 5), (5, 5), (7, 3), (8, 10), (9, 7), (12, 12),
              (13, 17), (16, 9), (48, 40), (64, 64), (101, 100), (201, 150)]


def _degenerate(u, kind):
    """Put theta on a face where the symbol has extra symmetry."""
    u = np.array(u, dtype=float)
    if kind == 1:
        u[3] = u[2]            # rho12 == rho21
    elif kind == 2:
        u[4] = u[1]            # rho11 == rho22
    elif kind == 3:
        u[4] = -u[1]           # rho11 == -rho22
    elif kind == 4:
        u[0] = 0.0             # phi == 0
    elif kind == 5:
        u[3], u[4] = u[2], -u[1]
    return Theta.from_array(u)


degenerate_thetas = st.builds(_degenerate, st.lists(coupling, min_size=5, max_size=5),
                              st.integers(0, 5))


class TestCirculantBlockEigs:
    def test_symmetric_block_formula(self):
        rho, dims = 0.3, GridDims(4, 6)
        grid = spectral_grid(Theta(0.2, rho, 0.1, 0.1, rho), dims)
        assert np.all(grid.lam12.imag == 0.0)  # rho12 == rho21: symmetric block
        i = np.arange(6)[:, None]
        j = np.arange(4)[None, :]
        expected = 1.0 + 2.0 * rho * (np.cos(2 * np.pi * i / 6)
                                      + np.cos(2 * np.pi * j / 4))
        np.testing.assert_allclose(grid.lam11, expected, atol=1e-15)

    def test_dc_mode_is_row_sum(self):
        # lam12 is the symbol of C(rho21, phi, rho12) = C(0.4, 1.0, -0.7)
        dc = spectral_grid(Theta(1.0, 0.0, -0.7, 0.4, 0.0), (5, 5)).lam12[0, 0]
        assert dc.imag == 0.0
        np.testing.assert_allclose(dense_circulant_block(0.4, 1.0, -0.7, 5, 5).sum(axis=1),
                                   dc.real, atol=1e-15)

    def test_multiset_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            theta = rand_theta(rng)
            grid = spectral_grid(theta, (3, 4))
            dense = np.linalg.eigvals(
                dense_circulant_block(theta.rho21, theta.phi, theta.rho12, 3, 4))
            assert complex_multisets_close(grid.lam12, dense, 1e-10)


class TestPerturbedSpectrum:
    def test_pure_phi_gives_two_sheets(self):
        spec = perturbed_spectrum(Theta(0.5, 0, 0, 0, 0), (4, 6))
        np.testing.assert_allclose(spec.minus, 0.5, atol=1e-15)
        np.testing.assert_allclose(spec.plus, 1.5, atol=1e-15)
        assert spec.min_eig == pytest.approx(0.5, abs=1e-15)
        assert spec.argmin == (0, 0, "minus")

    def test_even_grid_attains_one_minus_four_rho(self):
        theta = Theta(0, 0.2, 0, 0, 0.2)
        spec = perturbed_spectrum(theta, (4, 4))
        assert spec.min_eig == pytest.approx(1 - 0.8, abs=1e-15)
        dense = np.linalg.eigvalsh(build_bundle(theta, (4, 4)).q_tilde.to_dense())
        assert dense[0] == pytest.approx(spec.min_eig, abs=1e-10)

    def test_multiset_matches_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            theta = rand_theta(rng)
            spec = perturbed_spectrum(theta, (3, 4))
            closed = np.sort(np.concatenate([spec.minus.ravel(), spec.plus.ravel()]))
            dense = np.linalg.eigvalsh(build_bundle(theta, (3, 4)).q_tilde.to_dense())
            np.testing.assert_allclose(closed, dense, atol=1e-10)

    @given(theta=thetas)
    @settings(max_examples=60, deadline=None)
    def test_branch_ordering(self, theta):
        spec = perturbed_spectrum(theta, (3, 5))
        assert np.all(spec.minus <= spec.plus)
        assert spec.min_eig == spec.minus.min()


class TestMinEigPerturbed:
    def test_trivial_values(self):
        assert min_eig_perturbed(Theta.zero(), (5, 5)) == 1.0
        assert min_eig_perturbed(Theta(0.5, 0, 0, 0, 0), (5, 5)) == pytest.approx(0.5)

    def test_trig_tables_mirror_exactly(self):
        # the mirror (-i, -j) of a mode must have the same csum and exactly
        # -ssum, so that the hull modes with ssum < 0 can be dropped
        for m in range(3, 401):
            cos_a, sin_a, cos_b, sin_b = _trig(m, m + 1)
            for cos, sin in ((cos_b, sin_b), (cos_a, sin_a)):
                k = np.arange(cos.size)
                mirror = (-k) % cos.size
                np.testing.assert_array_equal(cos[mirror], cos)
                np.testing.assert_array_equal(sin[mirror], -sin)
                angle = 2 * np.pi * k / cos.size
                np.testing.assert_allclose(cos, np.cos(angle), rtol=0, atol=1e-14)
                np.testing.assert_allclose(sin, np.sin(angle), rtol=0, atol=1e-14)

    def test_hull_modes_keep_half_the_boundary(self):
        # the whole boundary has n1 + n2 modes plus one per change of both
        # nearest roots at once (gcd of them when both quotients are odd)
        for n1 in range(3, 41):
            for n2 in range(3, 41):
                g = math.gcd(n1, n2)
                shared = g if (n1 // g) % 2 and (n2 // g) % 2 else 0
                csum, ssum = _hull_modes(n1, n2)
                assert (ssum >= 0.0).all()
                assert csum.size <= (n1 + n2 + shared + 1) // 2 + 1, (n1, n2)
        assert ([_hull_modes(*dims)[0].size for dims in [(100, 100), (201, 150), (402, 300)]]
                == [151, 176, 352])

    def test_hull_modes_equal_full_scan(self):
        rng = np.random.default_rng(2)
        for dims in HULL_GRIDS:
            for k in range(60):
                theta = _degenerate(rng.uniform(-1, 1, 5), k % 6)
                assert (min_eig_perturbed(theta, dims)
                        == perturbed_spectrum(theta, dims).min_eig), (theta, dims)

    @given(theta=degenerate_thetas, n1=side, n2=side)
    @settings(max_examples=300, deadline=None)
    def test_hull_modes_equal_full_scan_property(self, theta, n1, n2):
        assert (min_eig_perturbed(theta, (n1, n2))
                == perturbed_spectrum(theta, (n1, n2)).min_eig)

    def test_agrees_with_spectrum_object(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = rand_theta(rng)
            assert (min_eig_perturbed(theta, (8, 10))
                    == perturbed_spectrum(theta, (8, 10)).min_eig)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        thetas_arr = rng.uniform(-1, 1, (40, 5))
        batch = min_eigs_batch(thetas_arr, (7, 9))
        for row, ev in zip(thetas_arr, batch):
            assert ev == min_eig_perturbed(Theta.from_array(row), (7, 9))


class TestExactSymmetricSpectrum:
    def test_zero_theta_all_ones(self):
        lam = exact_symmetric_spectrum(Theta.zero(), (4, 4))
        np.testing.assert_array_equal(lam, np.ones(32))

    def test_requires_symmetric_cross(self):
        with pytest.raises(ValueError):
            exact_symmetric_spectrum(Theta(0, 0, 0.1, 0.2, 0), (4, 4))
        with pytest.raises(ValueError):
            exact_symmetric_min_eig(Theta(0, 0, 0.1, 0.2, 0), (4, 4))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            vals = rng.uniform(-1, 1, 4)
            theta = Theta(vals[0], vals[1], vals[2], vals[2], vals[3])
            lam = exact_symmetric_spectrum(theta, (4, 5))
            dense = np.linalg.eigvalsh(build_inner_precision(theta, (4, 5)).to_dense())
            np.testing.assert_allclose(lam, dense, atol=1e-10)

    def test_single_variable_case_against_oracle(self):
        rho = -0.35
        theta = Theta(0, rho, 0, 0, rho)
        lam_min = exact_symmetric_spectrum(theta, (6, 6))[0]
        dense = np.linalg.eigvalsh(build_inner_precision(theta, (6, 6)).to_dense())[0]
        assert lam_min == pytest.approx(dense, abs=1e-10)

    def test_min_shortcut_matches_full_spectrum(self):
        rng = np.random.default_rng(7)
        for dims in [(4, 5), (6, 6), (9, 7)]:
            for _ in range(20):
                vals = rng.uniform(-1, 1, 4)
                theta = Theta(vals[0], vals[1], vals[2], vals[2], vals[3])
                fast = exact_symmetric_min_eig(theta, dims)
                full = exact_symmetric_spectrum(theta, dims)[0]
                assert fast == pytest.approx(full, abs=1e-13)


class TestLimitConstant:
    def test_single_variable_analytic(self):
        c = limit_constant(Theta(0, 0.2, 0, 0, 0.2))
        assert c.value == pytest.approx(1 - 0.8, abs=1e-9)
        c = limit_constant(Theta(0, -0.3, 0, 0, -0.3))
        assert c.value == pytest.approx(1 - 1.2, abs=1e-9)

    def test_pure_phi_analytic(self):
        c = limit_constant(Theta(0.7, 0, 0, 0, 0))
        assert c.value == pytest.approx(1 - 0.7, abs=1e-9)

    def test_lower_bounds_every_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            theta = rand_theta(rng)
            c = limit_constant(theta).value
            for dims in [(10, 10), (17, 23), (40, 40)]:
                assert c <= min_eig_perturbed(theta, dims) + 1e-9

    def test_monotone_approach_on_doubling_grids(self):
        for theta in [Theta(0.3, 0.15, 0.05, -0.1, 0.2),
                      Theta(-0.2, -0.25, 0.15, 0.05, 0.1),
                      Theta(0.1, 0.22, -0.08, -0.02, 0.18)]:
            c = limit_constant(theta).value
            gaps = [min_eig_perturbed(theta, (2 ** k, 2 ** k)) - c
                    for k in range(2, 7)]
            assert all(g >= -1e-12 for g in gaps)
            assert all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))

    def test_matches_torus_grid_search(self):
        rng = np.random.default_rng(12)
        for k in range(120):
            theta = _degenerate(rng.uniform(-1, 1, 5), k % 6)
            brute, _ = torus_min_grid_search(theta)
            assert abs(limit_constant(theta).value - brute) <= 1e-12, theta

    def test_argmin_angles_attain_value(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            theta = rand_theta(rng)
            c = limit_constant(theta)
            s, t = c.argmin_angles
            assert s == t
            at = torus_lower_branch(theta, np.array([s]), np.array([t]))[0, 0]
            assert abs(at - c.value) <= 1e-12

    def test_batch_equals_scalar(self):
        rng = np.random.default_rng(14)
        rows = rng.uniform(-1, 1, (200, 5))
        rows[::3, 3] = rows[::3, 2]
        rows[1::3, 4] = -rows[1::3, 1]
        batch = limit_constants(rows)
        for row, c in zip(rows, batch):
            assert c == limit_constant(Theta.from_array(row)).value

    @given(theta=degenerate_thetas, n1=side, n2=side)
    @settings(max_examples=200, deadline=None)
    def test_below_periodic_minimum(self, theta, n1, n2):
        # C is the minimum over the whole disk the grid's modes lie in; the
        # allowance covers rounding where a mode sits on the minimising circle
        scale = 1.0 + 4.0 * float(np.abs(theta.as_array()).sum())
        assert limit_constant(theta).value <= min_eig_perturbed(theta, (n1, n2)) + 4e-16 * scale


class TestTransect:
    def test_toeplitz_small_case(self):
        # dense oracle: tridiag(-0.5, 1, -0.5) of size 3
        dense = np.linalg.eigvalsh(dense_toeplitz_block(-0.5, 1.0, -0.5, 3, 1))[0]
        closed = transect_min_eig(-0.5, 3, "toeplitz")
        assert closed == pytest.approx(dense, abs=1e-12)
        assert closed == pytest.approx(1 - np.cos(np.pi / 4), abs=1e-12)

    def test_circulant_negative_rho(self):
        for n in (3, 4, 7, 12):
            assert transect_min_eig(-0.5, n, "circulant") == pytest.approx(0.0, abs=1e-15)

    def test_circulant_positive_odd(self):
        expected = 1 + 0.6 * np.cos(4 * np.pi / 5)
        assert transect_min_eig(0.3, 5, "circulant") == pytest.approx(expected, abs=1e-15)

    def test_against_dense_circulant_ring(self):
        rng = np.random.default_rng(9)
        for n in (4, 5, 8, 9):
            for _ in range(5):
                rho = float(rng.uniform(-1, 1))
                ring = np.zeros((n, n))
                for k in range(n):
                    ring[k, k] = 1.0
                    ring[k, (k + 1) % n] += rho
                    ring[k, (k - 1) % n] += rho
                dense = np.linalg.eigvalsh(ring)[0]
                assert transect_min_eig(rho, n, "circulant") == pytest.approx(
                    dense, abs=1e-12)

    def test_against_dense_toeplitz_chain(self):
        rng = np.random.default_rng(10)
        for n in (2, 5, 9):
            rho = float(rng.uniform(-1, 1))
            dense = np.linalg.eigvalsh(dense_toeplitz_block(rho, 1.0, rho, n, 1))[0]
            assert transect_min_eig(rho, n, "toeplitz") == pytest.approx(dense, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            transect_min_eig(0.1, 1, "toeplitz")
        with pytest.raises(ValueError):
            transect_min_eig(0.1, 2, "circulant")
        with pytest.raises(ValueError):
            transect_min_eig(0.1, 5, "ring")


class TestLatticeMinEig:
    def test_against_mode_enumeration(self):
        rng = np.random.default_rng(11)
        for dims in [(4, 4), (5, 6), (5, 5), (6, 7)]:
            n1, n2 = dims
            for _ in range(10):
                rho = float(rng.uniform(-1, 1))
                toe = np.linalg.eigvalsh(dense_toeplitz_block(rho, 1, rho, n1, n2))[0]
                assert lattice_min_eig(rho, dims, "toeplitz") == pytest.approx(
                    toe, abs=1e-12)
                circ = min_eig_perturbed(Theta(0, rho, 0, 0, rho), dims)
                assert lattice_min_eig(rho, dims, "circulant") == pytest.approx(
                    circ, abs=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lattice_min_eig(0.1, (4, 4), "wrapped")


class TestSpectrumCsv:
    def test_dump_shape_and_roundtrip(self):
        theta = Theta(0.1, 0.1, 0.05, -0.05, 0.1)
        buf = io.StringIO()
        write_spectrum_csv(theta, (4, 6), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == SPECTRUM_CSV_HEADER
        assert len(lines) == 1 + 24
        grid = spectral_grid(theta, (4, 6))
        spec = perturbed_spectrum(theta, (4, 6))
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == grid.lam11[0, 0]
        assert float(first[6]) == spec.minus[0, 0]
        # row-major in (i, j): second row is (0, 1)
        assert lines[2].split(",")[:2] == ["0", "1"]

    def test_bytes_match_per_cell_writer(self):
        rng = np.random.default_rng(15)
        for dims in [(4, 6), (33, 32), (201, 150)]:
            theta = rand_theta(rng)
            buf = io.StringIO()
            write_spectrum_csv(theta, dims, buf)
            assert buf.getvalue() == spectrum_csv_per_cell(
                spectral_grid(theta, dims), perturbed_spectrum(theta, dims))

    def test_spectral_grid_invariant(self):
        theta = Theta(0.2, 0.3, -0.1, 0.4, -0.2)
        grid = spectral_grid(theta, (5, 7))
        # angles past pi are the mirrors of those below it: index k reads
        # the cosine computed at min(k, m - k)
        i = np.arange(7)[:, None]
        j = np.arange(5)[None, :]
        expected = 1.0 + 2.0 * theta.rho11 * (np.cos(2 * np.pi * np.minimum(i, 7 - i) / 7)
                                              + np.cos(2 * np.pi * np.minimum(j, 5 - j) / 5))
        np.testing.assert_array_equal(grid.lam11, expected)
