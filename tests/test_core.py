"""Assembly of the lattice precision, its periodic version, and the difference."""

import io

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings, strategies as st

from bigmrf import (GridDims, SparseSymMatrix, Tau, Theta, build_bundle,
                    build_inner_precision, build_precision, sample_valid,
                    write_bench_csv, write_fits_csv, write_matrix_market,
                    write_spectrum_csv, write_study_csv)
from bigmrf.svg import line_chart_svg, scatter_svg

from _oracles import (dense_circulant_block, dense_inner_precision,
                      dense_precision, dense_toeplitz_block, rand_theta)

coupling = st.floats(-1.0, 1.0)
thetas = st.builds(Theta, coupling, coupling, coupling, coupling, coupling)
side = st.integers(3, 12)
taus = st.builds(Tau, st.floats(0.05, 20.0), st.floats(0.05, 20.0))


def _identity(dim):
    idx = np.arange(dim)
    return SparseSymMatrix(dim, idx, idx, np.ones(dim))


def _cross_block(x, y, z, dims, wrap=False):
    """The package's lattice block T(x, y, z), or C(x, y, z) with ``wrap``:
    the cross block of Q (or Q~) at (phi, rho12, rho21) = (y, z, x)."""
    theta = Theta(y, 0.0, z, x, 0.0)
    q = build_bundle(theta, dims).q_tilde if wrap else build_inner_precision(theta, dims)
    n = GridDims(*dims).n
    return q.to_dense()[:n, n:]


class TestDomainTypes:
    def test_theta_requires_finite(self):
        with pytest.raises(ValueError):
            Theta(np.nan, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            Theta(0, np.inf, 0, 0, 0)
        Theta(5.0, -3.0, 2.0, 2.0, -7.0)  # no range restriction

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            Tau(0.0, 1.0)
        with pytest.raises(ValueError):
            Tau(1.0, -2.0)

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            GridDims(2, 5)
        with pytest.raises(ValueError):
            GridDims(5, 2)
        with pytest.raises(ValueError):
            GridDims(4.5, 5)
        d = GridDims(4, 6)
        assert d.n == 24
        assert d.doubled() == GridDims(8, 12)


class TestSparseSymMatrix:
    @pytest.mark.parametrize("rows, cols", [
        ([0, 2], [0, 0]),        # lower-triangle entry
        ([0, 0, 1], [1, 1, 2]),  # duplicate (row, col)
        ([1, 0], [2, 2]),        # rows out of order
        ([0, 0], [2, 1]),        # columns out of order within a row
    ], ids=["lower", "duplicate", "row_order", "col_order"])
    def test_rejects_non_canonical_triplets(self, rows, cols):
        with pytest.raises(ValueError, match="row <= col"):
            SparseSymMatrix(3, rows, cols, np.ones(len(rows)))

    def test_drops_exact_zeros(self):
        m = SparseSymMatrix(3, [0, 0, 1, 1, 2], [0, 2, 1, 2, 2], [1.0, 5.0, 0.0, -0.0, 3.0])
        assert m.rows.tolist() == [0, 0, 2]
        assert m.cols.tolist() == [0, 2, 2]
        assert m.vals.tolist() == [1.0, 5.0, 3.0]
        assert m.nnz == 4  # mirrored off-diagonal counted twice
        assert m.nnz_stored == 3

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            SparseSymMatrix(2, [0], [2], [1.0])
        with pytest.raises(ValueError):
            SparseSymMatrix(0, [], [], [])

    def test_dense_csr_agree(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        r, c = np.triu_indices(5)
        m = SparseSymMatrix(5, r, c, a[r, c])
        np.testing.assert_array_equal(m.to_dense(), a)
        np.testing.assert_array_equal(m.to_dense(), m.to_csr().toarray())


class TestMatvec:
    def test_identity(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=7)
        np.testing.assert_array_equal(_identity(7).matvec(v), v)

    def test_zero_theta_precision(self):
        rng = np.random.default_rng(1)
        q = build_inner_precision(Theta.zero(), (3, 4))
        v = rng.normal(size=q.dim)
        np.testing.assert_array_equal(q.matvec(v), v)

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = rand_theta(rng)
            q = build_inner_precision(theta, (4, 5))
            v = rng.normal(size=q.dim)
            np.testing.assert_allclose(q.matvec(v), q.to_dense() @ v,
                                       atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _identity(4).matvec(np.ones(5))


class TestToeplitzBlock:
    def test_identity_when_uncoupled(self):
        np.testing.assert_array_equal(_cross_block(0.0, 1.0, 0.0, (3, 3)), np.eye(9))

    def test_four_neighbour_stencil(self):
        rho = 0.3
        t = _cross_block(rho, 1.0, rho, (4, 6))
        np.testing.assert_array_equal(t, dense_toeplitz_block(rho, 1.0, rho, 4, 6))
        # interior row: unit diagonal plus rho at the four lattice neighbours
        r = 2 * 4 + 1
        row = t[r].copy()
        assert row[r] == 1.0
        for off in (-4, -1, 1, 4):
            assert row[r + off] == rho
            row[r + off] = 0.0
        row[r] = 0.0
        assert not row.any()

    def test_interior_row_sum(self):
        x, y, z = 0.4, 1.0, -0.2
        t = _cross_block(x, y, z, (5, 5))
        assert t[12].sum() == pytest.approx(y + 2 * x + 2 * z, abs=1e-15)

    @given(x=coupling, y=coupling, z=coupling, n1=side, n2=side)
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, x, y, z, n1, n2):
        np.testing.assert_array_equal(_cross_block(x, y, z, (n1, n2)),
                                      dense_toeplitz_block(x, y, z, n1, n2))


class TestCirculantBlock:
    def test_identity_when_uncoupled(self):
        np.testing.assert_array_equal(_cross_block(0.0, 1.0, 0.0, (3, 3), wrap=True),
                                      np.eye(9))

    def test_all_row_sums_equal_symbol_at_dc(self):
        x, y, z = 0.25, 1.0, -0.15
        c = _cross_block(x, y, z, (4, 6), wrap=True)
        np.testing.assert_allclose(c.sum(axis=1), y + 2 * x + 2 * z, atol=1e-15)

    def test_difference_is_wrap_support_only(self):
        x, y, z = 0.3, 1.0, 0.7
        delta = build_bundle(Theta(y, 0.0, z, x, 0.0), (4, 6)).delta_q.to_dense()
        diff = delta[:24, 24:]
        assert np.count_nonzero(diff) == 2 * 4 + 2 * 6
        expected = (dense_circulant_block(x, y, z, 4, 6)
                    - dense_toeplitz_block(x, y, z, 4, 6))
        np.testing.assert_array_equal(diff, expected)

    @given(x=coupling, y=coupling, z=coupling, n1=side, n2=side)
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, x, y, z, n1, n2):
        np.testing.assert_array_equal(_cross_block(x, y, z, (n1, n2), wrap=True),
                                      dense_circulant_block(x, y, z, n1, n2))


class TestPrecision:
    def test_zero_theta_identity(self):
        q = build_precision(Theta.zero(), Tau(1.0, 1.0), (3, 3))
        np.testing.assert_array_equal(q.to_dense(), np.eye(18))

    def test_tau_scaling(self):
        q = build_precision(Theta.zero(), Tau(2.0, 1.0), (3, 3)).to_dense()
        np.testing.assert_array_equal(np.diag(q),
                                      np.concatenate([np.full(9, 0.25), np.ones(9)]))

    def test_nnz_at_generic_theta(self):
        theta = Theta(0.1, 0.2, 0.05, -0.07, 0.15)
        q = build_precision(theta, Tau(1.0, 1.0), (4, 6))
        assert q.nnz == 20 * 24 - 8 * 4 - 8 * 6  # equality for fully generic theta

    def test_inner_equals_unit_tau(self):
        rng = np.random.default_rng(7)
        theta = rand_theta(rng)
        inner = build_inner_precision(theta, (4, 5))
        full = build_precision(theta, Tau(1.0, 1.0), (4, 5))
        np.testing.assert_array_equal(inner.to_dense(), full.to_dense())

    def test_matches_oracle_with_tau(self):
        rng = np.random.default_rng(11)
        theta = rand_theta(rng)
        tau = Tau(1.7, 0.4)
        q = build_precision(theta, tau, (4, 5))
        np.testing.assert_allclose(q.to_dense(), dense_precision(theta, tau, 4, 5),
                                   atol=1e-15)

    def test_equal_diagonal_couplings_make_matching_blocks(self):
        theta = Theta(0.2, 0.15, 0.1, -0.05, 0.15)  # rho11 == rho22
        q = build_inner_precision(theta, (3, 4)).to_dense()
        n = 12
        np.testing.assert_array_equal(q[:n, :n], q[n:, n:])

    @given(theta=thetas, n1=side, n2=side)
    @settings(max_examples=40, deadline=None)
    def test_exact_symmetry_and_oracle(self, theta, n1, n2):
        q = build_inner_precision(theta, (n1, n2))
        dense = q.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(dense, dense_inner_precision(theta, n1, n2))

    @given(theta=thetas, tau=taus, n1=side, n2=side)
    @settings(max_examples=40, deadline=None)
    def test_scaled_matches_oracle(self, theta, tau, n1, n2):
        q = build_precision(theta, tau, (n1, n2))
        np.testing.assert_array_equal(q.to_dense(), dense_precision(theta, tau, n1, n2))

    @given(theta=thetas, n1=side, n2=side)
    @settings(max_examples=40, deadline=None)
    def test_nnz_bound(self, theta, n1, n2):
        q = build_inner_precision(theta, (n1, n2))
        assert q.nnz <= 20 * n1 * n2 - 8 * n1 - 8 * n2

    def test_sparsity_pattern_block_pentadiagonal(self):
        # every entry sits at offset {0, +-1, +-n1} within one of the 2x2
        # variable blocks, and +-1 offsets never cross a lattice row
        theta = Theta(0.1, 0.2, 0.05, -0.07, 0.15)
        q = build_inner_precision(theta, (4, 6))
        n, n1 = 24, 4
        for r, c in zip(q.rows, q.cols):
            br, bc = r % n, c % n
            off = bc - br
            assert off in (-n1, -1, 0, 1, n1), (r, c)
            if off == 1:
                assert br % n1 != n1 - 1
            if off == -1:
                assert bc % n1 != n1 - 1

    def test_tau_congruence_preserves_definiteness_sign(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            theta = rand_theta(rng)
            tau = Tau(*rng.uniform(0.2, 3.0, 2))
            inner = np.linalg.eigvalsh(build_inner_precision(theta, (3, 4)).to_dense())[0]
            full = np.linalg.eigvalsh(build_precision(theta, tau, (3, 4)).to_dense())[0]
            assert (inner > 0) == (full > 0)


class TestBundle:
    def test_zero_theta_gives_empty_delta(self):
        b = build_bundle(Theta.zero(), (4, 6))
        assert b.delta_q.nnz == 0
        np.testing.assert_array_equal(b.q.to_dense(), b.q_tilde.to_dense())

    def test_delta_bounds_and_trace(self):
        rng = np.random.default_rng(5)
        theta = rand_theta(rng)
        b = build_bundle(theta, (5, 7))
        assert b.delta_q.nnz <= 8 * (5 + 7)
        assert b.delta_q.trace() == 0.0
        expected = (dense_inner_precision(theta, 5, 7, wrap=True)
                    - dense_inner_precision(theta, 5, 7))
        np.testing.assert_array_equal(b.delta_q.to_dense(), expected)

    def test_delta_nnz_bound_tight_at_generic_theta(self):
        theta = Theta(0.3, 0.2, 0.1, -0.4, 0.25)
        b = build_bundle(theta, (4, 6))
        assert b.delta_q.nnz == 8 * (4 + 6)

    def test_delta_indefinite_when_any_rho_nonzero(self):
        for theta in [Theta(0.0, 0.3, 0.0, 0.0, 0.0),
                      Theta(0.0, 0.0, 0.2, 0.0, 0.0),
                      Theta(0.0, 0.0, 0.0, -0.4, 0.0),
                      Theta(0.0, 0.0, 0.0, 0.0, 0.1),
                      Theta(0.5, 0.1, -0.2, 0.3, 0.2)]:
            b = build_bundle(theta, (4, 4))
            eigs = np.linalg.eigvalsh(b.delta_q.to_dense())
            assert eigs[0] < -1e-12 and eigs[-1] > 1e-12, theta

    @given(theta=thetas, n1=side, n2=side)
    @settings(max_examples=40, deadline=None)
    def test_matches_oracles_and_bounds(self, theta, n1, n2):
        b = build_bundle(theta, (n1, n2))
        q = dense_inner_precision(theta, n1, n2)
        q_tilde = dense_inner_precision(theta, n1, n2, wrap=True)
        np.testing.assert_array_equal(b.q.to_dense(), q)
        np.testing.assert_array_equal(b.q_tilde.to_dense(), q_tilde)
        np.testing.assert_array_equal(b.delta_q.to_dense(), q_tilde - q)
        assert b.q.nnz <= 20 * n1 * n2 - 8 * n1 - 8 * n2
        assert b.delta_q.nnz <= 8 * (n1 + n2)
        assert b.delta_q.trace() == 0.0

    def test_q_tilde_matches_oracle(self):
        rng = np.random.default_rng(17)
        theta = rand_theta(rng)
        b = build_bundle(theta, (3, 5))
        np.testing.assert_array_equal(b.q_tilde.to_dense(),
                                      dense_inner_precision(theta, 3, 5, wrap=True))


class TestMatrixMarket:
    def test_symmetric_roundtrip(self):
        theta = Theta(0.1, 0.2, 0.05, -0.07, 0.15)
        q = build_inner_precision(theta, (3, 4))
        buf = io.StringIO()
        write_matrix_market(q, buf)
        text = buf.getvalue()
        assert text.startswith("%%MatrixMarket matrix coordinate real symmetric\n")
        back = scipy.io.mmread(io.StringIO(text))
        np.testing.assert_allclose(back.toarray(), q.to_dense(), atol=0)

    def test_file_output(self, tmp_path):
        q = build_inner_precision(Theta.zero(), (3, 3))
        path = str(tmp_path / "q.mtx")
        write_matrix_market(q, path)
        back = scipy.io.mmread(path)
        np.testing.assert_array_equal(back.toarray(), np.eye(18))


_THETA = Theta(0.1, 0.2, 0.05, -0.07, 0.15)
WRITERS = {
    "matrix_market": lambda f: write_matrix_market(build_inner_precision(_THETA, (3, 4)), f),
    "spectrum_csv": lambda f: write_spectrum_csv(_THETA, (3, 4), f),
    "sample_csv": lambda f: sample_valid((5, 5), 16, seed=1).write_csv(
        f, include_rejected=True),
    "study_csv": lambda f: write_study_csv([], f),
    "fits_csv": lambda f: write_fits_csv([], f),
    "bench_csv": lambda f: write_bench_csv([], f),
    "scatter_svg": lambda f: scatter_svg(
        [(np.array([0.0, 1.0]), np.array([1.0, 0.0]), "#000", "points")], "x", "y", "t", f),
    "line_chart_svg": lambda f: line_chart_svg(
        [([1, 10], [1.0, 0.1], "#000", "line")], "x", "y", "t", f),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_accept_pathlib_paths(name, tmp_path):
    buf = io.StringIO()
    WRITERS[name](buf)
    path = tmp_path / "out"
    WRITERS[name](path)
    assert path.read_text() == buf.getvalue()
