"""Dense and shift-invert Lanczos eigenvalue oracles."""

import numpy as np
import pytest
import scipy.sparse.linalg

import bigmrf.validity
from bigmrf import (GridDims, LanczosNonConvergence, SparseSymMatrix, Theta,
                    build_bundle, build_inner_precision, exact_check,
                    exact_symmetric_min_eig, lanczos_extreme, limit_constant,
                    min_eig_perturbed)
from bigmrf.oracle import DENSE_DIM_CAP

from _oracles import dense_inner_precision, rand_theta


def _identity(dim):
    idx = np.arange(dim)
    return SparseSymMatrix(dim, idx, idx, np.ones(dim))


def _doubled_bound(theta, dims):
    return min_eig_perturbed(theta, GridDims(*dims).doubled())


class TestLanczos:
    def test_matches_dense_min(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            theta = rand_theta(rng)
            q = build_inner_precision(theta, (6, 6))
            res = lanczos_extreme(q, _doubled_bound(theta, (6, 6)))
            dense = np.linalg.eigvalsh(q.to_dense())[0]
            tol = 1e-12 * (1 + 4 * np.abs(theta.as_array()).sum())
            assert abs(res.value - dense) <= tol, theta
            assert res.residual <= tol

    def test_matches_symmetric_closed_form_above_dense_cap(self):
        # (0, .24, 0, 0, .24) at 40x40: the minimising eigenvector is odd in
        # both directions, so the all-ones start vector is orthogonal to it
        rng = np.random.default_rng(10)
        cases = [(Theta(0.0, 0.24, 0.0, 0.0, 0.24), (40, 40))]
        for dims in [(33, 32), (40, 30), (36, 45)]:
            phi, r11, r12, r22 = rng.uniform(-0.3, 0.3, 4)
            cases.append((Theta(phi, r11, r12, r12, r22), dims))
        for theta, dims in cases:
            q = build_inner_precision(theta, dims)
            assert q.dim > DENSE_DIM_CAP
            res = lanczos_extreme(q, _doubled_bound(theta, dims))
            tol = 1e-12 * (1 + 4 * np.abs(theta.as_array()).sum())
            assert abs(res.value - exact_symmetric_min_eig(theta, dims)) <= tol

    def test_matches_closed_form_on_periodic_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            theta = rand_theta(rng)
            qt = build_bundle(theta, (12, 12)).q_tilde
            res = lanczos_extreme(qt, limit_constant(theta).value)
            assert res.value == pytest.approx(
                min_eig_perturbed(theta, (12, 12)), abs=1e-8)

    def test_deterministic(self):
        theta = Theta(0.3, 0.2, -0.1, 0.15, 0.25)
        q = build_inner_precision(theta, (8, 8))
        bound = _doubled_bound(theta, (8, 8))
        a = lanczos_extreme(q, bound)
        b = lanczos_extreme(q, bound)
        assert a.value == b.value
        assert a.iterations == b.iterations
        assert a.residual == b.residual
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_nonconvergence_carries_best_ritz(self, monkeypatch):
        def no_convergence(a, k, sigma, which, OPinv, v0):
            OPinv.matvec(v0)
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "forced", np.array([0.5]), v0[:, None] / np.linalg.norm(v0))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        theta = Theta(0.24, 0.21, -0.13, 0.18, 0.2)
        q = build_inner_precision(theta, (10, 10))
        with pytest.raises(LanczosNonConvergence) as err:
            lanczos_extreme(q, _doubled_bound(theta, (10, 10)))
        assert err.value.iterations == 1
        assert err.value.best_value == 0.5
        assert err.value.residual > 0

    def test_nonconvergence_without_ritz_pair(self, monkeypatch):
        def no_convergence(a, k, sigma, which, OPinv, v0):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "forced", np.empty(0), np.empty((len(v0), 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(LanczosNonConvergence) as err:
            lanczos_extreme(_identity(4), 1.0)
        assert np.isnan(err.value.best_value)

    def test_rayleigh_quotient_optimality(self):
        rng = np.random.default_rng(7)
        theta = Theta(0.2, 0.18, 0.05, -0.1, 0.22)
        q = build_inner_precision(theta, (7, 7))
        res = lanczos_extreme(q, _doubled_bound(theta, (7, 7)))
        base = res.vector @ q.matvec(res.vector)
        for _ in range(50):
            w = rng.normal(size=q.dim)
            w /= np.linalg.norm(w)
            assert w @ q.matvec(w) >= base - 1e-8

    def test_quadratic_perturbation_bound(self):
        # |<dQ u, u>| <= 8 K (n1+n2)/(n1 n2) for the converged minimiser of
        # the periodic matrix, K the largest perturbation entry
        rng = np.random.default_rng(8)
        for dims in [(6, 6), (8, 10), (12, 12)]:
            for _ in range(10):
                theta = rand_theta(rng)
                bundle = build_bundle(theta, dims)
                if bundle.delta_q.nnz_stored == 0:
                    continue
                u = lanczos_extreme(bundle.q_tilde,
                                    limit_constant(theta).value).vector
                quad = abs(u @ bundle.delta_q.matvec(u))
                k_const = float(np.abs(bundle.delta_q.vals).max())
                n1, n2 = bundle.dims.n1, bundle.dims.n2
                assert quad <= 8 * k_const * (n1 + n2) / (n1 * n2)

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            lanczos_extreme(_identity(1), 1.0)


class TestDenseSpectrum:
    def test_tridiagonal_classical_modes(self):
        rho, n = 0.37, 9
        q = build_inner_precision(Theta(0.0, rho, 0.0, 0.0, 0.0), (n, 3))
        chain = q.to_dense()[:n, :n]
        expected = np.sort(1 + 2 * rho * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        np.testing.assert_allclose(np.linalg.eigvalsh(chain), expected, atol=1e-12)

    def test_circulant_symbol(self):
        x, y, z = 0.3, 1.0, -0.2
        n = 11
        # the first sub-block of Q~'s cross block C(x, y, z) is a ring
        q_tilde = build_bundle(Theta(y, 0.0, z, x, 0.0), (n, 3)).q_tilde.to_dense()
        ring = q_tilde[:n, 3 * n:4 * n]
        w = np.exp(-2j * np.pi * np.arange(n) / n)
        symbol = y + z * w + x * np.conj(w)
        got = np.linalg.eigvals(ring)
        got = got[np.lexsort((got.imag, got.real))]
        expected = symbol[np.lexsort((symbol.imag, symbol.real))]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_dim_cap(self, monkeypatch):
        # exact_check is dense up to DENSE_DIM_CAP and shift-invert beyond
        calls = []

        def spy(m, lower_bound):
            calls.append(m.dim)
            return lanczos_extreme(m, lower_bound)

        monkeypatch.setattr(bigmrf.validity, "DENSE_DIM_CAP", 24)
        monkeypatch.setattr(bigmrf.validity, "lanczos_extreme", spy)
        theta = Theta(0.1, 0.2, 0.05, -0.07, 0.15)
        dense = exact_check(theta, (3, 4))
        assert calls == []
        assert dense.min_eig_evidence == np.linalg.eigvalsh(
            dense_inner_precision(theta, 3, 4))[0]
        iterative = exact_check(theta, (3, 5))
        assert calls == [30]
        assert iterative.min_eig_evidence == pytest.approx(
            np.linalg.eigvalsh(dense_inner_precision(theta, 3, 5))[0], abs=1e-12)
