"""Membership tests: soundness relations between the five methods."""

import json

import jsonschema
import numpy as np
import pytest

from bigmrf import (GridDims, Tau, Theta, VERDICT_SCHEMA, build_bundle,
                    build_inner_precision, build_precision, certified_check,
                    circulant_check, diag_dominance_check, diag_dominance_margin,
                    exact_check, exact_symmetric_min_eig, limit_check,
                    min_eig_perturbed)

from _oracles import dense_inner_precision, rand_theta, row_margins


def _dense_min(theta, dims):
    return float(np.linalg.eigvalsh(build_inner_precision(theta, dims).to_dense())[0])


class TestDiagDominance:
    def test_spec_point(self):
        v = diag_dominance_check(Theta(0.2, 0.1, 0.05, 0.05, 0.1), (10, 10))
        assert v.valid is True
        assert v.min_eig_evidence == pytest.approx(1 - 0.8, abs=1e-15)

    def test_zero_theta(self):
        v = diag_dominance_check(Theta.zero(), (5, 5))
        assert v.valid is True and v.min_eig_evidence == 1.0

    def test_zero_margin_is_unknown(self):
        # margin exactly 0 and a singular precision: dominance proves nothing
        v = diag_dominance_check(Theta(1.0, 0, 0, 0, 0), (5, 5))
        assert v.min_eig_evidence == 0.0
        assert v.valid is None
        assert _dense_min(Theta(1.0, 0, 0, 0, 0), (5, 5)) == pytest.approx(0.0, abs=1e-15)

    def test_non_dominant_is_unknown_not_invalid(self):
        # not dominant, yet the doubled-grid certificate proves it valid
        theta = Theta(0.1, 0.2, 0.05, -0.05, 0.2)
        v = diag_dominance_check(theta, (10, 10))
        assert v.min_eig_evidence < 0.0
        assert v.valid is None
        assert certified_check(theta, (10, 10)).valid is True

    def test_closed_form_matches_assembled_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rand_theta(rng)
            assembled = row_margins(dense_inner_precision(theta, 5, 6)).min()
            assert diag_dominance_margin(theta) == pytest.approx(assembled, abs=1e-14)

    def test_evidence_is_the_closed_form(self):
        # the check, the sampler method and the dd_valid tags share one margin
        rng = np.random.default_rng(4)
        for dims in [(3, 3), (5, 6), (40, 17)]:
            for _ in range(50):
                theta = rand_theta(rng, scale=0.3)
                v = diag_dominance_check(theta, dims)
                assert v.min_eig_evidence == diag_dominance_margin(theta)
                assert v.valid is (True if v.min_eig_evidence > 0.0 else None)

    def test_implies_exact_validity(self):
        # sufficient condition: dominant rows => semi-positive-definite.
        # the dominant region fills ~0.02% of the full box, so concentrate
        # the draws where it actually lives
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(400):
            theta = rand_theta(rng, scale=0.25)
            if diag_dominance_margin(theta) >= 0.0:
                checked += 1
                assert _dense_min(theta, (8, 8)) >= -1e-12, theta
        assert checked > 50


class TestCirculantCheck:
    def test_trivial_cases(self):
        assert circulant_check(Theta(0.5, 0, 0, 0, 0), (10, 10)).valid is True
        v = circulant_check(Theta(1.5, 0, 0, 0, 0), (10, 10))
        assert v.valid is False
        assert v.min_eig_evidence == pytest.approx(-0.5, abs=1e-15)

    def test_single_variable_invalid_point(self):
        v = circulant_check(Theta(0, 0.3, 0, 0, 0.3), (10, 10))
        assert v.valid is False
        assert v.min_eig_evidence == pytest.approx(1 - 1.2, abs=1e-12)


class TestCertifiedCheck:
    def test_trivial_valid(self):
        v = certified_check(Theta(0.5, 0, 0, 0, 0), (6, 7))
        assert v.valid is True
        assert v.min_eig_evidence == pytest.approx(0.5, abs=1e-15)

    def test_boundary_theta_is_unknown(self):
        v = certified_check(Theta(0, 0.25, 0, 0, 0.25), (6, 7))
        assert v.min_eig_evidence == 0.0
        assert v.valid is None

    def test_never_contradicts_exact(self):
        rng = np.random.default_rng(2)
        n_certified = 0
        for scale in (1.0, 0.3):  # full box plus a concentrated one for hits
            for _ in range(100):
                theta = rand_theta(rng, scale=scale)
                v = certified_check(theta, (6, 7))
                if v.valid is True:
                    n_certified += 1
                    assert _dense_min(theta, (6, 7)) > 0.0, theta
        assert n_certified > 20

    def test_uses_doubled_grid(self):
        theta = Theta(0.15, 0.1, 0.08, -0.12, 0.2)
        v = certified_check(theta, (5, 6))
        assert v.min_eig_evidence == min_eig_perturbed(theta, (10, 12))


class TestLimitCheck:
    def test_valid_for_all_grids(self):
        v = limit_check(Theta(0, 0.2, 0, 0, 0.2))
        assert v.valid is True
        assert v.min_eig_evidence == pytest.approx(0.2, abs=1e-9)
        assert v.dims is None

    def test_asymptotically_invalid(self):
        v = limit_check(Theta(0, 0.3, 0, 0, 0.3))
        assert v.valid is False
        assert v.min_eig_evidence == pytest.approx(-0.2, abs=1e-9)

    def test_boundary_is_unknown(self):
        assert limit_check(Theta(0, 0.25, 0, 0, 0.25)).valid is None

    def test_grid_uniform_validity(self):
        rng = np.random.default_rng(3)
        found = 0
        while found < 15:
            theta = rand_theta(rng, scale=0.3)
            if limit_check(theta).valid is not True:
                continue
            found += 1
            for dims in [(5, 5), (8, 13), (20, 20)]:
                assert exact_check(theta, dims).valid is True, (theta, dims)


class TestExactCheck:
    def test_zero_theta(self):
        v = exact_check(Theta.zero(), (5, 5))
        assert v.valid is True
        assert v.min_eig_evidence == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_closed_form_agreement(self):
        theta = Theta(0.1, 0.15, 0.1, 0.1, 0.15)
        v = exact_check(theta, (6, 6))
        assert v.min_eig_evidence == pytest.approx(
            exact_symmetric_min_eig(theta, (6, 6)), abs=1e-9)

    def test_matches_dense_sign(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            theta = rand_theta(rng)
            v = exact_check(theta, (4, 5))
            assert v.valid == (_dense_min(theta, (4, 5)) > 0.0)

    def test_lanczos_path_used_above_cap(self):
        # symmetric cross couplings so the exact minimum has a closed form
        theta = Theta(0.1, 0.05, 0.02, 0.02, 0.05)
        v = exact_check(theta, (35, 35))  # dim 2450 > dense cap
        assert v.valid is True
        assert v.min_eig_evidence == pytest.approx(
            exact_symmetric_min_eig(theta, (35, 35)), abs=1e-8)

    def test_certified_valid_theta_at_200x200(self):
        # the certificate proves this theta valid, so the iterative oracle
        # must converge to a minimum at or above its bound
        theta = Theta(0.5993852992281652, -0.044768439674377936,
                      0.04759023615086311, -0.20536988014754387,
                      -0.20091241524501013)
        bound = certified_check(theta, (200, 200)).min_eig_evidence
        v = exact_check(theta, (200, 200))
        assert bound > 0.0
        assert v.valid is True
        assert v.min_eig_evidence >= bound
        assert v.min_eig_evidence == pytest.approx(0.0810560158, abs=1e-10)

    def test_dense_path_zero_margin_is_invalid(self):
        v = exact_check(Theta(1.0, 0.0, 0.0, 0.0, 0.0), (5, 5))
        assert v.min_eig_evidence == 0.0
        assert v.valid is False


class TestSoundnessChain:
    def test_lattice_is_principal_submatrix_of_doubled_periodic(self):
        # the certificate's backbone: selecting the first n1 rows of every
        # second sub-block (per variable) of the doubled-grid periodic matrix
        # recovers the lattice precision exactly, so Cauchy interlacing gives
        # lambda_min(periodic doubled) <= lambda_min(lattice)
        rng = np.random.default_rng(44)
        for n1, n2 in [(3, 4), (4, 3), (5, 5)]:
            theta = rand_theta(rng)
            n = n1 * n2
            p = build_bundle(theta, GridDims(n1, n2).doubled()).q_tilde.to_dense()
            q = build_inner_precision(theta, (n1, n2)).to_dense()
            sel_var = [k * 2 * n1 + j for k in range(n2) for j in range(n1)]
            sel = sel_var + [4 * n + s for s in sel_var]
            np.testing.assert_array_equal(p[np.ix_(sel, sel)], q)

    def test_doubled_periodic_lower_bounds_lattice(self):
        rng = np.random.default_rng(5)
        for dims in [(3, 3), (3, 4), (4, 5)]:
            for _ in range(200):
                theta = rand_theta(rng)
                lhs = min_eig_perturbed(theta, GridDims(*dims).doubled())
                assert lhs <= _dense_min(theta, dims) + 1e-10, (theta, dims)

    def test_tau_does_not_change_verdict(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = rand_theta(rng)
            tau = Tau(*rng.uniform(0.3, 2.5, 2))
            inner_valid = _dense_min(theta, (4, 4)) > 0
            full = np.linalg.eigvalsh(build_precision(theta, tau, (4, 4)).to_dense())[0]
            assert (full > 0) == inner_valid

    def test_sampling_box_is_superset(self):
        # no valid theta on the axes just outside [-1, 1]^5
        for k in range(5):
            for sign in (1.0, -1.0):
                arr = np.zeros(5)
                arr[k] = sign * 1.0001
                assert exact_check(Theta.from_array(arr), (5, 5)).valid is False


class TestVerdictSerialization:
    def test_schema_and_fields(self):
        v = circulant_check(Theta(0.5, 0, 0, 0, 0), (10, 12))
        payload = v.to_json_dict()
        jsonschema.validate(payload, VERDICT_SCHEMA)
        assert payload["method"] == "circulant"
        assert payload["valid"] == "true"
        assert payload["n1"] == 10 and payload["n2"] == 12
        assert payload["theta"]["phi"] == 0.5
        assert payload["elapsed_ns"] >= 0
        json.dumps(payload)  # serializable

    def test_unknown_and_null_dims(self):
        v = limit_check(Theta(0, 0.25, 0, 0, 0.25))
        payload = v.to_json_dict()
        jsonschema.validate(payload, VERDICT_SCHEMA)
        assert payload["valid"] == "unknown"
        assert payload["n1"] is None and payload["n2"] is None

    def test_false_verdict(self):
        v = circulant_check(Theta(1.5, 0, 0, 0, 0), (5, 5))
        assert v.to_json_dict()["valid"] == "false"
