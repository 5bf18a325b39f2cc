"""Output checks for each workload, against ``reference.py``.

Every check compares the program's output with an independent computation
or with a property the method must have; nothing is compared with a stored
copy of earlier output.  A verdict is compared only where the reference
clears its rounding error.  ``circulant`` is not a finite-grid validity test
and ``diag_dominance`` False does not mean invalid, so neither is checked
against exact validity.  Each function returns a list of failure messages.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref
from workloads import NAMES, Membership, Oracle, Sample
from bigmrf import (BATCH_CSV_HEADER, FITS_CSV_HEADER, STUDY_CSV_HEADER,
                    VERDICT_SCHEMA, dd_coverage_experiment, sample_valid)

# Rounding allowance, relative to reference.scale(theta): closed forms and
# 2x2 eigensolvers agree to a few ulps; Lanczos stops at residual 1e-9.
TOL_CLOSED = 1e-12
TOL_ITER = 1e-8
LIMIT_BAND = 1e-8            # limit_check's default decision band
COVERAGE_BAND = (0.109, 0.149)
COVERAGE_MIN_VALID = 7168    # the band's half width is >= 5 binomial sd here
TRI = {True: "true", False: "false", None: "unknown"}


def _limit_expected(c_ref, tol):
    if c_ref > LIMIT_BAND + tol:
        return True
    if c_ref < -LIMIT_BAND - tol:
        return False
    return "undecided"


def check_membership(w) -> list:
    errs = list(w.drift)
    if w.verdicts is None:
        return errs + ["membership: no round completed"]
    n1, n2 = w.DIMS.n1, w.DIMS.n2
    cert_true, limit_true = [], []
    for k, (theta, row) in enumerate(zip(w.thetas, w.verdicts)):
        if None in row:
            continue                  # a failed operation is counted, not checked
        circ, cert, lim = row
        u = theta.as_array()
        tol = TOL_CLOSED * ref.scale(u)
        r_grid = ref.periodic_min(u, n1, n2)
        r_dbl = ref.periodic_min(u, 2 * n1, 2 * n2)
        c_ref = ref.symbol_min(u)
        where = f"membership theta {k}"
        if abs(circ.min_eig_evidence - r_grid) > tol:
            errs.append(f"{where}: circulant {circ.min_eig_evidence!r} vs eigvalsh {r_grid!r}")
        if abs(r_grid) > tol and circ.valid != (r_grid > 0):
            errs.append(f"{where}: circulant verdict {circ.valid} vs eigvalsh {r_grid!r}")
        if abs(cert.min_eig_evidence - r_dbl) > tol:
            errs.append(f"{where}: certified {cert.min_eig_evidence!r} vs eigvalsh {r_dbl!r}")
        if abs(r_dbl) > tol and cert.valid != (True if r_dbl > 0 else None):
            errs.append(f"{where}: certified verdict {cert.valid} vs eigvalsh {r_dbl!r}")
        if abs(lim.min_eig_evidence - c_ref) > tol:
            errs.append(f"{where}: limit {lim.min_eig_evidence!r} vs symbol minimum {c_ref!r}")
        expected = _limit_expected(c_ref, tol)
        if expected != "undecided" and lim.valid != expected:
            errs.append(f"{where}: limit verdict {lim.valid} vs symbol minimum {c_ref!r}")
        if lim.min_eig_evidence > min(r_grid, r_dbl) + tol:
            errs.append(f"{where}: C(theta) {lim.min_eig_evidence!r} above a periodic minimum")
        if cert.valid:
            cert_true.append((cert.min_eig_evidence, k))
        if lim.valid:
            limit_true.append((lim.min_eig_evidence, k))
    # certified True and limit True claim validity on this grid: the banded
    # Cholesky of the lattice precision must then succeed.  It costs about
    # 0.5 s here, so only the smallest margins are factorised.
    picks = {k for _, k in sorted(cert_true)[:2 if w.full else 1] + sorted(limit_true)[:1]}
    for k in sorted(picks):
        if not ref.cholesky_ok(w.thetas[k].as_array(), n1, n2):
            errs.append(f"membership theta {k}: verdict valid but Cholesky fails")

    column = {"circulant": 0, "certified": 1, "limit": 2}
    for method, i, code, out in w.cli:
        where = f"bigmrf check --method {method} (theta {i})"
        try:
            doc = json.loads(out)
        except ValueError:
            errs.append(f"{where}: stdout is not JSON: {out!r}")
            continue
        errs.extend(f"{where}: {e}" for e in ref.validate_schema(doc, VERDICT_SCHEMA))
        if code != {"true": 0, "false": 1, "unknown": 2}.get(doc.get("valid")):
            errs.append(f"{where}: exit code {code} vs verdict {doc.get('valid')!r}")
        lib = w.verdicts[i][column[method]]
        theta = w.thetas[i]
        if lib is not None and (doc.get("valid") != TRI[lib.valid]
                                or doc.get("min_eig") != lib.min_eig_evidence):
            errs.append(f"{where}: {doc.get('valid')} {doc.get('min_eig')!r} vs library "
                        f"{TRI[lib.valid]} {lib.min_eig_evidence!r}")
        if doc.get("theta") != {name: getattr(theta, name) for name in NAMES}:
            errs.append(f"{where}: theta echoed as {doc.get('theta')}")
    return errs


def _read_csv(path):
    with open(path) as f:
        lines = f.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _read_batch_csv(path):
    header, cells = _read_csv(path)
    return (header, np.array([int(c[0]) for c in cells]),
            np.array([[float(x) for x in c[1:6]] for c in cells]),
            np.array([c[6] == "true" for c in cells]),
            np.array([c[7] == "true" for c in cells]),
            np.array([float(c[8]) for c in cells]))


def check_sample(w) -> list:
    errs = list(w.drift)
    b = w.batch
    if b is None:
        return errs + ["sample: no round completed"]
    n1, n2 = w.DIMS.n1, w.DIMS.n2

    header, idx, thetas, valid, dd, evidence = _read_batch_csv(w.csv_path)
    if header != BATCH_CSV_HEADER or not np.array_equal(idx, np.arange(b.n_proposed)):
        errs.append("sample CSV: header or row indices wrong")
    elif not (np.array_equal(thetas, b.thetas) and np.array_equal(valid, b.accepted)
              and np.array_equal(dd, b.dd_valid) and np.array_equal(evidence, b.min_eig)):
        errs.append("sample CSV: rows do not parse back to the batch bit for bit")
    other = w.csv_path + ".threads2"
    sample_valid(w.DIMS, w.n_sample, method="circulant", seed=w.seed,
                 threads=2).write_csv(other, include_rejected=True)
    with open(w.csv_path, "rb") as f, open(other, "rb") as g:
        if f.read() != g.read():
            errs.append("sample CSV: bytes differ between threads=1 and threads=2")
    os.remove(other)

    # Accepted rows, the 16 rejected rows the sampler puts nearest the
    # boundary, and the first 64 rows whatever the sampler's evidence says.
    rejected = np.flatnonzero(~b.accepted)
    nearest = rejected[np.argsort(b.min_eig[rejected], kind="stable")[-16:]]
    rows = np.union1d(np.concatenate([np.flatnonzero(b.accepted), nearest]), np.arange(64))
    for k in rows:
        u = b.thetas[k]
        tol = TOL_CLOSED * ref.scale(u)
        r = ref.periodic_min(u, n1, n2)
        if abs(b.min_eig[k] - r) > tol:
            errs.append(f"sample row {k}: evidence {b.min_eig[k]!r} vs eigvalsh {r!r}")
        if abs(r) > tol and bool(b.accepted[k]) != (r > 0):
            errs.append(f"sample row {k}: accepted={b.accepted[k]} vs eigvalsh {r!r}")
    # Every row: dd_valid against the row-sum margin, and a diagonally
    # dominant theta (whose periodic precision is positive definite by
    # Gershgorin) must be accepted, whatever the sampler's evidence says.
    margins = ref.dd_margins(b.thetas)
    clear = np.abs(margins) > TOL_CLOSED * np.array([ref.scale(u) for u in b.thetas])
    for k in np.flatnonzero(clear & (b.dd_valid != (margins > 0))):
        errs.append(f"sample row {k}: dd_valid={b.dd_valid[k]} vs margin {float(margins[k])!r}")
    for k in np.flatnonzero(clear & (margins > 0) & ~b.accepted):
        errs.append(f"sample row {k}: diagonally dominant "
                    f"(margin {float(margins[k])!r}) but rejected")

    lb = w.limit_batch
    order = np.argsort(lb.min_eig, kind="stable")
    rows = np.union1d(np.flatnonzero(lb.accepted), order[-8:])
    factorised = 0
    for k in rows:
        u = lb.thetas[k]
        tol = TOL_CLOSED * ref.scale(u)
        c_ref = ref.symbol_min(u)
        if abs(lb.min_eig[k] - c_ref) > tol:
            errs.append(f"limit sample row {k}: C {lb.min_eig[k]!r} vs symbol minimum {c_ref!r}")
        expected = _limit_expected(c_ref, tol)
        if expected != "undecided" and bool(lb.accepted[k]) != expected:
            errs.append(f"limit sample row {k}: accepted={lb.accepted[k]} vs {c_ref!r}")
        if lb.accepted[k] and factorised < 2:
            factorised += 1
            if not ref.cholesky_ok(u, n1, n2):
                errs.append(f"limit sample row {k}: limit-valid but Cholesky fails")

    coverages = list(w.coverages)
    for c in coverages:
        if not (c.n_valid == w.n_coverage and 0 <= c.n_dd_valid <= c.n_valid <= c.n_proposed
                and c.ratio == c.n_dd_valid / c.n_valid):
            errs.append(f"coverage counts inconsistent: {c}")
    if w.full:
        # Pool further seeds (unmeasured) until the band is >= 5 sd wide.
        while sum(c.n_valid for c in coverages) < COVERAGE_MIN_VALID:
            coverages.append(dd_coverage_experiment(
                w.DIMS, w.n_coverage, seed=w.coverage_seeds[len(coverages)]))
        n_valid = sum(c.n_valid for c in coverages)
        ratio = sum(c.n_dd_valid for c in coverages) / n_valid
        if not COVERAGE_BAND[0] <= ratio <= COVERAGE_BAND[1]:
            errs.append(f"coverage ratio {ratio!r} over {n_valid} valid draws "
                        f"outside {COVERAGE_BAND}")
    return errs


def check_oracle(w) -> list:
    errs = list(w.drift)
    if w.verdicts is None:
        return errs + ["oracle: no round completed"]
    for (dims, cls, theta), v in zip(w.checks, w.verdicts):
        if v is None:
            continue
        u = theta.as_array()
        tol = TOL_ITER * ref.scale(u)
        where = f"exact {dims.n1}x{dims.n2} {cls}"
        r = ref.lattice_min(u, dims.n1, dims.n2)
        if abs(v.min_eig_evidence - r) > tol:
            errs.append(f"{where}: {v.min_eig_evidence!r} vs eigsh {r!r}")
        if u[2] == u[3]:
            s = ref.sine_mode_min(u, dims.n1, dims.n2)
            if abs(v.min_eig_evidence - s) > tol:
                errs.append(f"{where}: {v.min_eig_evidence!r} vs sine modes {s!r}")
        if abs(r) > tol:
            chol = ref.cholesky_ok(u, dims.n1, dims.n2)
            if chol != (r > 0) or v.valid != chol:
                errs.append(f"{where}: verdict {v.valid}, Cholesky {chol}, eigsh {r!r}")
        if (cls == "invalid") != (r < 0):
            errs.append(f"{where}: input class does not hold (eigsh {r!r})")

    thetas, records, fits = w.study
    if len(records) != len(thetas) * len(w.study_grids) or len(thetas) != w.n_study:
        return errs + [f"study: {len(records)} records for {len(thetas)} thetas"]
    c_refs = [ref.symbol_min(t.as_array()) for t in thetas]
    errs.extend(f"study theta {i}: drawn limit-valid but C = {c!r}"
                for i, c in enumerate(c_refs) if not c > 0)
    for rec in records:
        u = rec.theta.as_array()
        closed, iterative = TOL_CLOSED * ref.scale(u), TOL_ITER * ref.scale(u)
        where = f"study theta {rec.theta_idx} {rec.dims.n1}x{rec.dims.n2}"
        if not rec.converged:
            errs.append(f"{where}: oracle did not converge")
            continue
        if rec.c_theta > rec.lam_qt + closed or rec.c_theta > rec.lam_q + iterative:
            errs.append(f"{where}: c_theta {rec.c_theta!r} above lam_qt/lam_q")
        if rec.eps != abs(rec.lam_qt - rec.lam_q) or rec.delta != abs(rec.lam_q - rec.c_theta):
            errs.append(f"{where}: eps/delta do not recompute")
        if abs(rec.c_theta - c_refs[rec.theta_idx]) > closed:
            errs.append(f"{where}: c_theta {rec.c_theta!r} vs {c_refs[rec.theta_idx]!r}")
        r_qt = ref.periodic_min(u, rec.dims.n1, rec.dims.n2)
        if abs(rec.lam_qt - r_qt) > closed:
            errs.append(f"{where}: lam_qt {rec.lam_qt!r} vs eigvalsh {r_qt!r}")
        r_q = ref.lattice_min(u, rec.dims.n1, rec.dims.n2)
        if abs(rec.lam_q - r_q) > iterative:
            errs.append(f"{where}: lam_q {rec.lam_q!r} vs eigsh {r_q!r}")
    for idx, fld, fit in fits:
        mine = [r for r in records if r.theta_idx == idx]
        vals = np.array([getattr(r, fld) for r in mine])
        use = np.isfinite(vals) & (vals > 0)
        area = np.array([r.dims.n for r in mine], dtype=float)
        slope = np.polyfit(np.log10(area[use]), np.log10(vals[use]), 1)[0]
        if abs(slope - fit.slope) > 1e-9 * max(1.0, abs(slope)) or fit.n_points != use.sum():
            errs.append(f"study fit {idx} {fld}: slope {fit.slope!r} vs polyfit {slope!r}")

    header, rows = _read_csv(w.records_path)
    expect = [[str(r.theta_idx), str(r.dims.n1), str(r.dims.n2), str(r.parity[0]),
               str(r.parity[1])] + [float(getattr(r, f)) for f in
                                    ("lam_q", "lam_qt", "c_theta", "eps", "delta")]
              for r in records]
    got = [row[:5] + [float(x) for x in row[5:]] for row in rows]
    if header != STUDY_CSV_HEADER or got != expect:
        errs.append("study records CSV does not parse back to the records")
    header, rows = _read_csv(w.fits_path)
    expect = [[str(i), f, fit.slope, fit.intercept, fit.r_squared, str(fit.n_points)]
              for i, f, fit in fits]
    got = [[row[0], row[1], float(row[2]), float(row[3]), float(row[4]), row[5]]
           for row in rows]
    if header != FITS_CSV_HEADER or got != expect:
        errs.append("study fits CSV does not parse back to the fits")
    return errs


CHECKS = {Membership: check_membership, Sample: check_sample, Oracle: check_oracle}


def check(workload) -> list:
    return CHECKS[type(workload)](workload)
