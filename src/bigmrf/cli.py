"""Command-line front end.

Exit codes: 0 valid, 1 invalid, 2 unknown; 64 flag validation error,
65 oracle non-convergence, 66 unwritable output path, 70 acceptance below
1e-4 after the 4096-proposal warm-up, or an unexpected error.
The split makes the tool scriptable inside samplers: the verdict is the
process status, details go to stdout as JSON or CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import GridDims, Theta
from .oracle import LanczosNonConvergence
from .sampler import (LowAcceptanceError, draw_limit_valid,
                      sample_conditional_slice, sample_valid)
from .spectrum import write_spectrum_csv
from .study import (bench_membership, convergence_sweep, fit_loglog,
                    write_bench_csv, write_fits_csv, write_study_csv)
from .svg import line_chart_svg, scatter_svg
from .validity import (METHODS, certified_check, circulant_check,
                       diag_dominance_check, exact_check, limit_check)

__all__ = ["main", "entry"]

_METHOD_ALIASES = {"dd": "diag_dominance"}
_METHOD_CHOICES = [*_METHOD_ALIASES, *METHODS]
_CHECKS = {"diag_dominance": diag_dominance_check, "circulant": circulant_check,
           "certified": certified_check, "limit": lambda theta, dims: limit_check(theta),
           "exact": exact_check}


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_theta_flags(p, cross: bool = True):
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--rho11", type=float, required=True)
    if cross:
        p.add_argument("--rho12", type=float, required=True)
        p.add_argument("--rho21", type=float, required=True)
    p.add_argument("--rho22", type=float, required=True)


def _add_dims_flags(p):
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)


def _threads(args) -> int | None:
    if args.threads is not None:
        if args.threads < 1:
            raise _UsageError("--threads must be >= 1")
        return args.threads
    env = os.environ.get("GMRF_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise _UsageError(f"GMRF_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise _UsageError("GMRF_THREADS must be >= 1")
        return value
    return None


def _out_file(path):
    try:
        return open(path, "w")
    except OSError as err:
        raise _OutputError(f"cannot write {path}: {err}")


def _write_with(path, writer, *args, **kwargs):
    if path is None:
        writer(*args, sys.stdout, **kwargs)
        return
    with _out_file(path) as out:
        writer(*args, out, **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="bigmrf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("check", help="test one parameter vector")
    _add_theta_flags(p)
    _add_dims_flags(p)
    p.add_argument("--method", default="circulant", choices=_METHOD_CHOICES)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="per-mode eigenvalue table as CSV")
    _add_theta_flags(p)
    _add_dims_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sample", help="rejection-sample the parameter box")
    _add_dims_flags(p)
    p.add_argument("-N", "--draws", type=int, required=True)
    p.add_argument("--method", default="circulant", choices=_METHOD_CHOICES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--include-rejected", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("slice", help="conditional slice over the cross couplings")
    _add_theta_flags(p, cross=False)
    _add_dims_flags(p)
    p.add_argument("-N", "--draws", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--include-rejected", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("study", help="convergence sweep and log-log fits")
    p.add_argument("--grids", default="20:80:2",
                   help="square grid sizes start:stop:step")
    p.add_argument("-N", "--n-thetas", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("-o", "--out-prefix", default="gmrf_study")
    p.add_argument("--svg", action="store_true",
                   help="also emit <prefix>_delta.svg")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("bench", help="time membership checks against a baseline")
    p.add_argument("--dims", default="100x100,200x200",
                   help="comma-separated n1xn2 sizes")
    p.add_argument("--n-valid", type=int, default=3)
    p.add_argument("--n-invalid", type=int, default=3)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--baseline-reps", type=int, default=None,
                   help="repetitions for the slow baseline (default: --reps)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def _theta(args) -> Theta:
    return Theta(args.phi, args.rho11, args.rho12, args.rho21, args.rho22)


def cmd_check(args) -> int:
    check = _CHECKS[_METHOD_ALIASES.get(args.method, args.method)]
    verdict = check(_theta(args), GridDims(args.n1, args.n2))
    print(json.dumps(verdict.to_json_dict()))
    return {True: 0, False: 1, None: 2}[verdict.valid]


def cmd_spectrum(args) -> int:
    _write_with(args.output, write_spectrum_csv, _theta(args), GridDims(args.n1, args.n2))
    return 0


def _summary(args, text: str) -> None:
    # keep stdout clean when it carries the CSV itself
    stream = sys.stdout if args.output else sys.stderr
    print(text, file=stream)


def cmd_sample(args) -> int:
    dims = GridDims(args.n1, args.n2)
    method = _METHOD_ALIASES.get(args.method, args.method)
    batch = sample_valid(dims, args.draws, method=method, seed=args.seed,
                         threads=_threads(args))
    _write_with(args.output, batch.write_csv, include_rejected=args.include_rejected)
    _summary(args, f"sample: {batch.n_accepted}/{batch.n_proposed} accepted "
                   f"(rate {batch.acceptance_rate:.4f}, method {method}, "
                   f"seed {args.seed})")
    return 0


def cmd_slice(args) -> int:
    dims = GridDims(args.n1, args.n2)
    batch = sample_conditional_slice(args.phi, args.rho11, args.rho22, dims,
                                     args.draws, seed=args.seed,
                                     threads=_threads(args))
    _write_with(args.output, batch.write_csv, include_rejected=args.include_rejected)
    if args.svg:
        acc = batch.accepted
        dd = batch.dd_valid
        xs, ys = batch.thetas[:, 2], batch.thetas[:, 3]
        groups = [
            (xs[acc & ~dd], ys[acc & ~dd], "#1f77b4", "valid"),
            (xs[acc & dd], ys[acc & dd], "#ff7f0e", "valid + diag. dominant"),
        ]
        title = (f"slice at phi={args.phi:g}, rho11={args.rho11:g}, "
                 f"rho22={args.rho22:g} ({dims.n1}x{dims.n2})")
        try:
            scatter_svg(groups, "rho12", "rho21", title, args.svg)
        except OSError as err:
            raise _OutputError(f"cannot write {args.svg}: {err}")
    n_dd = int((batch.accepted & batch.dd_valid).sum())
    ratio = n_dd / batch.n_accepted if batch.n_accepted else float("nan")
    _summary(args, f"slice: {batch.n_accepted}/{batch.n_proposed} accepted, "
                   f"{n_dd} also diagonally dominant (ratio {ratio:.4f}, "
                   f"seed {args.seed})")
    return 0


def _parse_grids(text: str):
    try:
        start, stop, step = (int(v) for v in text.split(":"))
    except ValueError:
        raise _UsageError(f"--grids expects start:stop:step, got {text!r}")
    if step < 1 or stop < start:
        raise _UsageError("--grids needs stop >= start and step >= 1")
    return [GridDims(m, m) for m in range(start, stop + 1, step)]


def cmd_study(args) -> int:
    grids = _parse_grids(args.grids)
    thetas = draw_limit_valid(args.n_thetas, args.seed)
    records = convergence_sweep(thetas, grids, threads=_threads(args))

    fits = []
    for idx in range(len(thetas)):
        mine = [r for r in records if r.theta_idx == idx]
        for fld in ("delta", "eps"):
            try:
                fits.append((idx, fld, fit_loglog(mine, fld)))
            except ValueError:
                pass  # too few positive points for a log fit

    rec_path = f"{args.out_prefix}_records.csv"
    fit_path = f"{args.out_prefix}_fits.csv"
    with _out_file(rec_path) as out:
        write_study_csv(records, out)
    with _out_file(fit_path) as out:
        write_fits_csv(fits, out)
    if args.svg:
        series = []
        for idx in range(len(thetas)):
            mine = [r for r in records if r.theta_idx == idx and r.converged]
            series.append(([r.dims.n for r in mine], [r.delta for r in mine],
                           "#1f77b4", f"theta {idx}" if idx < 4 else ""))
        try:
            line_chart_svg(series, "grid area", "delta", "limit-gap decay",
                           f"{args.out_prefix}_delta.svg")
        except OSError as err:
            raise _OutputError(f"cannot write svg: {err}")

    delta_slopes = [f.slope for _, fld, f in fits if fld == "delta"]
    skipped = sum(1 for r in records if not r.converged)
    median = f"{float(np.median(delta_slopes)):.4f}" if delta_slopes else "n/a"
    print(f"study: {len(thetas)} parameter vectors x {len(grids)} grids -> "
          f"{rec_path}, {fit_path}; median delta slope {median}; "
          f"{skipped} oracle skips")
    return 0


def _parse_dims_list(text: str):
    out = []
    for token in text.split(","):
        try:
            n1, n2 = (int(v) for v in token.lower().split("x"))
        except ValueError:
            raise _UsageError(f"--dims expects n1xn2 tokens, got {token!r}")
        out.append(GridDims(n1, n2))
    return out


def cmd_bench(args) -> int:
    records = bench_membership(_parse_dims_list(args.dims), args.n_valid,
                               args.n_invalid, seed=args.seed, reps=args.reps,
                               baseline_reps=args.baseline_reps)
    _write_with(args.output, write_bench_csv, records)
    for r in records:
        if r.method == "baseline":
            _summary(args, f"bench {r.dims.n1}x{r.dims.n2} {r.case}: "
                           f"baseline/fast = {r.ratio:.1f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 64
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 64
    except ValueError as err:
        print(f"bigmrf: {err}", file=sys.stderr)
        return 64
    except LanczosNonConvergence as err:
        print(f"bigmrf: {err}", file=sys.stderr)
        return 65
    except _OutputError as err:
        print(f"bigmrf: {err}", file=sys.stderr)
        return 66
    except LowAcceptanceError as err:
        print(f"bigmrf: {err}", file=sys.stderr)
        return 70
    except Exception as err:  # pragma: no cover - safety net
        print(f"bigmrf: unexpected error: {err}", file=sys.stderr)
        return 70


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
