"""Command-line front end.

Subcommands cover the full pipeline and its pieces:

  sweep     solve every grid point and write the diagnostics CSV (and SVG)
  solve     solve every grid point and store the raw modes as EPMODE files
  analyze   recompute diagnostics from stored EPMODE files
  plot      render fields from an existing sweep CSV to SVG
  selftest  run the built-in identity battery

Exit codes: 0 success, 2 bad config or arguments, 3 solver or numeric
failure (every grid point failed, any other fault inside a command that is
not bad input, or the selftest battery found a broken identity), 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .circstats import NODE_CUTOFF, extract_phases, fold_sum, resultant
from .entropy import (ALPHAS, K_MAX, N_BINS, HistogramPMF, chi_squared,
                      entropy_report, renyi)
from .io import (SVG_FIELDS, ParseError, float_list, parse_config,
                 parse_output_options, read_mode_file, read_sweep_csv,
                 read_text, split_list, write_mode_file, write_sweep_csv)
from .linalg import norm
from .models import InvalidSetting, Mode, check_finite
from .nonorth import phase_rigidity_cs, petermann
from .sweep import (SweepRecord, check_analysis, check_fields,
                    mode_diagnostics, run_sweep, solve_points)
from .svgplot import emit_svg


def _load_config(args):
    text = read_text(args.config)
    overrides = args.override or ()
    cfg = parse_config(text, overrides)
    opts = parse_output_options(text, overrides)
    if args.out_dir is not None:
        opts["directory"] = args.out_dir
    return cfg, opts


def _report_failures(records) -> int:
    failed = [r for r in records if r.error is not None]
    for rec in failed:
        print(f"point {rec.parameter:g} failed: {rec.error}",
              file=sys.stderr)
    if len(failed) == len(records):
        print("error: solver failed on every grid point", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    cfg, opts = _load_config(args)
    if args.no_timestamp:
        opts["timestamp"] = False
    if opts["svg"]:
        check_fields(opts["svg_fields"], cfg.alphas)
    records = run_sweep(cfg)
    status = _report_failures(records)
    if status:
        return status
    os.makedirs(opts["directory"], exist_ok=True)
    csv_path = os.path.join(opts["directory"], opts["csv"])
    write_sweep_csv(records, csv_path, timestamp=opts["timestamp"])
    n_rows = sum(len(r.modes) for r in records)
    print(f"wrote {csv_path}: {n_rows} mode rows over {len(records)} points")
    if opts["svg"]:
        svg_path = os.path.join(opts["directory"], opts["svg"])
        emit_svg(records, opts["svg_fields"], svg_path,
                 marker=opts["marker"])
        print(f"wrote {svg_path}")
    return 0


def _cmd_solve(args) -> int:
    cfg, opts = _load_config(args)
    os.makedirs(opts["directory"], exist_ok=True)
    records = []
    written = 0
    for idx, point in enumerate(solve_points(cfg)):
        records.append(SweepRecord(point.parameter, [], point.error))
        for j, md in enumerate(point.modes):
            path = os.path.join(opts["directory"], f"mode_p{idx:04d}_m{j}.ep")
            write_mode_file(md, path, parameter=point.parameter)
            written += 1
    status = _report_failures(records)
    if status:
        return status
    print(f"wrote {written} mode files to {opts['directory']}")
    return 0


def _cmd_analyze(args) -> int:
    alphas = float_list("--alpha", args.alpha)
    check_analysis(args.n_bins, args.k_max, alphas, args.node_cutoff)
    records = []
    for path in args.modefiles:
        mode, header = read_mode_file(path)
        diag = mode_diagnostics(mode, args.n_bins, args.k_max, alphas,
                                args.node_cutoff)
        records.append(SweepRecord(header["parameter"], [diag]))
    if args.out is None:
        write_sweep_csv(records, sys.stdout, timestamp=False)
    else:
        write_sweep_csv(records, args.out, timestamp=not args.no_timestamp)
        print(f"wrote {args.out}: {len(records)} rows")
    return 0


def _cmd_plot(args) -> int:
    fields = split_list("--fields", args.fields)
    if args.marker is not None:
        check_finite(**{"--marker": args.marker})
    records = read_sweep_csv(args.csv)
    emit_svg(records, fields, args.out, marker=args.marker)
    print(f"wrote {args.out}")
    return 0


def _selftest_checks(rng):
    """Yield (name, passed) pairs for the identity battery."""
    n_bins = 720
    worst = 0.0
    for _ in range(200):
        p = rng.random(n_bins)
        pmf = HistogramPMF(n_bins, p / fold_sum(p))
        h2 = renyi(pmf, 2.0)
        chi2 = chi_squared(pmf)
        worst = max(worst, abs(h2 - (np.log(n_bins) - np.log1p(chi2))))
    yield "collision entropy matches chi-squared identity", worst < 1e-10

    worst_r = 0.0
    worst_k = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 64))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= norm(psi)
        mode = Mode(None, psi, 1.0 + 0.0j, "two_level")
        r = abs(phase_rigidity_cs(mode))
        r2 = resultant(extract_phases(mode), 2).R_k
        worst_r = max(worst_r, abs(r - r2))
        if r > 1e-6:
            worst_k = max(worst_k, abs(petermann(r) * r2 ** 2 - 1.0))
    yield "phase rigidity equals the doubled-phase resultant", worst_r < 1e-10
    yield "excess-noise factor inverts the squared resultant", worst_k < 1e-10

    n = 240
    grid = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(grid, grid) / n)
    worst_p = 0.0
    for _ in range(20):
        p = rng.random(n)
        p /= fold_sum(p)
        coeffs = np.sum(kernel * p[None, :], axis=1)
        lhs = np.sum(np.abs(coeffs) ** 2)
        worst_p = max(worst_p, abs(lhs - n * np.sum(p ** 2)))
    yield "spectrum power matches distribution power", worst_p < 1e-10

    psi = np.array([1.0, -1.0]) / np.sqrt(2.0)
    rep = entropy_report(extract_phases(
        Mode(None, psi.astype(np.complex128), 1.0 + 0.0j, "two_level")))
    yield "real balanced mode has zero folded entropy", rep.S_folded == 0.0


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(2718281828)
    failures = 0
    for name, passed in _selftest_checks(rng):
        print(f"{'ok  ' if passed else 'FAIL'}  {name}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 3
    print("all checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epmodes",
        description="Eigenmode sweeps with circular-statistics, entropy, "
                    "and non-orthogonality diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("config", help="config file path")
        p.add_argument("-O", "--override", action="append", metavar="S.K=V",
                       help="override a config value, e.g. -O model.gamma=2")
        p.add_argument("--out-dir", help="output directory "
                                         "(overrides [output] directory)")

    p = sub.add_parser("sweep", help="run the sweep and write CSV/SVG")
    add_config(p)
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp comment for byte-stable output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="store raw modes as EPMODE files")
    add_config(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("analyze", help="diagnostics from EPMODE files")
    p.add_argument("modefiles", nargs="+", help="EPMODE file paths")
    p.add_argument("--n-bins", type=int, default=N_BINS)
    p.add_argument("--k-max", type=int, default=K_MAX)
    p.add_argument("--alpha", default=",".join(f"{a:g}" for a in ALPHAS),
                   help="comma-separated entropy orders")
    p.add_argument("--node-cutoff", type=float, default=NODE_CUTOFF)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plot", help="SVG from an existing sweep CSV")
    p.add_argument("csv", help="sweep CSV path")
    p.add_argument("--fields", default=",".join(SVG_FIELDS),
                   help="comma-separated fields; first owns the left axis")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--marker", type=float,
                   help="dashed vertical line at this parameter value")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("selftest", help="run the built-in identity battery")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidSetting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # not bad input: a fault inside the command
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
