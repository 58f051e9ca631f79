"""Command-line interface.

Subcommands: estimate, breakdown, factors, simulate, fit, spc-demo.  Every
run writes CSV (to --out or stdout) preceded by a ``#`` metadata line with
the package version and the full flag set, so any output can be reproduced
from its header.  Randomized subcommands require an explicit --seed.

Exit codes: 0 success, 1 data error (message names the offending input),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import __version__, breakdown, calibration, estimators, factors, spc
from .estimators import Estimator

_ESTIMATORS = [e.value for e in Estimator]


def _parse_n_list(text: str) -> list[int]:
    """Parse sample sizes: comma list and/or inclusive a:b ranges, a <= b."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            lo, hi = token.split(":", 1)
            sizes = range(int(lo), int(hi) + 1)
            if not sizes:
                raise ValueError(f"empty range {token!r} in --n {text!r}")
            out.extend(sizes)
        else:
            out.append(int(token))
    if not out:
        raise ValueError(f"no sample sizes in {text!r}")
    return out


def _read_observations(path: str) -> list[float]:
    """One observation per line; blank lines and ``#`` comments ignored."""
    values: list[float] = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    v = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path} line {lineno}: could not parse {text!r}"
                    ) from None
                values.append(v)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    if not values:
        raise ValueError(f"{path}: no observations found")
    return values


def _emit(args, header: list[str], rows: list[list[str]]) -> None:
    meta = f"# robustfinite {__version__} | {args.command} " + " ".join(args.raw_flags)
    lines = [meta, ",".join(header)]
    lines += [",".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_estimate(args) -> None:
    values = _read_observations(args.input)
    estimator = Estimator(args.estimator)
    if not args.unbiased:
        value = estimators._estimate(estimator, values)
    elif estimator in factors._UNBIASING:
        value = factors._unbiased(estimator, values)
    else:
        scales = ", ".join(map(str, factors._UNBIASING))
        raise _Usage(f"--unbiased applies only to scale estimators ({scales})")
    _emit(args, ["estimator", "n", "value"],
          [[args.estimator, str(len(values)), f"{value:.10g}"]])


def _cmd_breakdown(args) -> None:
    rows = breakdown.breakdown_table(args.n_max)
    out = [[str(r["n"])] + [f"{r[c]:.7f}" for c in ("median_mad", "hl1_shamos", "hl2", "hl3")]
           for r in rows]
    _emit(args, ["n", "median_mad", "hl1_shamos", "hl2", "hl3"], out)


def _cmd_factors(args) -> None:
    fs = factors.factor_set(args.n, model=args.model)
    row = [str(fs.n)] + [f"{v:.7f}" for v in (fs.c4, fs.c5, fs.c6, fs.v5, fs.v6)]
    _emit(args, ["n", "c4", "c5", "c6", "v5", "v6", "source"], [row + [fs.source]])


def _cmd_simulate(args) -> None:
    config = calibration.SimulationConfig(
        estimator=args.estimator,
        n_values=tuple(_parse_n_list(args.n)),
        master_seed=args.seed,
        replications=args.reps,
        worker_count=args.workers if args.workers is not None else "auto",
    )
    results = calibration.simulate(config)
    rows = [[str(r.n), f"{r.mean_estimate:.17g}", f"{r.bias:.17g}",
             f"{r.variance_estimate:.17g}", f"{r.normalized_variance:.17g}",
             f"{r.mc_standard_error:.17g}", str(r.replications), str(args.seed)]
            for r in results]
    _emit(args, ["n", "estimate", "bias", "variance", "normalized",
                 "mc_se", "reps", "seed"], rows)


def _read_fit_points(path: str, column: str) -> list[tuple[float, float]]:
    points = []
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(r for r in f if not r.lstrip().startswith("#"))
            if reader.fieldnames is None or "n" not in reader.fieldnames \
                    or column not in reader.fieldnames:
                raise ValueError(f"{path}: need columns 'n' and {column!r}")
            for i, row in enumerate(reader, start=2):
                try:
                    points.append((float(row["n"]), float(row[column])))
                except (TypeError, ValueError):
                    raise ValueError(f"{path} row {i}: bad value") from None
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    return points


def _cmd_fit(args) -> None:
    column = "bias" if args.target in ("A", "B", "bias") else "normalized"
    points = _read_fit_points(args.input, column)
    if args.asymptote:
        points = [(n, y - args.asymptote) for n, y in points]
    data = calibration.FitInput(points=tuple(points))
    if args.model == "hayes":
        model = calibration.fit_hayes(data, target=args.target)
        names = ["p_over_n", "q_over_n2"]
    else:
        model = calibration.fit_williams(data, target=args.target)
        names = ["amplitude", "exponent"]
    _emit(args, ["form", "target"] + names + ["rss"],
          [[model.form, model.target,
            f"{model.coefficients[0]:.10g}", f"{model.coefficients[1]:.10g}",
            f"{model.rss:.6g}"]])


def _parse_float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _cmd_spc_demo(args) -> None:
    rows = spc.contamination_experiment(
        k=args.k, n=args.n, mu=args.mu, sigma=args.sigma,
        delta_grid=_parse_float_list(args.delta),
        replications=args.reps, master_seed=args.seed,
        corrupt_count=args.corrupt_count,
        worker_count=args.workers if args.workers is not None else "auto",
    )
    out = [[f"{r['delta']:g}", r["method"], f"{r['bias']:.5f}",
            f"{r['variance']:.5f}", f"{r['mse']:.5f}", str(r["reps"])]
           for r in rows]
    _emit(args, ["delta", "method", "bias", "variance", "mse", "reps"], out)


class _Usage(Exception):
    """Flag combination error detected after parsing."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustfinite",
        description="Robust estimators, breakdown points, unbiasing factors, "
                    "Monte Carlo calibration, and robust control charts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate location/scale from a data file")
    p.add_argument("--estimator", required=True, choices=_ESTIMATORS)
    p.add_argument("--input", required=True, help="CSV/text: one observation per line")
    p.add_argument("--unbiased", action="store_true",
                   help="apply the finite-sample unbiasing factor (scale only)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("breakdown", help="finite-sample breakdown point table")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("factors", help="unbiasing factors for one sample size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=("hayes", "williams"), default="hayes",
                   help="bias model used beyond the tables (n > 100)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_factors)

    p = sub.add_parser("simulate", help="Monte Carlo bias/variance of an estimator")
    p.add_argument("--estimator", required=True, choices=_ESTIMATORS)
    p.add_argument("--n", required=True, help="sizes, e.g. 2,3,5 or 2:100")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a bias model to simulation output")
    p.add_argument("--model", required=True, choices=("hayes", "williams"))
    p.add_argument("--input", required=True, help="CSV from the simulate subcommand")
    p.add_argument("--target", default="A", choices=("A", "B", "bias", "nvar"),
                   help="A/B/bias fit the bias column; nvar fits the normalized column")
    p.add_argument("--asymptote", type=float, default=0.0,
                   help="constant subtracted before fitting (nvar models)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("spc-demo", help="control-chart contamination experiment")
    p.add_argument("--k", type=int, default=10, help="subgroup count")
    p.add_argument("--n", type=int, default=5, help="subgroup size")
    p.add_argument("--mu", type=float, default=5.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--delta", default="0,10,20,30,40,50",
                   help="corruption shifts, e.g. 0,10,50")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--corrupt-count", type=int, default=1)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spc_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_flags = [a for a in argv if a != args.command]
    try:
        args.func(args)
    except _Usage as e:
        parser.exit(2, f"usage error: {e}\n")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
