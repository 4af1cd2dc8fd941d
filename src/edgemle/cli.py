"""Command-line interface.

Subcommands: moments, cdf, quantile, mle, simulate, validate,
collapse-check, compose-check.  Exit codes: 0 success, 1 validation failure
or runtime error, 2 usage error.  cdf and quantile are one table command,
which --out-dir also writes to ``<command>.csv``; CSV rows and JSON text come
from the study writers' ``_csv_rows`` and ``_json_text``.  Every run that
writes an output directory also writes a manifest.json recording the resolved
configuration, the seed and a checksum per output file (a study's, written by
``run_study``, also records its precision); ``simulate --replay
manifest.json`` re-runs the study at that precision (in a temporary directory
unless --out-dir names another one) and verifies the new outputs reproduce
those checksums.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from contextlib import nullcontext

import numpy as np

from . import __version__
from .density import _json_data, _json_text, make_model
from .errors import (DomainError, InversionFailure, MomentDivergence, NoConvergence,
                     SingularInformation, StudyAborted, UnsupportedOrder)
from .expansion import (ORDERS, collapse_report, compose_check, cornish_fisher_quantile,
                        edgeworth_cdf)
from .mle import solve_mle
from .moments import check_density, compute_moment_set, validate_conditions
from .montecarlo import SimulationConfig, _csv_rows, run_study, write_manifest

_HANDLED = (DomainError, InversionFailure, MomentDivergence, NoConvergence,
            SingularInformation, StudyAborted, UnsupportedOrder, ValueError,
            OSError, json.JSONDecodeError)
_MAX_GRID_POINTS = 10**6  # most points a start:stop:step grid may hold


def _json_object(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} holds a JSON {type(data).__name__}, not an object")
    return data


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _parse_grid(text: str) -> np.ndarray:
    """Grid syntax: 'start:stop:step' (from start by step up to stop, which a point within
    1e-9 steps reaches; the count is checked before allocating) or a comma list, of finite
    numbers only."""
    values = [float(tok) for tok in (text.split(":") if ":" in text else text.split(",")) if tok]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid {text!r} holds a non-finite number")
    if ":" not in text:
        return np.asarray(values, dtype=float)
    if len(values) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    span = (stop - start) / step  # inf when the division overflows
    count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has {count} points; at most {_MAX_GRID_POINTS} allowed")
    return np.round(start + step * np.arange(count), 12)


def _model_from_args(args):
    return make_model(args.family, **_parse_params(args.param))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_moments(args) -> int:
    ms = compute_moment_set(_model_from_args(args), tol=args.tol)
    if args.format == "json":
        sys.stdout.write(_json_text(ms.to_dict(), args.precision))
        return 0
    rows = [("fisher", ms.fisher, ms.quadrature_error["fisher"])]
    rows += [(f"a{j}", ms.a[j - 1], ms.quadrature_error[f"a{j}"]) for j in range(1, 7)]
    rows += [(f"eta{k}", ms.eta[k], ms.quadrature_error[f"eta{k}"]) for k in range(2, 11)]
    sys.stdout.write("name,value,est_error\n")
    row = "%s" + f",%.{args.precision}g" * 2 + "\n"
    sys.stdout.writelines(_csv_rows(row, np.array(rows, dtype=object)))
    return 0


def _cmd_table(args) -> int:
    """cdf or quantile: the expansion at every order up to --order, one row per grid point."""
    grid = _parse_grid(args.grid)
    ms = compute_moment_set(_model_from_args(args), tol=args.tol)
    orders = range(1, args.order + 1)
    header = ["point"] + [f"value_order{k}" for k in orders]
    row = [f"%.{args.precision}g"] * len(header)
    expansion = edgeworth_cdf if args.command == "cdf" else cornish_fisher_quantile
    values = np.array([np.atleast_1d(expansion(ms, args.n, k, grid)) for k in orders])
    columns = [grid, *values]
    if args.command == "cdf":
        # flag the raw values outside [0, 1], then clip them if asked
        flags = np.any((values < 0.0) | (values > 1.0), axis=0)
        columns = [grid, *(np.clip(values, 0.0, 1.0) if args.clamp_cdf else values),
                   np.where(flags, "true", "false").astype(object)]
        header.append("out_of_range_flag")
        row.append("%s")
    text = "".join([",".join(header) + "\n",
                    *_csv_rows(",".join(row) + "\n", np.column_stack(columns))])
    sys.stdout.write(text)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, f"{args.command}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        write_manifest(args.out_dir, [path], base_seed=None, execution={},
                       config={"family": args.family, "params": _parse_params(args.param),
                               "n": args.n, "order": args.order, "grid": args.grid,
                               "precision": args.precision})
    return 0


def _cmd_mle(args) -> int:
    model = _model_from_args(args)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    values = [float(tok) for tok in text.replace(",", " ").split()]
    res = solve_mle(np.asarray(values), model, tol=args.tol)
    sys.stdout.write(_json_text({**_json_data(res), "n": len(values)}, args.precision))
    return 0


def _cmd_validate(args) -> int:
    model = _model_from_args(args)
    density_report = check_density(model, tol=args.tol)
    condition_report = validate_conditions(model, tol=args.tol)
    sys.stdout.write(_json_text({"density": density_report,
                                 "conditions": condition_report.to_dict()}, args.precision))
    failed = [k for k, v in condition_report.verdicts.items() if v == "fail"]
    ok = all(density_report[k] for k in ("integrates_to_one", "positive_on_probe",
                                         "derivs_match"))
    return 1 if (failed or not ok) else 0


def _cmd_collapse_check(args) -> int:
    exact = collapse_report()
    ms = compute_moment_set(make_model("normal"), tol=args.tol)
    numeric = collapse_report(ms.eta)
    payload = {
        "exact_max_abs_coefficient": float(exact["max_abs_coefficient"]),
        "quadrature_max_abs_coefficient": numeric["max_abs_coefficient"],
        "threshold": args.threshold,
        "coefficients_checked": len(numeric["entries"]),
    }
    sys.stdout.write(_json_text(payload, args.precision))
    return 0 if numeric["max_abs_coefficient"] < args.threshold else 1


def _cmd_compose_check(args) -> int:
    n_grid = _parse_grid(args.n_grid)
    v_grid = _parse_grid(args.grid) if args.grid else None
    orders = tuple(_parse_grid(args.orders)) if args.orders else ORDERS
    ms = compute_moment_set(_model_from_args(args), tol=args.tol)
    report = compose_check(ms, n_grid, v_grid=v_grid, orders=orders)
    sys.stdout.write(_json_text(report.to_dict(), args.precision))
    return 1 if report.flagged_order is not None else 0


def _cmd_simulate(args) -> int:
    if args.replay:
        return _replay(args)
    if not args.config:
        print("usage: edgemle simulate --config FILE [or --replay MANIFEST]", file=sys.stderr)
        return 2
    config_dict = _json_object(args.config, "config")
    if args.seed is not None:
        config_dict["base_seed"] = args.seed
    if args.reps is not None:
        config_dict["replications"] = args.reps
    out_dir = args.out_dir or "edgemle-out"
    report = run_study(SimulationConfig.from_dict(config_dict), out_dir=out_dir,
                       workers=args.workers, precision=args.precision)
    print(f"wrote {len(report.output_files)} files + manifest.json to {out_dir}")
    return 0


def _kernels(manifest: dict) -> str:
    # the numpy kernel set a study manifest records, as text; "" if it records none
    execution = manifest.get("execution")
    if not isinstance(execution, dict) or "numpy" not in execution:
        return ""
    simd = execution.get("simd")
    targets = " ".join(map(str, simd)) if isinstance(simd, list) and simd else "none"
    return f"numpy {execution['numpy']} with SIMD targets {targets}"


def _replay(args) -> int:
    manifest = _json_object(args.replay, "manifest")
    expected = manifest.get("outputs")
    if not expected or not isinstance(expected, dict):
        raise ValueError(f"manifest {args.replay} records no outputs to verify")
    if not isinstance(manifest.get("config"), dict):
        raise ValueError(f"manifest {args.replay} records no study config to replay")
    if args.out_dir is not None and (os.path.realpath(args.out_dir)
                                     == os.path.dirname(os.path.realpath(args.replay))):
        raise ValueError(f"--out-dir {args.out_dir} holds the replayed manifest; a replay "
                         "there would overwrite the outputs it verifies")
    config = SimulationConfig.from_dict(manifest["config"])
    # re-run at the recorded precision (--precision for manifests older than that key)
    # where it cannot touch the outputs it verifies, then compare the two manifests
    with (tempfile.TemporaryDirectory(prefix="edgemle-replay-") if args.out_dir is None
          else nullcontext(args.out_dir)) as out_dir:
        run_study(config, out_dir=out_dir, workers=args.workers,
                  precision=manifest.get("precision", args.precision))
        with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            produced = json.load(fh)
    mismatched = sorted(k for k in expected if produced["outputs"].get(k) != expected[k])
    if mismatched:
        print(f"replay mismatch in: {', '.join(mismatched)}", file=sys.stderr)
        recorded, current = _kernels(manifest), _kernels(produced)
        if recorded and recorded != current:
            print(f"the manifest was written on {recorded}, and this replay ran on {current}: "
                  "numpy's kernels can differ in the last bits", file=sys.stderr)
        return 1
    print(f"replay verified: {len(expected)} files bit-identical")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_family_flags(p):
    p.add_argument("--family", default="logistic",
                   help="family name: normal, logistic, student_t, expression, table")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="family parameter (repeatable), e.g. --param nu=7")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="quadrature/solver tolerance (default 1e-10)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemle",
        description="Fifth-order expansions for the location MLE and their "
                    "Monte Carlo verification.")
    parser.add_argument("--version", action="version", version=f"edgemle {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("moments", help="print the moment functional vector of a family")
    _add_family_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("cdf", help="evaluate the distribution-function expansion on a grid")
    _add_family_flags(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--order", type=int, default=5, choices=ORDERS,
                   help="highest truncation order to tabulate (default 5)")
    p.add_argument("--grid", default="-3:3:0.5", help="start:stop:step or comma list")
    p.add_argument("--clamp-cdf", action="store_true",
                   help="truncate values into [0, 1] (out-of-range flag still reported)")
    p.add_argument("--out-dir", help="also write the table and a manifest here")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("quantile", help="evaluate the quantile expansion on a v grid")
    _add_family_flags(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--order", type=int, default=5, choices=ORDERS,
                   help="highest truncation order to tabulate (default 5)")
    p.add_argument("--grid", default="0.05:0.95:0.05", help="probabilities, start:stop:step or comma list")
    p.add_argument("--out-dir", help="also write the table and a manifest here")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("mle", help="solve the location MLE for a sample")
    _add_family_flags(p)
    p.add_argument("--input", default="-", help="CSV/whitespace sample file, or - for stdin")
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("simulate", help="run a Monte Carlo study from a config file")
    p.add_argument("--config", help="JSON config (keys mirror SimulationConfig)")
    p.add_argument("--replay", help="manifest.json from a previous run; verify reproduction")
    p.add_argument("--out-dir", help="output directory (default edgemle-out; a replay "
                                     "without it runs in a temporary directory)")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--seed", type=int, help="override base_seed")
    p.add_argument("--reps", type=int, help="override replications")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="density sanity checks + regularity conditions")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("collapse-check",
                       help="verify every correction coefficient vanishes for the normal family")
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    p.add_argument("--threshold", type=float, default=1e-8,
                   help="maximum allowed |coefficient| (default 1e-8)")
    p.set_defaults(func=_cmd_collapse_check)

    p = sub.add_parser("compose-check",
                       help="check the quantile expansion inverts the CDF expansion")
    _add_family_flags(p)
    p.add_argument("--n-grid", default="100,200,400", help="sample sizes, comma list")
    p.add_argument("--grid", help="v grid (default 0.05:0.95:0.05)")
    p.add_argument("--orders", help="orders to check, comma list (default all)")
    p.set_defaults(func=_cmd_compose_check)

    # let grid values like -3:3:0.5 pass as arguments rather than options
    matcher = re.compile(r"^-\d")
    parser._negative_number_matcher = matcher
    for sp in sub.choices.values():
        sp.add_argument("--precision", type=int, default=12,
                        help="significant digits in numeric output (default 12)")
        sp._negative_number_matcher = matcher
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return int(args.func(args))
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
