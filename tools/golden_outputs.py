"""Write the outputs that a byte-identical refactor must keep, for ``diff -r``.

usage: python3 tools/golden_outputs.py OUT_DIR [--reps N]

For the normal, logistic, Student-t(7) and Gumbel (``exp(-x - exp(-x))``)
families it writes, through the ``edgemle`` subcommands run in this
process, the ``moments`` and ``validate`` JSON, the ``cdf`` and
``quantile`` tables and ``compose-check``, all at 17 digits, and the
``mle`` JSON of fixed samples at n = 25, 100, 400.  ``intervals.txt`` holds
the ``repr`` of theta_hat and of the interval endpoints of the same samples
at levels 0.9, 0.95, 0.99 and orders 1..5 (or the message of a refused
interval).  The Gumbel density has no built-in name, so its ``mle`` runs and
intervals go through ``from_expression``.  It also runs normal, logistic
and Student-t(7) studies (n = 25, 100, 400, ``base_seed`` 20260810, N
replicates per n, default 4096) and drops ``created_utc`` from their
manifests; ``edgemle simulate --replay`` still verifies them.

The package is imported from this tree's ``src``, so two checkouts (a
change and its parent) on one host, or two runs of one checkout, should
leave directories that ``diff -r`` finds equal.  Floats past the
Philox uniforms hold for one numpy build and CPU kernel set.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from edgemle import cli  # noqa: E402
from edgemle.mle import LocationMLE  # noqa: E402

GUMBEL = "exp(-x - exp(-x))"
#: label -> (CLI family arguments, LocationMLE family and params, numpy sampler)
FAMILIES = {
    "normal": (["--family", "normal"], ("normal", None),
               lambda rng, n: rng.standard_normal(n)),
    "logistic": (["--family", "logistic"], ("logistic", None),
                 lambda rng, n: rng.logistic(size=n)),
    "t7": (["--family", "student_t", "--param", "nu=7"], ("student_t", {"nu": 7.0}),
           lambda rng, n: rng.standard_t(7.0, size=n)),
    "gumbel": (["--family", "expression", "--param", f"expr={GUMBEL}"],
               ("expression", {"expr": GUMBEL}), lambda rng, n: rng.gumbel(size=n)),
}
STUDIES = {"normal": ("normal", {}), "logistic": ("logistic", {}),
           "t7": ("student_t", {"nu": 7.0})}
N_GRID = (25, 100, 400)
LEVELS = (0.9, 0.95, 0.99)
ORDERS = (1, 2, 3, 4, 5)
SEED = 20260810
PRECISION = ["--precision", "17"]


def run(path: Path, argv: list) -> None:
    """``edgemle argv`` in this process, its standard output written to ``path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch(argv)
    if code:
        print(f"edgemle {' '.join(argv)} exited with {code}", file=sys.stderr)
        out.write(f"exit {code}\n")
    path.write_text(out.getvalue())


def intervals(label: str, family: str, params, sample: np.ndarray) -> list:
    """Lines of theta_hat and of the endpoints at every level and order, as ``repr``s."""
    est = LocationMLE(family=family, family_params=params).fit(sample)
    lines = [f"{label} n={sample.size} theta_hat={est.theta_!r}"]
    for level in LEVELS:
        for order in ORDERS:
            head = f"{label} n={sample.size} level={level} order={order}:"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    lo, hi = est.confidence_interval(level, order=order)
                    text = f"{float(lo)!r} {float(hi)!r}"
                except ValueError as exc:
                    text = f"refused: {exc}"
            lines.append(f"{head} {text}" + (" (warned)" if caught else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--reps", type=int, default=4096,
                        help="study replicates per n (default 4096)")
    args = parser.parse_args(argv)
    # paths relative to OUT_DIR, so no output names the directory itself
    args.out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out_dir)
    tables, mle, samples, studies = (Path(d) for d in ("tables", "mle", "samples", "studies"))
    for d in (tables, mle, samples, studies):
        d.mkdir(exist_ok=True)

    lines = []
    for k, (label, (family_args, (family, params), sampler)) in enumerate(FAMILIES.items()):
        for command in ("moments", "validate"):
            run(tables / f"{label}_{command}.json", [command, *family_args, *PRECISION])
        run(tables / f"{label}_compose.txt", ["compose-check", *family_args, *PRECISION])
        for n in N_GRID:
            for command in ("cdf", "quantile"):
                run(tables / f"{label}_{command}_{n}.txt",
                    [command, *family_args, "--n", str(n), *PRECISION])
            sample = sampler(np.random.default_rng([SEED, k, n]), n)
            path = samples / f"{label}_{n}.csv"
            np.savetxt(path, sample, fmt="%.17g")
            run(mle / f"{label}_{n}.json", ["mle", *family_args, "--input", str(path), *PRECISION])
            lines += intervals(label, family, params, sample)
    Path("intervals.txt").write_text("\n".join(lines) + "\n")

    for label, (family, params) in STUDIES.items():
        config = studies / f"{label}.json"
        config.write_text(json.dumps({"family": family, "family_params": params,
                                      "n_grid": list(N_GRID), "replications": args.reps}))
        study = studies / label
        run(studies / f"{label}.log",
            ["simulate", "--config", str(config), "--out-dir", str(study),
             "--seed", str(SEED), *PRECISION])
        manifest = json.loads((study / "manifest.json").read_text())
        manifest.pop("created_utc", None)
        (study / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
