"""Workloads of the edgemle benchmark: inputs, operations and output checks.

Every workload is a closed loop with one client in one process.  The client
repeats a cycle of three kinds of operation, each timed on its own:

* a **study**: sample, solve the MLE, expand and aggregate (``run_study``,
  or the ``simulate`` subcommand in-process);
* a **family pass**: the analytic answers for each family of the workload
  (moment set, condition checks, CDF and quantile tables at orders 1..5 for
  every n of ``PASS_N``, then ``compose_check`` over that grid);
* **CI requests**: ``LocationMLE(family).fit(x).confidence_interval(...)``
  on samples generated here.

The workloads differ in the size of each part, so a different layer
dominates each.  Inputs come from the benchmark seed through numpy's own
generators; the package receives only the generated numbers and the study
``base_seed``.  Every function the layers expose is looked up through its
module at call time, so the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

import edgemle.cli as cli
import edgemle.density as density
import edgemle.expansion as expansion
import edgemle.mle as mle
import edgemle.moments as moments
import edgemle.montecarlo as montecarlo

REFERENCE = Path(__file__).resolve().parent / "reference.json"

STUDY_N_GRID = (25, 100, 400)
PASS_N = (25, 50, 100, 200, 400)
ORDERS = (1, 2, 3, 4, 5)
X_GRID = np.linspace(-3.0, 3.0, 13)
V_GRID = np.array([0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975, 0.99])
CI_N = (25, 100, 400)
CI_LEVEL = 0.95
CI_ORDER = 5
CI_POOL = 240            # distinct CI samples generated per run
CI_MIN_SAMPLES = 1000    # so at least ten CI latencies lie beyond the p99
GAUSS_EXPR = "exp(-x**2/2)/sqrt(2*pi)"

#: family label -> (model builder, LocationMLE family_params, numpy sampler)
FAMILIES = {
    "normal": (density.normal, None, lambda rng, n: rng.standard_normal(n)),
    "logistic": (density.logistic, None, lambda rng, n: rng.logistic(size=n)),
    "student_t": (lambda: density.student_t(7.0), {"nu": 7.0},
                  lambda rng, n: rng.standard_t(7.0, size=n)),
    "expression": (lambda: density.from_expression(GAUSS_EXPR), None, None),
}

# Studies run with workers=1: on a small shared machine a process pool would
# measure the scheduler rather than the package.
WORKLOADS = {
    # grid scan of the solver dominates; the CLI path adds the CSV writer,
    # the np.loadtxt round trip and the manifest hashing
    "mc_logistic": {
        "study": {"family": "logistic", "params": {}, "replications": 4096, "cli": True},
        "pass_families": ("logistic",), "ci_families": ("logistic",),
        "passes_per_cycle": 3, "ci_per_cycle": 900,
    },
    # sampling through stdtrit costs as much as the solver; not log-concave;
    # in memory, so the CSV writer is bypassed
    "mc_student_t": {
        "study": {"family": "student_t", "params": {"nu": 7.0}, "replications": 4096,
                  "cli": False},
        "pass_families": ("student_t",), "ci_families": ("student_t",),
        "passes_per_cycle": 3, "ci_per_cycle": 900,
    },
    # quadrature and coefficient assembly dominate; CI requests use the
    # single-row solver and the scalar quantile calls; the study is a small
    # Gaussian-exactness check
    "analytic": {
        "study": {"family": "normal", "params": {}, "replications": 512, "cli": False},
        "pass_families": ("normal", "logistic", "student_t", "expression"),
        "ci_families": ("normal", "logistic", "student_t"),
        "passes_per_cycle": 1, "ci_per_cycle": 500,
    },
}

#: closed-form moment sets (psi_i are Hermite polynomials for the normal;
#: polynomials in t = tanh(x/2), t uniform on (-1, 1), for the logistic)
#: each is (I, a_1..a_6, eta_2..eta_10)
EXACT_MOMENTS = {
    "normal": (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
               2.0, 0.0, 3.0, 0.0, 0.0, 15.0, 8.0, 6.0, 6.0),
    "logistic": (1 / 3, 0.0, 1 / 3, 0.0, -1 / 15, 0.0, 1 / 21,
                 9 / 5, 0.0, 9 / 5, 0.0, 0.0, 27 / 7, 54 / 35, 207 / 35, 72 / 35),
}
EXACT_MOMENTS["expression"] = EXACT_MOMENTS["normal"]

#: score functions rho' written out here, to check the solver independently
SCORES = {
    "normal": lambda y: y,
    "logistic": lambda y: np.tanh(0.5 * y),
    "student_t": lambda y: 8.0 * y / (7.0 + y * y),
}

# Tolerances of the output checks.  Tables and CI endpoints are deterministic
# given the moment set; study statistics are Monte Carlo estimates, checked
# against the mean and spread of reference runs over many seeds.
MOMENT_TOL = 1e-7
TABLE_TOL = 1e-8
CI_TOL = 1e-9
SCORE_TOL = 1e-9
STUDY_SD_MULT = 10.0
STUDY_ATOL = {"ecdf_sup": 1e-6, "ecdf_l1": 1e-6, "rem_median": 2e-9, "slope": 0.02}


def study_stats(report: dict) -> dict:
    """The report entries the study check compares, keyed by name."""
    out = {}
    for n, d in report["per_n"].items():
        for k, dist in d["ecdf_distance"].items():
            out[f"ecdf_sup.n{n}.o{k}"] = dist["sup"]
            out[f"ecdf_l1.n{n}.o{k}"] = dist["l1"]
        for k, rem in d["remainders"].items():
            out[f"rem_median.n{n}.o{k}"] = rem["median_abs"]
    for k, s in report["slopes"].items():
        out[f"slope.o{k}"] = s["slope"]
    return out


def moment_vector(ms) -> list:
    """(I, a_1..a_6, eta_2..eta_10) of a MomentSet."""
    return [ms.fisher, *ms.a, *(ms.eta[k] for k in range(2, 11))]


def study_seed(seed: int, index: int) -> int:
    """base_seed of the index-th study of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] & 0x7FFFFFFF)


class Session:
    """One client of one workload: models, inputs and the three operations."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        families = dict.fromkeys(self.spec["pass_families"] + self.spec["ci_families"])
        self.models = {f: FAMILIES[f][0]() for f in families}
        self.moments = {f: moments.compute_moment_set(m) for f, m in self.models.items()}
        rng = np.random.default_rng([self.seed, list(WORKLOADS).index(workload)])
        fams = self.spec["ci_families"]
        self.ci_inputs = []
        for _ in range(CI_POOL):
            fam = fams[int(rng.integers(len(fams)))]
            n = CI_N[int(rng.integers(len(CI_N)))]
            self.ci_inputs.append((fam, n, FAMILIES[fam][2](rng, n)))
        self.reference = json.loads(REFERENCE.read_text())

    # -- operations ----------------------------------------------------------

    def study(self, index: int):
        """Run one study; returns (replicates, wall seconds, report dict, bytes)."""
        st = self.spec["study"]
        cfg = {"family": st["family"], "family_params": st["params"],
               "n_grid": list(STUDY_N_GRID), "replications": st["replications"],
               "base_seed": study_seed(self.seed, index)}
        reps = st["replications"] * len(STUDY_N_GRID)
        if not st["cli"]:
            config = montecarlo.SimulationConfig.from_dict(cfg)
            t0 = time.perf_counter()
            report = montecarlo.run_study(config, out_dir=None, workers=1)
            return reps, time.perf_counter() - t0, report.to_dict(), 0
        out_dir = self.work_dir / "simulate"
        config_path = self.work_dir / "config.json"
        config_path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(config_path), "--out-dir", str(out_dir),
                "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.dispatch(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            return reps, wall, None, 0
        report = json.loads((out_dir / "report.json").read_text())
        outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
        written = sum(os.path.getsize(out_dir / name) for name in outputs)
        return reps, wall, report, written

    def family_pass(self):
        """Analytic answers for every family of the workload; returns outputs."""
        out = {}
        for fam in self.spec["pass_families"]:
            model = self.models[fam]
            ms = moments.compute_moment_set(model)
            cond = moments.validate_conditions(model)
            cdf = {(n, k): expansion.edgeworth_cdf(ms, n, k, X_GRID)
                   for n in PASS_N for k in ORDERS}
            qua = {(n, k): expansion.cornish_fisher_quantile(ms, n, k, V_GRID)
                   for n in PASS_N for k in ORDERS}
            comp = expansion.compose_check(ms, PASS_N)
            out[fam] = (ms, cond, cdf, qua, comp)
        return out

    def ci_request(self, index: int):
        """One confidence interval; returns (index, theta_hat, lo, hi)."""
        fam, _, x = self.ci_inputs[index % CI_POOL]
        est = mle.LocationMLE(family=fam, family_params=FAMILIES[fam][1]).fit(x)
        lo, hi = est.confidence_interval(CI_LEVEL, order=CI_ORDER, moments=self.moments[fam])
        return index, est.theta_, lo, hi

    # -- output checks -------------------------------------------------------
    # Each returns (operations attempted, operations failed, messages).

    def check_study(self, reps: int, report) -> tuple:
        if report is None:
            return reps, reps, ["study exited with a non-zero code"]
        wrong = []
        ref = self.reference["studies"][self.name]
        for key, value in study_stats(report).items():
            mean, sd = ref[key]
            if mean is None:
                continue
            tol = STUDY_SD_MULT * sd + STUDY_ATOL[key.split(".", 1)[0]]
            if not abs(value - mean) <= tol:
                wrong.append(f"{key} = {value:.6g}, reference {mean:.6g} +- {tol:.2g}")
        # solver failures count per replicate; a wrong report fails every one
        failures = sum(int(d["solver_failures"]) for d in report["per_n"].values())
        errors = wrong + ([f"{failures} solver failures"] if failures else [])
        return reps, reps if wrong else failures, errors

    def check_pass(self, outputs: dict) -> tuple:
        failed = 0
        errors = []
        for fam, (ms, cond, cdf, qua, comp) in outputs.items():
            ref = self.reference["families"][fam]
            bad = []
            want = EXACT_MOMENTS.get(fam, ref["moments"])
            if not np.allclose(moment_vector(ms), want, rtol=MOMENT_TOL, atol=MOMENT_TOL):
                bad.append("moment set")
            if any(v != "pass" for v in cond.verdicts.values()):
                bad.append(f"conditions {dict(cond.verdicts)}")
            for table, values in (("cdf", cdf), ("quantile", qua)):
                for (n, k), arr in values.items():
                    if not np.allclose(arr, ref[table][str(n)][str(k)],
                                       rtol=TABLE_TOL, atol=TABLE_TOL):
                        bad.append(f"{table} n={n} order={k}")
            if comp.flagged_order is not None:
                bad.append(f"compose_check flagged order {comp.flagged_order}")
            if bad:
                failed += 1
                errors.append(f"family pass {fam}: " + "; ".join(bad))
        return len(outputs), failed, errors

    def check_ci(self, results) -> tuple:
        failed = 0
        errors = []
        ref = self.reference["ci"]
        for index, theta, lo, hi in results:
            fam, n, x = self.ci_inputs[index % CI_POOL]
            r = ref[fam][str(n)]
            scale = math.sqrt(n * r["fisher"])
            want_lo = theta - r["q_hi"] / scale
            want_hi = theta - r["q_lo"] / scale
            score = float(np.mean(SCORES[fam](x - theta)))
            ok = (abs(score) <= SCORE_TOL
                  and abs(lo - want_lo) <= CI_TOL * (1 + abs(want_lo))
                  and abs(hi - want_hi) <= CI_TOL * (1 + abs(want_hi)))
            if not ok:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"CI {fam} n={n}: ({lo:.12g}, {hi:.12g}) at theta "
                                  f"{theta:.12g}, expected ({want_lo:.12g}, {want_hi:.12g}), "
                                  f"score {score:.2g}")
        return len(results), failed, errors
