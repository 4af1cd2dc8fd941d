"""Monte Carlo verification of the expansions.

The study draws i.i.d. samples by inverse-transform sampling from a
counter-based generator, solves each replicate's MLE, and measures

* the per-order remainders gamma_k = sqrt(n)(thetahat - theta0) minus the
  order-k truncation of the stochastic expansion, whose medians should scale
  like n^-((k+1)/2),
* the distance between the empirical CDF of the standardized statistic
  sqrt(n I) thetahat and the Edgeworth expansion at each order, and
* the tail fraction P(|gamma| >= eps_n / n^2) with
  eps_n = (log n)^(2 + epsilon_exponent) / sqrt(n), a sequence chosen so
  that eps_n sqrt(n) (log n)^-2 still grows.

Reproducibility contract: replicate r is seeded with base_seed XOR r, work
is split into fixed-size blocks, and aggregation is a deterministic merge in
replicate order, so the report bytes never depend on the worker count.

theta0 = 0 throughout; location equivariance of the MLE makes any other
choice redundant.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .density import DensityModel, model_from_descriptor
from .errors import StudyAborted
from .expansion import ORDERS, XiVector, compute_xi_batch, edgeworth_cdf, \
    stochastic_expansion_batch
from .mle import solve_mle_batch
from .moments import MomentSet, compute_moment_set, validate_conditions

#: replicates per work item; fixed so results cannot depend on scheduling
BLOCK_SIZE = 4096

_DKW_95 = 1.3581  # sqrt(log(2/0.05)/2): ECDF sup-norm noise floor at 95%


def sample_iid(model: DensityModel, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. points by inverting the model CDF.

    Uniforms come from a Philox counter-based stream keyed on ``seed``; the
    same (model, n, seed) gives bit-identical output on any platform and
    under any threading, and the uniforms live strictly inside (0, 1).
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.empty(0, dtype=float)
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    u = (gen.integers(0, 1 << 53, size=n, dtype=np.uint64) + 0.5) * 2.0**-53
    return np.asarray(model.ppf(u), dtype=float)


def ecdf_distance(sample, prediction, grid) -> tuple:
    """(sup, L1) distance between an ECDF and a predicted CDF on a grid.

    The ECDF is evaluated from both sides at every grid point and the larger
    deviation counts, so a prediction running through a jump still pays for
    the half it misses.
    """
    s = np.sort(np.asarray(sample, dtype=float).ravel())
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or np.any(np.diff(g) < 0):
        raise ValueError("grid must be nonempty and sorted")
    p = np.asarray(prediction(g) if callable(prediction) else prediction, dtype=float)
    left = np.searchsorted(s, g, side="left") / s.size
    right = np.searchsorted(s, g, side="right") / s.size
    dev = np.maximum(np.abs(left - p), np.abs(right - p))
    return float(np.max(dev)), float(np.mean(dev))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _default_eval_grid():
    return tuple(np.round(np.linspace(-4.0, 4.0, 81), 10))


@dataclass
class SimulationConfig:
    """Resolved study configuration; the JSON config file mirrors the fields."""

    family: str = "logistic"
    family_params: dict = field(default_factory=dict)
    n_grid: tuple = (25, 50, 100, 200, 400)
    replications: int = 20000
    base_seed: int = 20260810
    orders: tuple = ORDERS
    eval_grid: tuple = field(default_factory=_default_eval_grid)
    epsilon_exponent: float = 0.5
    solver_tol: float = 1e-11
    moment_tol: float = 1e-10
    require_valid_conditions: bool = True

    def __post_init__(self):
        self.n_grid = tuple(int(v) for v in self.n_grid)
        self.orders = tuple(sorted(int(k) for k in self.orders))
        self.eval_grid = tuple(float(v) for v in self.eval_grid)
        if self.replications < 100:
            raise ValueError("replications must be at least 100")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        if not set(self.orders) <= set(ORDERS):
            raise ValueError(f"orders must be a subset of {ORDERS}")
        if not self.orders:
            raise ValueError("orders must be nonempty")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        d["orders"] = list(self.orders)
        d["eval_grid"] = list(self.eval_grid)
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "SimulationConfig":
        known = {f.name for f in SimulationConfig.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return SimulationConfig(**dict(d))

    def epsilon_threshold(self, n: int) -> float:
        """Tail threshold eps_n / n^2 with eps_n = (log n)^(2+e) / sqrt(n)."""
        eps_n = math.log(n) ** (2.0 + self.epsilon_exponent) / math.sqrt(n)
        return eps_n / n**2


@dataclass(frozen=True)
class ReplicationResult:
    """One replicate of the study."""

    theta_hat: float
    standardized: float
    xi: XiVector
    remainders: Mapping[int, float]


def replicate(model: DensityModel, moments: MomentSet, n: int, seed: int,
              orders=ORDERS, tol: float = 1e-11) -> ReplicationResult:
    """Run a single replicate: the block pipeline on one row seeded ``seed``."""
    row = _simulate_block(model, n, 0, 1, seed, moments.a, moments.fisher, orders, tol)
    if row["failed"][0]:
        raise StudyAborted("replicate solver failed")
    rem = {k: float(row["gamma"][0, i]) for i, k in enumerate(orders)}
    return ReplicationResult(float(row["theta"][0]), float(row["standardized"][0]),
                             XiVector(row["xi"][0], n), rem)


# ---------------------------------------------------------------------------
# block execution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cached_model(descriptor_json: str) -> DensityModel:
    return model_from_descriptor(json.loads(descriptor_json))


def _simulate_block(model: DensityModel, n, start, stop, base_seed, a, fisher, orders,
                    tol) -> dict:
    """Replicates [start, stop) at sample size n; replicate r is seeded base_seed XOR r.

    Returns per-replicate arrays; NaN rows mark solver failures.
    """
    count = stop - start
    samples = np.empty((count, n))
    for r in range(count):
        samples[r] = sample_iid(model, n, base_seed ^ (start + r))
    batch = solve_mle_batch(samples, model, tol=tol)
    theta = batch.theta_hat.copy()
    failed = batch.failed.copy()
    theta[failed] = np.nan
    xi = compute_xi_batch(samples, 0.0, model, a)
    truncs = stochastic_expansion_batch(xi, n, np.asarray(a), orders)
    root_n = math.sqrt(n)
    gamma = np.stack([root_n * theta - truncs[k] for k in orders], axis=1)
    return {
        "start": start,
        "theta": theta,
        "standardized": math.sqrt(n * fisher) * theta,
        "xi": xi,
        "gamma": gamma,
        "failed": failed,
    }


def _run_block(payload: tuple) -> dict:
    """Work item: :func:`_simulate_block` on plain data, so it can cross a process boundary."""
    descriptor_json, *args = payload
    return _simulate_block(_cached_model(descriptor_json), *args)


def _wilson_interval(successes: int, total: int, z: float = 1.959964) -> tuple:
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    denom = 1.0 + z * z / total
    centre = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _aggregate(blocks, n: int, grid: np.ndarray, moments: MomentSet,
               config: SimulationConfig) -> tuple:
    """Merge the blocks of one sample size, in replicate order, without file I/O.

    Returns the report entry of ``n`` and its curves: the ECDF of the
    standardized statistic on ``grid`` from both sides and every order's
    Edgeworth prediction there, keyed by their ``ecdf_<n>.csv`` column names.
    The remainder quantiles come from the full-precision |gamma|.
    """
    thr = config.epsilon_threshold(n)
    counts_lt = np.zeros(grid.size, dtype=np.int64)
    counts_le = np.zeros(grid.size, dtype=np.int64)
    n_fail = tail_hits = 0
    abs_gamma = []
    for block in blocks:
        ok = ~block["failed"]
        std_ok = np.sort(block["standardized"][ok])
        counts_lt += np.searchsorted(std_ok, grid, side="left")
        counts_le += np.searchsorted(std_ok, grid, side="right")
        n_fail += int(block["failed"].sum())
        g = np.abs(block["gamma"][ok])
        tail_hits += int(np.sum(g[:, -1] >= thr))
        abs_gamma.append(g)
    m_total = config.replications
    if n_fail > 0.01 * m_total:
        raise StudyAborted(
            f"{n_fail} of {m_total} replicates failed at n={n} (over the 1% cap)")
    n_ok = m_total - n_fail

    curves = {"ecdf_lower": counts_lt / n_ok, "ecdf_upper": counts_le / n_ok}
    dist = {}
    for k in config.orders:
        pred = curves[f"pred_order{k}"] = np.asarray(edgeworth_cdf(moments, n, k, grid))
        dev = np.maximum(np.abs(curves["ecdf_lower"] - pred),
                         np.abs(curves["ecdf_upper"] - pred))
        dist[str(k)] = {"sup": float(np.max(dev)), "l1": float(np.mean(dev))}
    abs_gamma = np.concatenate(abs_gamma)
    rem_stats = {str(k): {"median_abs": float(np.median(col)),
                          "q90_abs": float(np.quantile(col, 0.9)),
                          "max_abs": float(np.max(col))}
                 for k, col in zip(config.orders, abs_gamma.T)}
    ci = _wilson_interval(tail_hits, n_ok)
    entry = {
        "replications": m_total,
        "solver_failures": n_fail,
        "ecdf_distance": dist,
        "remainders": rem_stats,
        "tail": {"threshold": thr, "fraction": tail_hits / n_ok, "hits": tail_hits,
                 "ci95": list(ci)},
    }
    return entry, curves


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(format(obj, f".{precision}g")) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


class _StudyWriter:
    """Writes a study's files into ``out_dir`` from memory; reads none of them back."""

    def __init__(self, out_dir, orders, precision: int):
        self.out_dir = str(out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        self.orders = orders
        self.precision = precision
        self.files = []

    def _open(self, name: str):
        path = os.path.join(self.out_dir, name)
        self.files.append(path)
        return open(path, "w", encoding="utf-8", newline="\n")

    def remainders(self, n: int, blocks):
        """Pass ``blocks`` through, streaming each one's rows to remainders_<n>.csv."""
        header = (["replicate", "theta_hat", "standardized"] + [f"xi{j}" for j in range(1, 7)]
                  + [f"gamma_order{k}" for k in self.orders])
        fmt = ["%d"] + [f"%.{self.precision}g"] * (len(header) - 1)
        with self._open(f"remainders_{n}.csv") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                replicate_ids = block["start"] + np.arange(block["theta"].size)
                rows = np.column_stack([replicate_ids, block["theta"], block["standardized"],
                                        block["xi"], block["gamma"]])
                np.savetxt(fh, rows, fmt=fmt, delimiter=",")
                yield block

    def ecdf(self, n: int, grid: np.ndarray, curves: dict):
        with self._open(f"ecdf_{n}.csv") as fh:
            np.savetxt(fh, np.column_stack([grid, *curves.values()]),
                       fmt=f"%.{self.precision}g", delimiter=",",
                       header=",".join(["x", *curves]), comments="")

    def finish(self, grid: np.ndarray, curves_by_n: dict, report: dict) -> list:
        """Write curves.csv and report.json; returns every file written."""
        p = self.precision
        with self._open("curves.csv") as fh:
            fh.write("x,order,value\n")
            for n, curves in curves_by_n.items():
                columns = {f"ecdf_n{n}": curves["ecdf_upper"]}
                columns.update({f"order{k}_n{n}": curves[f"pred_order{k}"] for k in self.orders})
                for i, x in enumerate(grid):
                    fh.writelines(f"{x:.{p}g},{label},{col[i]:.{p}g}\n"
                                  for label, col in columns.items())
        with self._open("report.json") as fh:
            json.dump(_round_floats(report, p), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.files


# ---------------------------------------------------------------------------
# the study driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Aggregated study output; ``to_dict`` is the report.json payload."""

    config: dict
    fisher: float
    moment_values: dict
    dkw_noise_floor: dict
    per_n: dict
    slopes: dict
    tail_trend: dict
    output_files: tuple

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "fisher": self.fisher,
            "moments": self.moment_values,
            "dkw_noise_floor": self.dkw_noise_floor,
            "per_n": self.per_n,
            "slopes": self.slopes,
            "tail_trend": self.tail_trend,
        }


def run_study(config: SimulationConfig, out_dir=None, workers: int = 1,
              precision: int = 12) -> ComparisonReport:
    """Run the full simulation study described by ``config``.

    The blocks of each sample size are merged in memory, in replicate order,
    so the report is the same with or without ``out_dir`` and bit-identical
    for any ``workers`` value.  With ``out_dir`` set, per-replicate rows
    stream to ``remainders_<n>.csv`` as blocks finish, the ECDF against every
    order's prediction lands in ``ecdf_<n>.csv``, a long-format
    ``curves.csv`` serves plotting, and ``report.json`` holds the aggregate;
    every file is written from memory and none is read back.
    """
    model = model_from_descriptor({"family": config.family, "params": config.family_params})
    if config.require_valid_conditions:
        cond = validate_conditions(model)
        failed = [k for k, v in cond.verdicts.items() if v == "fail"]
        if failed:
            raise StudyAborted(
                f"family {model.name!r} fails regularity condition(s) {failed}; "
                "set require_valid_conditions=False to override")
    moments = compute_moment_set(model, tol=config.moment_tol)
    grid = np.asarray(config.eval_grid, dtype=float)
    m_total = config.replications
    desc_json = json.dumps(model.descriptor(), sort_keys=True)
    writer = None if out_dir is None else _StudyWriter(out_dir, config.orders, precision)

    per_n, curves = {}, {}
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for n in config.n_grid:
            payloads = [(desc_json, n, start, min(start + BLOCK_SIZE, m_total),
                         config.base_seed, moments.a, moments.fisher, config.orders,
                         config.solver_tol)
                        for start in range(0, m_total, BLOCK_SIZE)]
            blocks = pool.map(_run_block, payloads) if pool else map(_run_block, payloads)
            if writer is not None:
                blocks = writer.remainders(n, blocks)
            per_n[str(n)], curves[n] = _aggregate(blocks, n, grid, moments, config)
            if writer is not None:
                writer.ecdf(n, grid, curves[n])

    slopes = {}
    logn = np.log(np.asarray(config.n_grid, dtype=float))
    for k in config.orders:
        med = np.array([per_n[str(n)]["remainders"][str(k)]["median_abs"]
                        for n in config.n_grid])
        if len(config.n_grid) >= 2 and np.all(med > 0):
            slope = float(np.polyfit(logn, np.log(med), 1)[0])
        else:
            slope = math.nan
        # first omitted bracket of the order-k truncation carries n^-(k/2)
        slopes[str(k)] = {"slope": slope, "expected": -k / 2.0}

    ci95 = [(n, per_n[str(n)]["tail"]["ci95"]) for n in config.n_grid]
    pairs = [{"from_n": n1, "to_n": n2, "ok": bool(c2[0] <= c1[1])}
             for (n1, c1), (n2, c2) in zip(ci95, ci95[1:])]
    report = ComparisonReport(
        config=config.to_dict(),
        fisher=moments.fisher,
        moment_values=moments.to_dict(),
        dkw_noise_floor={"value": _DKW_95 / math.sqrt(m_total),
                         "note": "95% DKW bound on ECDF sup-norm fluctuation, ~1.36/sqrt(M)"},
        per_n=per_n,
        slopes=slopes,
        tail_trend={"nonincreasing_within_ci": all(p["ok"] for p in pairs), "pairs": pairs},
        output_files=(),
    )
    if writer is not None:
        files = writer.finish(grid, curves, report.to_dict())
        report = replace(report, output_files=tuple(files))
    return report
