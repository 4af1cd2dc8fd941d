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

Reproducibility contract: each sample size n has its own Philox stream,
keyed base_seed XOR (n << 64) so that n sits in the key's high word, and
replicate r reads that stream from counter r * ceil(n/4) on (see
:func:`sample_iid`).  Row r at one n is therefore unrelated to row r at
another, and no row depends on the block that draws it.  A work item at
sample size n holds a number of replicates that follows from n and a fixed
element budget alone (so one block's arrays stay cache-sized), and
aggregation is a deterministic merge in replicate order, so the report
bytes never depend on the worker count.

theta0 = 0 throughout; location equivariance of the MLE makes any other
choice redundant.
"""
from __future__ import annotations

import datetime
import functools
import hashlib
import json
import logging
import math
import numbers
import operator
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import __version__
# no study calls model_from_descriptor, but perfbench/spans.py patches it here
# (Tracer.install raises AttributeError without it)
from .density import DensityModel, _json_data, _json_text, _whole, model_from_descriptor
from .errors import StudyAborted
from .expansion import ORDERS, compute_xi_batch, edgeworth_cdf, stochastic_expansion_batch
from .mle import BLOCK_ELEMENTS, _cached_model, _model_key, solve_mle_batch
from .moments import MomentSet, compute_moment_set, validate_conditions

logger = logging.getLogger(__name__)

_DKW_95 = 1.3581  # sqrt(log(2/0.05)/2): ECDF sup-norm noise floor at 95%


_U128 = 2**128
_BELOW_ONE = 1.0 - 2.0**-53  # the largest float below 1


def sample_iid(model: DensityModel, n: int, seed, replicates=None) -> np.ndarray:
    """Draw ``n`` i.i.d. points by inverting the model CDF.

    Uniforms come from numpy's Philox4x64-10 counter-based generator keyed
    on ``seed``, an integer in [0, 2**128); they are the same on any
    platform and under any threading, and they live strictly inside (0, 1).
    The points are the model's quantile function at those uniforms, whose
    last bits depend on the numpy/scipy build and on the SIMD paths the CPU
    selects (the normal's AS241 follows numpy's ``log`` in its tails, the
    logistic's numpy's ``log`` and ``arctanh``, Student-t's
    numpy's ``tan``, ``exp``, ``log`` and ``power`` for 1 <= nu <= 12 and
    scipy's ``stdtrit`` otherwise); on one installation the same call gives
    bit-identical output for any worker count.  The uniforms are numpy's
    float draws ``np.random.Generator(np.random.Philox(key=seed)).random(n)``,
    k 2**-53 for the 53-bit k = next_uint64 >> 11, offset by half a unit
    (see :func:`_centred`).

    ``replicates``, a step-1 ``range`` from a nonnegative start, asks for
    one row per replicate: a (len(replicates), n) array whose row r reads
    the stream of ``seed`` from counter r * ceil(n/4) on, four words per
    counter, with the words past n dropped (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC'11).  The rows come from one native
    call, and row r is the same whichever range holds it.  Without
    ``replicates`` the result is the 1-D row 0.
    """
    n = _whole(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    seed = _whole(seed, "seed")
    if not 0 <= seed < _U128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    rows = range(1) if replicates is None else replicates
    if not (isinstance(rows, range) and rows.step == 1 and rows.start >= 0):
        raise ValueError("replicates must be a range of step 1 from a nonnegative start, "
                         f"got {replicates!r}")
    counters = -(-n // 4)
    stream = np.random.Generator(np.random.Philox(key=seed, counter=rows.start * counters))
    u = _centred(stream.random((len(rows), 4 * counters))[:, :n])
    x = np.asarray(model.ppf(u), dtype=float) if u.size else np.empty(u.shape)
    return x if replicates is not None else x[0]


def _centred(draws):
    """Uniforms (k + 1/2) 2**-53 from ``Generator.random``'s draws k 2**-53, k < 2**53.

    ``random`` draws k = next_uint64 >> 11, so the sum is the half-offset
    53-bit draw, exact below 1/2 and rounded half to even above.  The top
    draw's tie rounds to 1.0 and is clamped to 1 - 2**-53, which no other
    draw gives, so every uniform lies strictly inside (0, 1).  Returns a new
    C-contiguous array.
    """
    u = np.add(draws, 2.0**-54)
    return np.minimum(u, _BELOW_ONE, out=u)


def ecdf_distance(sample, prediction, grid) -> tuple:
    """(sup, L1) distance between an ECDF and a predicted CDF on a grid.

    The ECDF is evaluated from both sides at every grid point and the larger
    deviation counts, so a prediction running through a jump still pays for
    the half it misses.
    """
    s = np.sort(np.asarray(sample, dtype=float).ravel())
    if s.size == 0:
        raise ValueError("sample must be nonempty")
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or np.any(np.diff(g) < 0):
        raise ValueError("grid must be nonempty and sorted")
    # a nan sorts above every point, and a nan grid point passes the sorted check
    for name, values in (("sample", s), ("grid", g)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
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


def _integer(key: str, value) -> int:
    """``value`` as an int; a bool, float or string is a ValueError naming ``key``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _sequence(key: str, value) -> tuple:
    """``value`` as a tuple; all but a list, tuple or 1-d array is a ValueError naming ``key``."""
    if isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1):
        return tuple(value)
    raise ValueError(f"{key} must be a list, got {value!r}")


def _real(key: str, value, positive=False):
    """``value`` if a finite real (positive if asked), else a ValueError naming ``key``.

    An int or float is returned as it is and any other real (a numpy scalar,
    a Fraction) as a float, so that it encodes to JSON.
    """
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and (value > 0 or not positive)):
        return value if type(value) in (int, float) else float(value)
    raise ValueError(f"{key} must be a finite {'positive ' if positive else ''}real number, "
                     f"got {value!r}")


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
        self.replications = _integer("replications", self.replications)
        self.base_seed = _integer("base_seed", self.base_seed)
        if not 0 <= self.base_seed < _U128:
            raise ValueError(f"base_seed must lie in [0, 2**128), got {self.base_seed}")
        self.n_grid = tuple(_integer("n_grid", v) for v in _sequence("n_grid", self.n_grid))
        self.orders = tuple(sorted(_integer("orders", k) for k in _sequence("orders", self.orders)))
        self.eval_grid = tuple(float(_real("eval_grid", v))
                               for v in _sequence("eval_grid", self.eval_grid))
        self.epsilon_exponent = _real("epsilon_exponent", self.epsilon_exponent)
        self.solver_tol = _real("solver_tol", self.solver_tol, positive=True)
        self.moment_tol = _real("moment_tol", self.moment_tol, positive=True)
        if not isinstance(self.require_valid_conditions, bool):
            raise ValueError("require_valid_conditions must be true or false, "
                             f"got {self.require_valid_conditions!r}")
        if not isinstance(self.family_params, Mapping):
            raise ValueError(f"family_params must be a mapping, got {self.family_params!r}")
        try:  # JSON types now, so that report.json and the manifest cannot fail after the blocks
            params = json.dumps(dict(self.family_params), default=_json_data)
            self.family_params = json.loads(params)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"family_params must be JSON data ({exc})") from None
        if self.replications < 100:
            raise ValueError("replications must be at least 100")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        if self.n_grid[0] < 1:
            raise ValueError("n_grid must hold positive sample sizes")
        if len(set(self.orders)) < len(self.orders):
            raise ValueError(f"orders must not repeat, got {list(self.orders)}")
        if not set(self.orders) <= set(ORDERS):
            raise ValueError(f"orders must be a subset of {ORDERS}")
        if not self.orders:
            raise ValueError("orders must be nonempty")
        if not self.eval_grid:
            raise ValueError("eval_grid must be nonempty")

    def to_dict(self) -> dict:
        return _json_data(self)

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


# ---------------------------------------------------------------------------
# block execution
# ---------------------------------------------------------------------------

def _simulate_block(model: DensityModel, n, start, stop, base_seed, a, fisher, orders,
                    tol) -> dict:
    """Replicates [start, stop) at sample size n, from the stream keyed base_seed XOR (n << 64).

    Returns per-replicate arrays, the solver's iteration counts and
    multimodal flags among them; NaN rows mark solver failures.
    """
    samples = sample_iid(model, n, base_seed ^ (n << 64), range(start, stop))
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
        "iterations": batch.iterations,
        "multimodal": batch.multimodal_flag,
    }


def _run_block(payload: tuple) -> dict:
    """Work item: :func:`_simulate_block` on plain data, so it can cross a process boundary."""
    model_key, *args = payload
    _reserve_heap()
    return _simulate_block(_cached_model(model_key), *args)


@functools.cache
def _reserve_heap():
    """Free one unused mapping of 16 block arrays, once per process, before the first block.

    glibc's malloc maps a chunk above its mmap threshold afresh, and returns
    the heap top to the system whenever more than twice that threshold lies
    free there; the threshold rises only to the largest mapping freed so
    far.  A block's arrays (a few MB) outgrow twice its largest array, so
    without an earlier large free the top is trimmed after every block and
    the next block faults its pages in again: ~5000 minor faults per
    512-replicate normal study of n = 25, 100, 400, a fifth of its time.
    This free raises both thresholds above a block's working set; under
    another allocator it is one allocation and free.
    """
    np.empty(16 * BLOCK_ELEMENTS)


def _logged_blocks(n: int, blocks):
    """Pass ``blocks`` through, logging each one at DEBUG as it finishes."""
    for block in blocks:
        logger.debug("n=%d: replicates %d-%d done, %d solver failures", n, block["start"],
                     block["start"] + block["theta"].size - 1, int(block["failed"].sum()))
        yield block


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
    The remainder quantiles come from the full-precision |gamma|; the solver
    counters (multimodal rows, histogram of Newton iterations) cover every
    replicate, failed ones included.
    """
    thr = config.epsilon_threshold(n)
    counts_lt = np.zeros(grid.size, dtype=np.int64)
    counts_le = np.zeros(grid.size, dtype=np.int64)
    n_fail = tail_hits = multimodal_rows = 0
    iteration_counts = Counter()
    abs_gamma = []
    for block in blocks:
        ok = ~block["failed"]
        std_ok = np.sort(block["standardized"][ok])
        counts_lt += np.searchsorted(std_ok, grid, side="left")
        counts_le += np.searchsorted(std_ok, grid, side="right")
        n_fail += int(block["failed"].sum())
        multimodal_rows += int(block["multimodal"].sum())
        iteration_counts.update(block["iterations"].tolist())
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
        "solver": {"multimodal_rows": multimodal_rows,
                   "newton_iterations": {str(k): iteration_counts[k]
                                         for k in sorted(iteration_counts)}},
        "ecdf_distance": dist,
        "remainders": rem_stats,
        "tail": {"threshold": thr, "fraction": tail_hits / n_ok, "hits": tail_hits,
                 "ci95": list(ci)},
    }
    return entry, curves


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def kernel_set() -> dict:
    """numpy's version and the SIMD targets of its run-time kernel dispatch that this CPU runs.

    numpy chooses its kernels for log, exp and the like when it loads, and
    kernels of different targets can give different last bits, so a study's
    manifest records the set its outputs were computed on.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__,
            "simd": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]}


def write_manifest(out_dir: str, files, **fields) -> str:
    """Seal ``out_dir`` with manifest.json: tool, time, ``fields``, a sha256 per file."""
    manifest = {"tool": "edgemle", "version": __version__, **fields,
                "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "outputs": {os.path.basename(p): _sha256(p) for p in files}}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(manifest))
    return path


#: rows per formatted slice of a CSV, which bounds the string one write builds
_CSV_ROWS = 256


def _csv_rows(row: str, table: np.ndarray):
    """The rows of ``table`` through the %-template ``row``: one string, and one ``%``, per
    slice of at most ``_CSV_ROWS`` rows, so no string grows with the table."""
    for i in range(0, table.shape[0], _CSV_ROWS):
        part = table[i:i + _CSV_ROWS]
        yield (row * len(part)) % tuple(part.ravel().tolist())


class _StudyWriter:
    """Writes a study's files into ``out_dir`` from memory, then seals them.

    No file's contents feed back into the study; the manifest reads each
    written file once, to hash it.
    """

    def __init__(self, out_dir, config: SimulationConfig, workers: int, precision: int):
        self.out_dir = str(out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        self.orders = config.orders
        self.precision = precision
        self.files = []
        # what manifest.json records besides the files: all a replay needs
        self.replay = {"base_seed": config.base_seed, "config": config.to_dict(),
                       "execution": {"workers": int(workers), **kernel_set()},
                       "precision": int(precision)}

    def _open(self, name: str):
        path = os.path.join(self.out_dir, name)
        self.files.append(path)
        return open(path, "w", encoding="utf-8", newline="\n")

    def remainders(self, n: int, blocks):
        """Pass ``blocks`` through, streaming each one's rows to remainders_<n>.csv.

        A row is the replicate id as ``%d``, then every value as ``%.<p>g``,
        written through :func:`_csv_rows`.
        """
        header = (["replicate", "theta_hat", "standardized"] + [f"xi{j}" for j in range(1, 7)]
                  + [f"gamma_order{k}" for k in self.orders])
        row = ",".join(["%d"] + [f"%.{self.precision}g"] * (len(header) - 1)) + "\n"
        with self._open(f"remainders_{n}.csv") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                fh.writelines(_csv_rows(row, np.column_stack(
                    [block["start"] + np.arange(block["theta"].size), block["theta"],
                     block["standardized"], block["xi"], block["gamma"]])))
                yield block

    def ecdf(self, n: int, grid: np.ndarray, curves: dict):
        row = ",".join([f"%.{self.precision}g"] * (len(curves) + 1)) + "\n"
        with self._open(f"ecdf_{n}.csv") as fh:
            fh.write(",".join(["x", *curves]) + "\n")
            fh.writelines(_csv_rows(row, np.column_stack([grid, *curves.values()])))

    def finish(self, grid: np.ndarray, curves_by_n: dict, report: dict) -> list:
        """Write curves.csv, report.json and last the manifest; returns the files it seals."""
        p = self.precision
        with self._open("curves.csv") as fh:
            fh.write("x,order,value\n")
            for n, curves in curves_by_n.items():
                # one row per grid point: x, label, value for every column in turn
                columns = {f"ecdf_n{n}": curves["ecdf_upper"]}
                columns.update({f"order{k}_n{n}": curves[f"pred_order{k}"] for k in self.orders})
                row = "".join(f"%.{p}g,{label},%.{p}g\n" for label in columns)
                fh.writelines(_csv_rows(row, np.column_stack(
                    [c for col in columns.values() for c in (grid, col)])))
        with self._open("report.json") as fh:
            fh.write(_json_text(report, p))  # strict: an undefined slope is null, not NaN
        write_manifest(self.out_dir, self.files, **self.replay)
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
    every file is written from memory (CSV rows by :func:`_csv_rows`, JSON
    by ``_json_text``) at ``precision`` significant digits, and nothing the
    study reports is read back from a file.  ``manifest.json`` comes last:
    config, seed, workers, precision and a sha256 per file (read back once
    to hash it), all ``simulate --replay`` needs.
    A ``workers`` or ``precision`` below 1 is a ValueError before any work.

    The family is built once per process, in the model cache that the blocks
    and any ``LocationMLE`` fit of the same family and params read too.

    Progress goes to the ``edgemle.montecarlo`` logger: one DEBUG record per
    finished block (sample size, replicate range, solver failures) and one
    INFO record per sample size.  The package installs no handler, so the
    study is silent unless the caller configures logging.
    """
    for key, value in (("workers", workers), ("precision", precision)):
        if _integer(key, value) < 1:
            raise ValueError(f"{key} must be at least 1, got {value!r}")
    model_key = _model_key(config.family, config.family_params)
    model = _cached_model(model_key)
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
    writer = None if out_dir is None else _StudyWriter(out_dir, config, workers, precision)

    per_n, curves = {}, {}
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for n in config.n_grid:
            rows = max(1, BLOCK_ELEMENTS // n)
            payloads = [(model_key, n, start, min(start + rows, m_total),
                         config.base_seed, moments.a, moments.fisher, config.orders,
                         config.solver_tol)
                        for start in range(0, m_total, rows)]
            blocks = pool.map(_run_block, payloads) if pool else map(_run_block, payloads)
            blocks = _logged_blocks(n, blocks)
            if writer is not None:
                blocks = writer.remainders(n, blocks)
            per_n[str(n)], curves[n] = _aggregate(blocks, n, grid, moments, config)
            logger.info("n=%d: %d replicates, %d blocks, %d solver failures", n, m_total,
                        len(payloads), per_n[str(n)]["solver_failures"])
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
