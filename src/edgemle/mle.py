"""Maximum likelihood estimation of location.

The estimator minimizes the empirical contrast
L_n(theta) = n^-1 sum_i rho(X_i - theta) with rho = -log f.  One pipeline
solves every family: it checks that every sample point is finite and inside
the support, a basin search on median +/- 5 robust scales (kept inside the
feasible shifts) gives Newton candidates (a row, start and bracket), and
one safeguarded Newton run refines them all.  The family picks only the search
(:attr:`DensityModel.log_concave`):

* ``_score_bracket``: a log-concave family has a convex contrast, hence one
  basin per sample.  The search widens any end of the interval at which the
  score does not bracket the root, and starts at the median;
* ``_grid_basins``: every other family gets a 41-point grid scan of the
  contrast, widened while its minimum sits on the grid edge, and starts at
  the best grid point.  The scan is evaluated in budgeted calls: one
  ``rho`` call covers at most ``BLOCK_ELEMENTS`` points (at least one grid
  point), so a single row of up to 799 points scans the whole grid in one
  call.  A family that states a curvature bound rho'' <= ``rho2_max``
  (Student-t) scans a larger batch, such as a Monte Carlo block, on two
  levels: every 4th grid point first (11 points, 10 cells), then the 3
  points inside a cell only where the cell's concave-gap minorant (its
  chord minus (M/2)(theta - a)(b - theta)) comes within a rounding margin
  of the lowest coarse value.  A t7 row takes 17 points instead of 41.
  Every point left out lies strictly above an evaluated one, so the best
  grid point, and with it the start and bracket, are those of the full
  scan.

Each search lists every row's own Newton candidate; a row whose final scan
shows several basins is multimodal and adds one candidate per other basin
to the same Newton run.  Under a curvature bound a basin counts only
outside the ruled-out cells, whichever way the row was scanned, so a row
is multimodal when another basin survived the bound.  A converged candidate
with strictly lower contrast replaces the row's own.  A row fails when
Newton does not converge on its own candidate or its search could not
bracket the root.

The median and quartiles come from one sort per row, in the float steps of
``np.median`` and ``np.percentile``, so the median and the scale are
bit-identical to theirs.

Newton steps are safeguarded by bisection inside the bracket.  The score
and the curvature at a theta come from one pass of the model's derivative
chain (``rho_chain(., 2)``); the curvature is pulled only for rows that
take another step.  Convergence is declared on the score,
|L_n'(theta)| <= tol, because everything downstream is score-driven.  A
row whose step leaves theta where it was has reached a fixed point of the
iteration and stops there, unconverged.

A vectorized batch path solves many replicates at once; the scalar
:func:`solve_mle` is the batch path with a single row, so both always agree.
"""
from __future__ import annotations

import json
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# modules, not names: perfbench/spans.py wraps their functions where they are defined
from . import expansion, moments as _moments
from .density import DensityModel, _json_data, _require_usable, make_model
from .errors import DomainError, NoConvergence

GRID_POINTS = 41
GRID_SPAN = 5.0
#: the grid points' places between a row's search ends, 0 to 1
_GRID_FRACTIONS = np.linspace(0.0, 1.0, GRID_POINTS)
_GRID_FRACTIONS.flags.writeable = False
#: element budget of one vectorized step, small enough that its temporaries
#: stay in cache: a Monte Carlo work item holds replicates x sample size
#: within it, and one grid-scan call evaluates rows x sample size x grid
#: points within it
BLOCK_ELEMENTS = 2**15
#: stride of the scan's coarse points; the points between two of them form a cell
_COARSE = 4
#: rounding margin of the cell rule, relative to the sizes of the terms it compares
_CELL_SLACK = 1e-9
_WIDEN_STEPS = 8  # times a search interval may grow by its own width
_IQR_TO_SIGMA = 1.349  # normal-consistent scale from the interquartile range


@dataclass(frozen=True)
class MleResult:
    """One solved replicate: the estimate plus solver diagnostics."""

    theta_hat: float
    gradient_at_solution: float
    iterations: int
    bracket: tuple
    multimodal_flag: bool
    contrast_value: float


@dataclass(frozen=True)
class BatchMleResult:
    """Vectorized solver output; arrays are aligned with the input rows."""

    theta_hat: np.ndarray
    gradient_at_solution: np.ndarray
    iterations: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray
    multimodal_flag: np.ndarray
    failed: np.ndarray


def contrast(sample, model: DensityModel, theta: float) -> float:
    """Empirical contrast: mean of rho(X_i - theta).  The one-row :func:`_contrast_rows`."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    # a non-finite sample point or shift leaves a non-finite shifted point
    _require_usable(model, x - float(theta))
    return float(_contrast_rows(x[None, :], model, np.array([float(theta)]))[0])


def _mean(values: np.ndarray, axis: int) -> np.ndarray:
    # np.mean's own float64 steps (the same pairwise sum, then one division)
    # without its Python-level wrapper
    return np.add.reduce(values, axis=axis) / values.shape[axis]


def _contrast_rows(samples: np.ndarray, model: DensityModel, thetas: np.ndarray) -> np.ndarray:
    return _mean(model.rho(samples - thetas[:, None]), 1)


def _score_rows(samples, model, thetas):
    # L' (theta) = -mean rho^(1)(X - theta)
    (r1,) = model.rho_chain(samples - thetas[:, None], 1)
    return -_mean(r1, 1)


def _score_and_chain(samples, model, thetas):
    # L'(theta), and the chain that goes on to rho'' at the same points
    chain = model.rho_chain(samples - thetas[:, None], 2)
    return -_mean(next(chain), 1), chain


def _sorted_quantile(srt: np.ndarray, q: float) -> np.ndarray:
    """Per-row q-quantile of row-sorted data, in the float steps of numpy's "linear" method."""
    n = srt.shape[1]
    if n == 1:
        return srt[:, 0]
    v = n * q + (1 - q) - 1  # numpy's virtual index, exact for quartiles
    i = int(v)
    g = v - i
    a, b = srt[:, i], srt[:, i + 1]
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1 - g)


def _median_and_scale(samples: np.ndarray) -> tuple:
    """Row medians and robust scales (IQR, else std, else 1) from one sort per row.

    The median is bit-identical to ``np.median`` (the mean of the middle one
    or two values) and the scale to the one from ``np.percentile(..., [75,
    25])``.  A sort may order -0.0 and 0.0 unlike numpy's partition; that
    moves only the sign of a zero quartile, which cancels in the IQR.
    """
    srt = np.sort(samples, axis=1)
    n = srt.shape[1]
    med = _mean(srt[:, (n - 1) // 2:n // 2 + 1], 1)
    scale = (_sorted_quantile(srt, 0.75) - _sorted_quantile(srt, 0.25)) / _IQR_TO_SIGMA
    flat = ~(scale > 0)  # the std only where the IQR gives no scale
    if np.any(flat):
        scale[flat] = np.std(samples[flat], axis=1)
    return med, np.where(scale > 0, scale, 1.0)


def _cells_ruled_out(thetas, values, m2):
    """Per row and coarse cell, whether the curvature bound keeps the scan's minimum out of it.

    The coarse cells join grid points 0, ``_COARSE``, 2 ``_COARSE``, ....
    With rho'' <= ``m2`` the contrast on a cell [a, b] of width h is at
    least La + (Lb - La) t - (m2/2) h^2 t (1 - t) at a + t h, the chord
    minus a concave gap (Shubert 1972).  A cell is ruled out when that
    minorant's minimum exceeds the row's lowest coarse value by more than a
    rounding margin: every grid point inside it then lies strictly above an
    evaluated point.  Only coarse values are read.
    """
    coarse, ends = values[:, ::_COARSE], thetas[:, ::_COARSE]
    la, lb = coarse[:, :-1], coarse[:, 1:]
    # a degenerate width (gap 0 or inf) can give a nan minimum, which rules nothing out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = 0.5 * m2 * np.square(ends[:, 1:] - ends[:, :-1])
        slope = lb - la
        t = np.clip(0.5 - slope / (2.0 * gap), 0.0, 1.0)
        low = la + t * (slope - gap + gap * t)
        margin = _CELL_SLACK * (np.abs(la) + np.abs(lb) + gap)
        return low - np.min(coarse, axis=1, keepdims=True) > margin


def _grid_scan(samples, model, lo, hi):
    """Contrast at ``GRID_POINTS`` points per row, inf where the curvature bound rules a point out.

    Points are evaluated in budgeted calls: one ``model.rho`` call covers at
    most ``BLOCK_ELEMENTS`` points (at least one grid point).  When the
    whole grid fits one call, or the family states no ``rho2_max``, every
    point is evaluated, grid points in chunks.  Otherwise the coarse points
    (every ``_COARSE``-th) come first, and the points inside a coarse cell
    only where :func:`_cells_ruled_out` keeps the cell, as (row, point)
    pairs.  Row means are taken along the contiguous sample axis, exactly as
    for one point at a time.
    """
    thetas = lo[:, None] + (hi - lo)[:, None] * _GRID_FRACTIONS[None, :]
    step = max(1, BLOCK_ELEMENTS // max(samples.size, 1))
    full = model.rho2_max is None or step >= GRID_POINTS
    values = np.empty(thetas.shape) if full else np.full(thetas.shape, np.inf)
    stride = 1 if full else _COARSE
    for g in range(0, GRID_POINTS, stride * step):
        c = slice(g, g + stride * step, stride)
        values[:, c] = _mean(model.rho(samples[:, None, :] - thetas[:, c, None]), 2)
    if full:
        return thetas, values
    rows, cells = np.nonzero(~_cells_ruled_out(thetas, values, model.rho2_max))
    rows = np.repeat(rows, _COARSE - 1)
    cols = (_COARSE * np.repeat(cells, _COARSE - 1)
            + np.tile(np.arange(1, _COARSE), cells.size))
    pairs = max(1, BLOCK_ELEMENTS // samples.shape[1])
    for i in range(0, rows.size, pairs):
        r, c = rows[i:i + pairs], cols[i:i + pairs]
        values[r, c] = _mean(model.rho(samples[r] - thetas[r, c][:, None]), 1)
    return thetas, values


def _newton_refine(samples, model, theta, lo, hi, tol, max_iter):
    """Safeguarded Newton on the score, vectorized over rows.

    A step that leaves a row's theta bit for bit where it was repeats
    itself forever (the score, curvature and bracket are the same again),
    so that row stops there unconverged instead of running to ``max_iter``.
    """
    rows = theta.shape[0]
    iterations = np.zeros(rows, dtype=np.int64)
    grad, chain = _score_and_chain(samples, model, theta)
    evaluated = np.arange(rows)
    running = np.abs(grad) > tol
    it = 0
    while np.any(running) and it < max_iter:
        it += 1
        idx = np.flatnonzero(running)
        g = grad[idx]
        # the curvature comes from the chain of the last score evaluation
        # (rows ``evaluated``, which include idx), and only when some row
        # takes another step; the spent chain is dropped before the next one
        h = _mean(next(chain), 1)[running[evaluated]]
        del chain
        t = theta[idx]
        # the score increases through a minimum: negative means the root is right
        lo[idx] = np.where(g < 0, t, lo[idx])
        hi[idx] = np.where(g > 0, t, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = t - g / h
        ok = (h > 0) & np.isfinite(cand) & (cand > lo[idx]) & (cand < hi[idx])
        step = np.where(ok, cand, 0.5 * (lo[idx] + hi[idx]))
        theta[idx] = step
        g, chain = _score_and_chain(samples[idx], model, step)
        grad[idx] = g
        evaluated = idx
        iterations[idx] += 1
        running[idx] = (np.abs(g) > tol) & (step != t)
    return theta, grad, iterations, lo, hi, np.abs(grad) > tol


def _widen(lo, hi, idx, left, right, t_lo, t_hi):
    """Extend rows ``idx`` by their width on the flagged sides, inside the feasible shifts."""
    width = hi[idx] - lo[idx]
    lo[idx] = np.maximum(np.where(left, lo[idx] - width, lo[idx]), t_lo[idx])
    hi[idx] = np.minimum(np.where(right, hi[idx] + width, hi[idx]), t_hi[idx])


# The two basin searches return (rows, start, lo, hi, unresolved): Newton
# candidates (a sample row, a start and a bracket each) with every row's own
# candidate first and in row order, and per row whether its search gave up.

def _score_bracket(s, model, med, lo, hi, t_lo, t_hi):
    """Widen each interval until the score changes sign; start at the clipped median."""
    g_lo = _score_rows(s, model, lo)
    g_hi = _score_rows(s, model, hi)
    # the score increases through the minimum, so L'(lo) <= 0 <= L'(hi) brackets it
    for _ in range(_WIDEN_STEPS):
        edge = np.flatnonzero((g_lo > 0) | (g_hi < 0))
        if edge.size == 0:
            break
        _widen(lo, hi, edge, g_lo[edge] > 0, g_hi[edge] < 0, t_lo, t_hi)
        g_lo[edge] = _score_rows(s[edge], model, lo[edge])
        g_hi[edge] = _score_rows(s[edge], model, hi[edge])
    # with a finite end of the support the median itself can be an infeasible shift
    return (np.arange(s.shape[0]), np.clip(med, lo, hi), lo, hi,
            (g_lo > 0) | (g_hi < 0))


def _grid_basins(s, model, med, lo, hi, t_lo, t_hi):
    """Scan the contrast, widening rows with an edge minimum; start at the best grid point.

    A row with several basins (interior local minima) adds a candidate for
    each other basin, bracketed by its neighbouring grid points.  Under a
    stated ``rho2_max`` a basin counts only where its point and both
    neighbours lie outside every ruled-out cell, on either scan schedule:
    the pruned scan leaves those points unevaluated, and a row scanned whole
    (in one call) runs the cell rule here, only when it shows several
    basins, since the rule can only remove one.
    """
    thetas, values = _grid_scan(s, model, lo, hi)
    j = np.argmin(values, axis=1)
    for _ in range(_WIDEN_STEPS):
        edge = np.flatnonzero((j == 0) | (j == GRID_POINTS - 1))
        if edge.size == 0:
            break
        _widen(lo, hi, edge, j[edge] == 0, j[edge] == GRID_POINTS - 1, t_lo, t_hi)
        thetas[edge], values[edge] = _grid_scan(s[edge], model, lo[edge], hi[edge])
        j[edge] = np.argmin(values[edge], axis=1)
    mid = values[:, 1:-1]
    basins = (values[:, :-2] > mid) & (values[:, 2:] >= mid)  # column k is grid point k + 1
    several = np.sum(basins, axis=1) > 1
    if model.rho2_max is not None and np.any(several):
        # a basin needs evaluated neighbours: the pruned scan leaves ruled-out points at inf
        finite = np.isfinite(values)
        basins &= finite[:, :-2] & finite[:, 2:]
        # a row scanned whole rules its cells out here
        r = np.flatnonzero(several & np.all(finite, axis=1))
        if r.size:
            out = np.zeros((r.size, GRID_POINTS), dtype=bool)  # inside a ruled-out cell
            out[:, np.arange(GRID_POINTS) % _COARSE != 0] = np.repeat(
                _cells_ruled_out(thetas[r], values[r], model.rho2_max), _COARSE - 1, axis=1)
            basins[r] &= ~(out[:, :-2] | out[:, 1:-1] | out[:, 2:])
        several = np.sum(basins, axis=1) > 1
    # an edge argmin is not a basin, so then every basin is another one
    other = basins & several[:, None] & (np.arange(1, GRID_POINTS - 1) != j[:, None])
    extra_rows, extra_cols = np.nonzero(other)
    rows = np.concatenate([np.arange(s.shape[0]), extra_rows])
    b = np.concatenate([j, extra_cols + 1])
    return (rows, thetas[rows, b], thetas[rows, np.maximum(b - 1, 0)],
            thetas[rows, np.minimum(b + 1, GRID_POINTS - 1)],
            (j == 0) | (j == GRID_POINTS - 1))


def solve_mle_batch(samples, model: DensityModel, tol: float = 1e-10,
                    max_iter: int = 200) -> BatchMleResult:
    """Solve one MLE per row of ``samples`` (an (M, n) array).

    Log-concave models find each row's bracket from the score's sign and
    never evaluate the contrast; other models scan it over ``GRID_POINTS``
    points.  One safeguarded Newton run then refines every candidate, and a
    row keeps its own unless a converged other basin has strictly lower
    contrast.
    """
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    if s.ndim != 2 or s.shape[1] == 0:
        raise ValueError("samples must be a nonempty (M, n) array")
    _require_usable(model, s)

    rows, start, lo, hi, unresolved = _search(s, model)
    m = s.shape[0]
    x = s if rows.size == m else s[rows]
    theta, grad, iters, lo, hi, active = _newton_refine(x, model, start, lo, hi, tol, max_iter)
    multimodal = np.bincount(rows, minlength=m) > 1
    if rows.size > m:
        # a stable sort by (row, contrast) puts first each row's lowest
        # candidate, its own or else the earliest basin among ties
        val = np.full(rows.size, np.inf)
        rival = np.flatnonzero(multimodal[rows])
        val[rival] = _contrast_rows(x[rival], model, theta[rival])
        val[m:][active[m:]] = np.inf  # an unconverged other basin never wins
        order = np.lexsort((val, rows))
        pick = order[np.searchsorted(rows[order], np.arange(m))]
        theta, grad, iters = theta[pick], grad[pick], iters[pick]
        lo = np.where(theta < lo[:m], theta, lo[:m])
        hi = np.where(theta > hi[:m], theta, hi[:m])
    return BatchMleResult(theta, grad, iters, lo, hi, multimodal, active[:m] | unresolved)


def _search(s, model):
    """(rows, start, lo, hi, unresolved) of the basin search for the rows of ``s``, as above."""
    med, scale = _median_and_scale(s)
    # every search interval stays inside the shifts that leave the sample feasible
    t_lo, t_hi = model.feasible_shift_interval(s, margin=1e-9 * np.maximum(scale, 1.0))
    lo = np.maximum(med - GRID_SPAN * scale, t_lo)
    hi = np.minimum(med + GRID_SPAN * scale, t_hi)
    if not np.all(lo < hi):
        raise DomainError("no feasible shift interval for some rows")
    search = _score_bracket if model.log_concave else _grid_basins
    return search(s, model, med, lo, hi, t_lo, t_hi)


def _failure(x, model, tol, max_iter, batch) -> str:
    """Why the one-row solve of ``x`` failed, given its ``batch`` result.

    The search and the Newton run on the row's own candidate are run again
    alone, with the same bits (Newton treats each candidate on its own), to
    tell an unresolved search from a Newton run that ended on an end of the
    search's bracket (a basin without a root), ran out of iterations, or
    stopped at a fixed point.
    """
    s = x[None, :]
    _, start, lo, hi, unresolved = _search(s, model)
    ends = (lo[0], hi[0])
    theta, grad, iters, *_ = _newton_refine(s, model, start[:1], lo[:1], hi[:1], tol, max_iter)
    theta, iters = theta[0], int(iters[0])
    if unresolved[0]:
        where = ("the score kept one sign at an end of" if model.log_concave
                 else "the contrast scan's minimum stayed on the edge of")
        cause = (f"its basin search was unresolved: {where} the search interval "
                 f"after {_WIDEN_STEPS} widenings")
    elif theta in ends:
        cause = "its own basin held no root: Newton ended on an end of the search's bracket"
    elif iters >= max_iter:
        cause = f"Newton ran out of its {max_iter} iterations"
    else:
        cause = "Newton stopped at a fixed point (a step left theta unchanged)"
    text = (f"MLE solver failed: {cause}; its own candidate ran {iters} iterations to "
            f"theta = {theta:.6g}, |score| = {abs(grad[0]):.3g} (tol {tol})")
    if batch.theta_hat[0] != theta:
        text += (f"; another basin converged at theta = {batch.theta_hat[0]:.6g} in "
                 f"{batch.iterations[0]} iterations, |score| = "
                 f"{abs(batch.gradient_at_solution[0]):.3g}")
    return text


def solve_mle(sample, model: DensityModel, tol: float = 1e-10, max_iter: int = 200) -> MleResult:
    """Solve the location MLE for one sample.

    Raises NoConvergence, naming the cause, when the basin search is
    unresolved or Newton on the sample's own candidate ends above ``tol``:
    on a bracket end, after ``max_iter`` Newton/bisection steps, or at a
    fixed point.  The returned gradient always satisfies |L'| <= tol on
    success.
    """
    x = np.asarray(sample, dtype=float).ravel()
    batch = solve_mle_batch(x[None, :], model, tol=tol, max_iter=max_iter)
    if batch.failed[0]:
        raise NoConvergence(_failure(x, model, tol, max_iter, batch))
    return MleResult(
        theta_hat=float(batch.theta_hat[0]),
        gradient_at_solution=float(batch.gradient_at_solution[0]),
        iterations=int(batch.iterations[0]),
        bracket=(float(batch.bracket_lo[0]), float(batch.bracket_hi[0])),
        multimodal_flag=bool(batch.multimodal_flag[0]),
        contrast_value=float(_contrast_rows(x[None, :], model, batch.theta_hat)[0]),
    )


# ---------------------------------------------------------------------------
# estimator front end
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cached_model(model_key: str) -> DensityModel:
    """The model of a :func:`_model_key`, built once per process.

    A study, its blocks (in any worker process) and the ``LocationMLE`` fits
    of one family and params all read it under the same key.
    """
    d = json.loads(model_key)
    return make_model(d["family"], **d["params"])


def _real_floats(value):
    # a real number as a float, in lists too: nu=7 and nu=7.0 are one model
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        return float(value)
    return [_real_floats(v) for v in value] if isinstance(value, (list, tuple)) else value


def _model_key(family: str, params: dict) -> str:
    """The :func:`_cached_model` key of a family and its params, every real number a float.

    The key is sorted JSON, so nu=7 and nu=7.0 key one model, and a built-in
    family's key is its :meth:`DensityModel.descriptor` JSON.  Params that
    are not JSON already (numpy values, paths) go through the
    :func:`~edgemle.density._json_data` hook alone, so plain params pay
    nothing for it.
    """
    params = {k: _real_floats(v) for k, v in params.items()}
    return json.dumps({"family": family, "params": params}, sort_keys=True, default=_json_data)


def _validate_sample(X) -> np.ndarray:
    x = np.asarray(X, dtype=float)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d sample or an (n, 1) column, got shape {x.shape}")
    return x


class LocationMLE:
    """Location maximum-likelihood estimator with a scikit-learn style API.

    Constructor arguments are hyperparameters, ``fit`` learns trailing-
    underscore attributes, and ``get_params``/``set_params`` follow the
    sklearn conventions, so the estimator drops into sklearn tooling without
    this package depending on it.

    >>> est = LocationMLE(family="logistic").fit(x)
    >>> est.theta_
    """

    _param_names = ("family", "family_params", "tol", "max_iter")

    def __init__(self, family: str = "normal", family_params: dict | None = None,
                 tol: float = 1e-10, max_iter: int = 200):
        self.family = family
        self.family_params = family_params
        self.tol = tol
        self.max_iter = max_iter

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "LocationMLE":
        for key, value in params.items():
            if key not in self._param_names:
                raise ValueError(f"unknown parameter {key!r} for LocationMLE")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "LocationMLE":
        x = _validate_sample(X)
        params = dict(self.family_params or {})
        # a table's columns build faster than their floats encode to a cache key
        self.model_ = (make_model(self.family, **params)
                       if any(isinstance(v, Mapping) for v in params.values())
                       else _cached_model(_model_key(self.family, params)))
        res = solve_mle(x, self.model_, tol=self.tol, max_iter=self.max_iter)
        self.result_ = res
        self.theta_ = res.theta_hat
        self.n_samples_ = x.size
        return self

    def _check_fitted(self):
        if not hasattr(self, "theta_"):
            raise RuntimeError("this LocationMLE instance is not fitted yet")

    def score(self, X, y=None) -> float:
        """Mean log-likelihood of ``X`` at the fitted location."""
        self._check_fitted()
        return -contrast(_validate_sample(X), self.model_, self.theta_)

    def confidence_interval(self, level: float = 0.95, order: int = 5,
                            moments=None) -> tuple:
        """Quantile-expansion confidence interval for the location.

        Inverts the expansion of the distribution of
        sqrt(n I)(thetahat - theta): higher orders tighten the normal-theory
        interval using the family's moment functionals (computed by
        quadrature unless ``moments`` is supplied).
        """
        self._check_fitted()
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        ms = moments if moments is not None else _moments.compute_moment_set(self.model_)
        s = np.sqrt(self.n_samples_ * ms.fisher)
        alpha = (1.0 - level) / 2.0
        q_lo, q_hi = expansion.cornish_fisher_quantile(ms, self.n_samples_, order,
                                                       [alpha, 1.0 - alpha])
        return (self.theta_ - q_hi / s, self.theta_ - q_lo / s)
