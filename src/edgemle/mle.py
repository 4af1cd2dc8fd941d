"""Maximum likelihood estimation of location.

The estimator minimizes the empirical contrast
L_n(theta) = n^-1 sum_i rho(X_i - theta) with rho = -log f.  Both solver
paths start from the sample median and the interval median +/- 5 robust
scales, kept inside the shifts that leave the sample feasible:

* log-concave families (:attr:`DensityModel.log_concave`) have a convex
  contrast, hence one basin per sample.  The solver checks the sign of the
  score at both ends, widens any end that does not bracket the root, and
  runs Newton from the median inside the bracket; the multimodal flag is
  always false;
* every other family gets a 41-point grid scan of the contrast over the
  interval to locate (and count) likelihood basins, then Newton from the
  best grid point, and on multimodal rows every basin is refined and the
  lowest contrast kept.

Newton steps are safeguarded by bisection inside the bracket.  Convergence
is declared on the score, |L_n'(theta)| <= tol, because everything
downstream is score-driven.

A vectorized batch path solves many replicates at once; the scalar
:func:`solve_mle` is the batch path with a single row, so both always agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityModel, make_model
from .errors import DomainError, NoConvergence

GRID_POINTS = 41
GRID_SPAN = 5.0
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
    contrast_value: np.ndarray
    failed: np.ndarray


def _require_feasible(samples: np.ndarray, model: DensityModel):
    if not np.all(model.interior(samples)):
        raise DomainError("sample contains points outside the open support")


def contrast(sample, model: DensityModel, theta: float) -> float:
    """Empirical contrast: mean of rho(X_i - theta)."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    y = x - float(theta)
    if not np.all(model.interior(y)):
        raise DomainError(f"shift {theta} moves a sample point outside the support")
    return float(np.mean(model.rho(y)))


def _contrast_rows(samples: np.ndarray, model: DensityModel, thetas: np.ndarray) -> np.ndarray:
    return np.mean(model.rho(samples - thetas[:, None]), axis=1)


def _score_rows(samples, model, thetas):
    # L' (theta) = -mean rho^(1)(X - theta)
    return -np.mean(model.rho_derivs[0](samples - thetas[:, None]), axis=1)


def _curvature_rows(samples, model, thetas):
    return np.mean(model.rho_derivs[1](samples - thetas[:, None]), axis=1)


def _robust_scale(samples: np.ndarray) -> np.ndarray:
    q75, q25 = np.percentile(samples, [75, 25], axis=1)
    scale = (q75 - q25) / _IQR_TO_SIGMA
    std = np.std(samples, axis=1)
    scale = np.where(scale > 0, scale, std)
    return np.where(scale > 0, scale, 1.0)


def _grid_scan(samples, model, lo, hi):
    rows = samples.shape[0]
    frac = np.linspace(0.0, 1.0, GRID_POINTS)
    thetas = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    values = np.empty((rows, GRID_POINTS))
    for g in range(GRID_POINTS):
        values[:, g] = _contrast_rows(samples, model, thetas[:, g])
    return thetas, values


def _local_min_count(values: np.ndarray) -> np.ndarray:
    d = np.diff(values, axis=1)
    return np.sum((d[:, :-1] < 0) & (d[:, 1:] >= 0), axis=1)


def _newton_refine(samples, model, theta, lo, hi, tol, max_iter):
    """Safeguarded Newton on the score, vectorized over rows."""
    rows = theta.shape[0]
    iterations = np.zeros(rows, dtype=np.int64)
    grad = _score_rows(samples, model, theta)
    active = np.abs(grad) > tol
    it = 0
    while np.any(active) and it < max_iter:
        it += 1
        idx = np.flatnonzero(active)
        g = grad[idx]
        # the score increases through a minimum: negative means the root is right
        lo[idx] = np.where(g < 0, theta[idx], lo[idx])
        hi[idx] = np.where(g > 0, theta[idx], hi[idx])
        h = _curvature_rows(samples[idx], model, theta[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = theta[idx] - g / h
        ok = (h > 0) & np.isfinite(cand) & (cand > lo[idx]) & (cand < hi[idx])
        theta[idx] = np.where(ok, cand, 0.5 * (lo[idx] + hi[idx]))
        grad[idx] = _score_rows(samples[idx], model, theta[idx])
        iterations[idx] += 1
        active[idx] = np.abs(grad[idx]) > tol
    return theta, grad, iterations, lo, hi, active


def _widen(lo, hi, idx, left, right, t_lo, t_hi):
    """Extend rows ``idx`` by their width on the flagged sides, inside the feasible shifts."""
    width = hi[idx] - lo[idx]
    lo[idx] = np.maximum(np.where(left, lo[idx] - width, lo[idx]), t_lo[idx])
    hi[idx] = np.minimum(np.where(right, hi[idx] + width, hi[idx]), t_hi[idx])


def _solve_convex(s, model, med, lo, hi, t_lo, t_hi, tol, max_iter):
    """Bracketed Newton from the median, for a convex contrast (one basin per row)."""
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
    unbracketed = (g_lo > 0) | (g_hi < 0)
    # with a finite end of the support the median itself can be an infeasible shift
    theta, grad, iters, lo, hi, active = _newton_refine(
        s, model, np.clip(med, lo, hi), lo, hi, tol, max_iter)
    multimodal = np.zeros(s.shape[0], dtype=bool)
    return theta, grad, iters, lo, hi, multimodal, active | unbracketed


def _solve_scanned(s, model, lo, hi, t_lo, t_hi, tol, max_iter):
    """Grid scan for basins, Newton in the best one, and every basin refined on multimodal rows."""
    rows = s.shape[0]
    thetas, values = _grid_scan(s, model, lo, hi)
    multimodal = _local_min_count(values) > 1
    j = np.argmin(values, axis=1)

    # widen the scan for rows whose minimum sits on the grid edge
    for _ in range(_WIDEN_STEPS):
        edge = np.flatnonzero((j == 0) | (j == GRID_POINTS - 1))
        if edge.size == 0:
            break
        _widen(lo, hi, edge, j[edge] == 0, j[edge] == GRID_POINTS - 1, t_lo, t_hi)
        th_e, val_e = _grid_scan(s[edge], model, lo[edge], hi[edge])
        thetas[edge] = th_e
        values[edge] = val_e
        multimodal[edge] = _local_min_count(val_e) > 1
        j[edge] = np.argmin(val_e, axis=1)

    stuck_on_edge = (j == 0) | (j == GRID_POINTS - 1)

    jl = np.maximum(j - 1, 0)
    jr = np.minimum(j + 1, GRID_POINTS - 1)
    b_lo = thetas[np.arange(rows), jl]
    b_hi = thetas[np.arange(rows), jr]
    theta0 = thetas[np.arange(rows), j]

    theta, grad, iters, b_lo, b_hi, active = _newton_refine(
        s, model, theta0.copy(), b_lo.copy(), b_hi.copy(), tol, max_iter)

    # rows with several basins: refine each one and keep the lowest contrast
    for r in np.flatnonzero(multimodal):
        d = np.diff(values[r])
        basin_idx = np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0)) + 1
        best_theta, best_val = theta[r], float(np.mean(model.rho(s[r] - theta[r])))
        best_grad, best_it = grad[r], iters[r]
        for b in basin_idx:
            t0 = np.array([thetas[r, b]])
            bl = np.array([thetas[r, max(b - 1, 0)]])
            bh = np.array([thetas[r, min(b + 1, GRID_POINTS - 1)]])
            tt, gg, ii, bl, bh, act = _newton_refine(
                s[r:r + 1], model, t0, bl, bh, tol, max_iter)
            if act[0]:
                continue
            val = float(np.mean(model.rho(s[r] - tt[0])))
            if val < best_val:
                best_theta, best_val, best_grad, best_it = tt[0], val, gg[0], ii[0]
        theta[r], grad[r], iters[r] = best_theta, best_grad, best_it
        b_lo[r] = min(b_lo[r], best_theta)
        b_hi[r] = max(b_hi[r], best_theta)

    return theta, grad, iters, b_lo, b_hi, multimodal, active | stuck_on_edge


def solve_mle_batch(samples, model: DensityModel, tol: float = 1e-10,
                    max_iter: int = 200) -> BatchMleResult:
    """Solve one MLE per row of ``samples`` (an (M, n) array).

    Log-concave models take the bracketed Newton path from the median and
    never evaluate the contrast before the final value; other models take
    the grid scan over ``GRID_POINTS`` points.
    """
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    if s.ndim != 2 or s.shape[1] == 0:
        raise ValueError("samples must be a nonempty (M, n) array")
    _require_feasible(s, model)

    med = np.median(s, axis=1)
    scale = _robust_scale(s)
    # every search interval stays inside the shifts that leave the sample feasible
    t_lo, t_hi = model.feasible_shift_interval(s, margin=1e-9 * np.maximum(scale, 1.0))
    lo = np.maximum(med - GRID_SPAN * scale, t_lo)
    hi = np.minimum(med + GRID_SPAN * scale, t_hi)
    if not np.all(lo < hi):
        raise DomainError("no feasible shift interval for some rows")

    if model.log_concave:
        solved = _solve_convex(s, model, med, lo, hi, t_lo, t_hi, tol, max_iter)
    else:
        solved = _solve_scanned(s, model, lo, hi, t_lo, t_hi, tol, max_iter)
    theta, grad, iters, b_lo, b_hi, multimodal, failed = solved
    value = _contrast_rows(s, model, theta)
    return BatchMleResult(theta, grad, iters, b_lo, b_hi, multimodal, value, failed)


def solve_mle(sample, model: DensityModel, tol: float = 1e-10, max_iter: int = 200) -> MleResult:
    """Solve the location MLE for one sample.

    Raises NoConvergence after ``max_iter`` Newton/bisection steps; the
    returned gradient always satisfies |L'| <= tol on success.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    batch = solve_mle_batch(x[None, :], model, tol=tol, max_iter=max_iter)
    if batch.failed[0]:
        raise NoConvergence(f"MLE solver did not meet |score| <= {tol} in {max_iter} iterations")
    return MleResult(
        theta_hat=float(batch.theta_hat[0]),
        gradient_at_solution=float(batch.gradient_at_solution[0]),
        iterations=int(batch.iterations[0]),
        bracket=(float(batch.bracket_lo[0]), float(batch.bracket_hi[0])),
        multimodal_flag=bool(batch.multimodal_flag[0]),
        contrast_value=float(batch.contrast_value[0]),
    )


# ---------------------------------------------------------------------------
# estimator front end
# ---------------------------------------------------------------------------

def _validate_sample(X) -> np.ndarray:
    x = np.asarray(X, dtype=float)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d sample or an (n, 1) column, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
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
        self.model_ = make_model(self.family, **dict(self.family_params or {}))
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
        from .expansion import cornish_fisher_quantile
        from .moments import compute_moment_set
        ms = moments if moments is not None else compute_moment_set(self.model_)
        s = np.sqrt(self.n_samples_ * ms.fisher)
        alpha = (1.0 - level) / 2.0
        q_lo = cornish_fisher_quantile(ms, self.n_samples_, order, alpha)
        q_hi = cornish_fisher_quantile(ms, self.n_samples_, order, 1.0 - alpha)
        return (self.theta_ - q_hi / s, self.theta_ - q_lo / s)
