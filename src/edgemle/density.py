"""Location density families and their contrast derivatives.

The data model throughout the package is i.i.d. observations with density
f(. - theta) for an unknown shift theta.  A :class:`DensityModel` fixes f and
supplies everything downstream code needs at theta = 0:

* f and its first six derivatives,
* the score ratios psi_i = f^(i)/f,
* the contrast rho = -log f and its derivatives rho^(1)..rho^(6),
* the CDF and its inverse (for inverse-transform sampling).

Built-in families (standard normal, logistic, Student-t) carry closed-form
derivatives.  User families come either from a sympy expression string or
from a tabulated grid; anything missing is filled in by Richardson central
differences and the model is labelled ``numeric-fallback``.

Each family states one set of derivatives.  Analytic families (built-in and
expression) state rho^(1)..rho^(6), and psi follows by the logarithmic-
derivative recursion, f^(j) as psi_j f.  Pdf-based families (tables, bare
density callables) state f^(1)..f^(6); psi is the ratio f^(i)/f and rho^(j)
follows by the inverse recursion.  Neither direction differences -log f,
which would cancel catastrophically in the tails where f is tiny.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize, special
from numpy.polynomial import hermite_e

from .errors import DomainError, InversionFailure, UnsupportedOrder

MAX_DERIVATIVE_ORDER = 6
_EPS = float(np.finfo(float).eps)


def _scalar_like(template, value):
    """Return a float when the input point was scalar, else the array."""
    if np.ndim(template) == 0:
        return float(value)
    return np.asarray(value, dtype=float)


def _neg_log(value):
    # -log f; +inf where f underflows to zero, without the numpy warning
    with np.errstate(divide="ignore"):
        return -np.log(value)


# ---------------------------------------------------------------------------
# numeric differentiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeEstimate:
    """A central-difference derivative together with its estimated error."""

    value: float
    error: float
    precision_warning: bool


def _difference_quotient(f, j, x, h):
    # j-th symmetric difference quotient and the f values it used; O(h^2)
    # truncation error
    values = [f(x + (j / 2 - i) * h) for i in range(j + 1)]
    acc = 0.0
    for i, v in enumerate(values):
        acc = acc + (-1) ** i * comb(j, i) * v
    return acc / h**j, values


def _richardson(f, j, x, scale):
    # Richardson step from h to h/2 with base step scale * eps^(1/(j+2));
    # returns the estimate, the h/2 quotient, h/2 and every f value used
    h = scale * _EPS ** (1.0 / (j + 2))
    d1, values1 = _difference_quotient(f, j, x, h)
    d2, values2 = _difference_quotient(f, j, x, h / 2)
    return (4.0 * d2 - d1) / 3.0, d2, h / 2, values1 + values2


def numeric_derivative(f: Callable, j: int, x: float, scale: float = 1.0) -> DerivativeEstimate:
    """Estimate the j-th derivative of ``f`` at ``x`` by central differences.

    Uses a Richardson step from h to h/2 with base step
    ``scale * eps**(1/(j+2))``, the classical balance between truncation and
    rounding error for a j-th difference quotient.  Accuracy degrades with j;
    j = 6 is rarely better than ~1e-3 relative.  ``precision_warning`` is set
    when the estimated relative error exceeds 1e-4.
    """
    if not 1 <= int(j) <= MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrder(f"derivative order must be in 1..{MAX_DERIVATIVE_ORDER}, got {j}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    value, d2, h2, evals = _richardson(f, j, x, scale)
    # |value - d2| tracks the h^2 truncation term; the floor is the rounding
    # noise 2^j eps max|f| amplified by the 1/h^j of the difference quotient
    floor = 2.0**j * _EPS * max(abs(v) for v in evals) / h2**j
    error = max(abs(value - d2), floor)
    ref = max(abs(value), abs(d2), 1e-300)
    return DerivativeEstimate(float(value), float(error), bool(error / ref > 1e-4))


# ---------------------------------------------------------------------------
# psi <-> log-derivative machinery
# ---------------------------------------------------------------------------

def _log_derivs_from_psis(psi_values: Sequence):
    """Derivatives of log f from the ratios psi_m = f^(m)/f.

    Inverts the product rule f^(m) = sum_i C(m-1,i) f^(i) g^(m-i) for
    g = log f, i.e. g_m = psi_m - sum_{i=1..m-1} C(m-1,i) psi_i g_{m-i}.
    """
    gs = []
    for m in range(1, len(psi_values) + 1):
        g = psi_values[m - 1]
        for i in range(1, m):
            g = g - comb(m - 1, i) * psi_values[i - 1] * gs[m - i - 1]
        gs.append(g)
    return gs


def _psis_from_log_derivs(g_values: Sequence):
    """Ratios psi_m = f^(m)/f from derivatives of log f (forward recursion).

    The integer seeds keep sympy input exact and give float input the values
    1.0 and 0.0 would.
    """
    psis = [1]
    for m in range(1, len(g_values) + 1):
        s = 0
        for i in range(m):
            s = s + comb(m - 1, i) * psis[i] * g_values[m - i - 1]
        psis.append(s)
    return psis[1:]


def _six(make):
    # the per-order callables make(1), ..., make(6)
    return tuple(make(j) for j in range(1, MAX_DERIVATIVE_ORDER + 1))


def _psis_from_rho_derivs(rho_derivs):
    return _six(lambda i: lambda x: _psis_from_log_derivs([-r(x) for r in rho_derivs[:i]])[i - 1])


def _pdf_derivs_from_psis(pdf, psis):
    return _six(lambda j: lambda x: psis[j - 1](x) * pdf(x))


def _psi_fns_from_ratio(pdf, pdf_derivs):
    return _six(lambda i: lambda x: pdf_derivs[i - 1](x) / pdf(x))


def _rho_derivs_from_psis(psis):
    return _six(lambda j: lambda x: -_log_derivs_from_psis([p(x) for p in psis[:j]])[j - 1])


def _numeric_pdf_derivs(pdf, scale):
    return _six(lambda j: lambda x: _richardson(pdf, j, np.asarray(x, dtype=float), scale)[0])


# ---------------------------------------------------------------------------
# numeric CDF / inverse-CDF fallbacks
# ---------------------------------------------------------------------------

def _numeric_cdf(pdf, support):
    lo, hi = support

    def integrand(t):
        # expression densities can overflow intermediately deep in a tail
        # where the true value has already decayed to zero
        with np.errstate(over="ignore", invalid="ignore"):
            v = float(pdf(t))
        return v if math.isfinite(v) else 0.0

    def cdf_scalar(x):
        x = float(x)
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        val, _ = integrate.quad(integrand, lo, x, limit=200)
        return min(max(val, 0.0), 1.0)

    def cdf(x):
        if np.ndim(x) == 0:
            return cdf_scalar(x)
        return np.array([cdf_scalar(v) for v in np.asarray(x, dtype=float).ravel()]).reshape(np.shape(x))

    return cdf


def _numeric_ppf(cdf, support):
    lo, hi = support

    def ppf_scalar(u):
        u = float(u)
        if not 0.0 < u < 1.0:
            raise InversionFailure(f"probability {u} outside (0, 1)")
        a = lo if np.isfinite(lo) else -1.0
        b = hi if np.isfinite(hi) else 1.0
        step = 1.0
        for _ in range(200):
            if cdf(a) <= u:
                break
            if np.isfinite(lo):
                a = lo + (a - lo) / 2
            else:
                a -= step
                step *= 2
        else:
            raise InversionFailure("could not bracket quantile from below")
        step = 1.0
        for _ in range(200):
            if cdf(b) >= u:
                break
            if np.isfinite(hi):
                b = hi - (hi - b) / 2
            else:
                b += step
                step *= 2
        else:
            raise InversionFailure("could not bracket quantile from above")
        try:
            return float(optimize.brentq(lambda t: cdf(t) - u, a, b, xtol=1e-13))
        except ValueError as exc:
            raise InversionFailure(str(exc)) from exc

    def ppf(u):
        if np.ndim(u) == 0:
            return ppf_scalar(u)
        return np.array([ppf_scalar(v) for v in np.asarray(u, dtype=float).ravel()]).reshape(np.shape(u))

    return ppf


# ---------------------------------------------------------------------------
# the model object
# ---------------------------------------------------------------------------

class DensityModel:
    """One location family: density, derivatives, CDF, sampling support.

    All stored callables accept floats or numpy arrays.  Models never mutate
    after construction, so they are safe to share between threads and worker
    processes; :meth:`descriptor` returns a plain dict from which
    :func:`model_from_descriptor` rebuilds an identical model.

    A family states one set of six derivatives (passing both raises
    ValueError).  Analytic families pass ``rho_derivs``; psi_i comes from the
    logarithmic-derivative recursion on -rho^(j) and f^(j) is psi_j f.  Their
    ``psis`` may replace the derived psi: the normal and logistic
    constructors pass closed forms because the generic recursion doubles
    the cost of their moment sets, and :func:`from_expression` passes the
    recursion carried out symbolically, one compiled call per psi.
    Pdf-based families pass ``pdf_derivs``, or nothing for Richardson
    differences of f and the ``numeric-fallback`` label; psi_i is the ratio
    f^(i)/f and rho^(j) comes from the inverse recursion.

    The integrates-to-one and positivity invariants are not enforced here
    (models are built in hot paths); :func:`check_density` verifies them.

    ``log_concave`` (read-only) states that f is log-concave, so the contrast
    rho = -log f is convex and every sample's empirical contrast has a single
    basin; the MLE solver then brackets the score's root instead of scanning
    for basins.  It is a property of the family, not a tuning option: only
    the built-in normal and logistic constructors set it, and it is neither
    part of the descriptor nor settable through :func:`make_model`, so it
    holds for exactly the models those constructors build.
    """

    def __init__(self, name, support, pdf, *, pdf_derivs=None, cdf=None, ppf=None,
                 rho=None, rho_derivs=None, psis=None, derivative_mode="analytic",
                 params=None, descriptor=None, length_scale=1.0, log_concave=False):
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise ValueError(f"empty support ({lo}, {hi})")
        if rho_derivs is not None and pdf_derivs is not None:
            raise ValueError("pass rho_derivs (analytic family) or pdf_derivs "
                             "(pdf-based family), not both")
        self.name = str(name)
        self.support = (lo, hi)
        self.length_scale = float(length_scale)
        self.params = dict(params or {})
        self.pdf = pdf
        if rho_derivs is not None:
            self.rho_derivs = tuple(rho_derivs)
            if len(self.rho_derivs) != MAX_DERIVATIVE_ORDER:
                raise ValueError("expected six contrast derivatives")
            self.psis = tuple(psis) if psis is not None else _psis_from_rho_derivs(self.rho_derivs)
            self.pdf_derivs = _pdf_derivs_from_psis(pdf, self.psis)
        else:
            if pdf_derivs is None:
                pdf_derivs = _numeric_pdf_derivs(pdf, self.length_scale)
                derivative_mode = "numeric-fallback"
            self.pdf_derivs = tuple(pdf_derivs)
            if len(self.pdf_derivs) != MAX_DERIVATIVE_ORDER:
                raise ValueError("expected six density derivatives")
            self.psis = tuple(psis) if psis is not None else _psi_fns_from_ratio(pdf, self.pdf_derivs)
            self.rho_derivs = _rho_derivs_from_psis(self.psis)
        self.derivative_mode = derivative_mode
        self.rho = rho if rho is not None else (lambda x, _p=pdf: _neg_log(_p(x)))
        self.cdf = cdf if cdf is not None else _numeric_cdf(self.pdf, self.support)
        self.ppf = ppf if ppf is not None else _numeric_ppf(self.cdf, self.support)
        self._descriptor = dict(descriptor) if descriptor is not None else {
            "family": self.name, "params": dict(self.params)}
        self._log_concave = bool(log_concave)

    @property
    def log_concave(self) -> bool:
        return self._log_concave

    def interior(self, x):
        lo, hi = self.support
        return (np.asarray(x, dtype=float) > lo) & (np.asarray(x, dtype=float) < hi)

    def feasible_shift_interval(self, samples, margin=0.0):
        """Per-row shifts theta keeping every point of that row interior.

        ``samples`` is an (M, n) array; returns arrays (t_lo, t_hi) of length
        M bounding the open interval of feasible shifts, each end pulled in by
        ``margin`` (a scalar or one value per row).  An infinite end of the
        support leaves the matching end infinite.
        """
        lo, hi = self.support
        s = np.asarray(samples, dtype=float)
        rows = s.shape[0]
        t_lo = np.max(s, axis=1) - hi + margin if np.isfinite(hi) else np.full(rows, -np.inf)
        t_hi = np.min(s, axis=1) - lo - margin if np.isfinite(lo) else np.full(rows, np.inf)
        return t_lo, t_hi

    def descriptor(self) -> dict:
        """Plain-data recipe from which this model can be rebuilt."""
        return dict(self._descriptor)

    def __repr__(self):
        ps = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"DensityModel({self.name}{', ' + ps if ps else ''})"


def _evaluate(model, fns, order, what, x):
    # fns[order - 1](x), for x inside the open support where f > 0
    if not 1 <= int(order) <= MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrder(f"{what} order must be in 1..{MAX_DERIVATIVE_ORDER}, got {order}")
    xs = np.asarray(x, dtype=float)
    ok = model.interior(xs)
    if not np.all(ok):
        bad = xs[~np.asarray(ok)] if np.ndim(x) else x
        raise DomainError(f"point outside open support {model.support}: {bad}")
    fx = np.asarray(model.pdf(xs), dtype=float)
    if not np.all(fx > 0.0):
        raise DomainError("density vanishes at an evaluation point")
    return _scalar_like(x, fns[int(order) - 1](xs))


def psi(model: DensityModel, i: int, x):
    """Score-derivative ratio f^(i)(x)/f(x).

    Raises DomainError when x is outside the open support or f(x) = 0 there.
    """
    return _evaluate(model, model.psis, i, "psi", x)


def rho_deriv(model: DensityModel, j: int, x):
    """j-th derivative of the contrast rho = -log f at x, for j in 1..6."""
    return _evaluate(model, model.rho_derivs, j, "contrast derivative", x)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def normal(loc: float = 0.0) -> DensityModel:
    """Standard normal density, optionally recentred at ``loc``."""
    lc = float(loc)
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)

    def y_of(x):
        return np.asarray(x, dtype=float) - lc

    def pdf(x):
        y = y_of(x)
        return inv_sqrt_2pi * np.exp(-0.5 * y * y)

    def make_psi(j):
        c = np.zeros(j + 1)
        c[j] = 1.0
        sgn = (-1.0) ** j

        def psi_j(x):
            return sgn * hermite_e.hermeval(y_of(x), c)

        return psi_j

    rho_derivs = (
        lambda x: y_of(x),
        lambda x: np.ones_like(y_of(x)),
        lambda x: np.zeros_like(y_of(x)),
        lambda x: np.zeros_like(y_of(x)),
        lambda x: np.zeros_like(y_of(x)),
        lambda x: np.zeros_like(y_of(x)),
    )
    return DensityModel(
        "normal", (-np.inf, np.inf), pdf,
        cdf=lambda x: special.ndtr(y_of(x)),
        ppf=lambda u: lc + special.ndtri(np.asarray(u, dtype=float)),
        rho=lambda x: 0.5 * y_of(x) ** 2 + half_log_2pi,
        rho_derivs=rho_derivs,
        psis=tuple(make_psi(j) for j in range(1, 7)),
        params={"loc": lc},
        log_concave=True,
    )


def logistic(loc: float = 0.0) -> DensityModel:
    """Standard logistic density f(x) = e^-x / (1+e^-x)^2, recentred at ``loc``."""
    lc = float(loc)

    def t_of(x):
        return np.tanh(0.5 * (np.asarray(x, dtype=float) - lc))

    def pdf(x):
        t = t_of(x)
        return 0.25 * (1.0 - t * t)

    # psi_i and rho^(i) are polynomials in t = tanh((x-loc)/2)
    psis = (
        lambda x: -t_of(x),
        lambda x: (3.0 * t_of(x) ** 2 - 1.0) / 2.0,
        lambda x: t_of(x) * (2.0 - 3.0 * t_of(x) ** 2),
        lambda x: (15.0 * t_of(x) ** 4 - 15.0 * t_of(x) ** 2 + 2.0) / 2.0,
        lambda x: (-45.0 * t_of(x) ** 5 + 60.0 * t_of(x) ** 3 - 17.0 * t_of(x)) / 2.0,
        lambda x: (315.0 * t_of(x) ** 6 - 525.0 * t_of(x) ** 4 + 231.0 * t_of(x) ** 2 - 17.0) / 4.0,
    )

    def rho(x):
        y = np.asarray(x, dtype=float) - lc
        return y + 2.0 * np.logaddexp(0.0, -y)

    rho_derivs = (
        lambda x: t_of(x),
        lambda x: 0.5 * (1.0 - t_of(x) ** 2),
        lambda x: -0.5 * t_of(x) * (1.0 - t_of(x) ** 2),
        lambda x: -0.25 * (1.0 - t_of(x) ** 2) * (1.0 - 3.0 * t_of(x) ** 2),
        lambda x: 0.5 * t_of(x) * (1.0 - t_of(x) ** 2) * (2.0 - 3.0 * t_of(x) ** 2),
        lambda x: 0.25 * (1.0 - t_of(x) ** 2) * (15.0 * t_of(x) ** 4 - 15.0 * t_of(x) ** 2 + 2.0),
    )

    return DensityModel(
        "logistic", (-np.inf, np.inf), pdf,
        cdf=lambda x: special.expit(np.asarray(x, dtype=float) - lc),
        ppf=lambda u: lc + special.logit(np.asarray(u, dtype=float)),
        rho=rho,
        rho_derivs=rho_derivs,
        psis=psis,
        params={"loc": lc},
        log_concave=True,
    )


def student_t(nu: float = 7.0, loc: float = 0.0) -> DensityModel:
    """Student-t density with ``nu`` degrees of freedom, recentred at ``loc``.

    nu >= 7 is the recommended regime for the simulation harness; smaller
    values are accepted so the condition validator can probe them.
    """
    nu = float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    lc = float(loc)
    w = math.sqrt(nu)
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)

    def y_of(x):
        return np.asarray(x, dtype=float) - lc

    def pdf(x):
        y = y_of(x)
        return np.exp(log_c - 0.5 * (nu + 1) * np.log1p(y * y / nu))

    def make_rho_deriv(j):
        fac = (nu + 1) * (-1.0) ** (j + 1) * math.factorial(j - 1)

        def rj(x):
            y = y_of(x)
            return fac * np.real((y + 1j * w) ** j) / (y * y + nu) ** j

        return rj

    return DensityModel(
        "student_t", (-np.inf, np.inf), pdf,
        cdf=lambda x: special.stdtr(nu, y_of(x)),
        ppf=lambda u: lc + special.stdtrit(nu, np.asarray(u, dtype=float)),
        rho=lambda x: 0.5 * (nu + 1) * np.log1p(y_of(x) ** 2 / nu) - log_c,
        rho_derivs=tuple(make_rho_deriv(j) for j in range(1, 7)),
        params={"nu": nu, "loc": lc},
    )


# ---------------------------------------------------------------------------
# user-supplied families
# ---------------------------------------------------------------------------

def from_expression(expr: str, support=(-np.inf, np.inf), name: str = "expression",
                    length_scale: float = 1.0) -> DensityModel:
    """Build a family from a density expression in the variable ``x``.

    The expression is parsed with sympy.  The contrast rho = -log f is
    expanded symbolically and differentiated six times, and the psi ratios
    come from those derivatives through the logarithmic-derivative
    recursion rather than as ratios f^(i)/f, whose numerators and
    denominators overflow or underflow together in exponential tails.  The
    model counts as analytic.  The CDF and quantile function fall back to
    quadrature and root finding, which makes sampling from expression
    families comparatively slow.
    """
    import sympy as sp

    xsym = sp.Symbol("x")
    fexpr = sp.sympify(expr)
    extra = fexpr.free_symbols - {xsym}
    if extra:
        raise ValueError(f"expression may only use the variable x; found {sorted(map(str, extra))}")

    def lambdify_vec(e):
        fn = sp.lambdify(xsym, e, modules=["scipy", "numpy"])

        def wrapped(x):
            out = fn(np.asarray(x, dtype=float))
            out = np.asarray(out, dtype=float)
            if out.shape != np.shape(x):
                out = np.broadcast_to(out, np.shape(x)).copy()
            return out if np.ndim(x) else float(out)

        return wrapped

    # expanding -log f symbolically keeps the contrast finite in the tails
    # where the density itself underflows (safe: f > 0 on its support)
    rho_expr = sp.expand_log(-sp.log(fexpr), force=True)
    rho_exprs = [sp.diff(rho_expr, xsym, j) for j in range(1, 7)]
    psi_exprs = _psis_from_log_derivs([-r for r in rho_exprs])
    return DensityModel(
        name, support, lambdify_vec(fexpr),
        rho_derivs=tuple(lambdify_vec(r) for r in rho_exprs),
        psis=tuple(lambdify_vec(p) for p in psi_exprs),
        rho=lambdify_vec(rho_expr),
        derivative_mode="analytic",
        params={"expr": str(expr)},
        descriptor={"family": "expression",
                    "params": {"expr": str(expr),
                               "support": [float(support[0]), float(support[1])],
                               "name": name, "length_scale": float(length_scale)}},
        length_scale=length_scale,
    )


def from_pdf(pdf: Callable, support=(-np.inf, np.inf), name: str = "custom",
             length_scale: float = 1.0) -> DensityModel:
    """Build a family from a bare density callable; derivatives are numeric."""
    return DensityModel(name, support, pdf, length_scale=length_scale,
                        params={}, descriptor={"family": "pdf", "params": {"name": name}})


_TABLE_COLUMNS = ("x", "f", "f1", "f2", "f3", "f4", "f5", "f6")


def from_table(source, name: str = "table") -> DensityModel:
    """Build a family from a tabulated grid.

    ``source`` is a CSV path or a mapping of arrays.  Column order for CSV is
    x, f, f1..f6 (a header row is allowed and detected).  With only the x and
    f columns present the derivatives are estimated from the fitted spline
    and the model is labelled ``numeric-fallback``.  Support is the table's x
    range; the density is treated as zero outside it.
    """
    from scipy.interpolate import CubicSpline

    if isinstance(source, (str,)) or hasattr(source, "__fspath__"):
        path = str(source)
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        skip = 0
        try:
            [float(tok) for tok in first.replace(",", " ").split()]
        except ValueError:
            skip = 1
        data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        cols = {nm: data[:, i] for i, nm in enumerate(_TABLE_COLUMNS[: data.shape[1]])}
        desc = {"family": "table", "params": {"path": path, "name": name}}
    else:
        cols = {k: np.asarray(v, dtype=float) for k, v in dict(source).items()}
        desc = {"family": "table",
                "params": {"columns": {k: v.tolist() for k, v in cols.items()}, "name": name}}
    if "x" not in cols or "f" not in cols:
        raise ValueError("table needs at least columns x and f")
    xg = cols["x"]
    if xg.ndim != 1 or xg.size < 4 or np.any(np.diff(xg) <= 0):
        raise ValueError("table x column must be strictly increasing with >= 4 points")
    lo, hi = float(xg[0]), float(xg[-1])

    def clipped(spline):
        def ev(x):
            xa = np.asarray(x, dtype=float)
            out = np.where((xa >= lo) & (xa <= hi), spline(np.clip(xa, lo, hi)), 0.0)
            return out if np.ndim(x) else float(out)

        return ev

    f_spline = CubicSpline(xg, cols["f"])
    pdf = clipped(f_spline)
    have_derivs = all(f"f{j}" in cols for j in range(1, 7))
    if have_derivs:
        pdf_derivs = tuple(clipped(CubicSpline(xg, cols[f"f{j}"])) for j in range(1, 7))
        mode = "analytic"
    else:
        pdf_derivs = None
        mode = "numeric-fallback"

    anti = f_spline.antiderivative()
    a0 = float(anti(lo))

    def cdf(x):
        xa = np.clip(np.asarray(x, dtype=float), lo, hi)
        out = np.clip(anti(xa) - a0, 0.0, None)
        return out if np.ndim(x) else float(out)

    scale = (hi - lo) / max(xg.size - 1, 1) * 4.0
    kwargs = dict(cdf=cdf, derivative_mode=mode, params={"name": name},
                  descriptor=desc, length_scale=scale)
    if pdf_derivs is not None:
        kwargs["pdf_derivs"] = pdf_derivs
    return DensityModel(name, (lo, hi), pdf, **kwargs)


# ---------------------------------------------------------------------------
# registry / reconstruction
# ---------------------------------------------------------------------------

BUILTIN_FAMILIES = {
    "normal": normal,
    "logistic": logistic,
    "student_t": student_t,
}


def make_model(family: str, **params) -> DensityModel:
    """Construct a model by family name (built-ins, ``expression``, ``table``)."""
    if family in BUILTIN_FAMILIES:
        return BUILTIN_FAMILIES[family](**params)
    if family == "expression":
        return from_expression(params.pop("expr"),
                               support=tuple(params.pop("support", (-np.inf, np.inf))),
                               name=params.pop("name", "expression"),
                               length_scale=params.pop("length_scale", 1.0))
    if family == "table":
        if "path" in params:
            return from_table(params["path"], name=params.get("name", "table"))
        return from_table(params["columns"], name=params.get("name", "table"))
    raise ValueError(f"unknown family {family!r}; known: {sorted(BUILTIN_FAMILIES)} "
                     f"plus 'expression' and 'table'")


def model_from_descriptor(descriptor: dict) -> DensityModel:
    """Rebuild a model from :meth:`DensityModel.descriptor` output."""
    d = dict(descriptor)
    return make_model(d["family"], **dict(d.get("params", {})))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_DERIV_RTOL = 1e-6  # relative agreement asked of f^(j) against the difference quotients


def check_density(model: DensityModel, tol: float = 1e-9, probe=None) -> dict:
    """Run the density sanity checks and return a report dict.

    Checks: f integrates to one over the support (to ``tol``); f is positive
    at the probe points; the model's derivatives f^(j) match Richardson
    central differences of f to ``_DERIV_RTOL`` relative; the first three
    derivatives integrate to zero (boundary decay).
    """
    lo, hi = model.support
    if probe is None:
        qs = np.linspace(0.02, 0.98, 13)
        probe = np.asarray([model.ppf(q) for q in qs], dtype=float)
    probe = np.asarray(probe, dtype=float)

    total, err = integrate.quad(model.pdf, lo, hi, epsabs=tol / 10, epsrel=1e-12, limit=300)
    positive = bool(np.all(np.asarray(model.pdf(probe)) > 0.0))

    # a supplied derivative agrees when it sits within the larger of the
    # relative tolerance and the difference quotient's own error bar (the
    # quotient cannot do better than ~1e-3 relative at order six, and its
    # error estimate itself can be a few times optimistic in the tails)
    max_rel = 0.0
    max_excess = 0.0
    for j in range(1, MAX_DERIVATIVE_ORDER + 1):
        for x0 in probe:
            est = numeric_derivative(model.pdf, j, float(x0), scale=model.length_scale)
            have = float(np.asarray(model.pdf_derivs[j - 1](x0)))
            ref = max(abs(est.value), abs(have), 1e-8)
            budget = max(_DERIV_RTOL * ref, 8.0 * est.error)
            max_excess = max(max_excess, abs(have - est.value) / budget)
            if est.error <= _DERIV_RTOL * ref:
                max_rel = max(max_rel, abs(have - est.value) / ref)

    boundary = {}
    for j in (1, 2, 3):
        val, _ = integrate.quad(model.pdf_derivs[j - 1], lo, hi, epsabs=1e-10, epsrel=1e-10, limit=300)
        boundary[j] = float(val)

    return {
        "integral": float(total),
        "integral_error": float(err),
        "integrates_to_one": bool(abs(total - 1.0) <= tol),
        "positive_on_probe": positive,
        "deriv_max_rel_err": float(max_rel),
        "derivs_match": bool(max_excess <= 1.0),
        "deriv_boundary_integrals": boundary,
    }
