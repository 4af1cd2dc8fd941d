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
from a tabulated grid that lists f and its six derivatives.  No family's
derivatives are differenced numerically: the fifth-order expansions need
rho^(1)..rho^(6), and sixth-order differences of f are noise.  Nor does
:func:`check_density` difference f to check them: it integrates each f^(j)
and compares with the increments of f^(j-1), which quadrature resolves to
rounding.

Every model has one derivative chain, ``rho_chain(x, k)``, which yields
rho^(1)(x), ..., rho^(k)(x) in order and shares its intermediates between
the orders, and one ``psi_chain(x, k)``, which returns psi_1(x), ...,
psi_k(x) from one pass of it by the logarithmic-derivative recursion; f^(j)
is psi_j f.  Only a table states psi itself: its columns f^(1)..f^(6) become
psi as the ratio f^(i)/f, and its rho chain runs the inverse recursion.
Neither direction differences -log f, which would cancel catastrophically in
the tails where f is tiny.
"""
from __future__ import annotations

import dataclasses
import decimal
import functools
import inspect
import itertools
import math
import os
from math import comb
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .errors import DomainError, InversionFailure, UnsupportedOrder

MAX_DERIVATIVE_ORDER = 6


def _scalar_like(template, value):
    """Return ``value`` as a float when the input point was scalar, else as an array."""
    if np.ndim(template) == 0:
        return float(np.asarray(value).item())
    return np.asarray(value)


def _whole(value, what: str, error=ValueError) -> int:
    """``value`` as an int; a bool or a non-whole value is ``error`` naming ``what``."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be a whole number, got {value!r}")


def _json_data(value, precision=None):
    """``value`` as JSON data, the one form of reports, configs and model-cache keys.

    A dataclass becomes the dict of its fields, every mapping key a str, a
    tuple a list, a numpy value its ``tolist()`` and a path its
    ``os.fspath``; with ``precision`` every finite float is rounded to that
    many significant digits.  Any other value is a TypeError, so this is also
    a ``json.dumps`` ``default`` hook that refuses what JSON cannot hold.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return (float(format(value, f".{precision}g"))
                if precision is not None and math.isfinite(value) else value)
    if value is None or isinstance(value, (str, int)):
        return value
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): _json_data(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_data(v, precision) for v in value]
    return os.fspath(value)


def _neg_log(value):
    # -log f; +inf where f underflows to zero, without the numpy warning
    with np.errstate(divide="ignore"):
        return -np.log(value)


# ---------------------------------------------------------------------------
# psi <-> log-derivative machinery
# ---------------------------------------------------------------------------

def _log_derivs_from_psi(psi_values):
    """Derivatives g_1, g_2, ... of log f from the ratios psi_m = f^(m)/f, lazily.

    Inverts the product rule f^(m) = sum_i C(m-1,i) f^(i) g^(m-i) for
    g = log f, i.e. g_m = psi_m - sum_{i=1..m-1} C(m-1,i) psi_i g_{m-i}.
    ``psi_values`` may be any iterable; g_m is yielded once psi_m is read.
    """
    ps, gs = [], []
    for m, p in enumerate(psi_values, start=1):
        ps.append(p)
        g = p
        for i in range(1, m):
            g = g - comb(m - 1, i) * ps[i - 1] * gs[m - i - 1]
        gs.append(g)
        yield g


def _psi_from_log_derivs(g_values: Sequence):
    """Ratios psi_m = f^(m)/f from derivatives of log f (forward recursion).

    The inputs are floats or arrays; the integer seeds 1 and 0 give them the
    values 1.0 and 0.0 would.
    """
    ps = [1]
    for m in range(1, len(g_values) + 1):
        s = 0
        for i in range(m):
            s = s + comb(m - 1, i) * ps[i] * g_values[m - i - 1]
        ps.append(s)
    return ps[1:]


def _first_orders(orders):
    """``rho_chain`` from a generator function yielding rho^(1)(x), rho^(2)(x), ...

    The chain stops pulling after order k, so the orders above k are never
    computed.
    """
    return lambda x, k: itertools.islice(orders(x), k)


def _view(chain, j, x):
    # rho^(j)(x) alone: the j-th value of the chain
    for r in chain(x, j):
        pass
    return r


# ---------------------------------------------------------------------------
# numeric CDF and quantile function
# ---------------------------------------------------------------------------

_T_END = 4.5  # the double-exponential maps run over t in [-4.5, 4.5]
_CDF_STEP = 2.0 ** -5  # t step of the CDF node table
_PANEL_NODES = 10  # Gauss-Legendre nodes per gap of the CDF node table
_ROUNDS = 64  # most rounds of the node search and of the quantile's Newton iteration


def _de_map(support, centre, width):
    """u -> (x, dx/du) of the double-exponential map onto the support (Takahasi & Mori
    1974): sinh-sinh centre + width sinh(u) on the line, exp-sinh end + (centre - end) e^u
    on a half-line, tanh-sinh on an interval."""
    lo, hi = support
    if math.isfinite(lo) and math.isfinite(hi):
        def mapped(u):  # the distance from the nearer end stays exact where tanh(u) is +-1
            d = (hi - lo) / (1 + np.exp(2 * np.abs(u)))
            return np.where(u < 0, lo + d, hi - d), (hi - lo) / 2 / np.cosh(u) ** 2
        return mapped
    if math.isfinite(lo) or math.isfinite(hi):
        end = lo if math.isfinite(lo) else hi
        return lambda u: (end + (centre - end) * np.exp(u), abs(centre - end) * np.exp(u))
    return lambda u: (centre + width * np.sinh(u), abs(width) * np.cosh(u))


def _panels(a, b, n):
    """Nodes and weights of the n-point Gauss-Legendre rule on each [a_i, b_i], a row each."""
    t, w = np.polynomial.legendre.leggauss(n)
    half, mid = (b - a)[..., None] / 2, (b + a)[..., None] / 2
    return mid + half * t, half * w


def _numeric_cdf(pdf, rho, support):
    """(nodes, F at them, x -> (F(x), f(x))) for a family that states no CDF.

    On the line the centre moves to the node of lowest rho (finite where f
    underflows) and the width shrinks while rho rises by over 1 in a gap; the
    nodes then take the width w = 1/(2 f) there (a half-line the centre end + w).
    F sums a Gauss-Legendre panel per gap to end at 1; F(x) adds one from the node below.
    """
    n = round(_T_END / _CDF_STEP)
    u = math.pi / 2 * np.sinh(_CDF_STEP * np.arange(-n, n + 1))
    line, centre, width = support == (-math.inf, math.inf), 0.0, 1.0
    end, inward = (support[0], 1.0) if math.isfinite(support[0]) else (support[1], -1.0)
    with np.errstate(all="ignore"):
        for _ in range(_ROUNDS):
            x = _de_map(support, centre if line else end + inward, width)(u)[0]
            r = np.nan_to_num(np.asarray(rho(x), dtype=float), nan=np.inf)
            k = np.argmin(r)
            if not line or (r[k] == r[n] and max(r[n - 1], r[n + 1]) <= r[n] + 1):
                break  # a half-line, or no node is lower and the gaps resolve the peak
            centre, width = (x[k], width) if r[k] < r[n] else (centre, width / 16)
        width = 0.5 / np.float64(pdf(x[k]))
        nodes = _de_map(support, x[k] if line else end + inward * width, width)(u)[0]

    def panel(a, b):  # int_a^b f and f(b) from one call; f overflowing on its way to 0 is 0
        points, weights = _panels(a, b, _PANEL_NODES)
        with np.errstate(all="ignore"):
            f = np.asarray(pdf(np.concatenate([points, b[..., None]], axis=-1)), dtype=float)
        f = np.where(np.isfinite(f), f, 0.0)
        return np.sum(weights * f[..., :-1], axis=-1), f[..., -1]

    mass = np.cumsum(panel(nodes[:-1], nodes[1:])[0])
    values = np.concatenate([[0.0], mass / mass[-1]])

    def cdf_pdf(x):
        xa = np.clip(np.asarray(x, dtype=float), nodes[0], nodes[-1])
        k = np.searchsorted(nodes, xa, side="right") - 1
        area, f = panel(nodes[k], xa)
        return np.minimum(values[k] + area / mass[-1], 1.0), f

    return nodes, values, cdf_pdf


def _inverse(cdf_pdf, nodes, values, end):
    """The quantile function of F, from F at increasing ``nodes`` and x -> (F(x), f(x)).

    ``searchsorted`` brackets each u; Newton steps bisect where they leave the
    bracket and stop at |F(x) - u| <= 2 eps u or once x stops moving."""
    def ppf(u):
        q = np.asarray(u, dtype=float).ravel()
        outside = ~((q > 0.0) & (q < 1.0))
        if np.any(outside):
            raise InversionFailure(f"probability {float(q[outside][0])} outside (0, 1)")
        above = q > values[-1]
        if np.any(above):
            raise InversionFailure(f"could not bracket quantile {float(q[above][0])} from above: "
                                   f"the CDF is {float(values[-1])!r} at the support end {end}")
        k = np.searchsorted(values, q)  # values[k - 1] < q <= values[k]
        a, b = nodes[k - 1], nodes[k]
        x = a + (b - a) * ((q - values[k - 1]) / (values[k] - values[k - 1]))
        todo = np.arange(q.size)
        for _ in range(_ROUNDS):
            xt, qt = x[todo], q[todo]
            F, f = cdf_pdf(xt)
            a[todo[F < qt]], b[todo[F >= qt]] = xt[F < qt], xt[F >= qt]
            at, bt = a[todo], b[todo]
            with np.errstate(all="ignore"):
                newton = xt - (F - qt) / f
            step = np.where((newton == xt) | ((newton > at) & (newton < bt)),
                            newton, (at + bt) / 2)
            done = (np.abs(F - qt) <= 2 * np.finfo(float).eps * qt) | (step == xt)
            x[todo[~done]] = step[~done]
            todo = todo[~done]
            if not todo.size:
                break
        return _scalar_like(u, x.reshape(np.shape(u)))

    return ppf


# ---------------------------------------------------------------------------
# the model object
# ---------------------------------------------------------------------------

class DensityModel:
    """One location family: density, derivatives, CDF, sampling support.

    All stored callables accept floats or numpy arrays; f, rho and the
    derivative chains return a float for a float and an array for an array.
    Models never mutate after construction, so they are safe to share
    between threads and worker processes, and study blocks and
    :class:`~edgemle.mle.LocationMLE` fits share one per (family, params);
    :meth:`descriptor` returns a plain dict from which
    :func:`model_from_descriptor` rebuilds an identical model.

    Every model has one contrast-derivative chain, ``rho_chain(x, k)``, an
    iterator over rho^(1)(x), ..., rho^(k)(x) for k <= 6.  Consumers take
    the orders one at a time: the xi sums, Newton's score and curvature
    (k = 2), the moment integrands and the psi recursion each evaluate a
    point once.  Every family states its derivatives as this chain, the only
    form the constructor takes.  The normal, logistic, Student-t and table
    families compute their shared intermediates once per call (tanh(y/2) for
    the logistic, y^2 + nu and the recurrence for Re(y + i sqrt(nu))^j for
    Student-t, f and the spline ratios f_i/f for a table) and use only
    arithmetic after them; :func:`from_expression`, which compiles each
    derivative on its own, chains its six callables in turn, and a
    hand-built model can do the same.

    ``psi_chain(x, k)`` returns psi_1(x), ..., psi_k(x), by default from the
    logarithmic-derivative recursion on one pass of the rho chain to order
    k; f^(j) is psi_j f.  A stated ``psi_chain`` replaces the derived one
    for one family only: :func:`from_table` passes the ratios of its
    derivative columns to f from one spline evaluation, so that its f^(j)
    reproduce those columns.  ``rho_derivs`` is the 6-tuple of per-order
    views onto the rho chain, each returning the chain's j-th value bit for
    bit.  Derivatives are never estimated from f by differences.

    Unless stated, ``cdf`` sums a node table built here once and ``ppf``
    inverts it for a whole array; a stated ``cdf`` needs its ``ppf``.  The
    integrates-to-one, positivity and derivative invariants are not enforced
    here (models are built in hot paths); :func:`check_density` verifies them.

    ``log_concave`` (read-only) states that f is log-concave, so the contrast
    rho = -log f is convex and every sample's empirical contrast has a single
    basin; the MLE solver then brackets the score's root instead of scanning
    for basins.  ``grid`` (read-only) is a table's x grid, whose cells the
    integrals take one by one.  Both are properties of the family, not
    tuning options: only the built-in normal and logistic constructors set
    ``log_concave`` and only :func:`from_table` sets ``grid``, and neither is
    part of the descriptor or settable through :func:`make_model`.
    """

    def __init__(self, name, support, pdf, *, rho_chain, psi_chain=None, cdf=None, ppf=None,
                 rho=None, descriptor=None, log_concave=False, grid=None):
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise ValueError(f"empty support ({lo}, {hi})")
        self.name = str(name)
        self.support = (lo, hi)
        self.pdf = pdf
        self.rho_chain = rho_chain
        # per-order views onto the chain, which perfbench rewraps to count points
        self.rho_derivs = tuple(functools.partial(_view, rho_chain, j)
                                for j in range(1, MAX_DERIVATIVE_ORDER + 1))
        self.psi_chain = psi_chain if psi_chain is not None else (
            lambda x, k: _psi_from_log_derivs([-r for r in rho_chain(x, k)]))
        self.rho = rho if rho is not None else (lambda x, _p=pdf: _neg_log(_p(x)))
        self.cdf, self.ppf = cdf, ppf
        if cdf is None:
            nodes, values, cdf_pdf = _numeric_cdf(pdf, self.rho, self.support)
            self.cdf = lambda x: _scalar_like(x, cdf_pdf(x)[0])
            self.ppf = ppf if ppf is not None else _inverse(cdf_pdf, nodes, values, hi)
        elif ppf is None:
            raise ValueError(f"family {name!r} states a cdf without a ppf; pass its ppf too")
        self._descriptor = dict(descriptor) if descriptor is not None else {
            "family": self.name, "params": {}}
        self._log_concave = bool(log_concave)
        self._grid = None if grid is None else tuple(map(float, grid))

    @property
    def log_concave(self) -> bool:
        return self._log_concave

    @property
    def grid(self):
        return self._grid

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
        # scalar parameters only: a table's columns would swamp the line
        ps = ", ".join(f"{k}={v!r}" for k, v in self._descriptor["params"].items()
                       if not isinstance(v, (list, dict)))
        return f"DensityModel({self.name}{', ' + ps if ps else ''})"


def _require_usable(model: DensityModel, x):
    """Raise ValueError unless every point of ``x`` is finite, then DomainError unless interior."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample contains non-finite values")
    if not np.all(model.interior(xs)):
        raise DomainError(f"sample contains points outside the open support {model.support}")


def _evaluate(model, chain, order, what, x):
    # the last value of chain(x, order), for x inside the open support where f > 0
    k = _whole(order, f"{what} order", UnsupportedOrder)
    if not 1 <= k <= MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrder(f"{what} order must be in 1..{MAX_DERIVATIVE_ORDER}, got {order}")
    xs = np.asarray(x, dtype=float)
    _require_usable(model, xs)
    fx = np.asarray(model.pdf(xs), dtype=float)
    if not np.all(fx > 0.0):
        raise DomainError("density vanishes at an evaluation point")
    return _scalar_like(x, [*chain(xs, k)][-1])


def psi(model: DensityModel, i: int, x):
    """Score-derivative ratio f^(i)(x)/f(x).

    Raises ValueError when x is not finite, DomainError when it is outside
    the open support or f(x) = 0 there.
    """
    return _evaluate(model, model.psi_chain, i, "psi", x)


def rho_deriv(model: DensityModel, j: int, x):
    """j-th derivative of the contrast rho = -log f at x, for j in 1..6."""
    return _evaluate(model, model.rho_chain, j, "contrast derivative", x)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def normal() -> DensityModel:
    """Standard normal density."""
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)

    def pdf(x):
        return inv_sqrt_2pi * np.exp(-0.5 * x * x)

    def rho(x):
        return 0.5 * (x * x) + half_log_2pi

    def orders(x):
        # rho = x^2/2 + const: rho' = x, rho'' = 1, the rest vanish.  rho' is a
        # fresh array, never the caller's own (x * 1.0 keeps every bit, -0.0 too)
        y = x * 1.0
        yield y
        yield np.ones_like(y) if isinstance(y, np.ndarray) else 1.0
        for _ in range(3, MAX_DERIVATIVE_ORDER + 1):
            yield np.zeros_like(y) if isinstance(y, np.ndarray) else 0.0

    return DensityModel(
        "normal", (-np.inf, np.inf), pdf,
        cdf=special.ndtr,
        ppf=lambda u: special.ndtri(np.asarray(u, dtype=float)),
        rho=rho,
        rho_chain=_first_orders(orders),
        log_concave=True,
    )


def logistic() -> DensityModel:
    """Standard logistic density f(x) = e^-x / (1+e^-x)^2."""

    def pdf(x):
        t = np.tanh(0.5 * x)
        return 0.25 * (1.0 - t * t)

    def rho(x):
        return x + 2.0 * np.logaddexp(0.0, -x)

    def orders(x):
        # rho^(j) are polynomials in t = tanh(x/2) and u = 1 - t^2.  The
        # augmented assignments update private arrays in place (a float just
        # rebinds), with the bits of the plain products: scaling by 0.25 is
        # exact and 3 t^2 - 1 = -(1 - 3 t^2).  A yielded value is never
        # changed afterwards and its local is deleted, so the consumer alone
        # keeps it alive; u is recomputed rather than kept, so the chain holds
        # at most two arrays between orders.
        t = 0.5 * x
        del x
        t = np.tanh(t, out=t if isinstance(t, np.ndarray) else None)  # in place too
        yield t
        t2 = t * t
        r = 1.0 - t2
        r *= 0.5
        yield r
        del r
        p = 0.5 * t
        del t
        p *= 1.0 - t2
        yield -p
        r = 3.0 * t2
        r -= 1.0
        r *= 0.25
        r *= 1.0 - t2
        yield r
        del r
        p *= 2.0 - 3.0 * t2
        yield p
        del p
        r = t2 * t2
        r *= 15.0
        r -= 15.0 * t2
        r += 2.0
        u = 1.0 - t2
        u *= 0.25
        u *= r
        yield u

    return DensityModel(
        "logistic", (-np.inf, np.inf), pdf,
        cdf=special.expit,
        ppf=lambda u: special.logit(np.asarray(u, dtype=float)),
        rho=rho,
        rho_chain=_first_orders(orders),
        log_concave=True,
    )


def student_t(nu: float = 7.0) -> DensityModel:
    """Student-t density with ``nu`` degrees of freedom.

    nu >= 7 is the recommended regime for the simulation harness; smaller
    values are accepted so the condition validator can probe them.

    For 1 <= nu <= 12 the quantile costs elementary functions only (numpy's
    tan, exp, log, expm1 and power): each point solves for the angle of
    t = sqrt(nu) cot(phi) in the tails (min(u, 1-u) < 1/4) or
    t = sqrt(nu) tan(theta) in the centre, by Halley steps on a power series
    of the tail probability or of the centre mass built with the model (see
    :func:`_t_quantile`).  It is within 16 ulp of the exact quantile, where
    scipy's ``stdtrit`` can be off by 1e5 ulp and more near u = 1/2.  Other
    nu keep ``stdtrit``; the CDF is scipy's ``stdtr`` for every nu.
    """
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0):  # a nan or inf nu would build a nan density
        raise ValueError(f"nu must be a finite positive number, got {nu!r}")
    w = math.sqrt(nu)
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)

    def pdf(x):
        return np.exp(log_c - 0.5 * (nu + 1) * np.log1p(x * x / nu))

    def rho(x):
        return 0.5 * (nu + 1) * np.log1p(x * x / nu) - log_c

    # rho^(j)(x) = (nu+1) (-1)^(j+1) (j-1)! Re((x + i w)^j) / (x^2 + nu)^j
    coef = [(nu + 1) * (-1.0) ** (j + 1) * math.factorial(j - 1)
            for j in range(1, MAX_DERIVATIVE_ORDER + 1)]

    def orders(x):
        # re + i im = (x + i w)^j and dj = d^j, one order at a time.  The
        # augmented assignments update private arrays in place (a float just
        # rebinds), with the bits of the plain expressions; x itself is only
        # read.  A yielded value's local is deleted, so the consumer alone
        # keeps it alive.
        re = x * x
        d = re + nu
        r = coef[0] * x
        r /= d
        yield r
        del r
        re = re - w * w  # not in place: x * x is an int array for int points
        dj = d * d
        r = coef[1] * re
        r /= dj
        yield r
        del r
        im = (2.0 * w) * x
        for c in coef[2:]:
            t = re * w
            re *= x
            re -= im * w
            im *= x
            im += t
            del t
            dj *= d
            r = c * re
            r /= dj
            yield r
            del r

    def stdtrit(u):
        # scipy's stdtrit(nu, 0) is +inf (scipy 1.17.1); the quantile there is -inf
        u = np.asarray(u, dtype=float)
        return _scalar_like(u, np.where(u == 0.0, -np.inf, special.stdtrit(nu, u)))

    lo, hi = _T_SERIES_NU
    return DensityModel(
        "student_t", (-np.inf, np.inf), pdf,
        cdf=lambda x: special.stdtr(nu, x),
        ppf=_t_quantile(nu) if lo <= nu <= hi else stdtrit,
        rho=rho,
        rho_chain=_first_orders(orders),
        descriptor={"family": "student_t", "params": {"nu": nu}},
    )


# ---------------------------------------------------------------------------
# the Student-t quantile
# ---------------------------------------------------------------------------

#: the nu of the series quantile; within 16 ulp of the exact quantile there
#: (tests/test_density.py), while scipy's stdtrit serves any other nu
_T_SERIES_NU = (1.0, 12.0)
_T_TERMS = 40  # series coefficients computed before truncation
#: the first term a series drops at the edge of its region is below this,
#: relative: in the Halley steps before the last, and in the last
_T_DROP = (2.0 ** -24, 2.0 ** -60)
_T_STEPS = (3, 2)  # Halley steps of the tail and of the centre
_T_Q_MIN = 2.0 ** -1000  # the tail probability below which the series' leading term is exact
_PI_DECIMAL = decimal.Decimal("3.141592653589793238462643383279502884197169399375")


def _power_series(f, m, k):
    """The first ``k`` coefficients of F^m for the power series F = f[0] + f[1] z + ..., f[0] = 1.

    J.C.P. Miller's recurrence, in the arithmetic of the coefficients.
    """
    g = [f[0]]
    for j in range(1, k):
        g.append(sum(((m + 1) * i - j) * f[i] * g[j - i] for i in range(1, j + 1)) / j)
    return g


def _per_step(c, w, steps):
    # the series c in w for each Halley step, each up to its last term of
    # relative size _T_DROP or more at w
    terms = np.abs(c) * w ** np.arange(c.size)
    rough, full = (c[:np.flatnonzero(terms >= drop * np.sum(terms))[-1] + 1] for drop in _T_DROP)
    return [rough] * (steps - 1) + [full]


def _horner(c, w, out):
    # sum_j c[j] w^j into out
    out.fill(c[-1])
    for cj in c[-2::-1]:
        out *= w
        out += cj
    return out


def _t_quantile(nu: float):
    """The Student-t(nu) quantile from two series in elementary functions, for 1 <= nu <= 12.

    With C = 1/B(nu/2, 1/2), the tail probability of t = sqrt(nu) cot(phi) is
    G(phi) = C int_0^phi sin^(nu-1) = C phi^nu e^(-kappa phi^2) R(phi^2), and the
    centre mass of t = sqrt(nu) tan(theta) is P(theta) = C int_0^theta cos^(nu-1)
    = C theta B(theta^2).  kappa = (nu-1)/6 takes out the Gaussian decay of
    (sin x/x)^(nu-1), so R has no large terms of opposite sign; its
    coefficients are summed in 40-digit decimals, and so is C, from both
    series at pi/4.  Each series stops where
    its terms fall below 2^-60 at the edge of its region (t_{3/4} from
    stdtrit, once), and below 2^-24 in the steps before the last.  A tail
    probability q = min(u, 1-u) < 1/4 takes three Halley steps on
    log G = log q in log phi from phi = (nu q / C)^(1/nu); a centre point
    takes two on P = |u - 1/2| (exact, by Sterbenz) from a three-term
    reversion.  The last step moves t, not the angle: t comes from
    tan of the angle before it and tan of the step, so it never inherits the
    angle's rounding.  Below q = 2^-1000, where phi^nu could underflow,
    t = -sqrt(nu) (C / (nu q))^(1/nu): u = 0 and u = 1 give -inf and +inf,
    and u outside [0, 1] or nan gives nan.
    """
    n = _T_TERMS
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal(nu)
        sine = [decimal.Decimal((-1) ** i) / math.factorial(2 * i + 1) for i in range(n)]
        cosine = [decimal.Decimal((-1) ** i) / math.factorial(2 * i) for i in range(n)]
        a = [g / (d + 2 * j) for j, g in enumerate(_power_series(sine, d - 1, n))]
        decay = [decimal.Decimal(1)]
        for j in range(1, n):
            decay.append(decay[-1] * (d - 1) / 6 / j)
        tail = np.array([float(sum(a[i] * decay[j - i] for i in range(j + 1))) for j in range(n)])
        b = [g / (2 * j + 1) for j, g in enumerate(_power_series(cosine, d - 1, n))]
        centre = np.array([float(bj) for bj in b])
        # 1/(2C) = int_0^(pi/2) sin^(nu-1) = both series at pi/4, so that C is
        # correctly rounded (1/beta(nu/2, 1/2) is off by up to 5 ulp)
        x = _PI_DECIMAL / 4
        half = (x ** d * sum(aj * x ** (2 * j) for j, aj in enumerate(a))
                + x * sum(bj * x ** (2 * j) for j, bj in enumerate(b)))
        c = float(1 / (2 * half))
    m, kappa, root_nu = nu - 1.0, (nu - 1.0) / 6.0, math.sqrt(nu)
    edge = float(special.stdtrit(nu, 0.75))
    tails = _per_step(tail, math.atan(root_nu / edge) ** 2, _T_STEPS[0])
    centres = _per_step(centre, math.atan(edge / root_nu) ** 2, _T_STEPS[1])
    b1, b2 = np.append(centre, [0.0, 0.0])[1:3]
    reversion = np.array([1.0, -b1, 3.0 * b1 * b1 - b2])  # theta of C theta B(theta^2) = p
    far = root_nu * (c / nu) ** (1.0 / nu)

    def upper(q):
        # -t > 0 of the tail probability q, in one workspace: one allocation
        # rather than seven keeps glibc from trimming and refaulting the heap
        phi, target, w, s, e, tan, g = np.empty((7, q.size))
        np.multiply(q, nu / c, out=phi)
        np.power(phi, 1.0 / nu, out=phi)
        np.divide(c, q, out=target)
        for series in tails:
            np.multiply(phi, phi, out=w)
            np.multiply(w, -kappa, out=e)
            np.exp(e, out=e)
            _horner(series, w, s)
            s *= e  # G / (C phi^nu)
            np.tan(phi, out=tan)
            np.divide(tan, phi, out=g)
            g *= g
            np.multiply(tan, tan, out=w)
            w += 1.0
            g /= w
            np.power(g, 0.5 * m, out=g)
            g /= s  # dlogG/dlogphi = (sin phi / phi)^(nu-1) / (G / (C phi^nu))
            np.power(phi, nu, out=e)
            s *= e
            s *= target
            np.log(s, out=s)  # L = log(G / q)
            np.divide(phi, tan, out=e)  # Halley: dlogphi = -L / (g - L (1 + m phi/tan - g) / 2)
            e *= m
            e += 1.0
            e -= g
            e *= s
            e *= -0.5
            e += g
            np.divide(s, e, out=e)
            np.negative(e, out=e)
            np.expm1(e, out=e)
            e *= phi  # the step
            phi += e
        np.tan(e, out=e)  # cot(phi + step) = (1 - tan tan(step)) / (tan + tan(step))
        np.multiply(tan, e, out=s)
        np.subtract(1.0, s, out=s)
        tan += e
        s /= tan
        s *= root_nu
        return s

    def middle(p):
        # t >= 0 of the centre mass p, in one workspace
        theta, w, s, tan, d = np.empty((5, p.size))
        np.divide(p, c, out=theta)
        np.multiply(theta, theta, out=w)
        theta *= _horner(reversion, w, s)
        for series in centres:
            np.multiply(theta, theta, out=w)
            _horner(series, w, s)
            s *= theta
            s *= c
            s -= p  # P(theta) - p
            np.tan(theta, out=tan)
            np.multiply(tan, tan, out=d)
            d += 1.0
            np.power(d, -0.5 * m, out=d)
            d *= c  # P' = C cos^(nu-1)
            np.multiply(s, tan, out=w)
            w *= 0.5 * m
            d += w  # Halley: -step = (P - p) / (P' + (P - p) m tan / 2)
            s /= d
            theta -= s
        np.tan(s, out=s)  # tan(theta + step) = (tan - tan(-step)) / (1 + tan tan(-step))
        np.multiply(tan, s, out=d)
        d += 1.0
        tan -= s
        tan /= d
        tan *= root_nu
        return tan

    def ppf(u):
        ua = np.asarray(u, dtype=float)
        x = np.empty(ua.shape)
        xs, us = x.reshape(-1), ua.reshape(-1)
        q = np.subtract(1.0, us)
        np.minimum(us, q, out=q)
        # each branch runs only on points of its own: a small call pays one
        at = np.flatnonzero((q < 0.25) & (q >= _T_Q_MIN))
        if at.size:
            xs[at] = upper(q.take(at))
        at = np.flatnonzero(q >= 0.25)
        if at.size:
            p = us.take(at)
            p -= 0.5
            xs[at] = middle(np.abs(p, out=p))
        at = np.flatnonzero(~(q >= _T_Q_MIN))  # the far tails, 0, 1, nan, outside [0, 1]
        if at.size:  # G = C phi^nu / nu and cot phi = 1/phi to the last bit there
            qa = q.take(at)
            with np.errstate(divide="ignore", over="ignore"):
                xs[at] = far * np.power(qa, -1.0 / nu, out=np.full_like(qa, np.nan),
                                        where=qa >= 0.0)
        q = np.subtract(us, 0.5, out=q)
        np.copysign(xs, q, out=xs)
        return _scalar_like(u, x)

    return ppf


# ---------------------------------------------------------------------------
# user-supplied families
# ---------------------------------------------------------------------------

def from_expression(expr: str, support=(-np.inf, np.inf), name: str = "expression") -> DensityModel:
    """Build a family from a density expression in the variable ``x``.

    The expression is parsed with sympy.  The contrast rho = -log f is
    expanded symbolically and differentiated six times; each derivative is
    compiled to one numpy callable, which takes a float as a float and an
    array as an array.  The psi ratios come from those derivatives through
    the logarithmic-derivative recursion rather than as ratios f^(i)/f,
    whose numerators and denominators overflow or underflow together in
    exponential tails.  The CDF is summed once over double-exponential nodes
    placed on the peak and inverted for a whole array at once.
    """
    import sympy as sp

    xsym = sp.Symbol("x")
    fexpr = sp.sympify(expr)
    extra = fexpr.free_symbols - {xsym}
    if extra:
        raise ValueError(f"expression may only use the variable x; found {sorted(map(str, extra))}")
    kinks = sorted({str(a.func).lower() for a in fexpr.atoms(sp.Abs, sp.sign)})
    if kinks:
        raise ValueError(f"unsupported function(s) {', '.join(kinks)} in expression: the "
                         "contrast must be six times differentiable")

    def lambdify_vec(e):
        fn = sp.lambdify(xsym, e, modules=["scipy", "numpy"])

        def wrapped(x):
            if not isinstance(x, np.ndarray):
                # a numpy scalar overflows to inf, where a float would raise
                return float(fn(np.float64(x)))
            out = np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)
            return out if out.shape == x.shape else np.broadcast_to(out, x.shape).copy()

        return wrapped

    # expanding -log f symbolically keeps the contrast finite in the tails
    # where the density itself underflows (safe: f > 0 on its support)
    rho_expr = sp.expand_log(-sp.log(fexpr), force=True)
    derivs = tuple(lambdify_vec(sp.diff(rho_expr, xsym, j)) for j in range(1, 7))
    return DensityModel(
        name, support, lambdify_vec(fexpr),
        rho_chain=lambda x, k: (r(x) for r in derivs[:k]),
        rho=lambdify_vec(rho_expr),
        descriptor={"family": "expression",
                    "params": {"expr": str(expr),
                               "support": [float(support[0]), float(support[1])],
                               "name": name}},
    )


_TABLE_COLUMNS = ("x", "f", "f1", "f2", "f3", "f4", "f5", "f6")


def from_table(source, name: str = "table") -> DensityModel:
    """Build a family from a tabulated grid.

    ``source`` is a CSV path or a mapping of arrays.  Every column x, f,
    f1..f6 is required, in that order for CSV (a header row is allowed and
    detected); a table without the six derivative columns raises ValueError,
    since they cannot be differenced out of f accurately enough.  A density
    known as a formula can be given to :func:`from_expression` instead.
    Support is the table's x range; the density is treated as zero outside
    it, where both chains are nan (0/0).  One cubic spline over the seven
    columns f, f1..f6 is evaluated once per point: ``psi_chain`` gives its
    ratios f_i/f, rho^(j) follows by the inverse logarithmic-derivative
    recursion, and f^(j) = psi_j f reproduce the f_j columns up to rounding;
    f, rho and the CDF read the f column alone; x is the model's ``grid``.
    """
    from scipy.interpolate import CubicSpline, PPoly

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
    missing = [c for c in _TABLE_COLUMNS if c not in cols]
    if missing:
        raise ValueError(f"table lacks column(s) {', '.join(missing)}: a table gives x, f "
                         "and the derivatives f1..f6; for a density known only as a "
                         "formula use from_expression")
    xg = cols["x"]
    if xg.ndim != 1 or xg.size < 4 or np.any(np.diff(xg) <= 0):
        raise ValueError("table x column must be strictly increasing with >= 4 points")
    lo, hi = float(xg[0]), float(xg[-1])

    # one spline over f, f1..f6 (the columns along its first axis), and the
    # f column alone as a piece with the same coefficients
    spline = CubicSpline(xg, [cols[c] for c in _TABLE_COLUMNS[1:]], axis=1)
    f_piece = PPoly(spline.c[..., 0], spline.x)

    def on_support(piece, x):
        # the piece at x, zero outside [lo, hi]
        xa = np.asarray(x, dtype=float)
        return np.where((xa >= lo) & (xa <= hi), piece(np.clip(xa, lo, hi)), 0.0)

    def ratios(x, k=MAX_DERIVATIVE_ORDER):
        # psi_1..psi_k = f_i/f from one evaluation of the seven columns; nan
        # outside [lo, hi], where f = 0, for a float point (as floats) as for
        # an array
        c = on_support(spline, x)
        out = c[1:k + 1] / c[0]
        return out if np.ndim(x) else out.tolist()

    def orders(x):
        return (-g for g in _log_derivs_from_psi(ratios(x)))

    anti = f_piece.antiderivative()
    a0 = float(anti(lo))

    def cdf(x):
        xa = np.clip(np.asarray(x, dtype=float), lo, hi)
        return _scalar_like(x, np.clip(anti(xa) - a0, 0.0, None))

    ppf = _inverse(lambda x: (cdf(x), on_support(f_piece, x)), xg, cdf(xg), hi)
    return DensityModel(name, (lo, hi), lambda x: _scalar_like(x, on_support(f_piece, x)),
                        rho_chain=_first_orders(orders), psi_chain=ratios, cdf=cdf, ppf=ppf,
                        descriptor=desc, grid=xg)


# ---------------------------------------------------------------------------
# registry / reconstruction
# ---------------------------------------------------------------------------

BUILTIN_FAMILIES = {
    "normal": normal,
    "logistic": logistic,
    "student_t": student_t,
}


def _table(path=None, columns=None, name="table"):
    # the table family's make_model parameters: a CSV path or a column mapping
    if (path is None) == (columns is None):
        raise ValueError("table family takes exactly one of the parameters path and columns")
    return from_table(path if path is not None else columns, name=name)


_USER_FAMILIES = {"expression": from_expression, "table": _table}


def make_model(family: str, **params) -> DensityModel:
    """Construct a model by family name (built-ins, ``expression``, ``table``).

    ``params`` are the family's constructor arguments; an unknown or missing
    one raises ValueError naming it and the accepted ones.
    """
    build = BUILTIN_FAMILIES.get(family) or _USER_FAMILIES.get(family)
    if build is None:
        raise ValueError(f"unknown family {family!r}; known: {sorted(BUILTIN_FAMILIES)} "
                         f"plus 'expression' and 'table'")
    accepted = inspect.signature(build).parameters
    unknown = sorted(set(params) - set(accepted))
    missing = [k for k, p in accepted.items() if p.default is p.empty and k not in params]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ValueError(f"{problem} parameter(s) {', '.join(keys)} for family "
                             f"{family!r}; accepted: {', '.join(accepted) or 'none'}")
    return build(**params)


def model_from_descriptor(descriptor: dict) -> DensityModel:
    """Rebuild a model from :meth:`DensityModel.descriptor` output."""
    d = dict(descriptor)
    return make_model(d["family"], **dict(d.get("params", {})))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_DERIV_RTOL = 1e-6  # integrals of f^(j) against increments of f^(j-1), relative
_GAUSS_NODES = 32  # Gauss-Legendre nodes per probe interval


def check_density(model: DensityModel, tol: float = 1e-9) -> dict:
    """Run the density sanity checks and return a report dict.

    The probe is the 2%, 10%, ..., 98% quantiles (13 points).  Checks: f
    integrates to one over the support (to ``tol``); f is positive on the
    probe; each derivative f^(j), j = 1..6, integrates to the increments of
    f^(j-1) (f^(0) = f) between consecutive probe points, to ``_DERIV_RTOL``
    relative to the largest |f^(j-1)| on the probe; the first three
    derivatives integrate to zero over the support (boundary decay), all
    three and f itself over the nodes of the moment integrals.

    The identities use one Gauss-Legendre rule of ``_GAUSS_NODES`` nodes per
    probe interval, and each f^(j) is evaluated in one array call on the
    probe and the nodes together.  A wrong derivative (a user table's f6
    column negated, say, or f2 off by 1e-5 relative) fails the identity at
    the order it enters, where it drifts from the integral of the order
    above or below; ``deriv_max_rel_err`` is the largest relative gap.
    """
    from .moments import _integrate, _rule
    probe = np.asarray(model.ppf(np.linspace(0.02, 0.98, 13)), dtype=float)
    (total, *boundary), (err, *_), _ = _integrate(  # f and f^(j) = psi_j f, j = 1..3
        model, _rule(model), lambda x: [np.ones_like(x), *model.psi_chain(x, 3)],
        lambda values: tol)

    nodes, weights = _panels(probe[:-1], probe[1:], _GAUSS_NODES)  # a row per probe interval
    points = np.concatenate([probe, nodes.ravel()])
    f = np.asarray(model.pdf(points), dtype=float)
    below = f[:probe.size]  # f^(j-1) on the probe
    positive = bool(np.all(below > 0.0))
    gaps = []  # a nan gap (a non-finite derivative) stays nan in the maximum
    for p in model.psi_chain(points, MAX_DERIVATIVE_ORDER):
        values = np.asarray(p, dtype=float) * f  # f^(j) = psi_j f
        integrals = np.sum(weights * values[probe.size:].reshape(nodes.shape), axis=1)
        gaps.append(np.max(np.abs(integrals - np.diff(below))) / np.max(np.abs(below)))
        below = values[:probe.size]
    max_rel = float(np.max(gaps))

    return {
        "integral": float(total),
        "integral_error": float(err),
        "integrates_to_one": bool(abs(total - 1.0) <= tol),
        "positive_on_probe": positive,
        "deriv_max_rel_err": max_rel,
        "derivs_match": bool(max_rel <= _DERIV_RTOL),
        "deriv_boundary_integrals": dict(zip((1, 2, 3), map(float, boundary))),
    }
