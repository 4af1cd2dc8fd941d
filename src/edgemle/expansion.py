"""The three fifth-order expansions for the location MLE.

Given the moment functionals of a family this module evaluates, at any
truncation order k in 1..5 ("include every term up to n^-((k-1)/2)"):

* the stochastic expansion of sqrt(n)(thetahat - theta0) as a polynomial in
  the normalized contrast-derivative sums xi_1..xi_6,
* the Edgeworth expansion G_n(x) of the distribution function of the
  standardized statistic sqrt(n I) (thetahat - theta0),
* the Cornish-Fisher expansion of the quantile function G_n^{-1}(v).

Each expansion is a table of exact rationals over monomials, read by
:func:`evaluate_terms`.  Only the Edgeworth correction polynomials are
stored: the Cornish-Fisher table is their exact series inverse and the
stochastic expansion solves the score equation, both derived on first use.
A CDF or quantile table at a family's etas is one cached matrix, a row per
order and a column per power, whose rows :func:`edgeworth_cdf` and
:func:`cornish_fisher_quantile` weight by n^-((o-1)/2) and sum by power for
one Horner pass; the stochastic expansion sums its weighted order blocks in
one cumulative sum.  Tests freeze the tables: every coefficient vanishes at
the Gaussian etas, every term obeys the reflection parity rule, the tables
compose to the identity through n^-2, and the stochastic table solves the
score equation symbolically.

:func:`compose_check` runs its whole (n, order) grid as rows of one coefficient
stack through the helpers of the tables' array branches, bit for bit theirs.
A confidence level whose quantiles leave the interval about 0 on which the
quantile polynomial increases is refused.

Known slip: order 5 lacks +D at x^5 and -D at x^3, D = eta2/2 - eta4/3 +
eta7/5 - eta10/2 - eta3^2/8, and the quantile table inherits it.  D is 0 at
the Gaussian etas; against an exact law order 5 decays only like n^-2.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache
from typing import Mapping

import numpy as np

from .density import (DensityModel, _horner, _json_data, _normal_cdf, _normal_cdfs,
                      _normal_quantiles, _require_usable, _scalar_like, _whole)
from .errors import SingularInformation, UnsupportedOrder
from .moments import MomentSet, _eta_key

ORDERS = (1, 2, 3, 4, 5)

#: exact eta values of the standard normal family
GAUSSIAN_ETA = {2: F(2), 3: F(0), 4: F(3), 5: F(0), 6: F(0),
                7: F(15), 8: F(8), 9: F(6), 10: F(6)}

# ---------------------------------------------------------------------------
# coefficient tables
#
# table[order][power] = list of (rational, eta-monomial) terms, the monomial
# being a tuple of (eta index, exponent) pairs.  order o contributes at
# n^-((o-1)/2); power is the power of x (or of the normal quantile z).
# ---------------------------------------------------------------------------

EDGEWORTH_TABLE = {
    2: {
        2: [(F(-1, 12), ((3, 1),))],
        0: [(F(-1, 6), ((3, 1),))],
    },
    3: {
        5: [(F(-1, 288), ((3, 2),))],
        3: [(F(1, 8), ()), (F(-1, 6), ((2, 1),)), (F(5, 72), ((4, 1),)),
            (F(1, 72), ((3, 2),))],
        1: [(F(-1, 24), ((4, 1),)), (F(1, 24), ((3, 2),)), (F(1, 8), ())],
    },
    4: {
        8: [(F(-1, 10368), ((3, 3),))],
        6: [(F(1, 96), ((3, 1),)), (F(-1, 72), ((2, 1), (3, 1))),
            (F(19, 10368), ((3, 3),)), (F(5, 864), ((3, 1), (4, 1)))],
        4: [(F(-1, 72), ((3, 1), (4, 1))), (F(-1, 30), ((5, 1),)),
            (F(19, 1728), ((3, 3),)), (F(1, 8), ((6, 1),))],
        2: [(F(35, 864), ((3, 3),)), (F(1, 32), ((3, 1),)),
            (F(1, 80), ((5, 1),)), (F(-5, 96), ((3, 1), (4, 1)))],
        0: [(F(-5, 48), ((3, 1), (4, 1))), (F(35, 432), ((3, 3),)),
            (F(1, 16), ((3, 1),)), (F(1, 40), ((5, 1),))],
    },
    5: {
        11: [(F(-1, 497664), ((3, 4),))],
        9: [(F(43, 497664), ((3, 4),)), (F(-1, 1728), ((2, 1), (3, 2))),
            (F(1, 2304), ((3, 2),)), (F(5, 20736), ((3, 2), (4, 1)))],
        7: [(F(-5, 1152), ((3, 2),)), (F(1, 3456), ((3, 4),)),
            (F(1, 192), ((2, 1), (3, 2))), (F(1, 96), ((3, 1), (6, 1))),
            (F(-1, 360), ((3, 1), (5, 1))), (F(-11, 3456), ((3, 2), (4, 1))),
            (F(-1, 72), ((2, 2),)), (F(1, 48), ((2, 1),)),
            (F(5, 432), ((2, 1), (4, 1))), (F(-1, 128), ()),
            (F(-5, 576), ((4, 1),)), (F(-25, 10368), ((4, 2),))],
        5: [(F(-13, 24), ((2, 1),)), (F(205, 576), ((4, 1),)),
            (F(1, 120), ((9, 1),)), (F(-1, 240), ((8, 1),)),
            (F(61, 120), ((10, 1),)), (F(-731, 3600), ((7, 1),)),
            (F(23, 3456), ((4, 2),)), (F(-1, 72), ((2, 1), (4, 1))),
            (F(287, 2304), ((3, 2),)), (F(-5, 6912), ((3, 4),)),
            (F(7, 384), ()), (F(-7, 768), ((3, 2), (4, 1))),
            (F(-1, 12), ((3, 1), (6, 1))), (F(23, 960), ((3, 1), (5, 1))),
            (F(1, 48), ((2, 1), (3, 2)))],
        3: [(F(23, 48), ((2, 1),)), (F(-181, 576), ((4, 1),)),
            (F(1, 24), ((8, 1),)), (F(-5, 12), ((10, 1),)),
            (F(53, 360), ((7, 1),)), (F(7, 1152), ((4, 2),)),
            (F(-1, 48), ((2, 1), (4, 1))), (F(-77, 576), ((3, 2),)),
            (F(-35, 3456), ((3, 4),)), (F(5, 1728), ((3, 2), (4, 1))),
            (F(-1, 6), ((3, 1), (6, 1))), (F(1, 24), ((3, 1), (5, 1))),
            (F(5, 144), ((2, 1), (3, 2))), (F(5, 384), ())],
        1: [(F(1, 64), ((4, 1),)), (F(1, 240), ((7, 1),)),
            (F(-5, 384), ((4, 2),)), (F(-1, 64), ((3, 2),)),
            (F(-35, 1152), ((3, 4),)), (F(1, 128), ()),
            (F(35, 576), ((3, 2), (4, 1))), (F(-1, 48), ((3, 1), (5, 1)))],
    },
}


def _monomial_product(mono, mono2) -> tuple:
    """The product of two monomials, each a sorted tuple of (index, exponent) pairs."""
    return tuple(sorted((Counter(dict(mono)) + Counter(dict(mono2))).items()))


def _quantile_table(cdf_table) -> dict:
    """The Cornish-Fisher table: the exact series inverse of ``cdf_table``.

    G_n(x) = Phi(x) + phi(x) a(x), a = sum_o n^-((o-1)/2) P_o(x), has the
    quantile z + sum_r (-1)^r / r! D_1 ... D_(r-1)[a(z)^r] with
    D_m f = f' - m z f, D_(r-1) acting first (Hill & Davis, Ann. Math. Statist.
    39 (1968) 1264-1273).  Keys are (power of n^-1/2, power of z, monomial).
    """
    top = max(cdf_table) - 1
    a = [(o - 1, p, mono, c) for o, powers in cdf_table.items()
         for p, terms in powers.items() for c, mono in terms]
    a_power, inverse = {(0, 0, ()): F(1)}, Counter()
    for r in range(1, top + 1):
        product = Counter()
        for (j, p, mono), c in a_power.items():
            for j2, p2, mono2, c2 in a:
                if j + j2 <= top:  # a^r starts at n^-(r/2)
                    product[j + j2, p + p2, _monomial_product(mono, mono2)] += c * c2
        a_power = term = product
        for m in range(r - 1, 0, -1):
            term, previous = Counter(), term
            for (j, p, mono), c in previous.items():
                if p:
                    term[j, p - 1, mono] += p * c
                term[j, p + 1, mono] -= m * c
        for key, c in term.items():
            inverse[key] += F((-1) ** r, math.factorial(r)) * c
    # largest coefficient first: the terms cancel at the Gaussian etas, and a
    # sum with heavy cancellation loses least in decreasing order (Higham 2002, 4.2)
    table: dict = {}
    for (j, p, mono), c in sorted(inverse.items(), key=lambda t: (t[0][:2], -abs(t[1]), t[0])):
        if c:
            table.setdefault(j + 1, {}).setdefault(p, []).append((c, mono))
    return table


@lru_cache(maxsize=None)
def _table(kind: str) -> dict:
    """The coefficient table of ``kind``; the quantile table is derived on first use."""
    if kind not in ("edgeworth", "cornish-fisher"):
        raise ValueError(f"unknown coefficient table {kind!r}")
    return EDGEWORTH_TABLE if kind == "edgeworth" else _quantile_table(EDGEWORTH_TABLE)


def _check_order(order) -> int:
    k = _whole(order, "truncation order", UnsupportedOrder)
    if k not in ORDERS:
        raise UnsupportedOrder(f"truncation order must be in {ORDERS}, got {order}")
    return k


def _n_weights(n) -> np.ndarray:
    """n^-(j/2) for j = 0..4, the weight of order j + 1, as Python float powers."""
    return np.array([float(n) ** (-j / 2) for j in range(len(ORDERS))])


def _eta_mapping(moments) -> Mapping[int, float]:
    if isinstance(moments, MomentSet):
        return moments.eta
    return {int(k): v for k, v in dict(moments).items()}


def evaluate_terms(terms, eta: Mapping[int, object]):
    """Sum a list of (rational, eta-monomial) terms at the given eta values.

    Exact when the eta values are Fractions; float otherwise.
    """
    total = None
    for frac, monomial in terms:
        prod = frac
        for idx, power in monomial:
            prod = prod * eta[idx] ** power
        total = prod if total is None else total + prod
    return total if total is not None else 0


def collapse_report(eta=None) -> dict:
    """Evaluate every correction coefficient, by default at the Gaussian etas.

    Returns entry list [(table, order, power, value)] and the maximum
    absolute value.  With the default exact Gaussian etas the computation is
    rational arithmetic and the result must be exactly zero everywhere.
    """
    eta = GAUSSIAN_ETA if eta is None else _eta_mapping(eta)
    entries = []
    for kind in ("edgeworth", "cornish-fisher"):
        table = _table(kind)
        for order in sorted(table):
            for power in sorted(table[order]):
                val = evaluate_terms(table[order][power], eta)
                entries.append((kind, order, power, val))
    max_abs = max(abs(float(v)) for *_ignored, v in entries)
    return {"entries": entries, "max_abs_coefficient": max_abs}


# ---------------------------------------------------------------------------
# stochastic expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class XiVector:
    """The six normalized contrast-derivative sums of one sample.

    xi[j-1] = n^(-1/2) sum_i (rho^(j)(X_i - theta0) - a_j).  For the normal
    family xi_2..xi_6 are exactly zero: rho is quadratic, so every higher
    contrast derivative is constant and cancels its own mean.
    """

    xi: np.ndarray
    n: int


def compute_xi(sample, theta0: float, model: DensityModel, a) -> XiVector:
    """Normalized sums xi_1..xi_6 of one sample around the shift theta0.

    The one-row :func:`compute_xi_batch`.
    """
    x = np.asarray(sample, dtype=float).ravel()
    return XiVector(compute_xi_batch(x[None, :], theta0, model, a)[0], x.size)


def compute_xi_batch(samples, theta0: float, model: DensityModel, a) -> np.ndarray:
    """Normalized sums xi_1..xi_6 of each row of an (M, n) array; returns (M, 6)."""
    s = np.asarray(samples, dtype=float)
    a = np.asarray(a, dtype=float)
    if s.ndim != 2 or s.shape[1] == 0:
        raise ValueError(f"samples must be a nonempty (M, n) array, got shape {s.shape}")
    if a.shape != (6,):
        raise ValueError("a must hold the six contrast-derivative means")
    y = s - float(theta0)
    _require_usable(model, y)
    root_n = np.sqrt(s.shape[1])
    # one pass of the chain, which alone holds the shifted points from here;
    # each order is summed and dropped before the chain computes the next
    chain = model.rho_chain(y, 6)
    del y
    cols = []
    for r in chain:
        cols.append(np.sum(r - a[len(cols)], axis=1) / root_n)
        del r
    return np.stack(cols, axis=1)


@lru_cache(maxsize=None)
def _stochastic_table() -> dict:
    """The stochastic expansion of u = sqrt(n)(thetahat - theta0), derived on first use.

    Taylor expanded about theta0 and divided by a_2, the score equation reads
    u = y_1 - e y_2 u + sum_(m=2..5) (c_(m+1) + e y_(m+1)) (-u)^m e^(m-1) / m!,
    e = n^-1/2, y_j = xi_j / a_2, c_j = a_j / a_2; pass k settles its e^k
    coefficient.  Order o (e^(o-1)) maps xi- to (rational, a-monomial) terms.
    """
    def series_product(p, q, k):  # series keyed (power of e, y-monomial, c-monomial), through e^k
        out = Counter()
        for (j, y, c), v in p.items():
            for (j2, y2, c2), v2 in q.items():
                if j + j2 <= k:
                    out[j + j2, _monomial_product(y, y2), _monomial_product(c, c2)] += v * v2
        return out

    u = {}
    for k in range(len(ORDERS)):
        rhs, power = series_product({(1, ((2, 1),), ()): F(-1)}, u, k), u  # -e y_2 u
        rhs[0, ((1, 1),), ()] += F(1)  # + y_1
        for m in range(2, len(ORDERS) + 1):
            power, w = series_product(power, u, k), F((-1) ** m, math.factorial(m))
            factor = {(m - 1, (), ((m + 1, 1),)): w, (m, ((m + 1, 1),), ()): w}  # e^(m-1) c, e^m y
            rhs.update(series_product(factor, power, k))
        u = rhs
    table: dict = {}
    for (j, y, c), v in sorted(u.items()):
        if v:
            table.setdefault(j + 1, {}).setdefault(y, []).append((v, c))
    return table


_A2_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def stochastic_expansion(xi: XiVector, a, order) -> float:
    """Truncated stochastic expansion of sqrt(n)(thetahat - theta0).

    The one-row :func:`stochastic_expansion_batch`.
    """
    k = _check_order(order)
    return float(stochastic_expansion_batch(xi.xi[None, :], xi.n, a, orders=(k,))[k][0])


@lru_cache(maxsize=32)
def _stochastic_coefficients(a_bytes: bytes) -> tuple:
    """Per order, the (float coefficient, y-monomial) terms of the stochastic table at one ``a``.

    ``a_bytes`` is ``a`` as float64 bytes, so 0.0 and -0.0 key apart; each
    coefficient is its a-polynomial summed at c_j = a_j / a_2.
    """
    a = np.frombuffer(a_bytes)
    c = dict(enumerate(a / a[1], start=1))
    return tuple(tuple((float(evaluate_terms(terms, c)), mono)
                       for mono, terms in _stochastic_table()[o].items()) for o in ORDERS)


def stochastic_expansion_batch(xi_matrix: np.ndarray, n: int, a, orders=ORDERS) -> dict:
    """Truncations for many replicates at once: order -> (M,) array."""
    xi = np.asarray(xi_matrix, dtype=float)
    a = np.asarray(a, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != 6:
        raise ValueError(f"xi_matrix must be shaped (M, 6), got shape {xi.shape}")
    if a.shape != (6,):
        raise ValueError("a must hold the six contrast-derivative means")
    if abs(a[1]) <= _A2_FLOOR:
        raise SingularInformation(f"|a2| = {abs(a[1])} below machine threshold")
    y = np.ascontiguousarray(xi.T) / a[1]  # row j - 1 holds y_j
    powers = {}  # (j, p) -> y_j ** p, each computed once
    blocks = []
    for terms in _stochastic_coefficients(a.tobytes()):
        # evaluate_terms' float steps: each product left to right, the sum from 0
        total = 0
        for coef, mono in terms:
            prod = coef
            for j, p in mono:
                if (j, p) not in powers:
                    powers[j, p] = y[j - 1] ** p
                prod = prod * powers[j, p]
            total = total + prod
        blocks.append(total)
    blocks = np.stack(blocks)
    # row k - 1 is the order-k truncation: the weighted blocks summed in order
    sums = np.cumsum(_n_weights(n)[:, None] * blocks, axis=0)
    return {k: sums[k - 1] for k in map(_check_order, orders)}


# ---------------------------------------------------------------------------
# Edgeworth CDF and Cornish-Fisher quantiles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _coefficient_arrays(kind: str, eta_key: tuple) -> np.ndarray:
    """Read-only coefficient matrix of one table: row o - 2 holds order o's coefficients by power.

    ``eta_key`` is :func:`~edgemle.moments._eta_key` of the etas, whose
    reprs keep apart a Fraction and its float, or 0.0 and -0.0.  Powers an
    order lacks are zero.
    """
    eta = {idx: value for idx, value, _repr in eta_key}
    table = _table(kind)
    coeffs = np.zeros((len(table), 1 + max(max(powers) for powers in table.values())))
    for o, powers in table.items():
        for power, terms in powers.items():
            coeffs[o - 2, power] = float(evaluate_terms(terms, eta))
    coeffs.flags.writeable = False
    return coeffs


#: |eta3| above which order 5 is flagged: its tables carry an n^-2 error for
#: skewed families.  Symmetric families (eta3 = 0 exactly) pass silently, but
#: their order 5 is wrong too: the x^5/x^3 blocks miss +-D (3/70 for the
#: logistic; see the module docstring and ROADMAP item 2)
_SKEW_FLOOR = 1e-8


@lru_cache(maxsize=1024)
def _weighted_coefficients(kind: str, eta_key: tuple, n: int, order: int) -> tuple:
    """sum_(o=2..order) n^-((o-1)/2) P_o of table ``kind``, by power of t, as floats."""
    width = 1 + max(_table(kind)[order])  # no lower order reaches a higher power
    return tuple((_n_weights(n)[1:order] @ _coefficient_arrays(kind, eta_key)[:order - 1, :width])
                 .tolist())


def _corrections(kind: str, moments, n: int, order: int) -> tuple:
    """The coefficients, by power of t, of the sum of n^-((o-1)/2) P_o(t) over o = 2..order.

    P_o is the order-o polynomial of table ``kind``, its coefficients
    evaluated at the family's etas (once per eta tuple) and indexed by power
    of t; the weighted orders are summed by power (once per eta tuple, n and
    order), so one Horner pass covers them all.  Order 1 has none.  Order 5
    warns for a skewed family.
    """
    if order < 2:
        return ()
    eta = _eta_mapping(moments)
    if order == 5 and abs(eta[3]) > _SKEW_FLOOR:
        warnings.warn(f"order 5 is unreliable for a skewed family (eta3 = {float(eta[3]):.6g}): "
                      "its error decays like n^-2 instead of n^-5/2; use order 4",
                      UserWarning, stacklevel=3)
    return _weighted_coefficients(kind, _table_key(moments), n, order)


def _table_key(moments) -> tuple:
    # a MomentSet builds its key once; a plain mapping builds it per call
    return moments.eta_key if isinstance(moments, MomentSet) else _eta_key(_eta_mapping(moments))


@lru_cache(maxsize=1024)
def _increasing_range(eta_key: tuple, n: int, order: int) -> tuple:
    """(lo, hi, top) of the order-``order`` quantile z + sum_j c_j z^j at one eta tuple and n.

    It increases on (lo, hi), between the nearest real roots of its derivative about 0
    (empty if the slope at 0 is not positive); ``top`` is the largest central level inside.
    """
    c = _weighted_coefficients("cornish-fisher", eta_key, n, order) if order > 1 else ()
    p = np.zeros(max(2, len(c)))  # the quantile's coefficients by power of z
    p[:len(c)] = c
    p[1] += 1.0
    slope = np.arange(1, len(p)) * p[1:]
    if not slope[0] > 0:
        return 0.0, 0.0, 0.0
    roots = np.roots(slope[::-1])
    real = roots.real[roots.imag == 0].tolist()  # LAPACK leaves a real root's imag exactly 0
    lo = max((r for r in real if r < 0), default=-math.inf)
    hi = min((r for r in real if r > 0), default=math.inf)
    return lo, hi, math.erf(min(-lo, hi) * math.sqrt(0.5))


def _check_increasing(moments, n: int, order: int, level: float):
    """Refuse a central ``level`` whose two quantiles the order-``order`` expansion
    cannot give: a ValueError unless both lie where the quantile increases."""
    lo, hi, top = _increasing_range(_table_key(moments), n, _check_order(order))
    if not level < top:
        raise ValueError(f"the order-{order} quantile expansion at n = {n} increases only for "
                         f"z in ({lo:.4g}, {hi:.4g}), so it orders the quantiles of central "
                         f"levels below {top:.4g} only, not of level {level}; use a lower order "
                         "or a larger sample")


#: from this many points on, one Horner pass over the arrays costs less than one
#: per point (the two take the same float steps)
_ARRAY_POINTS = 32


def _per_point(values, like):
    # a list of per-point floats, as a float or an array of the shape of ``like``
    return _scalar_like(like, np.array(values, dtype=float).reshape(np.shape(like)))


def _check_n(n) -> int:
    m = _whole(n, "sample size")
    if m < 1:
        raise ValueError(f"sample size must be a positive integer, got {n}")
    return m


def _phi(x):
    # phi is 0 from |x| = 38.6 on; capping |x| at 40 keeps x^2 from overflowing
    return np.exp(-0.5 * np.minimum(np.abs(x), 40.0) ** 2) / np.sqrt(2 * np.pi)


def _edgeworth(c, x):
    """Phi(x) + phi(x) sum_j c[j] x^j, per point; ``c`` may stack rows as (power, row, 1)."""
    phi = _phi(x)
    return _normal_cdfs(x) + _horner(c, np.where(phi > 0, x, 0.0)) * phi


def _cornish_fisher(c, z):
    """z + sum_j c[j] z^j, with ``c`` as in :func:`_edgeworth`."""
    return z + _horner(c, z)


def edgeworth_cdf(moments, n, order, x):
    """Edgeworth expansion of the CDF of sqrt(n I)(thetahat - theta0).

    Order 1 is the plain normal CDF; order k adds the correction polynomials
    up to and including the n^-((k-1)/2) term.  The raw polynomial value can
    leave [0, 1] in the far tails; it is returned as it is.  Where phi(x)
    underflows to zero (|x| > 38.6 and +-inf) the value is the normal CDF.
    """
    m = _check_n(n)
    k = _check_order(order)
    xa = np.asarray(x, dtype=float)
    c = _corrections("edgeworth", moments, m, k)
    if xa.size >= _ARRAY_POINTS:
        return _edgeworth(c, xa)
    return _per_point([_normal_cdf(t) + _horner(c, t if f > 0 else 0.0) * f
                       for t, f in zip(xa.ravel().tolist(), _phi(xa).ravel().tolist())], x)


def cornish_fisher_quantile(moments, n, order, v):
    """Quantile expansion matching :func:`edgeworth_cdf` at the same order."""
    m = _check_n(n)
    k = _check_order(order)
    z = _normal_quantiles(v)
    c = _corrections("cornish-fisher", moments, m, k)
    if len(z) < _ARRAY_POINTS:
        return _per_point([t + _horner(c, t) for t in z], v)
    return _cornish_fisher(c, _per_point(z, v))


# ---------------------------------------------------------------------------
# composition diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionReport:
    """Residuals of G_n(G_n^{-1}(v)) - v per order across an n grid.

    ``residuals[k][n]`` is the max same-order residual over the v grid;
    ``normal_quantile_residuals`` uses the plain normal quantile inside the
    order-k CDF instead (the natural size of everything the expansion is
    correcting).  ``decay_exponents[k]`` is the fitted s in residual ~ n^-s;
    the first omitted term says s should be at least k/2.  ``flagged_order``
    is the lowest order whose decay falls short; as the quantile table is the
    exact inverse of the CDF table, that points at the n grid or round-off.
    """

    n_grid: tuple
    v_grid: tuple
    orders: tuple
    residuals: Mapping[int, Mapping[int, float]]
    normal_quantile_residuals: Mapping[int, Mapping[int, float]]
    decay_exponents: Mapping[int, float | None]
    expected_exponents: Mapping[int, float]
    flagged_order: int | None
    notes: tuple

    def to_dict(self) -> dict:
        return _json_data(self)


_ROUNDOFF_FLOOR = 1e-13
_DECAY_SLACK = 0.3  # shortfall of a fitted decay exponent below k/2 that flags order k


def compose_check(moments, n, v_grid=None, orders=ORDERS) -> CompositionReport:
    """Check that the quantile expansion inverts the CDF expansion.

    ``n`` may be a single size or a grid; with at least two sizes the decay
    exponent of the residual is fitted and compared against the k/2 of the
    first omitted term.  Residuals at the round-off floor are exempt from the
    fit.  A shortfall flags the order; empty grids are refused rather than
    reported as an all-clear.
    """
    n_grid = tuple(_check_n(v) for v in np.atleast_1d(n))
    if sorted(set(n_grid)) != list(n_grid):
        raise ValueError("n grid must be strictly increasing")
    if v_grid is None:
        v_grid = np.linspace(0.05, 0.95, 19)
    v_grid = np.asarray(v_grid, dtype=float)
    # the normal quantile first: a v outside (0, 1) is its ValueError
    z = _per_point(_normal_quantiles(v_grid), v_grid)
    orders = tuple(_check_order(k) for k in orders)
    for name, grid in (("n grid", n_grid), ("v grid", v_grid), ("order list", orders)):
        if len(grid) == 0:
            raise ValueError(f"{name} must not be empty")

    # every (n, order) pair is a row: its corrections stacked by power, zero above its
    # own top power (0 w + c is exactly c for finite w), so one pass covers all rows
    pairs = [(m, k) for m in n_grid for k in orders]
    c = {}
    for kind in ("cornish-fisher", "edgeworth"):
        c[kind] = np.zeros((1 + max(map(max, _table(kind).values())), len(pairs), 1))
        for i, (m, k) in enumerate(pairs):  # in a loop, the order-5 warning names the caller
            row = _corrections(kind, moments, m, k)
            c[kind][:len(row), i, 0] = row
    q = _cornish_fisher(c["cornish-fisher"], z)
    per_v = np.abs(_edgeworth(c["edgeworth"], q) - v_grid)
    base = np.abs(_edgeworth(c["edgeworth"], z) - v_grid)  # Phi(z), phi(z) once for all rows
    residuals: dict[int, dict[int, float]] = {k: {} for k in orders}
    base_res: dict[int, dict[int, float]] = {k: {} for k in orders}
    worst_v: dict[int, float] = {}  # at the largest n
    for (m, k), row, base_row in zip(pairs, per_v, base):
        residuals[k][m] = float(np.max(row))
        worst_v[k] = float(v_grid[int(np.argmax(row))])
        base_res[k][m] = float(np.max(base_row))

    exponents: dict[int, float | None] = {}
    expected = {k: k / 2.0 for k in orders}
    flagged = None
    notes = []
    if len(n_grid) >= 2:
        logn = np.log(np.asarray(n_grid, dtype=float))
        for k in orders:
            vals = np.array([residuals[k][m] for m in n_grid])
            if np.all(vals <= _ROUNDOFF_FLOOR):
                exponents[k] = None
                continue
            slope = float(np.polyfit(logn, np.log(np.maximum(vals, 1e-300)), 1)[0])
            exponents[k] = -slope
            if exponents[k] < expected[k] - _DECAY_SLACK and flagged is None:
                flagged = k
                notes.append(
                    f"order {k}: residual decays like n^-{exponents[k]:.2f}, short of the "
                    f"n^-{expected[k]:.1f} of the first omitted term (largest residual at "
                    f"v={worst_v[k]:.2f}); the n grid may lie short of the asymptotic regime, "
                    f"or round-off dominates")
    else:
        exponents = {k: None for k in orders}

    return CompositionReport(n_grid, tuple(float(v) for v in v_grid), orders,
                             residuals, base_res, exponents, expected, flagged, tuple(notes))
