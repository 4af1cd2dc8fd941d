"""The three fifth-order expansions for the location MLE.

Given the moment functionals of a family this module evaluates, at any
truncation order k in 1..5 ("include every term up to n^-((k-1)/2)"):

* the stochastic expansion of sqrt(n)(thetahat - theta0) as a polynomial in
  the normalized contrast-derivative sums xi_1..xi_6,
* the Edgeworth expansion G_n(x) of the distribution function of the
  standardized statistic sqrt(n I) (thetahat - theta0),
* the Cornish-Fisher expansion of the quantile function G_n^{-1}(v).

The correction-polynomial coefficients are stored once as exact rationals
over eta-monomials.  One private loop evaluates a table at a family's etas
for both :func:`edgeworth_cdf` and :func:`cornish_fisher_quantile`, keeping
the coefficient arrays of each eta tuple in a bounded cache, and
:func:`collapse_report` lists every coefficient at any etas.  The tables are
frozen behind tests: substituting the Gaussian values
(eta2, eta4, eta7, eta8, eta9, eta10) = (2, 3, 15, 8, 6, 6) with the odd
functionals zero makes every coefficient vanish identically, and the
quantile table is the exact series inverse of the CDF table through order
n^-(3/2).

Known anomaly, kept verbatim: composing the two tables leaves a z^9 residual
5 eta3 eta4 (eta4 - eta3) / 20736 at order n^-2, so one of the x^9 / z^5
blocks carries a transcription slip in its source.  The tables are not
silently altered; :func:`compose_check` detects and names the block for
skewed families (it vanishes when eta3 = 0).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .density import DensityModel, _require_usable, _scalar_like
from .errors import SingularInformation, UnsupportedOrder
from .moments import MomentSet

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
            (F(1, 2304), ((3, 2),)), (F(5, 20736), ((3, 1), (4, 2)))],
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

# The order-2 displacement below is eta3 (z^2 + 2) / 12: the (z^2 + 2)
# grouping is forced by being the series inverse of the order-2 CDF term
# (any reading that leaves a bare +2 outside the bracket fails to vanish as
# n grows and is dimensionally inconsistent with the other orders).
CORNISH_FISHER_TABLE = {
    2: {
        2: [(F(1, 12), ((3, 1),))],
        0: [(F(1, 6), ((3, 1),))],
    },
    3: {
        3: [(F(-1, 72), ((3, 2),)), (F(-5, 72), ((4, 1),)),
            (F(1, 6), ((2, 1),)), (F(-1, 8), ())],
        1: [(F(-1, 36), ((3, 2),)), (F(1, 24), ((4, 1),)), (F(-1, 8), ())],
    },
    4: {
        4: [(F(-1, 144), ((3, 1), (4, 1))), (F(1, 24), ((2, 1), (3, 1))),
            (F(-1, 48), ((3, 1),)), (F(-19, 1728), ((3, 3),)),
            (F(-1, 8), ((6, 1),)), (F(1, 30), ((5, 1),))],
        2: [(F(1, 48), ((3, 1), (4, 1))), (F(1, 12), ((2, 1), (3, 1))),
            (F(-5, 48), ((3, 1),)), (F(-67, 1296), ((3, 3),)),
            (F(-1, 80), ((5, 1),))],
        0: [(F(-113, 1296), ((3, 3),)), (F(-1, 40), ((5, 1),)),
            (F(1, 9), ((3, 1), (4, 1))), (F(-1, 12), ((3, 1),))],
    },
    5: {
        5: [(F(7, 16), ((2, 1),)), (F(-59, 192), ((4, 1),)),
            (F(-23, 192), ((3, 2),)), (F(-61, 120), ((10, 1),)),
            (F(-1, 16), ((2, 1), (4, 1))), (F(731, 3600), ((7, 1),)),
            (F(1, 240), ((8, 1),)), (F(-1, 120), ((9, 1),)),
            (F(19, 1728), ((3, 2), (4, 1))), (F(-7, 288), ((2, 1), (3, 2))),
            (F(-17, 1440), ((3, 1), (5, 1))), (F(1, 24), ((3, 1), (6, 1))),
            (F(1, 12), ((2, 2),)), (F(37, 3456), ((4, 2),)),
            (F(1, 1728), ((3, 4),)), (F(5, 384), ())],
        3: [(F(1, 24), ()), (F(-9, 16), ((2, 1),)), (F(1, 3), ((4, 1),)),
            (F(85, 576), ((3, 2),)), (F(5, 12), ((10, 1),)),
            (F(7, 144), ((2, 1), (4, 1))), (F(-53, 360), ((7, 1),)),
            (F(-1, 24), ((8, 1),)), (F(11, 1728), ((3, 2), (4, 1))),
            (F(-1, 24), ((2, 1), (3, 2))), (F(-7, 360), ((3, 1), (5, 1))),
            (F(1, 12), ((3, 1), (6, 1))), (F(-1, 54), ((4, 2),)),
            (F(19, 3888), ((3, 4),))],
        1: [(F(1, 128), ()), (F(-5, 192), ((4, 1),)), (F(1, 288), ((3, 2),)),
            (F(-1, 240), ((7, 1),)), (F(-5, 96), ((3, 2), (4, 1))),
            (F(1, 72), ((2, 1), (3, 2))), (F(1, 60), ((3, 1), (5, 1))),
            (F(17, 1152), ((4, 2),)), (F(65, 3888), ((3, 4),))],
    },
}

_TABLES = {"edgeworth": EDGEWORTH_TABLE, "cornish-fisher": CORNISH_FISHER_TABLE}


def _check_order(order) -> int:
    k = int(order)
    if k not in ORDERS:
        raise UnsupportedOrder(f"truncation order must be in {ORDERS}, got {order}")
    return k


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
    for kind, table in _TABLES.items():
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
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    a = np.asarray(a, dtype=float)
    if a.shape != (6,):
        raise ValueError("a must hold the six contrast-derivative means")
    return XiVector(compute_xi_batch(x[None, :], theta0, model, a)[0], x.size)


def compute_xi_batch(samples, theta0: float, model: DensityModel, a) -> np.ndarray:
    """Normalized sums xi_1..xi_6 of each row of an (M, n) array; returns (M, 6)."""
    s = np.asarray(samples, dtype=float)
    a = np.asarray(a, dtype=float)
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


def _expansion_brackets(x1, x2, x3, x4, x5, x6, a2, a3, a4, a5, a6):
    """The five order blocks of the stochastic expansion.

    Pure arithmetic in the inputs, so it evaluates equally on floats, numpy
    arrays and symbolic quantities; block m is the coefficient of
    n^-((m-1)/2).
    """
    b1 = x1 / a2
    b2 = -x1 * x2 / a2**2 + a3 * x1**2 / (2 * a2**3)
    b3 = (x1 * x2**2 / a2**3
          - 3 * a3 * x1**2 * x2 / (2 * a2**4)
          + x1**2 * x3 / (2 * a2**3)
          + a3**2 * x1**3 / (2 * a2**5)
          - a4 * x1**3 / (6 * a2**4))
    b4 = (3 * a3 * x1**2 * x2**2 / a2**5
          + 5 * a3**3 * x1**4 / (8 * a2**7)
          - 5 * a3 * a4 * x1**4 / (12 * a2**6)
          - 3 * x1**2 * x2 * x3 / (2 * a2**4)
          - 5 * a3**2 * x1**3 * x2 / (2 * a2**6)
          + a5 * x1**4 / (24 * a2**5)
          + a3 * x1**3 * x3 / a2**5
          + 2 * a4 * x1**3 * x2 / (3 * a2**5)
          - x1**3 * x4 / (6 * a2**4)
          - x1 * x2**3 / a2**4)
    b5 = (-5 * a3 * x1**2 * x2**3 / a2**6
          - 5 * a4 * x1**4 * x3 / (12 * a2**6)
          + 15 * a3**2 * x1**3 * x2**2 / (2 * a2**7)
          - 35 * a3**3 * x1**4 * x2 / (8 * a2**8)
          + 5 * a3 * a4 * x1**4 * x2 / (2 * a2**7)
          - 5 * a5 * x1**4 * x2 / (24 * a2**6)
          - 7 * a3**2 * a4 * x1**5 / (8 * a2**8)
          - a6 * x1**5 / (120 * a2**6)
          + x1 * x2**4 / a2**5
          + x1**4 * x5 / (24 * a2**5)
          + a4**2 * x1**5 / (12 * a2**7)
          + 7 * a3**4 * x1**5 / (8 * a2**9)
          + x1**3 * x3**2 / (2 * a2**5)
          + 3 * x1**2 * x2**2 * x3 / a2**5
          + 15 * a3**2 * x1**4 * x3 / (8 * a2**7)
          - 5 * a3 * x1**4 * x4 / (12 * a2**6)
          - 5 * a4 * x1**3 * x2**2 / (3 * a2**6)
          + a3 * a5 * x1**5 / (8 * a2**7)
          - 5 * a3 * x1**3 * x2 * x3 / a2**6
          + 2 * x1**3 * x2 * x4 / (3 * a2**5))
    return b1, b2, b3, b4, b5


_A2_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def stochastic_expansion(xi: XiVector, a, order) -> float:
    """Truncated stochastic expansion of sqrt(n)(thetahat - theta0).

    The one-row :func:`stochastic_expansion_batch`.
    """
    k = _check_order(order)
    return float(stochastic_expansion_batch(xi.xi[None, :], xi.n, a, orders=(k,))[k][0])


def stochastic_expansion_batch(xi_matrix: np.ndarray, n: int, a, orders=ORDERS) -> dict:
    """Truncations for many replicates at once: order -> (M,) array."""
    a = np.asarray(a, dtype=float)
    if abs(a[1]) <= _A2_FLOOR:
        raise SingularInformation(f"|a2| = {abs(a[1])} below machine threshold")
    xs = [xi_matrix[:, j] for j in range(6)]
    brackets = _expansion_brackets(*xs, a[1], a[2], a[3], a[4], a[5])
    out = {}
    acc = brackets[0].copy()
    if 1 in orders:
        out[1] = acc.copy()
    for m in range(2, 6):
        acc = acc + float(n) ** (-(m - 1) / 2) * brackets[m - 1]
        if m in orders:
            out[m] = acc.copy()
    return out


# ---------------------------------------------------------------------------
# Edgeworth CDF and Cornish-Fisher quantiles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _coefficient_arrays(kind: str, order: int, eta_key: tuple) -> tuple:
    """Read-only coefficient arrays, indexed by power, of orders 2..order of one table.

    ``eta_key`` holds (index, value, repr(value)) triples: the repr keeps
    apart equal values that evaluate differently, such as a Fraction and its
    float, or 0.0 and -0.0.
    """
    eta = {idx: value for idx, value, _repr in eta_key}
    table = _TABLES[kind]
    arrays = []
    for o in range(2, order + 1):
        coeffs = np.zeros(max(table[o]) + 1)
        for power, terms in table[o].items():
            coeffs[power] = float(evaluate_terms(terms, eta))
        coeffs.flags.writeable = False
        arrays.append(coeffs)
    return tuple(arrays)


#: |eta3| above which order 5 is flagged: its tables carry an n^-2 error for
#: skewed families.  Symmetric families (eta3 = 0 exactly) pass silently, but
#: their order 5 is wrong too: the x^5/x^3 and z^5/z^3 blocks miss +-D with
#: D = eta2/2 - eta4/3 + eta7/5 - eta10/2 - eta3^2/8 (3/70 for the logistic);
#: see ROADMAP item 1
_SKEW_FLOOR = 1e-8


def _add_corrections(start, kind: str, moments, n: int, order: int, t):
    """``start`` plus n^-((o-1)/2) P_o(t) for o = 2..order, added in that order.

    P_o is the order-o polynomial of table ``kind``, its coefficients
    evaluated at the family's etas (once per eta tuple and order) and indexed
    by power of t.  Order 5 warns for a skewed family.
    """
    if order < 2:
        return start
    eta = _eta_mapping(moments)
    if order == 5 and abs(eta[3]) > _SKEW_FLOOR:
        warnings.warn(f"order 5 is unreliable for a skewed family (eta3 = {float(eta[3]):.6g}): "
                      "its error decays like n^-2 instead of n^-5/2; use order 4",
                      UserWarning, stacklevel=3)
    eta_key = tuple((idx, v, repr(v)) for idx, v in sorted(eta.items()))
    out = start
    for o, coeffs in enumerate(_coefficient_arrays(kind, order, eta_key), start=2):
        out = out + float(n) ** (-(o - 1) / 2) * np.polynomial.polynomial.polyval(t, coeffs)
    return out


def _check_n(n) -> int:
    m = int(n)
    if m < 1:
        raise ValueError(f"sample size must be a positive integer, got {n}")
    return m


def edgeworth_cdf(moments, n, order, x):
    """Edgeworth expansion of the CDF of sqrt(n I)(thetahat - theta0).

    Order 1 is the plain normal CDF; order k adds the correction polynomials
    up to and including the n^-((k-1)/2) term.  The raw polynomial value can
    leave [0, 1] in the far tails; it is returned as it is.
    """
    m = _check_n(n)
    k = _check_order(order)
    xa = np.asarray(x, dtype=float)
    out = np.asarray(special.ndtr(xa), dtype=float)
    if k >= 2:
        phi = np.exp(-0.5 * xa * xa) / np.sqrt(2 * np.pi)
        corr = _add_corrections(np.zeros_like(xa, dtype=float), "edgeworth", moments, m, k, xa)
        out = out + corr * phi
    return _scalar_like(x, out)


def cornish_fisher_quantile(moments, n, order, v):
    """Quantile expansion matching :func:`edgeworth_cdf` at the same order."""
    m = _check_n(n)
    k = _check_order(order)
    va = np.asarray(v, dtype=float)
    if np.any((va <= 0.0) | (va >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    z = np.asarray(special.ndtri(va), dtype=float)
    return _scalar_like(v, _add_corrections(z, "cornish-fisher", moments, m, k, z))


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
    is the lowest order whose decay falls short, which for skewed families
    points at the z^9 transcription anomaly documented in this module.
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
        return {
            "n_grid": list(self.n_grid),
            "v_grid": list(self.v_grid),
            "orders": list(self.orders),
            "residuals": {str(k): {str(n): v for n, v in d.items()}
                          for k, d in self.residuals.items()},
            "normal_quantile_residuals": {str(k): {str(n): v for n, v in d.items()}
                                          for k, d in self.normal_quantile_residuals.items()},
            "decay_exponents": {str(k): v for k, v in self.decay_exponents.items()},
            "expected_exponents": {str(k): v for k, v in self.expected_exponents.items()},
            "flagged_order": self.flagged_order,
            "notes": list(self.notes),
        }


_ROUNDOFF_FLOOR = 1e-13
_DECAY_SLACK = 0.3  # shortfall of a fitted decay exponent below k/2 that flags order k


def compose_check(moments, n, v_grid=None, orders=ORDERS) -> CompositionReport:
    """Check that the quantile expansion inverts the CDF expansion.

    ``n`` may be a single size or a grid; with at least two sizes the decay
    exponent of the residual is fitted and compared against the k/2 of the
    first omitted term.  Residuals at the round-off floor are exempt from the
    fit.  A shortfall flags the order as a suspected transcription slip in
    its coefficient blocks; nothing is corrected silently.
    """
    n_grid = tuple(int(v) for v in (np.atleast_1d(n)))
    if sorted(set(n_grid)) != list(n_grid):
        raise ValueError("n grid must be strictly increasing")
    if v_grid is None:
        v_grid = np.linspace(0.05, 0.95, 19)
    v_grid = np.asarray(v_grid, dtype=float)
    orders = tuple(_check_order(k) for k in orders)

    residuals: dict[int, dict[int, float]] = {k: {} for k in orders}
    base_res: dict[int, dict[int, float]] = {k: {} for k in orders}
    worst_v: dict[int, float] = {}
    z = special.ndtri(v_grid)
    for m in n_grid:
        for k in orders:
            q = cornish_fisher_quantile(moments, m, k, v_grid)
            per_v = np.abs(edgeworth_cdf(moments, m, k, q) - v_grid)
            residuals[k][m] = float(np.max(per_v))
            worst_v[k] = float(v_grid[int(np.argmax(per_v))])
            base_res[k][m] = float(np.max(np.abs(edgeworth_cdf(moments, m, k, z) - v_grid)))

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
                    f"n^-{expected[k]:.1f} of the first omitted term; suspected transcription "
                    f"slip in the order-{k} coefficient blocks (largest residual at "
                    f"v={worst_v[k]:.2f})")
    else:
        exponents = {k: None for k in orders}

    return CompositionReport(n_grid, tuple(float(v) for v in v_grid), orders,
                             residuals, base_res, exponents, expected, flagged, tuple(notes))
