"""Population moment functionals of a location family, by double-exponential quadrature.

Everything here is a population quantity at shift zero: the Fisher
information I = int (f'/f)^2 f, the contrast-derivative means
a_j = E rho^(j)(X) for j = 1..6, and the ten standardized score functionals
eta_2..eta_10 built from psi_i = f^(i)/f,

    eta_2  = E psi_2^2 / I^2        eta_3  = E psi_1^3 / I^(3/2)
    eta_4  = E psi_1^4 / I^2        eta_5  = E psi_1^5 / I^(5/2)
    eta_6  = E psi_2 psi_3 / I^(5/2)
    eta_7  = E psi_1^6 / I^3        eta_8  = E psi_2^3 / I^3
    eta_9  = E psi_3^2 / I^3        eta_10 = E psi_1 psi_2 psi_3 / I^3.

Indexing starts at 2 on purpose (there is no eta_1) so every coefficient in
the expansion tables can be read against this list without renumbering.

All sixteen integrals, and those of :func:`validate_conditions` and
:func:`check_density`, take one node rule (:func:`_rule`, after
Takahasi & Mori 1974 and Mori & Sugihara 2001) and, per level, one ``pdf`` call
and one pass of ``model.rho_chain(x, 6)``.  psi_1..psi_3 follow from that pass
by the recursion of ``model.psi_chain``, bit for bit :func:`edgemle.density.psi`
except for a table (whose ``psi_chain`` gives its column ratios).  Tolerances
are absolute per entry; an entry without a value raises
:class:`MomentDivergence` naming it and the cause.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .density import (_T_END, MAX_DERIVATIVE_ORDER, DensityModel, _de_map, _json_data,
                      _panels, _psi_from_log_derivs)
from .errors import InversionFailure, MomentDivergence

ETA_INDICES = tuple(range(2, 11))

# eta index -> (highest psi order k used, integrand over psi_1..psi_k, power
# of I in the denominator); odd powers as psi_1 times an even one stay exactly
# odd on arrays, where numpy's ** does not
_ETA_RECIPES = {
    2: (2, lambda p1, p2: p2 ** 2, 2.0),
    3: (1, lambda p1: p1 * (p1 * p1), 1.5),
    4: (1, lambda p1: p1 ** 4, 2.0),
    5: (1, lambda p1: p1 * (p1 * p1) ** 2, 2.5),
    6: (3, lambda p1, p2, p3: p2 * p3, 2.5),
    7: (1, lambda p1: p1 ** 6, 3.0),
    8: (2, lambda p1, p2: p2 ** 3, 3.0),
    9: (3, lambda p1, p2, p3: p3 ** 2, 3.0),
    10: (3, lambda p1, p2, p3: p1 * p2 * p3, 3.0),
}


def _eta_key(eta: Mapping) -> tuple:
    """(index, value, repr(value)) per eta, by index: a hashable key for coefficient tables.

    The repr keeps apart equal values that evaluate differently, such as a
    Fraction and its float, or 0.0 and -0.0.
    """
    return tuple((idx, v, repr(v)) for idx, v in sorted(eta.items()))


@dataclass(frozen=True)
class MomentSet:
    """Fisher information, a_1..a_6 and eta_2..eta_10 with error estimates.

    ``a`` is a 6-tuple indexed a[j-1] = a_j; ``eta`` maps 2..10 to values;
    ``quadrature_error`` holds an estimated absolute error per entry (from
    its change over the last level) under the keys ``fisher``, ``a1``..``a6``,
    ``eta2``..``eta10``.  ``eta`` is the set's own copy of the mapping it
    was given, and read-only: :attr:`eta_key` is built from it once.
    """

    fisher: float
    a: tuple
    eta: Mapping[int, float]
    quadrature_error: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "eta", dict(self.eta))

    @cached_property
    def eta_key(self) -> tuple:
        """The coefficient-table key of :attr:`eta` (see :func:`_eta_key`), built on first use."""
        return _eta_key(self.eta)

    def __getstate__(self):
        # the fields alone, so a pickle reads the same before and after the key is built
        return {k: v for k, v in self.__dict__.items() if k != "eta_key"}

    def to_dict(self) -> dict:
        return _json_data(self)

    @staticmethod
    def from_values(fisher: float, eta: Mapping[int, float], a=None) -> "MomentSet":
        """Assemble a MomentSet from known values (no quadrature)."""
        a = tuple(a) if a is not None else (0.0, float(fisher), 0.0, 0.0, 0.0, 0.0)
        eta = {int(k): float(v) for k, v in eta.items()}
        missing = set(ETA_INDICES) - set(eta)
        if missing:
            raise ValueError(f"missing eta indices {sorted(missing)}")
        return MomentSet(float(fisher), a, eta, dict.fromkeys(_NAMES, 0.0))


_STEPS = tuple(2.0 ** -k for k in range(3, 9))  # t steps 1/8 .. 1/256, each level halving
_CELL_NODES = (4, 8, 16)  # a table's Gauss-Legendre nodes per cell, per level
_FLOOR_ULPS = 4  # rounding floor of a level's change, in ulps of sum |w g f|


def _rule(model: DensityModel) -> list:
    """Levels (x, w, carry, ends) of the node rule on the support, coarsest first.

    A level's estimate of int g f is ``carry`` times the last one plus sum
    w g(x) f(x); ``ends`` indexes the end nodes.  A table takes Gauss-Legendre
    nodes per cell; other supports the trapezoid rule in t, each level adding
    only its new nodes, of :func:`_de_map` at u = pi/2 sinh t, placed by the quartiles.
    """
    if model.grid is not None:
        g = np.array(model.grid)
        return [(x.ravel(), w.ravel(), 0.0, []) for x, w in
                (_panels(g[:-1], g[1:], n) for n in _CELL_NODES)]
    q1, q3 = ((0.0, 0.0) if all(map(math.isfinite, model.support))  # an interval needs none
              else np.asarray(model.ppf(np.array([0.25, 0.75])), dtype=float).tolist())
    mapped = _de_map(model.support, (q1 + q3) / 2, (q3 - q1) / 2)
    levels = []
    for k, h in enumerate(_STEPS):
        n = round(_T_END / h)
        t = h * (np.arange(1 - n, n, 2) if k else np.arange(-n, n + 1))
        x, dx = mapped(math.pi / 2 * np.sinh(t))
        levels.append((x, h * math.pi / 2 * np.cosh(t) * dx, 0.5 if k else 0.0,
                       [] if k else [0, -1]))
    return levels


def _terms(model: DensityModel, rows: Callable, x):
    """rows(x) f(x) where f is positive and finite, else 0; inf where not finite there."""
    with np.errstate(all="ignore"):
        f, g = np.asarray(model.pdf(x), dtype=float), np.asarray(rows(x), dtype=float)
        v = g * f
        return np.where((f > 0) & np.isfinite(f), np.where(np.isfinite(v), v, np.inf), 0.0)


def _integrate(model: DensityModel, rule: list, rows: Callable, target: Callable) -> tuple:
    """int g f for each row g of ``rows(x)``, level by level: (values, errors, causes).

    A row may carry its own nodes (a leading axis of x).  The levels stop once each
    row's change (its error) is within ``target(values)`` or ``_FLOOR_ULPS`` ulps of
    sum |w g f|.  A cause is None, a non-finite integrand where f > 0, end terms that
    do not decay, or no convergence by the last level.
    """
    value, absum, end, finite = 0.0, 0.0, 0.0, True
    with np.errstate(all="ignore"):
        for k, (x, w, carry, ends) in enumerate(rule):
            terms = _terms(model, rows, x) * w
            finite = finite & np.all(np.isfinite(terms), axis=-1)
            end = np.max(np.abs(terms[..., ends]), axis=-1) if ends else end
            # mirror pairs first: the nodes lie symmetric about the rule's centre, so an
            # odd integrand of a family symmetric about it sums to exactly zero
            last, value = value, carry * value + 0.5 * np.sum(terms + terms[..., ::-1], axis=-1)
            absum = carry * absum + np.sum(np.abs(terms), axis=-1)
            if k:
                error, goal = np.abs(value - last), np.broadcast_to(target(value), value.shape)
                converged = error <= np.maximum(goal, _FLOOR_ULPS * np.finfo(float).eps * absum)
                if np.all(converged):
                    break
    overflow = "non-finite integrand value where f > 0: the density or its derivatives overflow"
    causes = [overflow if not ok else
              f"the end terms of the rule do not decay ({e:.2e}, target {g:.2e})" if e > g else
              None if c else f"no convergence by the last level (change {d:.2e}, target {g:.2e})"
              for ok, e, g, c, d in np.broadcast(finite, end, goal, converged, error)]
    return value, error, causes


_NAMES = ("fisher", *(f"a{j}" for j in range(1, 7)), *(f"eta{k}" for k in ETA_INDICES))
_POWERS = np.array([0.0] * 7 + [_ETA_RECIPES[k][2] for k in ETA_INDICES])  # of I, per name


def _moments(model: DensityModel, tol: float, count: int) -> tuple:
    """Values, errors of the first ``count`` of _NAMES (eta unscaled); raises MomentDivergence."""
    if not tol > 0:
        raise ValueError("tol must be positive")

    def rows(x):
        r = np.broadcast_arrays(x, *model.rho_chain(x, 6))[1:]
        psi = _psi_from_log_derivs([-rj for rj in r[:3]])
        eta = (g(*psi[:order]) for order, g, _ in map(_ETA_RECIPES.get, ETA_INDICES))
        return [r[0] * r[0], *r, *eta][:count]

    values, errors, causes = _integrate(model, _rule(model), rows,
                                        lambda v: tol * v[0] ** _POWERS[:count])
    if causes[0] is None and not values[0] > 0.0:
        causes[0] = f"nonpositive value {values[0]}"
    for name, cause in zip(_NAMES, causes):
        if cause:
            raise MomentDivergence(name, cause)
    return values.tolist(), errors.tolist()


def fisher_information(model: DensityModel, tol: float = 1e-10) -> float:
    """Fisher information for location, int (f'/f)^2 f over the support."""
    return _moments(model, tol, 1)[0][0]


def compute_moment_set(model: DensityModel, tol: float = 1e-10) -> MomentSet:
    """Compute the full moment functional vector of a family.

    Every entry is integrated to absolute tolerance ``tol`` (the eta entries
    after scaling by the appropriate power of I), all sixteen from the same
    nodes.  Deterministic: identical inputs give bit-identical outputs.
    """
    (fisher, *values), (fisher_err, *errs) = _moments(model, tol, len(_NAMES))
    errors = {"fisher": fisher_err, **dict(zip(_NAMES[1:7], errs))}
    eta = {}
    for k, num, err, power in zip(ETA_INDICES, values[6:], errs[6:], _POWERS[7:].tolist()):
        eta[k] = num / fisher**power
        # propagate the numerator error plus the I-error through the scaling
        errors[f"eta{k}"] = err / fisher**power + abs(eta[k]) * power * fisher_err / fisher
    return MomentSet(fisher, tuple(values[:6]), eta, errors)


# ---------------------------------------------------------------------------
# numeric checks of the regularity conditions and of the density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts: ``pass``, ``fail`` or ``indeterminate``.

    The four conditions checked numerically:

    1. sup over a compact shift probe of E_theta rho^2(X) finite;
    2. the six stated contrast derivatives finite on a probe grid;
    3. a Lipschitz-type modulus for rho^(6) with E R^3 finite (probe only,
       never a certificate);
    4. E |rho^(alpha)(X)|^6 finite for alpha = 1..6.
    """

    family: str
    verdicts: Mapping[int, str]
    details: Mapping[int, dict]

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {**_json_data(self), "all_pass": self.all_pass}


def _tail_exponents(model: DensityModel, rows: Callable) -> dict:
    """Crude decay exponents of each integrand g f (``rows`` as in :func:`_integrate`) at the ends.

    At an infinite end, the larger slope of log|g f| against log|x| at 8, 16 and
    32 ref, ref = max(|0.1% and 99.9% quantiles|, 1) or 1 where ppf raises
    InversionFailure; at a finite end, alpha in g f ~ C (x - end)^alpha from 1%
    and 0.5% of the width.  Values <= -1 at a finite end, or >= -1 at an
    infinite end, indicate a non-integrable integrand.
    """
    try:
        ref = max(*np.abs(model.ppf(np.array([0.001, 0.999]))).tolist(), 1.0)
    except InversionFailure:
        ref = 1.0
    lo, hi = model.support
    width = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 2.0 * ref
    out = {}
    for side, end, sgn in (("lower", lo, 1.0), ("upper", hi, -1.0)):
        finite = math.isfinite(end)
        r = (0.01 * width) * np.array([1.0, 0.5]) if finite else (8.0 * ref) * np.array([1, 2, 4])
        g = np.abs(_terms(model, rows, end + sgn * r if finite else -sgn * r))
        g1, g2 = g[..., :-1], g[..., 1:]
        with np.errstate(all="ignore"):
            slope = np.where((g1 > 0) & (g2 > 0), np.log(g2 / g1) / np.log(r[1:] / r[:-1]),
                             np.where(g2 <= g1, -np.inf, np.inf))
        out[side] = np.max(slope, axis=-1).tolist()
    return out


_SHIFT_PROBE = (-2.0, -1.0, 0.0, 1.0, 2.0)  # compact theta probe of condition 1
_MODULUS_DELTA = 1e-2  # largest offset of the rho^(6) modulus probe (condition 3)
_MODULUS_RTOL = 1e-3  # probe-grade relative target of the modulus integral (condition 3)


def validate_conditions(model: DensityModel, tol: float = 1e-8) -> ConditionReport:
    """Numerically probe the regularity conditions behind the expansions.

    Failures are verdicts, not exceptions.  Conditions 1, 3 and 4 integrate
    over the nodes of the moment integrals to absolute tolerance ``tol``
    (condition 3: or ``_MODULUS_RTOL`` relative).  Condition 3 can only ever
    be probed, not certified, for a black-box family; its verdict is
    ``pass`` when the finite-difference modulus integrates cleanly.
    """
    verdicts, details = {}, {}
    lo, hi = model.support
    finite_end = {"lower": math.isfinite(lo), "upper": math.isfinite(hi)}
    rule = _rule(model)

    def sixth(x):  # |rho^(alpha)|^6 for alpha = 1..6, from one pass of the chain
        return np.abs(np.broadcast_arrays(x, *model.rho_chain(x, 6))[1:]) ** 6

    # the tails of condition 1's integrand rho^2 and of condition 4's six, in one call
    ends = _tail_exponents(model, lambda x: [model.rho(x) ** 2, *sixth(x)])

    # condition 1: sup over compact theta probe of E_theta rho^2, over the x with x and
    # x + theta inside the support: the support's nodes mapped onto it, a row per shift
    shifts = np.array([th for th in _SHIFT_PROBE if max(lo, lo - th) < min(hi, hi - th)])
    a, b = np.maximum(lo, lo - shifts)[:, None], np.minimum(hi, hi - shifts)[:, None]
    stretch = (b - a) / (hi - lo) if math.isfinite(hi - lo) else np.ones_like(a)
    offset = (a - stretch * lo if math.isfinite(lo) else
              b - hi if math.isfinite(hi) else np.zeros_like(a))

    def shifted_rho2(x):
        # rho(x + theta)^2, zero where x + theta rounds onto or past a support end
        y = x + shifts[:, None]
        return np.where(model.interior(y), model.rho(y) ** 2, 0.0)

    values, _, causes = _integrate(
        model, [(offset + stretch * x, stretch * w, c, e) for x, w, c, e in rule], shifted_rho2,
        lambda v: tol)
    vals = dict(zip(shifts.tolist(), values.tolist()))
    tails = {side: s[0] for side, s in ends.items()}
    slow_tail = any(s < -0.9 if finite_end[side] else s > -1.2 for side, s in tails.items())
    verdicts[1] = ("fail" if not np.all(np.isfinite(values)) else
                   "indeterminate" if any(causes) or slow_tail else "pass")
    details[1] = {"sup_probe": max(vals.values()),
                  "per_shift": {str(k): v for k, v in vals.items()},
                  "tail_exponents": tails}

    # condition 2: every family states rho^(1..6); they must be finite
    probe = np.asarray(model.ppf(np.linspace(0.05, 0.95, 9)), dtype=float)
    finite = all(np.all(np.isfinite(np.asarray(r, dtype=float)))
                 for r in model.rho_chain(probe, 6))
    verdicts[2] = "pass" if finite else "fail"
    details[2] = {"finite_on_probe": finite}

    # condition 3: modulus probe for rho^(6), the largest difference quotient
    # over the offsets that stay inside the support, from one chain call on
    # the nodes and their offset points
    deltas = np.array([_MODULUS_DELTA, _MODULUS_DELTA / 2, -_MODULUS_DELTA, -_MODULUS_DELTA / 2])

    def modulus(x):
        y = x[..., None] - np.concatenate([[0.0], deltas])
        *_, r6 = np.broadcast_arrays(y, *model.rho_chain(y, 6))
        quotients = np.abs(r6[..., :1] - r6[..., 1:]) / np.abs(deltas)
        return np.max(np.where(model.interior(y[..., 1:]), quotients, 0.0), axis=-1) ** 3

    # the max() over the offsets makes the integrand kinky, where the rule converges only
    # like h^2 (last change 8e-6 relative for Student-t nu = 1, 1e-4 for nu = 0.5)
    (value3,), (error3,), (cause3,) = _integrate(
        model, rule, lambda x: [modulus(x)],
        lambda v: np.maximum(10 * tol, _MODULUS_RTOL * np.abs(v)))
    verdicts[3] = "pass" if math.isfinite(value3) and cause3 is None else "indeterminate"
    details[3] = {"modulus_third_moment": float(value3), "quad_error": float(error3),
                  "note": "finite-difference probe only, not a certificate"}

    # condition 4: sixth absolute moments of every contrast derivative
    values, errors, causes = _integrate(model, rule, sixth, lambda v: tol)
    per_alpha = {}
    for alpha, value, error, cause in zip(range(1, 7), values.tolist(), errors.tolist(), causes):
        tails = {side: s[alpha] for side, s in ends.items()}
        diverging_end = any(s <= -0.95 if finite_end[side] else s >= -1.05
                            for side, s in tails.items())
        verdict = ("pass" if cause is None and not diverging_end else
                   "fail" if diverging_end or not math.isfinite(value) else "indeterminate")
        per_alpha[alpha] = {"value": value, "error": error, "verdict": verdict,
                            "tail_exponents": tails}
    found = {v["verdict"] for v in per_alpha.values()}
    verdicts[4] = next(v for v in ("fail", "indeterminate", "pass") if v in found)
    details[4] = {"per_alpha": {str(k): v for k, v in per_alpha.items()}}

    return ConditionReport(model.name, verdicts, details)


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
