"""Population moment functionals of a location family, by adaptive quadrature.

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

Every integrand takes one pass of the derivative chain
``model.rho_chain(x, k)`` to the highest psi order k it uses and, with
r_j = rho^(j)(x), forms psi_1 = -r_1, psi_2 = r_1^2 - r_2 and
psi_3 = 2 r_1 r_2 - r_3 - psi_2 r_1 in the operation order of the density
module's recursion: bit for bit :func:`edgemle.density.psi`, except for a
table, whose psi are the ratios of its columns.

Integration uses scipy's adaptive Gauss-Kronrod panels (QUADPACK), which map
infinite tails through a rational change of variables.  Tolerances are
absolute per functional.  A functional that fails to converge, whose
integrand is not finite somewhere on the support, or whose value keeps
drifting as the integration window widens, raises
:class:`MomentDivergence` naming the entry and the cause.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy import integrate

from .density import DensityModel
from .errors import InversionFailure, MomentDivergence

ETA_INDICES = tuple(range(2, 11))

# eta index -> (highest psi order k used, integrand over psi_1..psi_k,
#               power of I in the denominator)
_ETA_RECIPES = {
    2: (2, lambda p1, p2: p2 ** 2, 2.0),
    3: (1, lambda p1: p1 ** 3, 1.5),
    4: (1, lambda p1: p1 ** 4, 2.0),
    5: (1, lambda p1: p1 ** 5, 2.5),
    6: (3, lambda p1, p2, p3: p2 * p3, 2.5),
    7: (1, lambda p1: p1 ** 6, 3.0),
    8: (2, lambda p1, p2: p2 ** 3, 3.0),
    9: (3, lambda p1, p2, p3: p3 ** 2, 3.0),
    10: (3, lambda p1, p2, p3: p1 * p2 * p3, 3.0),
}


@dataclass(frozen=True)
class MomentSet:
    """Fisher information, a_1..a_6 and eta_2..eta_10 with error estimates.

    ``a`` is a 6-tuple indexed a[j-1] = a_j; ``eta`` maps 2..10 to values;
    ``quadrature_error`` holds an estimated absolute error per entry under
    the keys ``fisher``, ``a1``..``a6``, ``eta2``..``eta10``.
    """

    fisher: float
    a: tuple
    eta: Mapping[int, float]
    quadrature_error: Mapping[str, float]

    def to_dict(self) -> dict:
        return {
            "fisher": self.fisher,
            "a": list(self.a),
            "eta": {str(k): v for k, v in self.eta.items()},
            "quadrature_error": dict(self.quadrature_error),
        }

    @staticmethod
    def from_values(fisher: float, eta: Mapping[int, float], a=None) -> "MomentSet":
        """Assemble a MomentSet from known values (no quadrature)."""
        a = tuple(a) if a is not None else (0.0, float(fisher), 0.0, 0.0, 0.0, 0.0)
        eta = {int(k): float(v) for k, v in eta.items()}
        missing = set(ETA_INDICES) - set(eta)
        if missing:
            raise ValueError(f"missing eta indices {sorted(missing)}")
        errs = {"fisher": 0.0}
        errs.update({f"a{j}": 0.0 for j in range(1, 7)})
        errs.update({f"eta{k}": 0.0 for k in ETA_INDICES})
        return MomentSet(float(fisher), a, eta, errs)


@dataclass(frozen=True)
class QuadOutcome:
    value: float
    error: float
    converged: bool
    note: str = ""


def _weighted(model: DensityModel, h: Callable) -> Callable:
    # integrand h(x) f(x); contributes nothing where f underflows to zero
    pdf = model.pdf

    def fn(x):
        w = float(pdf(x))
        if not math.isfinite(w) or w <= 0.0:
            return 0.0
        v = w * float(h(x))
        return v if math.isfinite(v) else math.inf

    return fn


def _psi_integrand(model: DensityModel, k: int, g: Callable) -> Callable:
    """x -> g(psi_1(x), ..., psi_k(x)), from one pass of the chain to order k <= 3."""
    chain = model.rho_chain

    def h(x):
        orders = chain(x, k)
        r1 = next(orders)
        if k == 1:
            return g(-r1)
        r2 = next(orders)
        p2 = r1 * r1 - r2
        return g(-r1, p2) if k == 2 else g(-r1, p2, (2.0 * r1 * r2 - next(orders)) - p2 * r1)

    return h


def _raw_quad(fn, lo, hi, epsabs) -> QuadOutcome:
    out = integrate.quad(fn, lo, hi, epsabs=epsabs, epsrel=1e-12, limit=300, full_output=1)
    value, abserr = float(out[0]), float(out[1])
    trouble = len(out) > 3
    # absolute target, but large-magnitude functionals may settle relatively
    good_err = abserr <= max(10 * epsabs, 1e-10 * abs(value), 1e-14)
    converged = (not trouble) and math.isfinite(value) and good_err
    return QuadOutcome(value, abserr, converged, str(out[3]) if trouble else "")


def _tail_reference(model: DensityModel) -> float:
    """Length scale of the tail probes: the larger |0.1% / 99.9% quantile|, at least 1.

    A table whose mass ends short of 0.999 has no such quantile; its
    InversionFailure gives the scale 1.  Any other error propagates.
    """
    try:
        return max(abs(float(model.ppf(0.001))), abs(float(model.ppf(0.999))), 1.0)
    except InversionFailure:
        return 1.0


def _window_drift(fn, model: DensityModel, tol: float):
    """Integral over nested windows; returns (values, drift of the last step)."""
    lo, hi = model.support
    ref = _tail_reference(model)
    vals = []
    for mult in (8.0, 16.0, 32.0):
        wlo = lo if math.isfinite(lo) else -mult * ref
        whi = hi if math.isfinite(hi) else mult * ref
        out = integrate.quad(fn, wlo, whi, epsabs=tol / 10, epsrel=1e-12, limit=300, full_output=1)
        vals.append(float(out[0]))
    return vals, abs(vals[-1] - vals[-2])


def _probe_quad(model: DensityModel, h: Callable, tol: float) -> QuadOutcome:
    """One adaptive pass of int h f over the whole support."""
    lo, hi = model.support
    return _raw_quad(_weighted(model, h), lo, hi, epsabs=tol / 10)


def _integrate_functional(model: DensityModel, h: Callable, tol: float, name: str):
    res = _probe_quad(model, h, tol)
    if res.converged:
        return res.value, res.error
    note = f"; {res.note}" if res.note else ""
    if not math.isfinite(res.value):
        # _weighted turns a non-finite h f into inf, which the integral inherits
        raise MomentDivergence(name, "non-finite integrand value on the support: the density "
                                     f"or its derivatives overflow there{note}")
    vals, drift = _window_drift(_weighted(model, h), model, tol)
    if drift > 100 * tol:
        raise MomentDivergence(name, f"value drifts across tail windows {vals}{note}")
    raise MomentDivergence(name, f"quadrature error {res.error:.2e} above tolerance{note}")


def _fisher(model: DensityModel, tol: float) -> tuple:
    """(value, error) of the Fisher information int (f'/f)^2 f."""
    value, err = _integrate_functional(model, _psi_integrand(model, 1, lambda p1: p1 ** 2), tol,
                                       "fisher")
    if not value > 0.0:
        raise MomentDivergence("fisher", f"nonpositive value {value}")
    return value, err


def fisher_information(model: DensityModel, tol: float = 1e-10) -> float:
    """Fisher information for location, int (f'/f)^2 f over the support."""
    return _fisher(model, tol)[0]


def compute_moment_set(model: DensityModel, tol: float = 1e-10) -> MomentSet:
    """Compute the full moment functional vector of a family.

    Every entry is integrated to absolute tolerance ``tol`` (the eta entries
    after scaling by the appropriate power of I).  Deterministic: identical
    inputs give bit-identical outputs.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    errors: dict[str, float] = {}
    fisher, errors["fisher"] = _fisher(model, tol)

    a = []
    for j in range(1, 7):
        value, err = _integrate_functional(model, model.rho_derivs[j - 1], tol, f"a{j}")
        a.append(value)
        errors[f"a{j}"] = err

    eta: dict[int, float] = {}
    for k in ETA_INDICES:
        order, g, power = _ETA_RECIPES[k]
        scale = fisher**power
        num, err = _integrate_functional(model, _psi_integrand(model, order, g), tol * scale,
                                         f"eta{k}")
        eta[k] = num / scale
        # propagate the numerator error plus the I-error through the scaling
        errors[f"eta{k}"] = err / scale + abs(eta[k]) * power * errors["fisher"] / fisher

    return MomentSet(fisher, tuple(a), eta, errors)


# ---------------------------------------------------------------------------
# numeric validation of the regularity conditions
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
        return {
            "family": self.family,
            "verdicts": {str(k): v for k, v in self.verdicts.items()},
            "details": {str(k): v for k, v in self.details.items()},
            "all_pass": self.all_pass,
        }


def _tail_exponents(fn, model: DensityModel, ref: float) -> dict:
    """Crude decay-exponent estimates of an integrand at the support ends.

    For an infinite end, the local slope of log|g| against log|x| beyond
    8 ``ref`` (see :func:`_tail_reference`); for a finite end, the exponent
    alpha in g ~ C (x - end)^alpha.  Values <= -1 at a finite end, or >= -1
    at an infinite end, indicate a non-integrable integrand.
    """
    lo, hi = model.support
    out = {}

    def log_ratio_slope(x1, x2):
        g1, g2 = abs(fn(x1)), abs(fn(x2))
        if g1 == 0.0 and g2 == 0.0:
            return -math.inf
        if g1 == 0.0 or g2 == 0.0:
            return -math.inf if g2 < g1 else math.inf
        return math.log(g2 / g1) / math.log(abs(x2 / x1))

    if not math.isfinite(hi):
        L = 8.0 * ref
        out["upper"] = max(log_ratio_slope(L, 2 * L), log_ratio_slope(2 * L, 4 * L))
    if not math.isfinite(lo):
        L = -8.0 * ref
        out["lower"] = max(log_ratio_slope(L, 2 * L), log_ratio_slope(2 * L, 4 * L))
    width = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 2.0 * ref
    for side, end, sgn in (("lower", lo, 1.0), ("upper", hi, -1.0)):
        if math.isfinite(end):
            d = 0.01 * width
            g1, g2 = abs(fn(end + sgn * d)), abs(fn(end + sgn * d / 2))
            if g1 > 0 and g2 > 0:
                out[side] = math.log(g2 / g1) / math.log(0.5)
            else:
                out[side] = -math.inf if g2 <= g1 else math.inf
    return out


_SHIFT_PROBE = (-2.0, -1.0, 0.0, 1.0, 2.0)  # compact theta probe of condition 1
_MODULUS_DELTA = 1e-2  # largest offset of the rho^(6) modulus probe (condition 3)


def validate_conditions(model: DensityModel, tol: float = 1e-8) -> ConditionReport:
    """Numerically probe the regularity conditions behind the expansions.

    Failures are verdicts, not exceptions.  Condition 3 can only ever be
    probed, not certified, for a black-box family; its verdict is ``pass``
    when the finite-difference modulus integrates cleanly.
    """
    verdicts: dict[int, str] = {}
    details: dict[int, dict] = {}
    lo, hi = model.support
    rho = model.rho
    ref = _tail_reference(model)

    # condition 1: sup over compact theta probe of E_theta rho^2
    vals, ok, diverging = {}, True, False
    for th in _SHIFT_PROBE:
        a = max(lo, lo - th) if math.isfinite(lo) else -math.inf
        b = min(hi, hi - th) if math.isfinite(hi) else math.inf
        if not a < b:
            continue
        fn = _weighted(model, (lambda t: lambda x: rho(x + t) ** 2)(th))
        res = _raw_quad(fn, a, b, epsabs=tol / 10)
        vals[th] = res.value
        ok = ok and res.converged
        diverging = diverging or not math.isfinite(res.value)
    tails = _tail_exponents(_weighted(model, lambda x: rho(x) ** 2), model, ref)
    slow_tail = any(
        (side in ("lower", "upper") and not math.isfinite(lo if side == "lower" else hi)
         and s > -1.2) or
        (math.isfinite(lo if side == "lower" else hi) and s < -0.9)
        for side, s in tails.items())
    if diverging:
        verdicts[1] = "fail"
    elif not ok or slow_tail:
        verdicts[1] = "indeterminate"
    else:
        verdicts[1] = "pass"
    details[1] = {"sup_probe": max(vals.values()) if vals else math.nan,
                  "per_shift": {str(k): v for k, v in vals.items()},
                  "tail_exponents": tails}

    # condition 2: every family states rho^(1..6); they must be finite
    probe = np.asarray([model.ppf(q) for q in np.linspace(0.05, 0.95, 9)], dtype=float)
    finite = all(np.all(np.isfinite(np.asarray(r, dtype=float)))
                 for r in model.rho_chain(probe, 6))
    verdicts[2] = "pass" if finite else "fail"
    details[2] = {"finite_on_probe": finite}

    # condition 3: modulus probe for rho^(6)
    r6 = model.rho_derivs[5]
    deltas = (_MODULUS_DELTA, _MODULUS_DELTA / 2, -_MODULUS_DELTA, -_MODULUS_DELTA / 2)

    def modulus(x):
        base = float(r6(x))
        best = 0.0
        for d in deltas:
            y = x - d
            if lo < y < hi:
                best = max(best, abs(base - float(r6(y))) / abs(d))
        return best**3

    res3 = _probe_quad(model, modulus, tol)
    # the max() over probe offsets makes the integrand kinky; accept a
    # probe-grade relative error rather than the full quadrature tolerance
    probe_ok = math.isfinite(res3.value) and (
        res3.converged or res3.error <= max(10 * tol, 1e-6 * abs(res3.value)))
    verdicts[3] = "pass" if probe_ok else "indeterminate"
    details[3] = {"modulus_third_moment": res3.value, "quad_error": res3.error,
                  "note": "finite-difference probe only, not a certificate"}

    # condition 4: sixth absolute moments of every contrast derivative
    per_alpha = {}
    worst = "pass"
    for alpha in range(1, 7):
        h = (lambda aa: lambda x: abs(float(model.rho_derivs[aa - 1](x))) ** 6)(alpha)
        res = _probe_quad(model, h, tol)
        tails = _tail_exponents(_weighted(model, h), model, ref)
        diverging_end = any(
            (math.isfinite(lo if side == "lower" else hi) and s <= -0.95) or
            (not math.isfinite(lo if side == "lower" else hi) and s >= -1.05)
            for side, s in tails.items())
        if res.converged and not diverging_end:
            verdict = "pass"
        elif diverging_end or not math.isfinite(res.value):
            verdict = "fail"
        else:
            verdict = "indeterminate"
        per_alpha[alpha] = {"value": res.value, "error": res.error,
                            "verdict": verdict, "tail_exponents": tails}
        if verdict == "fail":
            worst = "fail"
        elif verdict == "indeterminate" and worst != "fail":
            worst = "indeterminate"
    verdicts[4] = worst
    details[4] = {"per_alpha": {str(k): v for k, v in per_alpha.items()}}

    return ConditionReport(model.name, verdicts, details)
