import math

import numpy as np
import pytest

import edgemle as e
from conftest import LOGISTIC_EXACT, NORMAL_EXACT, logistic_table


def test_fisher_information_normal(normal_model):
    # E X^2 = 1 under the standard normal
    assert e.fisher_information(normal_model) == pytest.approx(1.0, abs=1e-10)


def test_fisher_information_logistic(logistic_model):
    # with t = tanh(x/2) ~ uniform on (-1, 1): E t^2 = 1/3
    assert e.fisher_information(logistic_model) == pytest.approx(1 / 3, abs=1e-10)


def test_fisher_information_student_t(t7_model):
    # (nu + 1) / (nu + 3)
    assert e.fisher_information(t7_model) == pytest.approx(0.8, abs=1e-9)


def test_fisher_information_is_shift_invariant():
    # the node rule centres on the quartiles of a shifted density
    for loc in (-0.7, 2.25, 30.0):
        model = e.from_expression(f"exp(-(x - {loc})**2/2)/sqrt(2*pi)")
        assert e.fisher_information(model) == pytest.approx(1.0, abs=1e-10), loc


def test_normal_moment_set(normal_moments):
    ms = normal_moments
    assert ms.fisher == pytest.approx(NORMAL_EXACT["fisher"], abs=1e-10)
    for k, v in NORMAL_EXACT["eta"].items():
        assert ms.eta[k] == pytest.approx(v, abs=1e-9), f"eta{k}"
    assert np.allclose(ms.a, NORMAL_EXACT["a"], atol=1e-10)


def test_logistic_moment_set(logistic_moments):
    ms = logistic_moments
    assert ms.fisher == pytest.approx(LOGISTIC_EXACT["fisher"], abs=1e-10)
    for k, v in LOGISTIC_EXACT["eta"].items():
        assert ms.eta[k] == pytest.approx(v, abs=1e-9), f"eta{k}"
    assert np.allclose(ms.a, LOGISTIC_EXACT["a"], atol=1e-9)


def test_symmetric_family_odd_functionals_vanish(t7_moments):
    for k in (3, 5, 6):
        assert abs(t7_moments.eta[k]) < 1e-9


@pytest.mark.parametrize("fixture", ["normal_moments", "logistic_moments", "t7_moments"])
def test_moment_set_invariants(request, fixture):
    ms = request.getfixturevalue(fixture)
    tol = 1e-10
    assert ms.fisher > 0
    assert abs(ms.a[0]) <= 10 * tol
    assert abs(ms.a[1] - ms.fisher) <= 10 * tol
    slack = 10 * tol
    assert ms.eta[4] >= ms.eta[3] ** 2 - slack
    assert ms.eta[7] >= ms.eta[4] ** 2 - slack
    assert ms.eta[4] >= 1 - slack
    for k in (2, 7, 9):
        assert ms.eta[k] >= -slack
    for key, err in ms.quadrature_error.items():
        assert np.isfinite(err) and err >= 0, key


def test_moment_set_deterministic(logistic_model):
    first = e.compute_moment_set(logistic_model, tol=1e-9)
    second = e.compute_moment_set(logistic_model, tol=1e-9)
    assert first.to_dict() == second.to_dict()


def test_halving_tolerance_moves_entries_within_error_budget(logistic_model):
    coarse = e.compute_moment_set(logistic_model, tol=2e-8)
    fine = e.compute_moment_set(logistic_model, tol=1e-8)
    for k in range(2, 11):
        budget = coarse.quadrature_error[f"eta{k}"] + fine.quadrature_error[f"eta{k}"]
        assert abs(coarse.eta[k] - fine.eta[k]) <= budget + 1e-14
    for j in range(1, 7):
        budget = coarse.quadrature_error[f"a{j}"] + fine.quadrature_error[f"a{j}"]
        assert abs(coarse.a[j - 1] - fine.a[j - 1]) <= budget + 1e-14


def test_moment_divergence_names_the_failing_entry():
    # f ~ x^4 phi on (0, inf): rho^(5) ~ -96/x^5, so E rho^(5) is log-divergent
    fam = e.from_expression("(2/3)*x**4*exp(-x**2/2)/sqrt(2*pi)", support=(0, np.inf))
    with pytest.raises(e.MomentDivergence) as exc:
        e.compute_moment_set(fam, tol=1e-9)
    assert exc.value.entry == "a5"


GUMBEL_ETA = dict(zip(range(2, 11), (5, 2, 9, 44, 13, 265, 142, 73, 102)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("expr, a, eta", [
    # Gumbel: with W = e^-X ~ Exp(1) every functional is a polynomial moment of W
    ("exp(-x - exp(-x))", (0.0, 1.0, -1.0, 1.0, -1.0, 1.0), GUMBEL_ETA),
    ("exp(-x**2/2)/sqrt(2*pi)", (0.0, 1.0, 0.0, 0.0, 0.0, 0.0), e.GAUSSIAN_ETA),
], ids=["gumbel", "gaussian"])
def test_expression_families_match_closed_form_moments(expr, a, eta):
    model = e.from_expression(expr)
    ms = e.compute_moment_set(model)
    assert ms.fisher == pytest.approx(1.0, abs=1e-9)
    for j in range(6):
        assert ms.a[j] == pytest.approx(a[j], abs=1e-9), f"a{j + 1}"
    for k in range(2, 11):
        assert ms.eta[k] == pytest.approx(float(eta[k]), abs=1e-9), f"eta{k}"
    assert e.validate_conditions(model).all_pass


#: (I, a1..a6, eta2..eta10) of three expression families as computed from
#: sympy's symbolic derivatives of -log f, before Taylor jets replaced them
_SYMBOLIC_MOMENTS = {
    "exp(-x**2/2)/sqrt(2*pi)": (
        1.0, -1.728405166929882e-17, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 1.5462909825139916e-16,
        3.0, 6.437726158708402e-16, 7.96371981822054e-17, 15.0, 8.0, 6.000000000000001,
        6.000000000000001),
    "exp(-x - exp(-x))": (
        1.0, -1.7997756063259374e-17, 1.0, -1.0, 1.0, -1.0, 1.0, 5.0, 2.0000000000000004, 9.0,
        43.999999999999986, 12.999999999999995, 264.9999999999999, 141.99999999999994,
        72.99999999999997, 101.99999999999997),
    "exp(x - exp(x))": (
        1.0, 2.222614453595284e-17, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, -2.0, 9.0, -43.99999999999999,
        -12.999999999999996, 264.9999999999999, 141.99999999999994, 72.99999999999997,
        101.99999999999996),
}


def _vector(ms):
    return [ms.fisher, *ms.a, *(ms.eta[k] for k in range(2, 11))]


@pytest.mark.parametrize("expr", _SYMBOLIC_MOMENTS, ids=["gaussian", "gumbel", "mirrored"])
def test_jet_moments_match_the_symbolic_derivatives(expr):
    got = _vector(e.compute_moment_set(e.from_expression(expr)))
    assert got == pytest.approx(_SYMBOLIC_MOMENTS[expr], rel=0, abs=1e-12)


def test_logistic_expression_matches_the_builtin_logistic():
    # sympy's derivatives were inf/inf for x < -709/k here, which failed a4
    model = e.from_expression("exp(-x)/(1+exp(-x))**2")
    built = e.logistic()
    assert _vector(e.compute_moment_set(model)) == pytest.approx(
        _vector(e.compute_moment_set(built)), rel=0, abs=1e-9)
    assert e.validate_conditions(model).verdicts == e.validate_conditions(built).verdicts


def test_hyperbolic_secant_expression_has_its_closed_form_information():
    # f = sech(pi x / 2) / 2: I = pi^2 / 8, and the odd a_j vanish by symmetry
    ms = e.compute_moment_set(e.from_expression("1/(2*cosh(pi*x/2))"))
    assert ms.fisher == pytest.approx(math.pi ** 2 / 8, rel=0, abs=1e-9)
    for j in (1, 3, 5):
        assert ms.a[j - 1] == pytest.approx(0.0, abs=1e-12), f"a{j}"


def test_half_line_rule_matches_gamma_closed_forms():
    # Gamma(8): rho' = 1 - 7/x and rho^(j) = 7 (j-1)! (-1)^j / x^j for j >= 2,
    # with E x^-j = Gamma(8-j)/Gamma(8)
    ms = e.compute_moment_set(e.from_expression("x**7*exp(-x)/5040", support=(0, np.inf)))
    assert ms.fisher == pytest.approx(1 / 6, rel=1e-14)
    assert ms.a[0] == pytest.approx(0.0, abs=1e-15)
    for j in range(2, 7):
        exact = 7 * math.factorial(j - 1) * (-1) ** j * math.gamma(8 - j) / math.gamma(8)
        assert ms.a[j - 1] == pytest.approx(exact, rel=1e-14), f"a{j}"


def test_finite_interval_rule_matches_beta_closed_forms():
    # Beta(8, 8): rho^(j) and psi_i have poles of order <= 6 at 0 and 1, where
    # f vanishes to order 7, so every integrand times f is a polynomial and
    # its integral a sum of Beta-function ratios B(8-m, 8-l)/B(8, 8); a5 is 0
    # by symmetry.  Each entry is held to 1e-13 of the integral of |g f|.
    import sympy as sp

    x = sp.Symbol("x")
    f = 51480 * x**7 * (1 - x)**7
    r = [sp.diff(-7 * sp.log(x) - 7 * sp.log(1 - x), x, j) for j in range(1, 7)]
    p1, p2 = -r[0], r[0]**2 - r[1]
    p3 = 2 * r[0] * r[1] - r[2] - p2 * r[0]
    integrands = [p1**2, *r, p2**2, p1**3, p1**4, p1**5, p2 * p3, p1**6, p2**3, p3**2,
                  p1 * p2 * p3]
    nodes, weights = np.polynomial.legendre.leggauss(200)
    nodes, weights = (nodes + 1) / 2, weights / 2
    ms = e.compute_moment_set(e.from_expression("51480*x**7*(1-x)**7", support=(0, 1)))
    powers = [0] * 7 + [2, 1.5, 2, 2.5, 2.5, 3, 3, 3, 3]
    got = [ms.fisher, *ms.a, *(ms.eta[k] for k in range(2, 11))]
    for g, power, value in zip(integrands, powers, got):
        poly = sp.expand(sp.cancel(g * f))
        exact = float(sp.integrate(poly, (x, 0, 1)))
        scale = float(np.sum(weights * np.abs(sp.lambdify(x, poly)(nodes))))
        assert abs(value * ms.fisher**power - exact) <= 1e-13 * scale, (g, value, exact)


def test_from_values_requires_all_eta_indices():
    with pytest.raises(ValueError):
        e.MomentSet.from_values(1.0, {2: 2.0, 4: 3.0})


# ---------------------------------------------------------------------------
# condition validation
# ---------------------------------------------------------------------------

_ALL_PASS = {1: "pass", 2: "pass", 3: "pass", 4: "pass"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("make, verdicts", [
    (e.normal, _ALL_PASS),
    (e.logistic, _ALL_PASS),
    *((lambda nu=nu: e.student_t(nu), _ALL_PASS) for nu in (7, 3, 1, 0.5)),
    (lambda: e.from_expression("exp(-x**2/2)/sqrt(2*pi)"), _ALL_PASS),
    (lambda: e.from_expression("exp(-x - exp(-x))"), _ALL_PASS),
    (lambda: e.from_table(logistic_table(e.logistic())), _ALL_PASS),
    # rho' ~ -2/x at the boundary: E |rho'|^6 diverges, and so does the
    # rho^(6) modulus probe
    (lambda: e.from_expression("sqrt(2/pi)*x**2*exp(-x**2/2)", support=(0, np.inf)),
     {1: "pass", 2: "pass", 3: "indeterminate", 4: "fail"}),
], ids=["normal", "logistic", "t7", "t3", "t1", "t0.5", "gaussian", "gumbel", "table",
        "boundary_singular"])
def test_condition_verdicts(make, verdicts):
    assert e.validate_conditions(make()).verdicts == verdicts


def test_conditions_pass_for_normal(normal_model):
    report = e.validate_conditions(normal_model)
    assert report.all_pass, report.verdicts


def test_conditions_pass_for_logistic(logistic_model):
    report = e.validate_conditions(logistic_model)
    assert report.all_pass, report.verdicts


def test_conditions_pass_for_student_t_small_nu():
    # the Student-t score and all contrast derivatives are bounded rational
    # functions, so every moment condition holds even at nu = 3; the verdicts
    # reflect that rather than a heavy-tail heuristic
    report = e.validate_conditions(e.student_t(3))
    assert report.verdicts[1] == "pass"
    assert report.verdicts[4] == "pass"


def test_conditions_flag_boundary_singular_score():
    # f = sqrt(2/pi) x^2 exp(-x^2/2) on (0, inf): rho' ~ -2/x near the
    # boundary, so E |rho'|^6 diverges and condition 4 must fail
    fam = e.from_expression("sqrt(2/pi)*x**2*exp(-x**2/2)", support=(0, np.inf))
    report = e.validate_conditions(fam)
    assert report.verdicts[4] == "fail"
    assert not report.all_pass
    assert report.details[4]["per_alpha"]["1"]["verdict"] == "fail"


def test_condition_report_serializes(normal_model):
    d = e.validate_conditions(normal_model).to_dict()
    assert set(d["verdicts"]) == {"1", "2", "3", "4"}
    assert d["all_pass"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integrand_is_named_as_the_cause():
    # rho'' = exp(x^2) overflows for 26.6 < |x| < 38.5, where the normal
    # density is still positive, so the a2 integrand is infinite there
    base = e.normal()

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    rho_derivs = (lambda x: np.asarray(x, dtype=float),
                  lambda x: np.exp(np.asarray(x, dtype=float) ** 2),
                  zero, zero, zero, zero)
    model = e.DensityModel("steep_curvature", base.support, base.pdf, cdf=base.cdf,
                           ppf=base.ppf, rho_chain=lambda x, k: (r(x) for r in rho_derivs[:k]))
    with pytest.raises(e.MomentDivergence) as info:
        e.compute_moment_set(model)
    assert "non-finite integrand" in str(info.value)
    assert "drifts" not in str(info.value)


def _logistic_with_tail_ppf(error):
    # the logistic, except that its 0.1% and 99.9% quantiles raise ``error``
    lg = e.logistic()

    def ppf(u):
        if np.any((np.asarray(u) <= 0.01) | (np.asarray(u) >= 0.99)):
            raise error("no tail quantile")
        return lg.ppf(u)

    return e.DensityModel("tailless", lg.support, lg.pdf, rho_chain=lg.rho_chain, ppf=ppf,
                          cdf=lg.cdf, rho=lg.rho)


def test_tail_scale_falls_back_only_on_an_inversion_failure():
    # a table whose mass ends below 0.999 raises InversionFailure there and
    # takes the unit tail scale; any other error from ppf is a bug and shows
    report = e.validate_conditions(_logistic_with_tail_ppf(e.InversionFailure))
    assert report.all_pass, report.to_dict()
    with pytest.raises(TypeError, match="no tail quantile"):
        e.validate_conditions(_logistic_with_tail_ppf(TypeError))
