import functools
import math
import os
import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import edgemle as e
from conftest import logistic_table, mp_ulps
from edgemle.moments import check_density

PROBE = np.array([-2.7, -1.3, -0.4, 0.0, 0.6, 1.1, 2.9])


def _mp_density(name, nu=7):
    # densities rebuilt in mpmath so the derivative oracle is independent
    if name == "normal":
        return lambda t: mp.exp(-t**2 / 2) / mp.sqrt(2 * mp.pi)
    if name == "logistic":
        return lambda t: mp.e**(-t) / (1 + mp.e**(-t)) ** 2
    if name == "student_t":
        c = mp.gamma(mp.mpf(nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(mp.mpf(nu) / 2))
        return lambda t: c * (1 + t**2 / nu) ** (-mp.mpf(nu + 1) / 2)
    raise KeyError(name)


def _mp_contrast_derivs(f, x):
    # rho^(1..6)(x) of rho = -log f, all orders from one mpmath differentiation
    with mp.workdps(40):
        return [float(d) for d in list(mp.diffs(lambda t: -mp.log(f(t)), mp.mpf(float(x)), 6))[1:]]


@pytest.fixture(scope="module")
def models():
    return {"normal": e.normal(), "logistic": e.logistic(), "student_t": e.student_t(7)}


# ---------------------------------------------------------------------------
# contrast derivatives
# ---------------------------------------------------------------------------

def test_normal_contrast_second_derivative_is_one(models):
    for x in PROBE:
        assert e.rho_deriv(models["normal"], 2, float(x)) == pytest.approx(1.0, abs=1e-14)


def test_normal_contrast_higher_derivatives_vanish(models):
    for j in (3, 4, 5, 6):
        for x in PROBE:
            assert e.rho_deriv(models["normal"], j, float(x)) == 0.0


def test_logistic_score_is_tanh_half(models):
    for x in PROBE:
        assert e.rho_deriv(models["logistic"], 1, float(x)) == pytest.approx(
            math.tanh(x / 2), rel=1e-12)


@pytest.mark.parametrize("name", ["normal", "logistic", "student_t"])
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
def test_contrast_derivatives_match_highprec_differentiation(models, name, j):
    f = _mp_density(name)
    old = mp.mp.dps
    mp.mp.dps = 40
    try:
        for x in PROBE:
            oracle = float(mp.diff(lambda t: -mp.log(f(t)), mp.mpf(float(x)), j))
            have = e.rho_deriv(models[name], j, float(x))
            assert have == pytest.approx(oracle, rel=1e-5, abs=1e-9)
    finally:
        mp.mp.dps = old


# ---------------------------------------------------------------------------
# the derivative chain
# ---------------------------------------------------------------------------

_CHAIN_GRID = np.linspace(-30.0, 30.0, 61) + 0.0073  # off the table's nodes


def _chain_models():
    # label -> (model, mpmath density, tolerance relative to max(1, |rho^(j)|))
    built = e.logistic()
    return {
        "normal": (e.normal(), _mp_density("normal"), 1e-14),
        "logistic": (built, _mp_density("logistic"), 1e-14),
        "t7": (e.student_t(7), _mp_density("student_t", 7), 1e-14),
        "t3": (e.student_t(3), _mp_density("student_t", 3), 1e-14),
        # spline-accurate only (see test_table_contrast_chain_matches_logistic)
        "table": (e.from_table(logistic_table(built)), _mp_density("logistic"), 1e-7),
    }


@pytest.mark.parametrize("label", ["normal", "logistic", "t7", "t3", "table"])
def test_chain_matches_highprec_differentiation(label):
    model, f, tol = _chain_models()[label]
    lo, hi = model.support
    grid = _CHAIN_GRID[(_CHAIN_GRID > lo) & (_CHAIN_GRID < hi)]
    have = np.array(list(model.rho_chain(grid, 6)))
    want = np.array([_mp_contrast_derivs(f, x) for x in grid]).T
    assert have.shape == want.shape == (6, grid.size)
    err = np.abs(have - want) / np.maximum(1.0, np.abs(want))
    assert np.all(err <= tol), err.max(axis=1)


@pytest.mark.parametrize("y", [1e3, -1e3, 1e6, -1e6])
def test_student_t_chain_is_accurate_in_the_far_tails(y):
    # |rho^(6)| is ~1e-34 at 1e6, so the tolerance follows |rho^(j)|
    want = _mp_contrast_derivs(_mp_density("student_t", 7), y)
    have = list(e.student_t(7).rho_chain(y, 6))
    for j in range(6):
        assert abs(have[j] - want[j]) <= 1e-14 * abs(want[j]), j + 1


@pytest.mark.parametrize("label", ["normal", "logistic", "t7", "table", "expression"])
def test_views_are_the_chain_bit_for_bit(label):
    model = (e.from_expression("exp(-x)/(1+exp(-x))**2") if label == "expression"
             else _chain_models()[label][0])
    grid = np.linspace(-5.0, 5.0, 23)
    chain = list(model.rho_chain(grid, 6))
    assert len(model.rho_derivs) == 6
    for j in range(6):
        assert np.array_equal(model.rho_derivs[j](grid), chain[j])
        # a shorter chain stops after its last order with the same values
        assert np.array_equal(list(model.rho_chain(grid, j + 1))[-1], chain[j])
        for x in (-2.5, 0.0, 0.7):
            assert model.rho_derivs[j](x) == list(model.rho_chain(x, 6))[j]


@pytest.mark.parametrize("label", ["normal", "logistic", "t7", "table", "expression"])
def test_chain_keeps_scalars_scalar_and_arrays_arrays(label):
    model = (e.from_expression("exp(-x)/(1+exp(-x))**2") if label == "expression"
             else _chain_models()[label][0])
    for r in model.rho_chain(0.7, 6):
        assert not isinstance(r, np.ndarray) and isinstance(r, float)
    x = np.array([-1.0, 0.7])
    for r in model.rho_chain(x, 6):
        # a fresh array: the caller's points are never handed back
        assert isinstance(r, np.ndarray) and r.shape == (2,) and not np.shares_memory(r, x)
    # int points give the values of the same points as floats
    ints = [np.asarray(r) for r in model.rho_chain(np.array([-1, 0, 2]), 6)]
    assert np.array_equal(ints, list(model.rho_chain(np.array([-1.0, 0.0, 2.0]), 6)))
    # f and rho follow the same convention as the chain
    for fn in (model.pdf, model.rho):
        assert not isinstance(fn(0.7), np.ndarray) and isinstance(fn(0.7), float)
        assert isinstance(fn(np.array([-1.0, 0.7])), np.ndarray)
    for j in range(1, 7):
        listed = e.rho_deriv(model, j, [-1.0, 0.7])
        assert np.array_equal(listed, model.rho_derivs[j - 1](np.array([-1.0, 0.7])))


def test_a_hand_built_model_gets_the_generic_chain():
    base = e.logistic()
    # a hand-built model chains six callables in turn
    hand = e.DensityModel("hand", base.support, base.pdf, cdf=base.cdf, ppf=base.ppf,
                          rho_chain=lambda x, k: (r(x) for r in base.rho_derivs[:k]))
    grid = np.linspace(-3.0, 3.0, 7)
    assert all(np.array_equal(a, b) for a, b in zip(hand.rho_chain(grid, 6),
                                                    base.rho_chain(grid, 6)))
    assert len(list(hand.rho_chain(grid, 2))) == 2


# ---------------------------------------------------------------------------
# score ratios
# ---------------------------------------------------------------------------

def test_normal_psi_closed_forms(models):
    for x in PROBE:
        assert e.psi(models["normal"], 1, float(x)) == pytest.approx(-x, abs=1e-12)
        assert e.psi(models["normal"], 2, float(x)) == pytest.approx(x * x - 1, rel=1e-12, abs=1e-12)


def test_logistic_psi1_vanishes_at_centre(models):
    assert e.psi(models["logistic"], 1, 0.0) == 0.0


@pytest.mark.parametrize("name", ["normal", "logistic", "student_t"])
@pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
def test_psi_matches_highprec_differentiation(models, name, i):
    f = _mp_density(name)
    old = mp.mp.dps
    mp.mp.dps = 40
    try:
        for x in PROBE:
            oracle = float(mp.diff(f, mp.mpf(float(x)), i) / f(mp.mpf(float(x))))
            assert e.psi(models[name], i, float(x)) == pytest.approx(oracle, rel=1e-8, abs=1e-12)
    finally:
        mp.mp.dps = old


@pytest.mark.parametrize("name", ["normal", "logistic", "student_t"])
def test_psi_parity_for_symmetric_families(models, name):
    m = models[name]
    grid = np.linspace(0.1, 3.5, 12)
    assert np.allclose(np.asarray(e.psi(m, 1, grid)), -np.asarray(e.psi(m, 1, -grid)), atol=1e-12)
    assert np.allclose(np.asarray(e.psi(m, 2, grid)), np.asarray(e.psi(m, 2, -grid)), atol=1e-12)
    assert np.allclose(np.asarray(e.psi(m, 3, grid)), -np.asarray(e.psi(m, 3, -grid)), atol=1e-12)


def test_psi_and_rho_deriv_reject_bad_orders(models):
    with pytest.raises(e.UnsupportedOrder):
        e.psi(models["normal"], 0, 0.0)
    with pytest.raises(e.UnsupportedOrder):
        e.psi(models["normal"], 7, 0.0)
    with pytest.raises(e.UnsupportedOrder):
        e.rho_deriv(models["normal"], 7, 0.0)
    for bad in (1.5, True):
        with pytest.raises(e.UnsupportedOrder, match="whole number"):
            e.psi(models["normal"], bad, 0.0)
        with pytest.raises(e.UnsupportedOrder, match="whole number"):
            e.rho_deriv(models["normal"], bad, 0.0)


def test_model_takes_one_derivative_chain():
    base = e.normal()
    # the chain is the one form a model takes: no chain, or per-order callables, is refused
    with pytest.raises(TypeError, match="rho_chain"):
        e.DensityModel("neither", base.support, base.pdf)
    with pytest.raises(TypeError, match="rho_derivs"):
        e.DensityModel("callables", base.support, base.pdf, rho_derivs=base.rho_derivs)
    # a stated CDF comes with its quantile function
    with pytest.raises(ValueError, match="'cdf_only' states a cdf without a ppf"):
        e.DensityModel("cdf_only", base.support, base.pdf, cdf=base.cdf,
                       rho_chain=base.rho_chain)
    chained = e.DensityModel("chained", base.support, base.pdf,
                             rho_chain=lambda x, k: (r(x) for r in base.rho_derivs[:k]))
    grid = np.linspace(-3.0, 3.0, 7)
    for j in range(6):
        assert np.array_equal(chained.rho_derivs[j](grid), base.rho_derivs[j](grid))


def test_psi_domain_errors():
    # valid density with an interior zero: psi undefined there
    bump = e.from_expression("x**2*exp(-x**2/2)/sqrt(2*pi)")
    with pytest.raises(e.DomainError):
        e.psi(bump, 1, 0.0)
    half = e.from_expression("sqrt(2/pi)*x**2*exp(-x**2/2)", support=(0, np.inf))
    with pytest.raises(e.DomainError):
        e.psi(half, 1, -1.0)


# ---------------------------------------------------------------------------
# density sanity invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["normal", "logistic", "student_t"])
def test_density_integrates_to_one_and_derivatives_decay(models, name):
    m = models[name]
    report = check_density(m, tol=1e-9)
    assert report["integrates_to_one"]
    assert report["positive_on_probe"]
    assert report["derivs_match"], report
    for j in (1, 2, 3):
        assert abs(report["deriv_boundary_integrals"][j]) < 1e-8


_EXACT_FAMILIES = {
    "normal": e.normal, "logistic": e.logistic,
    **{f"t{nu}": functools.partial(e.student_t, nu) for nu in (0.5, 1, 3, 7)},
    "gaussian": functools.partial(e.from_expression, "exp(-x**2/2)/sqrt(2*pi)"),
    "gumbel": functools.partial(e.from_expression, "exp(-x - exp(-x))"),
    "logistic_expr": functools.partial(e.from_expression, "exp(-x)/(1+exp(-x))**2"),
}


@pytest.mark.parametrize("label", _EXACT_FAMILIES)
def test_check_density_derivative_integrals_agree_to_rounding(label):
    # exact derivatives integrate to the increments of the order below up
    # to the quadrature's rounding, also in the heavy Student-t tails
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # expression overflow in a far tail
        report = check_density(_EXACT_FAMILIES[label]())
    assert report["derivs_match"]
    assert report["deriv_max_rel_err"] <= 1e-10, report
    # f itself integrates to one, also where an expression's f is inf/inf far
    # out in a tail (the logistic written as an expression)
    assert report["integrates_to_one"], report


# ---------------------------------------------------------------------------
# user families
# ---------------------------------------------------------------------------

def test_expression_family_matches_builtin_logistic(models):
    expr = e.from_expression("exp(-x)/(1+exp(-x))**2", name="logistic_expr")
    built = models["logistic"]
    grid = np.linspace(-6, 6, 25)
    assert np.allclose(expr.pdf(grid), built.pdf(grid), rtol=1e-12)
    for j in (1, 3, 6):
        assert np.allclose(np.asarray(e.rho_deriv(expr, j, grid)),
                           np.asarray(e.rho_deriv(built, j, grid)), rtol=1e-9, atol=1e-12)
    assert expr.cdf(0.8) == pytest.approx(built.cdf(0.8), abs=1e-10)
    assert expr.ppf(0.31) == pytest.approx(built.ppf(0.31), abs=1e-8)
    # stable contrast deep in the tail (bare -log f would overflow)
    assert np.isfinite(expr.rho(720.0))


def test_expression_family_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        e.from_expression("a*exp(-x**2)")


def test_expression_family_names_abs_as_unsupported():
    with pytest.raises(ValueError, match="abs"):
        e.from_expression("exp(-abs(x)**3)/(2*gamma(4/3))")


@pytest.mark.parametrize("expr, construct", [
    ("exp(-x**2/2)/sqrt(2*pi) + 0*len(__import__('os').getcwd())", "attribute access"),
    ("exp(-x**2) + __import__('os').environ.__setitem__('EDGEMLE_EXPR_PROBE', '1')",
     "attribute access"),
    ("__import__('os')", "the call \"__import__('os')\""),
    ("exp(-x**2)*len(x)", "the call 'len(x)'"),
    ("exp(-x.real**2/2)", "attribute access 'x.real'"),
    ("exp(-x**2)[0]", "subscript"),
    ("(lambda t: exp(-t**2))(x)", "lambda"),
    ("exp(-y**2)", "found ['y']"),
    ("gamma(x)", "gamma of an argument in x"),
    ("x if x > 0 else 1", "conditional"),
    ("exp(-x**2)*'a'", "the literal \"'a'\""),
    ("exp(-x**2 % 2)", "the operator in '-x ** 2 % 2'"),
    ("exp(-x**2, 2)", "exp takes one argument"),
    ("exp(-x**2)*exp(1000)", "the constant exp(1000) is not a finite real number"),
    ("exp(-x**2)/0", "divides by zero"),
    ("exp(-x**2", "cannot parse expression"),
    ("(-2)**x", "positive constant base, got -2.0"),
    ("(x, x)", "the construct Tuple '(x, x)'"),
    ("exp(-" + "x*x+" * 600 + "x*x)", "nests too deeply"),
    ("exp(-" + "x*x+" * 3000 + "x*x)", "nests too deeply"),
])
def test_expression_parsing_refuses_what_it_cannot_differentiate(monkeypatch, expr, construct):
    # the expression is parsed, never evaluated: a call outside the function
    # list, attribute access, subscripts, lambdas and other names are refused
    # by name before anything runs
    monkeypatch.delenv("EDGEMLE_EXPR_PROBE", raising=False)
    with pytest.raises(ValueError) as exc:
        e.from_expression(expr)
    assert construct in str(exc.value)
    assert "EDGEMLE_EXPR_PROBE" not in os.environ


@pytest.mark.parametrize("expr, support, z", [
    ("exp(-x**2/2)", (-np.inf, np.inf), "Z = 2.506628275 "),
    ("exp(-x)", (-np.inf, np.inf), "Z = 0 "),
    ("exp(x**2)", (-np.inf, np.inf), "Z = 0 "),
    ("1/x", (1.0, np.inf), "Z = 69.99"),
    ("exp(-x**2/2)/sqrt(2*pi)", (0.0, np.inf), "Z = 0.5 "),
])
def test_expression_whose_density_does_not_integrate_to_one_is_refused(expr, support, z):
    # the sampler would draw from f/Z while the moments integrate f itself,
    # and every condition check passes such an f; a divergent integral sums
    # to 0 (where f overflows) or to what the node table reaches (1/x)
    with pytest.raises(ValueError) as exc:
        e.from_expression(expr, support=support)
    assert z in str(exc.value) and "not to 1" in str(exc.value)


@pytest.mark.parametrize("expr, f", [
    ("exp(x/(2+x**2))", lambda t: mp.exp(t / (2 + t**2))),
    ("exp(sqrt(1+x**2))", lambda t: mp.exp(mp.sqrt(1 + t**2))),
    ("2**(-x**2) + log(2+x**2)", lambda t: 2 ** (-t**2) + mp.log(2 + t**2)),
    ("0*x + 1*exp(-x**2) + +x**0 + (1+x**2)**1", lambda t: mp.exp(-t**2) + 2 + t**2),
], ids=["quotient_plain", "log_to_plain", "exponent_in_x", "folds"])
def test_expression_grammar_paths_match_mpmath(expr, f):
    # the plain jet of a quotient, a log-only node (a non-whole power) made
    # plain for exp, an exponent in x, log of an x-expression, and the folds
    # of 0 x, 1 a, +a, a^0 and a^1: the jet of log f, to degree 6, against
    # mpmath's Taylor coefficients
    from edgemle.expression import compile_log_density
    x = np.array([-2.3, -0.7, 0.4, 1.9])
    jet, sign = compile_log_density(expr)(x, 6)
    have = np.array([np.zeros_like(x) if c is None else np.broadcast_to(c, x.shape) for c in jet])
    with mp.workdps(40):
        want = np.array([[float(c) for c in mp.taylor(lambda t: mp.log(f(t)), mp.mpf(float(p)), 6)]
                         for p in x]).T
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(have - want) <= 1e-13 * (np.abs(want) + scale))
    assert sign is None or np.all(np.asarray(sign) > 0)


def _mp_sech(t):
    return 1 / (2 * mp.cosh(mp.pi * t / 2))


@pytest.mark.parametrize("expr, f, floor", [
    ("exp(-x)/(1+exp(-x))**2", _mp_density("logistic"), 0.0),
    ("1/(2*cosh(pi*x/2))", _mp_sech, 0.0),
    ("2**(-x**2)*sqrt(log(2)/pi)", lambda t: 2 ** (-t**2) * mp.sqrt(mp.log(2) / mp.pi), 1e-14),
    ("exp(-log(cosh(x)))/pi", lambda t: 1 / (mp.pi * mp.cosh(t)), 1e-14),
    ("(1/(1+x**2) + 1/(4+x**2))/(1.5*pi)",
     lambda t: (1 / (1 + t**2) + 1 / (4 + t**2)) / (1.5 * mp.pi), 1e-14),
    ("((1+x**2)**(-1.5) + (2+x**2)**(-1.5))/3",
     lambda t: ((1 + t**2) ** mp.mpf(-1.5) + (2 + t**2) ** mp.mpf(-1.5)) / 3, 1e-14),
    ("1/(2*sqrt(1+x**2)**3)", lambda t: 1 / (2 * mp.sqrt(1 + t**2) ** 3), 1e-14),
    ("0.75*(1+x**2)**(-2.5)", lambda t: mp.mpf(0.75) * (1 + t**2) ** mp.mpf(-2.5), 1e-14),
], ids=["logistic", "sech", "gauss_base2", "exp_log_cosh", "cauchy_mix", "power_mix",
        "sqrt_cubed", "power_2_5"])
def test_expression_chain_keeps_its_relative_accuracy_in_the_tails(expr, f, floor):
    # the jets form log(1 + e^-x) and log cosh by softplus on log-jets, so
    # rho^(j) stays accurate relative to its own size, ~e^-|x| far out,
    # where the symbolic derivatives overflowed to inf/inf.  Where an order
    # crosses zero the bound adds ``floor`` times that order's largest value
    # on the grid, and where an order vanishes (the Gaussian's orders 3..6)
    # ``floor`` times 1e-16 of the chain's largest value, above the ~1e-198
    # noise of mpmath's differences there
    grid = _CHAIN_GRID
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        have = np.array(list(e.from_expression(expr).rho_chain(grid, 6)))
        far = np.array(list(e.from_expression(expr).rho_chain(np.array([-1e4, -800.0, 800.0]), 6)))
    want = np.array([_mp_contrast_derivs(f, x) for x in grid]).T
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    bound = 1e-13 * np.abs(want) + floor * (scale + 1e-16 * np.max(scale))
    assert np.all(np.abs(have - want) <= bound), np.max(np.abs(have - want) / bound)
    assert np.all(np.isfinite(far))


def test_table_family_reproduces_logistic(tmp_path, models):
    built = models["logistic"]
    cols = logistic_table(built)
    path = tmp_path / "logistic.csv"
    np.savetxt(path, np.column_stack(list(cols.values())), delimiter=",",
               header=",".join(cols), comments="")
    tab = e.from_table(str(path))
    grid = np.linspace(-3, 3, 11)
    assert np.allclose(tab.pdf(grid), built.pdf(grid), atol=1e-9)
    assert np.allclose(np.asarray(e.psi(tab, 2, grid)),
                       np.asarray(e.psi(built, 2, grid)), atol=1e-6)
    assert tab.cdf(1.2) == pytest.approx(built.cdf(1.2), abs=1e-6)
    with pytest.raises(e.DomainError):
        e.psi(tab, 1, 20.0)


def test_table_derivative_columns_survive_the_psi_conversion(models):
    # the table states f^(j) as psi_j f with psi_j the spline ratio f_j/f
    cols = logistic_table(models["logistic"])
    tab = e.from_table(cols)
    inner = cols["x"][1:-1]
    for j in range(1, 7):
        want = cols[f"f{j}"][1:-1]
        have = tab.psi_chain(inner, 6)[j - 1] * tab.pdf(inner)
        assert np.all(np.abs(have - want) <= 1e-15 * np.abs(want)), j


def _spline_calls(monkeypatch):
    # every spline evaluation, as the number of columns of the spline called
    from scipy.interpolate import PPoly
    owner = next(k for k in PPoly.__mro__ if "__call__" in vars(k))
    evaluate = owner.__call__
    calls = []

    def spy(self, *args, **kwargs):
        calls.append(1 if self.c.ndim == 2 else self.c.shape[2])
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(owner, "__call__", spy)
    return calls


def test_table_evaluates_its_spline_once_per_point(monkeypatch, models):
    tab = e.from_table(logistic_table(models["logistic"]))
    calls = _spline_calls(monkeypatch)
    for x in (0.3, np.array([-2.0, 0.3, 7.5])):
        # the rho chain and the psi chain read all seven columns from one evaluation
        for consume in (lambda: list(tab.rho_chain(x, 6)), lambda: tab.psi_chain(x, 6)):
            calls.clear()
            consume()
            assert calls == [7]
        # f, rho and the CDF read the f column alone
        for fn in (tab.pdf, tab.rho, tab.cdf):
            calls.clear()
            fn(x)
            assert calls == [1]


def test_table_check_density_evaluates_its_spline_once_per_pass(monkeypatch, models):
    import edgemle.moments as moments

    tab = e.from_table(logistic_table(models["logistic"]))
    levels, terms = [], moments._terms

    def spy(model, rows, x):
        levels.append(np.size(x))
        return terms(model, rows, x)

    monkeypatch.setattr(moments, "_terms", spy)
    calls = _spline_calls(monkeypatch)
    check_density(tab)
    # one evaluation of all seven columns per level of the boundary rows, and
    # one for the six derivative identities on the probe
    assert levels and calls.count(7) == len(levels) + 1, (levels, calls)


@pytest.mark.parametrize("label", ["normal", "logistic", "t7", "table", "expression"])
def test_psi_chain_is_psi_bit_for_bit_and_stops_at_its_order(label):
    model = (e.from_expression("exp(-x)/(1+exp(-x))**2") if label == "expression"
             else _chain_models()[label][0])
    grid = np.linspace(-5.0, 5.0, 23)
    psis = model.psi_chain(grid, 6)
    assert len(psis) == 6
    for i in range(1, 7):
        assert np.array_equal(e.psi(model, i, grid), psis[i - 1]), i
        assert len(model.psi_chain(grid, i)) == i
        assert np.array_equal(model.psi_chain(grid, i)[-1], psis[i - 1]), i
        for x in (-2.5, 0.0, 0.7):
            value = model.psi_chain(x, 6)[i - 1]
            assert isinstance(value, float) and value == e.psi(model, i, x), (i, x)


def _per_column_table(cols):
    # the table family rebuilt from seven per-column splines, each clipped
    # and masked on its own: the reference the shared spline must equal
    from math import comb

    from scipy.interpolate import CubicSpline
    xg = cols["x"]
    lo, hi = xg[0], xg[-1]
    splines = [CubicSpline(xg, cols[c]) for c in ("f", "f1", "f2", "f3", "f4", "f5", "f6")]

    def column(j, x):
        xa = np.asarray(x, dtype=float)
        return np.where((xa >= lo) & (xa <= hi), splines[j](np.clip(xa, lo, hi)), 0.0)

    def psi(i, x):
        return column(i, x) / column(0, x)

    def chain(x):
        # rho^(m) = -g_m, g_m = psi_m - sum_i C(m-1, i) psi_i g_{m-i}
        psis, gs = [psi(i, x) for i in range(1, 7)], []
        for m in range(1, 7):
            g = psis[m - 1]
            for i in range(1, m):
                g = g - comb(m - 1, i) * psis[i - 1] * gs[m - i - 1]
            gs.append(g)
        return [-g for g in gs]

    anti = splines[0].antiderivative()
    def cdf(x):
        return np.clip(anti(np.clip(np.asarray(x, dtype=float), lo, hi)) - anti(lo), 0.0, None)

    return column, psi, chain, cdf


def test_table_matches_per_column_splines_bit_for_bit(models):
    cols = logistic_table(models["logistic"])
    tab = e.from_table(cols)
    column, psi, chain, cdf = _per_column_table(cols)
    # off the nodes, on them, at the ends and outside the table
    inside = np.concatenate([np.linspace(-13.9, 13.9, 301) + 0.0037, cols["x"][::50]])
    outside = np.array([-20.0, -14.5, 14.5, 20.0])
    every = np.concatenate([inside, outside])
    with np.errstate(invalid="ignore"):  # psi is 0/0 outside the table
        assert np.array_equal(tab.pdf(every), column(0, every))
        assert np.array_equal(tab.cdf(every), cdf(every))
        psis = tab.psi_chain(every, 6)
        for i in range(1, 7):
            assert np.array_equal(psis[i - 1], psi(i, every), equal_nan=True), i
            assert np.array_equal(psis[i - 1] * tab.pdf(every), psi(i, every) * column(0, every),
                                  equal_nan=True), i
        assert np.array_equal(np.array(list(tab.rho_chain(every, 6))), np.array(chain(every)),
                              equal_nan=True)
    for x in inside[::7]:
        x = float(x)
        assert tab.pdf(x) == column(0, x) and tab.cdf(x) == cdf(x)
        assert list(tab.rho_chain(x, 6)) == [float(r) for r in chain(x)]
        psis = tab.psi_chain(x, 6)
        for i in range(1, 7):
            assert psis[i - 1] == psi(i, x)
            assert psis[i - 1] * tab.pdf(x) == psi(i, x) * column(0, x)
    for x in outside:
        assert tab.pdf(float(x)) == 0.0 and tab.cdf(float(x)) == float(cdf(x))


@pytest.mark.parametrize("expr, x, exact_cdf, u", [
    # Gumbel and its mirror image, far in the tail where the lambdified
    # density overflows on its way to zero
    ("exp(-x - exp(-x))", -30.0, 0.0, 1e-6),
    ("exp(x - exp(x))", -40.0, math.exp(-40.0), 1e-9),
])
def test_numeric_cdf_and_quantile_are_silent_in_deep_tails(expr, x, exact_cdf, u):
    model = e.from_expression(expr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = model.cdf(x)
        q = model.ppf(u)
        back = model.cdf(q)
    assert value == pytest.approx(exact_cdf, rel=1e-4, abs=1e-300)
    assert back == pytest.approx(u, rel=1e-9)


@pytest.mark.parametrize("expr", ["exp(-x**2/2)/sqrt(2*pi)", "exp(-x - exp(-x))"])
def test_numeric_cdf_reaches_one_and_never_decreases(expr):
    model = e.from_expression(expr)
    assert model.cdf(50.0) == 1.0 and model.cdf(200.0) == 1.0
    far = np.geomspace(1e-3, 1e6, 400)
    x = np.concatenate([-far[::-1], [0.0], far])
    assert np.all(np.diff(model.cdf(x)) >= 0.0)


@pytest.mark.parametrize("loc", [0.0, 30.0, 1000.0])
@pytest.mark.parametrize("sigma", [0.01, 1.0, 100.0])
def test_numeric_cdf_and_quantile_of_shifted_and_scaled_gaussians(loc, sigma):
    from scipy.special import ndtr
    model = e.from_expression(f"exp(-(x - {loc})**2/(2*{sigma}**2))/({sigma}*sqrt(2*pi))")
    x = np.linspace(loc - 8 * sigma, loc + 8 * sigma, 801)
    assert np.max(np.abs(model.cdf(x) - ndtr((x - loc) / sigma))) <= 1e-9
    assert model.cdf(loc + 1000 * sigma) == 1.0
    u = np.linspace(1e-9, 1 - 1e-9, 801)
    assert np.max(np.abs(ndtr((model.ppf(u) - loc) / sigma) - u)) <= 1e-9


def test_numeric_quantiles_take_a_bounded_number_of_pdf_calls():
    base = e.from_expression("exp(-x - exp(-x))")
    calls = []

    def pdf(x):
        calls.append(np.size(x))
        return base.pdf(x)

    model = e.DensityModel("spy", base.support, pdf, rho=base.rho,
                           rho_chain=lambda x, k: (r(x) for r in base.rho_derivs[:k]))
    calls.clear()
    model.ppf(np.linspace(1e-6, 1 - 1e-6, 10_000))
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("expr, quantile, cdf", [
    ("exp(-x - exp(-x))", lambda u: -np.log(-np.log(u)), lambda x: np.exp(-np.exp(-x))),
    ("exp(x - exp(x))", lambda u: np.log(-np.log1p(-u)), lambda x: -np.expm1(-np.exp(x))),
], ids=["gumbel", "mirrored"])
def test_numeric_quantile_matches_the_closed_form(expr, quantile, cdf):
    model = e.from_expression(expr)
    u = np.linspace(1e-9, 1 - 1e-9, 327 * 100).reshape(327, 100)
    q = model.ppf(u)
    assert q.shape == (327, 100)
    assert np.max(np.abs(cdf(q) - u)) <= 1e-15
    central = (u >= 1e-6) & (u <= 0.999)
    assert np.max(np.abs(q - quantile(u))[central]) <= 1e-10
    assert isinstance(model.ppf(0.3), float)
    assert model.ppf(0.3) == pytest.approx(quantile(0.3), abs=1e-10)


def test_table_contrast_chain_matches_logistic(models):
    # rho = -log f of the spline and rho^(j) from the psi ratios, between grid nodes
    built = models["logistic"]
    tab = e.from_table(logistic_table(built))
    off_grid = np.linspace(-6.0, 6.0, 1200, endpoint=False) + 0.0073  # nodes are 0.02 apart
    for j in range(1, 7):
        diff = np.asarray(e.rho_deriv(tab, j, off_grid)) - np.asarray(e.rho_deriv(built, j, off_grid))
        assert np.max(np.abs(diff)) <= 1e-7, j
    assert np.max(np.abs(tab.rho(off_grid) - built.rho(off_grid))) <= 1e-9
    x = np.asarray(e.sample_iid(built, 100, 2024))
    assert e.solve_mle(x, tab).theta_hat == pytest.approx(e.solve_mle(x, built).theta_hat, abs=1e-9)


def test_table_moment_set_matches_logistic(models):
    # the table's eta come through its chain; the gap in eta is mostly the
    # 2 e^-14 of tail mass beyond |x| = 14 that the table cuts off
    tab = e.compute_moment_set(e.from_table(logistic_table(models["logistic"])), tol=1e-7)
    built = e.compute_moment_set(models["logistic"], tol=1e-7)
    assert abs(tab.fisher - built.fisher) <= 5e-6
    assert max(abs(s - t) for s, t in zip(tab.a, built.a)) <= 1e-8
    assert max(abs(tab.eta[k] - built.eta[k]) for k in range(2, 11)) <= 1e-4


def test_table_quantile_above_its_mass_names_the_cdf_at_the_end(models):
    # the table ends at |x| = 14 and holds 1 - 1.7e-6 of the mass
    tab = e.from_table(logistic_table(models["logistic"]))
    top = tab.cdf(14.0)
    assert tab.ppf(top - 1e-7) < 14.0
    with pytest.raises(e.InversionFailure, match=f"CDF is {top!r} at the support end 14.0"):
        tab.ppf(0.9999995)


def test_table_check_density_accepts_its_columns_and_reports_the_cut_off_mass(models):
    # the table ends at |x| = 14, cutting off ~1.7e-6 of the logistic's mass
    report = check_density(e.from_table(logistic_table(models["logistic"])))
    assert report["derivs_match"], report
    assert report["deriv_max_rel_err"] < 1e-6
    assert not report["integrates_to_one"]
    assert 1.0 - report["integral"] == pytest.approx(2 / (1 + math.exp(14)), rel=1e-3)


def _scale(name, factor):
    def corrupt(cols):
        cols[name] = cols[name] * factor
    return corrupt


def _swap_f5_f6(cols):
    cols["f5"], cols["f6"] = cols["f6"], cols["f5"]


@pytest.mark.parametrize("corrupt", [
    _scale("f6", -1.0), _swap_f5_f6, _scale("f6", 1.01), _scale("f5", 1.001),
    _scale("f3", 1.0001), _scale("f2", 1.00001),
], ids=["f6_negated", "f5_f6_swapped", "f6x1.01", "f5x1.001", "f3x1.0001", "f2x1.00001"])
def test_table_check_density_refuses_a_wrong_derivative_column(models, corrupt):
    # each corruption breaks f^(j) = d/dx f^(j-1) at the order it enters;
    # the correct table passes in the test above
    cols = logistic_table(models["logistic"])
    corrupt(cols)
    report = check_density(e.from_table(cols))
    assert not report["derivs_match"], report
    assert report["deriv_max_rel_err"] > 1e-6


def test_table_callables_give_nan_outside_the_table_for_floats_and_arrays(models):
    # f = 0 there, so every ratio f_i/f is 0/0; a float stays a float
    tab = e.from_table(logistic_table(models["logistic"]))
    with np.errstate(invalid="ignore"):
        for x in (20.0, -20.0):
            chain = list(tab.rho_chain(x, 6))
            assert all(isinstance(r, float) and math.isnan(r) for r in chain)
            assert all(np.isnan(r).all() for r in tab.rho_chain(np.array([x]), 6))
            for value in tab.psi_chain(x, 6):
                assert isinstance(value, float) and math.isnan(value)
            assert np.isnan(tab.psi_chain(np.array([x]), 6)).all()


def test_table_without_derivative_columns_points_to_from_expression(tmp_path, models):
    built = models["logistic"]
    x = np.linspace(-12, 12, 961)
    path = tmp_path / "fonly.csv"
    np.savetxt(path, np.column_stack([x, built.pdf(x)]), delimiter=",")
    for source in (str(path), {"x": x, "f": built.pdf(x)}):
        with pytest.raises(ValueError, match="from_expression"):
            e.from_table(source)


def test_descriptor_round_trip(models):
    for m in models.values():
        clone = e.model_from_descriptor(m.descriptor())
        grid = np.linspace(-2, 2, 7)
        assert np.array_equal(clone.pdf(grid), m.pdf(grid))
    expr = e.from_expression("exp(-x)/(1+exp(-x))**2")
    clone = e.model_from_descriptor(expr.descriptor())
    assert clone.pdf(0.3) == expr.pdf(0.3)


def test_make_model_rejects_unknown_family():
    with pytest.raises(ValueError):
        e.make_model("laplace")


@pytest.mark.parametrize("family, params, bad", [
    ("normal", {"foo": 1}, "foo"),
    ("student_t", {"nu": 7, "df": 7}, "df"),
    ("expression", {"expr": "exp(-x**2/2)/sqrt(2*pi)", "nu": 7}, "nu"),
    ("expression", {"expr": "exp(-x**2/2)/sqrt(2*pi)", "length_scale": 1.0}, "length_scale"),
    ("table", {"columns": {"x": [0, 1, 2, 3]}, "bogus": 1}, "bogus"),
    ("normal", {"loc": 0.0}, "loc"),
    ("logistic", {"loc": 1.5}, "loc"),
    ("student_t", {"nu": 7, "loc": 0.0}, "loc"),
])
def test_make_model_names_unknown_parameters(family, params, bad):
    accepted = {"normal": "none", "logistic": "none", "student_t": "nu",
                "expression": "expr, support, name", "table": "path, columns, name"}[family]
    with pytest.raises(ValueError, match=f"unknown parameter.*{bad}.*accepted: {accepted}$"):
        e.make_model(family, **params)


def test_make_model_names_missing_parameters():
    with pytest.raises(ValueError, match="missing parameter.*expr"):
        e.make_model("expression")
    with pytest.raises(ValueError, match="path and columns"):
        e.make_model("table")


# ---------------------------------------------------------------------------
# the logistic CDF and quantile
# ---------------------------------------------------------------------------

def test_logistic_cdf_is_as_accurate_as_scipys_expit(models):
    from scipy.special import expit
    x = np.concatenate([np.linspace(-745.0, 40.0, 786), np.linspace(-5.0, 5.0, 201),
                        [-709.9, -720.0, -1e-300, 1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = models["logistic"].cdf(x)
        edges = models["logistic"].cdf(np.array([-np.inf, -0.0, 0.0, np.inf, np.nan]))
        assert type(models["logistic"].cdf(0.3)) is float
    with mp.workprec(120):
        exact = [1 / (1 + mp.exp(-mp.mpf(float(v)))) for v in x]
        ulps = [mp_ulps(g, ex) for g, ex in zip(ours, exact)]
        theirs = [mp_ulps(g, ex) for g, ex in zip(expit(x), exact)]
    # expit's 1/(1 + e^-x) is 0 below x = -709.78; e^x/(1 + e^x) there keeps 2 ulp
    assert max(ulps) <= min(2.0, max(theirs))
    assert np.array_equal(edges, expit(np.array([-np.inf, -0.0, 0.0, np.inf, np.nan])),
                          equal_nan=True)


def test_logistic_quantile_is_as_accurate_as_scipys_logit(models):
    from scipy.special import logit
    u = np.concatenate([10.0 ** -np.linspace(0.5, 300.0, 300), np.linspace(5e-4, 1 - 5e-4, 999),
                        [np.nextafter(0.3, 0.0), 0.3, np.nextafter(0.65, 1.0), 0.65],
                        0.5 + 2.0 ** -np.arange(2.0, 54.0), 0.5 - 2.0 ** -np.arange(2.0, 54.0),
                        1.0 - 2.0 ** -np.arange(2.0, 54.0), 1.0 - 10.0 ** -np.linspace(1, 15, 50),
                        _T_GRID])
    model = models["logistic"]
    edges = np.array([0.0, -0.0, 1.0, np.nan, -0.5, 1.5, -np.inf, np.inf, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = model.ppf(u)
        assert np.array_equal(model.ppf(edges), logit(edges), equal_nan=True)
        assert type(model.ppf(0.3)) is float and model.ppf(0.0) == -np.inf
        assert model.ppf(u.reshape(-1, 1)).shape == (u.size, 1)
        assert np.array_equal(model.ppf(np.asfortranarray(u.reshape(-1, 4))), ours.reshape(-1, 4))
    with mp.workprec(120):
        exact = [mp.log(mp.mpf(float(p)) / (1 - mp.mpf(float(p)))) for p in u]
        ulps = [mp_ulps(g, ex) for g, ex in zip(ours, exact)]
        theirs = [mp_ulps(g, ex) for g, ex in zip(logit(u), exact)]
    assert max(ulps) <= min(2.0, max(theirs))


# ---------------------------------------------------------------------------
# the normal CDF and quantile
# ---------------------------------------------------------------------------

#: centre points, both sides of AS241's centre/tail split at |u - 1/2| = 0.425
#: and of its tail split at t = 5 (u = e^-25), tails down to 1e-300 and
#: 1 - 1e-15, the least subnormal, and Philox uniforms
_NORMAL_GRID = np.concatenate([
    np.linspace(0.001, 0.999, 201), 10.0 ** -np.linspace(1.0, 300.0, 150),
    1.0 - 10.0 ** -np.linspace(1.0, 15.0, 57),
    [np.nextafter(0.075, 0.0), 0.075, 0.925, np.nextafter(0.925, 1.0),
     np.nextafter(math.exp(-25.0), 0.0), math.exp(-25.0), 5e-324],
    ((np.random.Philox(key=20261020).random_raw(50) >> np.uint64(11)) + 0.5) * 2.0**-53,
])


def _normal_ulps(u, z):
    """|z - Phi^-1(u)| in ulp: mpmath's findroot on ncdf from z, at 120 bits."""
    with mp.workprec(120):
        p = mp.mpf(float(u))
        return mp_ulps(z, mp.findroot(lambda w: mp.ncdf(w) - p, mp.mpf(float(z))))


def test_normal_quantile_is_within_6_ulp_of_the_exact_quantile(models):
    # AS241 without a Newton step reads 4.6 ulp at most here, scipy's ndtri 3.0
    z = models["normal"].ppf(_NORMAL_GRID)
    assert np.all(np.sign(z) == np.sign(_NORMAL_GRID - 0.5))
    ulps = [_normal_ulps(u, x) for u, x in zip(_NORMAL_GRID, z)]
    assert max(ulps) <= 6.0, (max(ulps), _NORMAL_GRID[int(np.argmax(ulps))])


def test_normal_sampler_is_within_9_ulp_of_ndtri():
    # the two quantiles are within 6 and 3 ulp of the exact one; no digest of
    # the rows, since numpy's log and sqrt bits follow its SIMD kernels
    from scipy.special import ndtri
    model = e.normal()
    for n in (25, 100, 400):
        rows = e.sample_iid(model, n, 20261020 + n, range(7, 7 + 2**15 // n))
        ref = ndtri(e.sample_iid(SimpleNamespace(ppf=lambda u: u), n, 20261020 + n,
                                 range(7, 7 + 2**15 // n)))
        assert np.all(np.abs(rows - ref) <= 9 * np.spacing(np.abs(ref)))


def test_normal_quantile_keeps_the_input_form_and_ndtris_edges(models):
    from scipy.special import ndtri
    model = models["normal"]
    edges = np.array([0.0, -0.0, 1.0, np.nan, -0.5, 1.5, -np.inf, np.inf, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(model.ppf(edges), ndtri(edges), equal_nan=True)
        assert model.ppf(0.0) == -np.inf and model.ppf(1.0) == np.inf
        assert type(model.ppf(0.3)) is float
        assert model.ppf(_NORMAL_GRID.reshape(-1, 1)).shape == (_NORMAL_GRID.size, 1)
        grid = _NORMAL_GRID[:400]
        assert np.array_equal(model.ppf(np.asfortranarray(grid.reshape(-1, 4))),
                              model.ppf(grid).reshape(-1, 4))
        assert model.ppf(np.empty((0, 3))).shape == (0, 3)


def test_normal_cdf_is_the_expansions_phi(models):
    from edgemle.density import _normal_cdf
    x = np.concatenate([np.linspace(-40.0, 10.0, 501), [-np.inf, np.inf]])
    model = models["normal"]
    assert model.cdf(x).tolist() == [_normal_cdf(t) for t in x.tolist()]
    assert type(model.cdf(0.3)) is float and model.cdf(np.zeros((2, 3))).shape == (2, 3)
    assert math.isnan(model.cdf(math.nan))


# ---------------------------------------------------------------------------
# the Student-t quantile
# ---------------------------------------------------------------------------

#: the extreme Philox uniforms, 1e-12, both sides of the tail/centre split at
#: 1/4 and of 1/2, the largest uniform below 1, then 50 Philox uniforms
_T_GRID = np.concatenate([
    [2.0**-54, 3 * 2.0**-54, 1e-12, np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0),
     np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)],
    ((np.random.Philox(key=20261019).random_raw(50) >> np.uint64(11)) + 0.5) * 2.0**-53,
])


def _t_ulps(nu, u, t):
    """|t - t*| in ulp of t for the exact Student-t(nu) quantile t* of u: one betainc residual.

    The tails read P(T < -|t|) = I_x(nu/2, 1/2)/2 at x = nu/(nu + t^2) and the
    centre P(0 < T < |t|) = I_y(1/2, nu/2)/2 at y = t^2/(nu + t^2), so that the
    residual keeps its relative precision at both ends; it becomes a step in t
    through the density.
    """
    with mp.workprec(80):
        n, t2, u = mp.mpf(nu), mp.mpf(float(t)) ** 2, mp.mpf(float(u))
        if min(u, 1 - u) < 0.25:
            residual = mp.betainc(n / 2, 0.5, 0, n / (n + t2), regularized=True) / 2 - min(u, 1 - u)
        else:
            residual = mp.betainc(0.5, n / 2, 0, t2 / (n + t2), regularized=True) / 2 - abs(u - 0.5)
        step = residual / _mp_density("student_t", nu)(mp.mpf(float(t)))
        return float(abs(step) / np.spacing(abs(float(t))))


@pytest.mark.parametrize("nu", [1, 2, 3, 7, 7.5, 9, 12])
def test_student_t_quantile_is_within_16_ulp_of_the_exact_quantile(nu):
    # stdtrit is no reference: it is off by ~8e5 ulp at nu = 7 near u = 1/2
    t = e.student_t(nu).ppf(_T_GRID)
    assert np.all(np.sign(t) == np.sign(_T_GRID - 0.5))
    ulps = [_t_ulps(nu, u, x) for u, x in zip(_T_GRID, t)]
    assert max(ulps) <= 16.0, (max(ulps), _T_GRID[int(np.argmax(ulps))])


def test_student_t_quantile_keeps_the_input_form_and_the_edges():
    model = e.student_t(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert type(model.ppf(0.3)) is float
        assert model.ppf(_T_GRID.reshape(59, 1)).shape == (59, 1)
        assert np.array_equal(model.ppf(np.full((4, 3), 0.8)), np.full((4, 3), model.ppf(0.8)))
        edges = model.ppf(np.array([0.0, 1.0, 0.5, -0.1, 1.1, np.nan]))
        # below a tail probability of 2^-1000 the series' leading term is exact;
        # its power of q carries the rounding of 1/nu, ~1e-14 relative
        far, near = model.ppf(np.array([np.nextafter(2.0**-1000, 0.0), 2.0**-1000]))
    assert edges[0] == -np.inf and edges[1] == np.inf and edges[2] == 0.0
    assert np.all(np.isnan(edges[3:]))
    assert far == pytest.approx(near, rel=1e-13) and near < -1e43


@pytest.mark.parametrize("nu", [0.5, 12.5, 30.0])
def test_student_t_quantile_outside_the_series_range_is_stdtrit(nu):
    from scipy.special import stdtrit
    assert np.array_equal(e.student_t(nu).ppf(_T_GRID), stdtrit(nu, _T_GRID))


@pytest.mark.parametrize("nu", [0.5, 12.5, 30.0])
def test_student_t_quantile_outside_the_series_range_is_minus_inf_at_zero(nu):
    # scipy's stdtrit(nu, 0) is +inf
    model = e.student_t(nu)
    assert model.ppf(0.0) == -np.inf and type(model.ppf(0.0)) is float
    edges = model.ppf(np.array([[0.0, 1.0], [0.5, np.nan]]))
    assert edges[0, 0] == -np.inf and edges[0, 1] == np.inf and edges[1, 0] == 0.0
    assert np.isnan(edges[1, 1])


@pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf, 0.0])
def test_student_t_refuses_a_nonfinite_or_nonpositive_nu(nu):
    with pytest.raises(ValueError, match=f"^nu must be a finite positive number, got {nu!r}$"):
        e.student_t(nu)


# ---------------------------------------------------------------------------
# the usable-point guard
# ---------------------------------------------------------------------------

_T7 = e.student_t(7)


@pytest.mark.parametrize("call", [
    lambda: e.contrast([1.0, np.nan], _T7, 0.0),
    lambda: e.contrast([1.0, 2.0], _T7, np.nan),
    lambda: e.compute_xi([1.0, np.inf], 0.0, _T7, np.zeros(6)),
    lambda: e.compute_xi_batch([[1.0, np.nan]], 0.0, _T7, np.zeros(6)),
    lambda: e.psi(_T7, 1, np.nan),
    lambda: e.rho_deriv(_T7, 2, [0.0, np.inf]),
], ids=["contrast-sample", "contrast-shift", "xi", "xi-batch", "psi", "rho-deriv"])
def test_non_finite_points_are_named_before_the_support(call):
    with pytest.raises(ValueError, match="non-finite") as info:
        call()
    assert not isinstance(info.value, e.DomainError)


@pytest.fixture(scope="module")
def half_line():
    return e.from_expression("sqrt(2/pi)*x**2*exp(-x**2/2)", support=(0, np.inf))


@pytest.mark.parametrize("call", [
    lambda m: e.contrast([1.0, 2.0], m, 1.5),
    lambda m: e.solve_mle([-1.0, 2.0], m),
    lambda m: e.compute_xi_batch([[0.5, 1.0]], 0.7, m, np.zeros(6)),
    lambda m: e.psi(m, 1, -1.0),
    lambda m: e.rho_deriv(m, 2, [1.0, -0.5]),
], ids=["contrast", "solve", "xi-batch", "psi", "rho-deriv"])
def test_points_outside_a_half_line_support_are_a_domain_error(half_line, call):
    with pytest.raises(e.DomainError, match=r"outside the open support \(0.0, inf\)"):
        call(half_line)
