import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import edgemle as e
from edgemle.density import check_density

PROBE = np.array([-2.7, -1.3, -0.4, 0.0, 0.6, 1.1, 2.9])


def _mp_density(name):
    # densities rebuilt in mpmath so the derivative oracle is independent
    if name == "normal":
        return lambda t: mp.exp(-t**2 / 2) / mp.sqrt(2 * mp.pi)
    if name == "logistic":
        return lambda t: mp.e**(-t) / (1 + mp.e**(-t)) ** 2
    if name == "student_t":
        nu = 7
        c = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
        return lambda t: c * (1 + t**2 / nu) ** (-(nu + 1) / 2)
    raise KeyError(name)


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
# score ratios
# ---------------------------------------------------------------------------

def test_normal_psi_closed_forms(models):
    for x in PROBE:
        assert e.psi(models["normal"], 1, float(x)) == pytest.approx(-x, abs=1e-12)
        assert e.psi(models["normal"], 2, float(x)) == pytest.approx(x * x - 1, rel=1e-12, abs=1e-12)


def test_logistic_psi1_vanishes_at_centre(models):
    assert e.psi(models["logistic"], 1, 0.0) == 0.0


@pytest.mark.parametrize("name", ["normal", "logistic", "student_t"])
@pytest.mark.parametrize("i", [1, 2, 3])
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


def test_model_takes_one_derivative_chain():
    base = e.normal()
    with pytest.raises(ValueError):
        e.DensityModel("both", base.support, base.pdf,
                       rho_derivs=base.rho_derivs, pdf_derivs=base.pdf_derivs)


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


# ---------------------------------------------------------------------------
# numeric differentiation
# ---------------------------------------------------------------------------

def test_numeric_derivative_identity():
    est = e.numeric_derivative(lambda x: x, 1, 0.37)
    assert est.value == pytest.approx(1.0, abs=1e-10)
    assert not est.precision_warning


def test_numeric_derivative_sixth_power():
    est = e.numeric_derivative(lambda x: x**6, 6, 0.0)
    assert est.value == pytest.approx(720.0, rel=1e-3)


def test_numeric_derivative_gaussian_second():
    phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    est = e.numeric_derivative(phi, 2, 0.0)
    assert est.value == pytest.approx(-1.0 / math.sqrt(2 * math.pi), rel=1e-6)
    assert not est.precision_warning


def test_numeric_derivative_flags_ill_conditioned_steps():
    est = e.numeric_derivative(lambda x: math.sin(x), 6, 0.3, scale=1e-3)
    assert est.precision_warning


def test_numeric_derivative_rejects_bad_order():
    with pytest.raises(e.UnsupportedOrder):
        e.numeric_derivative(lambda x: x, 7, 0.0)


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


def test_table_family_reproduces_logistic(tmp_path, models):
    built = models["logistic"]
    x = np.linspace(-14, 14, 1401)
    cols = [x, built.pdf(x)] + [built.pdf_derivs[j](x) for j in range(6)]
    path = tmp_path / "logistic.csv"
    header = "x,f,f1,f2,f3,f4,f5,f6"
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")
    tab = e.from_table(str(path))
    assert tab.derivative_mode == "analytic"
    grid = np.linspace(-3, 3, 11)
    assert np.allclose(tab.pdf(grid), built.pdf(grid), atol=1e-9)
    assert np.allclose(np.asarray(e.psi(tab, 2, grid)),
                       np.asarray(e.psi(built, 2, grid)), atol=1e-6)
    assert tab.cdf(1.2) == pytest.approx(built.cdf(1.2), abs=1e-6)
    with pytest.raises(e.DomainError):
        e.psi(tab, 1, 20.0)


def test_table_family_without_derivative_columns_falls_back(tmp_path, models):
    built = models["logistic"]
    x = np.linspace(-12, 12, 961)
    path = tmp_path / "fonly.csv"
    np.savetxt(path, np.column_stack([x, built.pdf(x)]), delimiter=",")
    tab = e.from_table(str(path))
    assert tab.derivative_mode == "numeric-fallback"
    assert np.asarray(e.psi(tab, 1, 0.5)) == pytest.approx(e.psi(built, 1, 0.5), abs=1e-4)


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


def test_location_shift_moves_everything(models):
    shifted = e.logistic(loc=1.5)
    assert shifted.pdf(1.5) == pytest.approx(0.25, abs=1e-14)
    assert shifted.cdf(1.5) == pytest.approx(0.5, abs=1e-14)
    assert shifted.ppf(0.5) == pytest.approx(1.5, abs=1e-12)
