import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc, gammainccinv, ndtr, ndtri

import edgemle as e
from edgemle.expansion import (EDGEWORTH_TABLE, GAUSSIAN_ETA, _add_corrections,
                               _coefficient_arrays, _stochastic_table, _table, evaluate_terms)

CORNISH_FISHER_TABLE = _table("cornish-fisher")

NORMAL_EXACT_A = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# symbolic cross-validation of the frozen tables
# ---------------------------------------------------------------------------

def test_stochastic_brackets_invert_the_score_equation():
    """Rederive all five order blocks by series inversion and compare.

    The estimator solves 0 = sum_i rho^(1)(X_i - theta); Taylor expansion in
    u = sqrt(n)(theta - theta0) with S_j = a_j + eps xi_j and eps = 1/sqrt(n)
    gives 0 = xi_1 + sum_m (a_{m+1} + eps xi_{m+1}) (-u)^m eps^(m-1) / m!.
    Solving u order by order is an oracle independent of the derived table.
    """
    import sympy as sp

    eps = sp.symbols("eps")
    us = sp.symbols("u0:5")
    a = {j: sp.symbols(f"a{j}") for j in range(2, 7)}
    xi = {j: sp.symbols(f"xi{j}") for j in range(1, 7)}
    u = sum(us[k] * eps**k for k in range(5))
    eq = xi[1]
    for m in range(1, 6):
        eq += (a[m + 1] + eps * xi[m + 1]) * (-u) ** m * eps ** (m - 1) / sp.factorial(m)
    poly = sp.Poly(sp.expand(eq), eps)
    sol = {}
    for lvl in range(5):
        c = poly.coeff_monomial(eps**lvl).subs(sol)
        sol[us[lvl]] = sp.expand(sp.solve(c, us[lvl])[0])

    # the table is read in y_j = xi_j / a_2 and c_j = a_j / a_2
    table = _stochastic_table()
    y = {j: xi[j] / a[2] for j in xi}
    c = {j: a[j] / a[2] for j in a}
    for lvl in range(5):
        implemented = sum(evaluate_terms(terms, c) * evaluate_terms([(1, mono)], y)
                          for mono, terms in table[lvl + 1].items())
        assert sp.simplify(sol[us[lvl]] - implemented) == 0, f"order block {lvl + 1}"
    assert [sum(map(len, table[o].values())) for o in e.ORDERS] == [1, 2, 5, 10, 20]
    assert sum(map(len, table.values())) == 26
    assert _stochastic_table() is table


def _symbolic_polys():
    import sympy as sp

    z = sp.Symbol("z")
    eta = {j: sp.Symbol(f"eta{j}") for j in range(2, 11)}
    qs, ds = {}, {}
    for order in (2, 3, 4, 5):
        qs[order] = sum(evaluate_terms(terms, eta) * z**power
                        for power, terms in EDGEWORTH_TABLE[order].items())
        ds[order] = sum(evaluate_terms(terms, eta) * z**power
                        for power, terms in CORNISH_FISHER_TABLE[order].items())
    return sp, z, eta, qs, ds


def test_quantile_table_inverts_cdf_table_exactly():
    """Compose the two tables symbolically.

    The composition must vanish identically through order n^-2, the last
    order either table carries.  This rederives the quantile table by a route
    independent of its series-inversion formula.
    """
    sp, z, eta, qs, ds = _symbolic_polys()
    eps = sp.Symbol("eps")
    # truncated power series in eps: exact polynomial arithmetic over QQ,
    # dropping every term beyond eps^4
    R, E, Z = sp.ring([eps, z] + [eta[j] for j in range(2, 11)], sp.QQ)[:3]

    def trunc(p):
        return R({m: c for m, c in p.items() if m[0] <= 4})

    def mul(p, q):
        return trunc(p * q)

    def power(p, k):
        out = R.one
        for _ in range(k):
            out = mul(out, p)
        return out

    h = sum((E ** (o - 1) * R(ds[o]) for o in (2, 3, 4, 5)), R.zero)
    hs = [power(h, k) for k in range(5)]
    # Phi(z + h) - Phi(z), using phi^(k) = (-1)^k He_k phi; h = O(eps)
    He = [R.one, Z, Z**2 - 1, Z**3 - 3 * Z]
    gauss_part = sum((sp.QQ((-1) ** k, math.factorial(k + 1)) * mul(He[k], hs[k + 1])
                      for k in range(4)), R.zero)
    # phi(z + h) / phi(z) = exp(w), w = O(eps)
    w = trunc(-Z * h) - mul(h, h) / 2
    phi_ratio = sum((power(w, j) / math.factorial(j) for j in range(5)), R.zero)
    corr = R.zero
    for o in (2, 3, 4, 5):
        # Taylor expansion of q_o(z + h) in h
        q, shifted = R(qs[o]), R.zero
        for j in range(5):
            shifted += mul(q, hs[j]) / math.factorial(j)
            q = q.diff(Z)
        corr += mul(E ** (o - 1), shifted)
    poly = sp.Poly((gauss_part + mul(corr, phi_ratio)).as_expr(), eps)

    for k in (1, 2, 3, 4):
        assert sp.simplify(poly.coeff_monomial(eps**k)) == 0, f"eps^{k} block"


def test_gaussian_collapse_is_exact_in_rational_arithmetic():
    report = e.collapse_report()
    assert len(report["entries"]) == 26
    for kind, order, power, value in report["entries"]:
        assert value == 0, (kind, order, power)


def test_quoted_collapse_sums_vanish_exactly():
    g = e.GAUSSIAN_ETA
    # order-3 x^3 coefficient: 1/8 - eta2/6 + 5 eta4/72 + eta3^2/72
    assert F(1, 8) - g[2] / 6 + 5 * g[4] / 72 + g[3] ** 2 / 72 == 0
    # order-5 x^7 coefficient under Gaussian etas
    assert (-F(4, 72) + F(2, 48) + F(30, 432) - F(1, 128) - F(15, 576) - F(225, 10368)) == 0
    # order-5 x^1 coefficient: eta4/64 + eta7/240 - 5 eta4^2/384 + 1/128
    assert g[4] / 64 + g[7] / 240 - 5 * g[4] ** 2 / 384 + F(1, 128) == 0


def test_tables_only_carry_the_displayed_powers():
    assert {o: sorted(p) for o, p in EDGEWORTH_TABLE.items()} == {
        2: [0, 2], 3: [1, 3, 5], 4: [0, 2, 4, 6, 8], 5: [1, 3, 5, 7, 9, 11]}
    assert {o: sorted(p) for o, p in CORNISH_FISHER_TABLE.items()} == {
        2: [0, 2], 3: [1, 3], 4: [0, 2, 4], 5: [1, 3, 5]}


def test_tables_obey_the_reflection_parity_rule():
    # x -> -x flips the sign of eta3, eta5 and eta6 and maps G_n(x) to
    # 1 - G_n(-x), so every order-o term has a power of parity o and a degree
    # in the odd functionals of parity o - 1
    for table in (EDGEWORTH_TABLE, CORNISH_FISHER_TABLE):
        for order, powers in table.items():
            for power, terms in powers.items():
                assert power % 2 == order % 2, (order, power)
                for frac, monomial in terms:
                    odd = sum(exp for idx, exp in monomial if idx in (3, 5, 6))
                    assert odd % 2 == (order - 1) % 2, (order, power, frac, monomial)


def test_derived_quantile_table_is_cached_and_complete():
    assert _table("cornish-fisher") is CORNISH_FISHER_TABLE
    assert _table("edgeworth") is EDGEWORTH_TABLE
    # the order-2 displacement is eta3 (z^2 + 2) / 12, the classical one
    assert CORNISH_FISHER_TABLE[2] == {0: [(F(1, 6), ((3, 1),))], 2: [(F(1, 12), ((3, 1),))]}
    assert sum(len(terms) for powers in CORNISH_FISHER_TABLE.values()
               for terms in powers.values()) == 63
    with pytest.raises(ValueError, match="unknown coefficient table"):
        _table("saddlepoint")


def _edgeworth_polynomials(moments):
    # dense order -> coefficient vector of the CDF table at the family's etas
    polys = {o: np.zeros(max(EDGEWORTH_TABLE[o]) + 1) for o in EDGEWORTH_TABLE}
    for kind, order, power, value in e.collapse_report(moments)["entries"]:
        if kind == "edgeworth":
            polys[order][power] = float(value)
    return polys


def test_collapse_report_at_logistic_eta_drops_order_two(logistic_moments):
    report = e.collapse_report(logistic_moments)
    # eta3 = 0 kills the order-2 Edgeworth polynomial entirely
    order2 = [v for kind, o, _, v in report["entries"] if kind == "edgeworth" and o == 2]
    assert len(order2) == 2 and np.allclose(np.asarray(order2, dtype=float), 0.0)
    assert report["max_abs_coefficient"] > 0


# ---------------------------------------------------------------------------
# xi vectors
# ---------------------------------------------------------------------------

def test_xi_exact_zeros_for_normal(normal_model):
    rng = np.random.default_rng(5)
    sample = rng.normal(size=37)
    xi = e.compute_xi(sample, 0.0, normal_model, NORMAL_EXACT_A)
    assert xi.n == 37
    assert xi.xi[0] == pytest.approx(np.sqrt(37) * sample.mean(), rel=1e-12)
    assert all(xi.xi[j] == 0.0 for j in range(1, 6))


def test_xi_single_centred_point_logistic(logistic_model, logistic_moments):
    xi = e.compute_xi([1.75], 1.75, logistic_model, logistic_moments.a)
    assert xi.xi[0] == 0.0  # the score tanh(0/2) vanishes and a1 = 0


def test_xi_clt_means(logistic_model, logistic_moments):
    reps, n = 10_000, 1000
    sums = np.zeros(6)
    sq_sums = np.zeros(6)
    for start in range(0, reps, 1000):
        samples = e.sample_iid(logistic_model, n, [777 ^ r for r in range(start, start + 1000)])
        xi = e.compute_xi_batch(samples, 0.0, logistic_model, logistic_moments.a)
        sums += xi.sum(axis=0)
        sq_sums += (xi**2).sum(axis=0)
    means = sums / reps
    stds = np.sqrt(sq_sums / reps - means**2)
    assert np.all(np.abs(means) <= 3 * stds / np.sqrt(reps))


def test_xi_rejects_out_of_support_points():
    half = e.from_expression("sqrt(2/pi)*x**2*exp(-x**2/2)", support=(0, np.inf))
    with pytest.raises(e.DomainError):
        e.compute_xi([0.5, 1.0], 0.7, half, np.zeros(6))


@pytest.mark.parametrize("samples, a, match", [
    (np.zeros(4), np.zeros(6), r"nonempty \(M, n\) array"),
    (np.zeros((2, 0)), np.zeros(6), r"nonempty \(M, n\) array"),
    (np.zeros((2, 3, 4)), np.zeros(6), r"nonempty \(M, n\) array"),
    (np.zeros((2, 4)), np.zeros(2), "a must hold the six contrast-derivative means"),
], ids=["1-d", "no-columns", "3-d", "short-a"])
def test_xi_batch_refuses_misshapen_input(logistic_model, samples, a, match):
    with pytest.raises(ValueError, match=match):
        e.compute_xi_batch(samples, 0.0, logistic_model, a)


# ---------------------------------------------------------------------------
# stochastic expansion
# ---------------------------------------------------------------------------

def test_expansion_zero_xi_gives_zero(logistic_moments):
    xi = e.XiVector(np.zeros(6), 100)
    for k in e.ORDERS:
        assert e.stochastic_expansion(xi, logistic_moments.a, k) == 0.0


def test_expansion_is_exact_for_normal(normal_model):
    rng = np.random.default_rng(11)
    sample = rng.normal(size=50)
    xi = e.compute_xi(sample, 0.0, normal_model, NORMAL_EXACT_A)
    for k in e.ORDERS:
        assert e.stochastic_expansion(xi, NORMAL_EXACT_A, k) == pytest.approx(
            xi.xi[0], abs=1e-14)


def test_expansion_rejects_singular_information():
    xi = e.XiVector(np.ones(6), 10)
    with pytest.raises(e.SingularInformation):
        e.stochastic_expansion(xi, np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0]), 3)


@pytest.mark.parametrize("n", [16, 64])
def test_truncations_match_exact_rational_evaluation(n):
    # n^-1/2 is a power of two and xi and a are dyadic, so the exact
    # truncations are Fractions; a_2 = 5/4 makes y and c round on the way
    a = [F(0), F(5, 4), F(-3, 8), F(7, 4), F(-1, 2), F(9, 8)]
    rows = [[F(3, 2), F(-1, 4), F(5, 8), F(-7, 4), F(1, 2), F(-3, 8)],
            [F(-9, 4), F(3, 8), F(-1, 2), F(5, 4), F(-13, 8), F(7, 2)],
            [F(1, 8), F(0), F(0), F(0), F(0), F(0)]]
    root, table = F(1, math.isqrt(n)), _stochastic_table()
    c = {j: a[j - 1] / a[1] for j in range(1, 7)}
    have = e.stochastic_expansion_batch(np.array(rows, dtype=float), n,
                                        np.array(a, dtype=float))
    for r, xi in enumerate(rows):
        y = {j: xi[j - 1] / a[1] for j in range(1, 7)}
        terms = []
        for k in e.ORDERS:
            terms += [root ** (k - 1) * evaluate_terms([(frac, a_mono)], c)
                      * evaluate_terms([(F(1), mono)], y)
                      for mono, a_terms in table[k].items() for frac, a_mono in a_terms]
            slack = 8 * np.finfo(float).eps * float(sum(abs(term) for term in terms))
            assert abs(F(float(have[k][r])) - sum(terms)) <= F(slack), (r, k)


def test_expansion_batch_refuses_misshapen_input(logistic_moments):
    a = logistic_moments.a
    for bad in (np.zeros((3, 5)), np.zeros(6), np.zeros((2, 6, 1))):
        with pytest.raises(ValueError, match=r"xi_matrix .*shaped \(M, 6\)"):
            e.stochastic_expansion_batch(bad, 25, a)
    for bad in (a[:5], np.append(a, 0.0), np.zeros((2, 6))):
        with pytest.raises(ValueError, match="a must hold the six contrast-derivative means"):
            e.stochastic_expansion_batch(np.zeros((2, 6)), 25, bad)


def test_expansion_batch_matches_scalar(logistic_moments):
    rng = np.random.default_rng(3)
    ximat = rng.normal(size=(8, 6))
    out = e.stochastic_expansion_batch(ximat, 50, logistic_moments.a)
    for r in range(8):
        xi = e.XiVector(ximat[r], 50)
        for k in e.ORDERS:
            assert out[k][r] == e.stochastic_expansion(xi, logistic_moments.a, k)


# ---------------------------------------------------------------------------
# Edgeworth CDF
# ---------------------------------------------------------------------------

def test_cdf_order_one_is_plain_normal(logistic_moments):
    grid = np.linspace(-4, 4, 33)
    assert np.array_equal(e.edgeworth_cdf(logistic_moments, 77, 1, grid), ndtr(grid))


def test_cdf_collapses_for_normal_moments(normal_moments):
    grid = np.linspace(-5, 5, 41)
    for k in e.ORDERS:
        for n in (1, 10, 1000):
            assert np.allclose(e.edgeworth_cdf(normal_moments, n, k, grid),
                               ndtr(grid), atol=1e-8)


def test_cdf_median_is_half_for_symmetric(logistic_moments):
    for k in e.ORDERS:
        for n in (7, 100):
            assert e.edgeworth_cdf(logistic_moments, n, k, 0.0) == 0.5


def test_cdf_reflection_symmetry(logistic_moments, t7_moments):
    grid = np.arange(-4.0, 4.0001, 0.1)
    for ms in (logistic_moments, t7_moments):
        for n in (25, 100):
            for k in e.ORDERS:
                total = (np.asarray(e.edgeworth_cdf(ms, n, k, grid))
                         + np.asarray(e.edgeworth_cdf(ms, n, k, -grid)))
                assert np.max(np.abs(total - 1.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(e2=st.floats(1.0, 6.0), e4=st.floats(1.0, 8.0), e7=st.floats(1.0, 60.0),
       e8=st.floats(-10.0, 10.0), e9=st.floats(0.0, 20.0), e10=st.floats(-10.0, 10.0))
def test_cdf_reflection_symmetry_generic_eta(e2, e4, e7, e8, e9, e10):
    ms = e.MomentSet.from_values(1.0, {2: e2, 3: 0.0, 4: e4, 5: 0.0, 6: 0.0,
                                       7: e7, 8: e8, 9: e9, 10: e10})
    grid = np.linspace(-3.5, 3.5, 29)
    for k in (3, 5):
        total = (np.asarray(e.edgeworth_cdf(ms, 40, k, grid))
                 + np.asarray(e.edgeworth_cdf(ms, 40, k, -grid)))
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_cdf_monotone_on_central_window(logistic_moments, normal_moments, t7_moments):
    grid = np.arange(-3.0, 3.0001, 0.01)
    for ms in (logistic_moments, normal_moments, t7_moments):
        for n in (25, 50):
            for k in e.ORDERS:
                vals = np.asarray(e.edgeworth_cdf(ms, n, k, grid))
                assert np.all(np.diff(vals) >= -1e-12)


def test_cdf_is_zero_and_one_at_the_infinities(logistic_moments, t7_moments):
    x = np.array([-np.inf, -1e300, -1e3, -40.0, 40.0, 1e3, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ms in (logistic_moments, t7_moments):
            for k in e.ORDERS:
                assert e.edgeworth_cdf(ms, 50, k, x).tolist() == [0.0] * 4 + [1.0] * 4
                assert e.edgeworth_cdf(ms, 50, k, -np.inf) == 0.0
                assert e.edgeworth_cdf(ms, 50, k, np.inf) == 1.0


def test_cdf_scalar_and_array_forms(logistic_moments):
    scalar = e.edgeworth_cdf(logistic_moments, 50, 5, 1.0)
    arr = e.edgeworth_cdf(logistic_moments, 50, 5, np.array([1.0]))
    assert isinstance(scalar, float) and scalar == arr[0]


def test_cdf_validates_inputs(logistic_moments):
    with pytest.raises(ValueError):
        e.edgeworth_cdf(logistic_moments, 0, 3, 0.0)
    with pytest.raises(e.UnsupportedOrder):
        e.edgeworth_cdf(logistic_moments, 10, 6, 0.0)


def test_sizes_and_orders_are_whole_numbers(logistic_moments):
    ms = logistic_moments
    with pytest.raises(ValueError, match="sample size must be a whole number, got 2.7"):
        e.edgeworth_cdf(ms, 2.7, 4, 0.3)
    with pytest.raises(e.UnsupportedOrder, match="order must be a whole number, got 4.6"):
        e.edgeworth_cdf(ms, 2, 4.6, 0.3)
    with pytest.raises(ValueError, match="sample size must be a whole number, got True"):
        e.cornish_fisher_quantile(ms, True, 2, 0.3)
    with pytest.raises(e.UnsupportedOrder, match="got True"):
        e.cornish_fisher_quantile(ms, 10, True, 0.3)
    with pytest.raises(ValueError, match="sample size"):
        e.compose_check(ms, [25, 100.5])
    with pytest.raises(e.UnsupportedOrder):
        e.stochastic_expansion_batch(np.zeros((2, 6)), 25, ms.a, orders=(2.5,))
    # a whole float or a numpy integer is the same size and order
    assert e.edgeworth_cdf(ms, 25.0, 4.0, 0.3) == e.edgeworth_cdf(ms, np.int64(25), 4, 0.3)


def test_truncation_steps_scale_with_their_omitted_term(logistic_moments):
    grid = np.linspace(-4, 4, 81)
    phi = np.exp(-grid**2 / 2) / np.sqrt(2 * np.pi)
    polys = _edgeworth_polynomials(logistic_moments)
    for k in (1, 2, 3, 4):
        pk = np.polynomial.polynomial.polyval(grid, polys[k + 1])
        c = np.max(np.abs(pk * phi))
        for n in (25, 100, 400):
            gap = np.abs(np.asarray(e.edgeworth_cdf(logistic_moments, n, k + 1, grid))
                         - np.asarray(e.edgeworth_cdf(logistic_moments, n, k, grid)))
            assert np.max(gap) <= c * n ** (-k / 2) * (1 + 1e-9) + 1e-15


# ---------------------------------------------------------------------------
# Cornish-Fisher quantiles
# ---------------------------------------------------------------------------

def test_quantile_order_one_is_normal_quantile(logistic_moments):
    v = np.linspace(0.01, 0.99, 21)
    assert np.array_equal(e.cornish_fisher_quantile(logistic_moments, 64, 1, v), ndtri(v))


def test_quantile_collapses_for_normal_moments(normal_moments):
    v = np.linspace(0.05, 0.95, 19)
    for k in e.ORDERS:
        assert np.allclose(e.cornish_fisher_quantile(normal_moments, 30, k, v),
                           ndtri(v), atol=1e-8)


def test_quantile_median_is_zero_for_symmetric(logistic_moments):
    for k in e.ORDERS:
        assert e.cornish_fisher_quantile(logistic_moments, 55, k, 0.5) == 0.0


def test_quantile_rejects_probabilities_outside_unit_interval(logistic_moments):
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            e.cornish_fisher_quantile(logistic_moments, 10, 3, bad)


def test_quantile_rejects_nan_probabilities(logistic_moments):
    for bad in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match="strictly inside"):
            e.cornish_fisher_quantile(logistic_moments, 10, 3, bad)


# ---------------------------------------------------------------------------
# composition diagnostic
# ---------------------------------------------------------------------------

def _cdf_and_quantile(moments):
    x = np.linspace(-3.0, 3.0, 13)
    return (np.asarray(e.edgeworth_cdf(moments, 40, 5, x)).tobytes(),
            np.asarray(e.cornish_fisher_quantile(moments, 40, 5, [0.025, 0.5, 0.975])).tobytes())


def test_coefficient_cache_follows_the_eta_values(logistic_moments, t7_moments):
    fresh = {}
    for name, ms in (("logistic", logistic_moments), ("t7", t7_moments)):
        _coefficient_arrays.cache_clear()
        fresh[name] = _cdf_and_quantile(ms)
    for _ in range(3):
        assert _cdf_and_quantile(logistic_moments) == fresh["logistic"]
        assert _cdf_and_quantile(t7_moments) == fresh["t7"]

    eta = dict(t7_moments.eta)
    before = e.cornish_fisher_quantile(eta, 50, 5, 0.9)
    eta[4] += 0.5  # the same dict object, mutated between calls
    after = e.cornish_fisher_quantile(eta, 50, 5, 0.9)
    _coefficient_arrays.cache_clear()
    assert after == e.cornish_fisher_quantile(eta, 50, 5, 0.9) != before


def test_coefficient_cache_keeps_fraction_etas_exact():
    # dyadic Fractions equal their floats, so both eta dicts compare equal,
    # yet the floats round term by term and move the CDF in its last bits
    exact = {2: F(7, 2), 3: F(5, 4), 4: F(0), 5: F(-19, 8), 6: F(-2),
             7: F(-37, 8), 8: F(-17, 4), 9: F(-39, 8), 10: F(-13, 4)}
    floats = {k: float(val) for k, val in exact.items()}
    assert floats == exact
    x = np.linspace(-3.0, 3.0, 25)
    _coefficient_arrays.cache_clear()
    with pytest.warns(UserWarning, match="order 5 is unreliable"):  # eta3 = 5/4: skewed
        fresh = e.edgeworth_cdf(exact, 30, 5, x)
    with pytest.warns(UserWarning, match="order 5 is unreliable"):
        assert e.edgeworth_cdf(floats, 30, 5, x).tobytes() != fresh.tobytes()
    with pytest.warns(UserWarning, match="order 5 is unreliable"):
        assert e.edgeworth_cdf(exact, 30, 5, x).tobytes() == fresh.tobytes()
    v = np.array([0.1, 0.5, 0.9])
    e.cornish_fisher_quantile({k: float(val) for k, val in GAUSSIAN_ETA.items()}, 30, 5, v)
    assert np.array_equal(e.cornish_fisher_quantile(GAUSSIAN_ETA, 30, 5, v), ndtri(v))
    assert e.collapse_report()["max_abs_coefficient"] == 0


def test_one_coefficient_matrix_per_table_and_eta_set(logistic_moments):
    _coefficient_arrays.cache_clear()
    for k in e.ORDERS:
        e.edgeworth_cdf(logistic_moments, 40, k, np.linspace(-3.0, 3.0, 7))
        e.cornish_fisher_quantile(logistic_moments, 40, k, [0.1, 0.5, 0.9])
    assert _coefficient_arrays.cache_info().currsize == 2
    eta_key = tuple((i, v, repr(v)) for i, v in sorted(logistic_moments.eta.items()))
    for kind, table in (("edgeworth", EDGEWORTH_TABLE), ("cornish-fisher", CORNISH_FISHER_TABLE)):
        matrix = _coefficient_arrays(kind, eta_key)
        assert not matrix.flags.writeable
        assert matrix.shape == (4, 1 + max(table[5]))


@pytest.mark.filterwarnings("ignore:order 5 is unreliable")
@pytest.mark.parametrize("n", [16, 64])
def test_summed_orders_match_exact_rational_evaluation(n):
    # n^-1/2 is a power of two and the etas and points are dyadic, so the
    # exact value is a Fraction and the float path differs only by rounding
    eta = {2: F(7, 2), 3: F(5, 4), 4: F(3), 5: F(-19, 8), 6: F(-2),
           7: F(37, 2), 8: F(17, 2), 9: F(39, 8), 10: F(13, 2)}
    root = F(1, math.isqrt(n))
    for kind, table in (("edgeworth", EDGEWORTH_TABLE), ("cornish-fisher", CORNISH_FISHER_TABLE)):
        for order in range(2, 6):
            for t in (-3.5, -1.25, -0.5, 0.0, 0.75, 2.0, 3.25):
                terms = [root ** (o - 1) * evaluate_terms(table[o][p], eta) * F(t) ** p
                         for o in range(2, order + 1) for p in table[o]]
                have = _add_corrections(0.0, kind, eta, n, order, t)
                slack = 8 * np.finfo(float).eps * float(sum(abs(term) for term in terms))
                assert abs(F(float(have)) - sum(terms)) <= F(slack), (kind, order, t)


def test_compose_normal_is_identity(normal_moments):
    report = e.compose_check(normal_moments, [20, 80])
    for k in e.ORDERS:
        for n in (20, 80):
            assert report.residuals[k][n] <= 1e-8
    assert report.flagged_order is None


def test_compose_order_one_is_roundoff(logistic_moments):
    report = e.compose_check(logistic_moments, 100, orders=(1,))
    assert report.residuals[1][100] <= 1e-13


def test_compose_logistic_order3_shrinks_at_square_rate(logistic_moments):
    report = e.compose_check(logistic_moments, [100, 400])
    ratio = report.residuals[3][100] / report.residuals[3][400]
    assert ratio >= 4.0  # theory says 16; constants absorb the rest
    assert report.flagged_order is None


@pytest.mark.filterwarnings("ignore:order 5 is unreliable")
def test_compose_flags_nothing_for_skewed_etas():
    ms = e.MomentSet.from_values(
        1.0, {2: 2.2, 3: 0.7, 4: 3.5, 5: 1.1, 6: 0.4, 7: 18.0, 8: 9.0, 9: 7.0, 10: 6.5})
    report = e.compose_check(ms, [400, 1600, 6400, 25600])
    assert report.flagged_order is None and report.notes == ()
    for k in e.ORDERS[1:]:
        assert report.decay_exponents[k] > k / 2 - 0.05
    assert report.to_dict()["flagged_order"] is None


def test_compose_refuses_empty_grids(logistic_moments):
    with pytest.raises(ValueError, match="n grid must not be empty"):
        e.compose_check(logistic_moments, [])
    with pytest.raises(ValueError, match="v grid must not be empty"):
        e.compose_check(logistic_moments, [100, 200], v_grid=[])
    with pytest.raises(ValueError, match="order list must not be empty"):
        e.compose_check(logistic_moments, [100, 200], orders=())


def test_compose_rejects_unsorted_grid(logistic_moments):
    with pytest.raises(ValueError):
        e.compose_check(logistic_moments, [400, 100])


# ---------------------------------------------------------------------------
# a skewed family with an exact law, and the order-5 guard
# ---------------------------------------------------------------------------

_GUMBEL = "exp(-x - exp(-x))"


@pytest.fixture(scope="module")
def gumbel_model():
    return e.from_expression(_GUMBEL, name="gumbel")


@pytest.fixture(scope="module")
def gumbel(gumbel_model):
    x = -np.log(-np.log(np.linspace(0.05, 0.95, 40)))  # Gumbel quantiles
    est = e.LocationMLE(family="expression", family_params={"expr": _GUMBEL}).fit(x)
    return est, e.compute_moment_set(gumbel_model)


_LACKS_D = pytest.mark.xfail(
    strict=True, reason="the order-5 x^5 and x^3 blocks lack +-D, so both tables decay like n^-2")


@pytest.mark.filterwarnings("ignore:order 5 is unreliable")
@pytest.mark.parametrize("order", [1, 2, 3, 4, pytest.param(5, marks=_LACKS_D)])
def test_gumbel_tables_converge_to_the_exact_law(gumbel, order):
    """Both tables at order k approach the exact law like n^-(k/2).

    For Gumbel data sum_i e^-X_i is Gamma(n, 1) and thetahat = log(n / sum_i
    e^-X_i), so P(sqrt(n) thetahat <= x) = Q(n, n e^(-x/sqrt(n))) with Q the
    regularized upper incomplete gamma function; I = 1.
    """
    _, ms = gumbel
    assert ms.fisher == pytest.approx(1.0, abs=1e-9)
    x = np.linspace(-4.0, 4.0, 161)
    v = np.linspace(0.01, 0.99, 99)
    sizes = (100, 400, 1600)
    cdf_err, quantile_err = [], []
    for n in sizes:
        root = math.sqrt(n)
        exact_cdf = gammaincc(n, n * np.exp(-x / root))
        exact_quantile = root * np.log(n / gammainccinv(n, v))
        cdf_err.append(np.max(np.abs(e.edgeworth_cdf(ms, n, order, x) - exact_cdf)))
        quantile_err.append(np.max(np.abs(e.cornish_fisher_quantile(ms, n, order, v)
                                          - exact_quantile)))
    for err in (cdf_err, quantile_err):
        decay = -np.polyfit(np.log(sizes), np.log(err), 1)[0]
        assert abs(decay - order / 2) <= 0.05, (err, decay)


def test_gumbel_stochastic_expansion_runs_the_odd_brackets(gumbel_model):
    """Criterion 6's remainder slopes on a skewed family, against its closed-form MLE.

    rho^(j)(x) = (-1)^j e^-x for j >= 2, so a3 = a5 = -1: the odd a terms of
    every bracket are exercised.
    """
    a = np.array([0.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    rng = np.random.default_rng(20261019)
    sizes = (25, 100, 400)
    medians = {k: [] for k in e.ORDERS}
    for n in sizes:
        samples = rng.gumbel(size=(2000, n))
        exact = np.log(n) - np.log(np.sum(np.exp(-samples), axis=1))
        # the score's slope at the MLE is mean e^-(x - thetahat) = 1, so the
        # score tolerance bounds the error in thetahat
        fit = e.solve_mle_batch(samples, gumbel_model, tol=5e-13)
        assert not fit.failed.any()
        assert np.max(np.abs(fit.theta_hat - exact)) <= 1e-12
        truncations = e.stochastic_expansion_batch(
            e.compute_xi_batch(samples, 0.0, gumbel_model, a), n, a)
        for k in e.ORDERS:
            medians[k].append(np.median(np.abs(math.sqrt(n) * exact - truncations[k])))
    for k in e.ORDERS:
        slope = np.polyfit(np.log(sizes), np.log(medians[k]), 1)[0]
        assert abs(slope + k / 2) <= 0.35, (k, slope, medians[k])


def _study(family, params, order):
    return e.run_study(e.SimulationConfig(
        family=family, family_params=params, n_grid=(1,), replications=100,
        orders=(order,), eval_grid=(0.0,), require_valid_conditions=False))


def test_order_five_warns_for_a_skewed_family(gumbel):
    est, ms = gumbel
    assert ms.eta[3] == pytest.approx(2.0, abs=1e-9)
    with pytest.warns(UserWarning, match="eta3 = 2.*use order 4"):
        e.edgeworth_cdf(ms, 50, 5, [0.0, 1.0])
    with pytest.warns(UserWarning, match="eta3"):
        e.cornish_fisher_quantile(ms, 50, 5, [0.1, 0.9])
    with pytest.warns(UserWarning, match="eta3"):
        est.confidence_interval(order=5, moments=ms)
    with pytest.warns(UserWarning, match="eta3"):
        _study("expression", {"expr": _GUMBEL}, 5)


def test_order_four_and_symmetric_families_stay_silent(gumbel, logistic_model, logistic_moments):
    est, ms = gumbel
    x = np.asarray(e.sample_iid(logistic_model, 40, 3))
    logistic_est = e.LocationMLE(family="logistic").fit(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e.edgeworth_cdf(ms, 50, 4, [0.0, 1.0])
        e.cornish_fisher_quantile(ms, 50, 4, [0.1, 0.9])
        est.confidence_interval(order=4, moments=ms)
        e.edgeworth_cdf(logistic_moments, 50, 5, [0.0, 1.0])
        e.cornish_fisher_quantile(logistic_moments, 50, 5, [0.1, 0.9])
        logistic_est.confidence_interval(order=5, moments=logistic_moments)
        _study("logistic", {}, 5)
