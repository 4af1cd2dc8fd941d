import math
import pickle
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc, gammainccinv, ndtr, ndtri

import edgemle as e
from conftest import mp_ulps
from edgemle.density import _horner, _normal_cdf, _normal_quantile
from edgemle.expansion import (_ARRAY_POINTS, EDGEWORTH_TABLE, GAUSSIAN_ETA,
                               _coefficient_arrays, _corrections, _increasing_range, _n_weights,
                               _stochastic_table, _table, _weighted_coefficients, evaluate_terms)

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
        samples = e.sample_iid(logistic_model, n, 777, range(start, start + 1000))
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


def _truncations_oracle(xi, n, a, orders):
    """The truncations as the one-line formula over :func:`evaluate_terms` gives them."""
    y, c = dict(enumerate(xi.T / a[1], start=1)), dict(enumerate(a / a[1], start=1))
    blocks = np.stack([sum(evaluate_terms([(float(evaluate_terms(terms, c)), mono)], y)
                           for mono, terms in _stochastic_table()[o].items()) for o in e.ORDERS])
    sums = np.cumsum(_n_weights(n)[:, None] * blocks, axis=0)
    return {k: sums[k - 1] for k in orders}


@pytest.mark.parametrize("rows", [1, 1310])
@pytest.mark.parametrize("family", ["logistic", "t7"])
def test_truncations_match_the_evaluate_terms_formula_bit_for_bit(request, family, rows):
    a = np.asarray(request.getfixturevalue(f"{family}_moments").a)
    xi = np.random.default_rng(rows).normal(size=(rows, 6)) * [1.0, 2.0, 0.5, 3.0, 1.0, 4.0]
    for layout in (np.ascontiguousarray(xi), np.asfortranarray(xi)):
        for n in (25, 400):
            for orders in (e.ORDERS, (1,), (2, 5), (3, 4)):
                have = e.stochastic_expansion_batch(layout, n, a, orders)
                want = _truncations_oracle(xi, n, a, orders)
                assert list(have) == list(want)
                for k in orders:
                    assert have[k].view(np.uint64).tobytes() == want[k].view(np.uint64).tobytes()


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

def _ulps(got, want):
    # |got - want| in units of the spacing of the floats at want
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


def test_cdf_order_one_is_plain_normal(logistic_moments):
    grid = np.linspace(-4, 4, 33)
    order_one = e.edgeworth_cdf(logistic_moments, 77, 1, grid)
    assert np.array_equal(order_one, [_normal_cdf(x) for x in grid])
    # scipy's Phi agrees within both errors against mpmath on [-5, 0] (20.4 and
    # 20.6 ulp; test_normal_cdf_is_as_accurate_as_scipys)
    assert np.max(_ulps(order_one, ndtr(grid))) <= 42


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
    order_one = e.cornish_fisher_quantile(logistic_moments, 64, 1, v)
    assert np.array_equal(order_one, [_normal_quantile(p) for p in v])
    # scipy's ndtri agrees within both error bounds against mpmath (2.0 and 2.7
    # ulp; test_normal_quantile_is_as_accurate_as_scipys)
    assert np.max(_ulps(order_one, ndtri(v))) <= 4.7


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


def test_normal_cdf_is_as_accurate_as_scipys():
    # against mpmath, region by region, from x = -38.5 (a subnormal Phi) to 8.5
    x = np.linspace(-38.5, 8.5, 941)
    with mpmath.workprec(120), warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = [mpmath.ncdf(mpmath.mpf(float(p))) for p in x]
        ours = np.array([mp_ulps(_normal_cdf(float(p)), ex) for p, ex in zip(x, exact)])
        theirs = np.array([mp_ulps(ndtr(p), ex) for p, ex in zip(x, exact)])
    for lo, hi in ((-38.5, -37.5), (-37.5, -20.0), (-20.0, -5.0), (-5.0, 0.0), (0.0, 8.5)):
        at = (x >= lo) & (x <= hi)
        assert np.max(ours[at]) <= np.max(theirs[at]), (lo, hi)
    # the argument's rounding costs x^2 ulp or so; the bound holds where Phi is normal
    normal = x >= -37.5
    assert np.all(ours[normal] <= 1.5 * (1.0 + x[normal] ** 2))
    assert [_normal_cdf(p) for p in (-math.inf, 0.0, -0.0, math.inf)] == [0.0, 0.5, 0.5, 1.0]
    assert math.isnan(_normal_cdf(math.nan))


def test_normal_quantile_is_as_accurate_as_scipys():
    # against mpmath from p = 1e-300 up to 1 - 2^-53, the largest float below 1
    p = np.concatenate([10.0 ** -np.linspace(1.0, 300.0, 300), np.linspace(5e-4, 1 - 5e-4, 500),
                        1.0 - 2.0 ** -np.arange(2.0, 54.0), 1.0 - 10.0 ** -np.linspace(1, 15, 50)])
    with mpmath.workprec(120), warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = [mpmath.findroot(lambda z, q=mpmath.mpf(float(q)): mpmath.ncdf(z) - q,
                                 mpmath.mpf(float(ndtri(q)))) for q in p]
        ours = np.array([mp_ulps(_normal_quantile(float(q)), ex) for q, ex in zip(p, exact)])
        theirs = np.array([mp_ulps(ndtri(q), ex) for q, ex in zip(p, exact)])
    assert np.max(ours) <= min(2.5, np.max(theirs))
    # below the least normal float the Newton step is skipped, and AS241 alone is left
    assert _normal_quantile(5e-324) == pytest.approx(float(ndtri(5e-324)), rel=1e-13)
    assert _normal_quantile(0.5) == 0.0
    assert _normal_quantile(0.25) == -_normal_quantile(0.75)


# ---------------------------------------------------------------------------
# composition diagnostic
# ---------------------------------------------------------------------------

def _clear_coefficient_caches():
    # the coefficient matrices and the weighted sums of their rows built from them
    _coefficient_arrays.cache_clear()
    _weighted_coefficients.cache_clear()


def _cdf_and_quantile(moments):
    x = np.linspace(-3.0, 3.0, 13)
    return (np.asarray(e.edgeworth_cdf(moments, 40, 5, x)).tobytes(),
            np.asarray(e.cornish_fisher_quantile(moments, 40, 5, [0.025, 0.5, 0.975])).tobytes())


def test_coefficient_cache_follows_the_eta_values(logistic_moments, t7_moments):
    fresh = {}
    for name, ms in (("logistic", logistic_moments), ("t7", t7_moments)):
        _clear_coefficient_caches()
        fresh[name] = _cdf_and_quantile(ms)
    for _ in range(3):
        assert _cdf_and_quantile(logistic_moments) == fresh["logistic"]
        assert _cdf_and_quantile(t7_moments) == fresh["t7"]

    eta = dict(t7_moments.eta)
    before = e.cornish_fisher_quantile(eta, 50, 5, 0.9)
    eta[4] += 0.5  # the same dict object, mutated between calls
    after = e.cornish_fisher_quantile(eta, 50, 5, 0.9)
    _clear_coefficient_caches()
    assert after == e.cornish_fisher_quantile(eta, 50, 5, 0.9) != before


def test_coefficient_cache_keeps_fraction_etas_exact():
    # dyadic Fractions equal their floats, so both eta dicts compare equal,
    # yet the floats round term by term and move the CDF in its last bits
    exact = {2: F(7, 2), 3: F(5, 4), 4: F(0), 5: F(-19, 8), 6: F(-2),
             7: F(-37, 8), 8: F(-17, 4), 9: F(-39, 8), 10: F(-13, 4)}
    floats = {k: float(val) for k, val in exact.items()}
    assert floats == exact
    x = np.linspace(-3.0, 3.0, 25)
    _clear_coefficient_caches()
    with pytest.warns(UserWarning, match="order 5 is unreliable"):  # eta3 = 5/4: skewed
        fresh = e.edgeworth_cdf(exact, 30, 5, x)
    with pytest.warns(UserWarning, match="order 5 is unreliable"):
        assert e.edgeworth_cdf(floats, 30, 5, x).tobytes() != fresh.tobytes()
    with pytest.warns(UserWarning, match="order 5 is unreliable"):
        assert e.edgeworth_cdf(exact, 30, 5, x).tobytes() == fresh.tobytes()
    v = np.array([0.1, 0.5, 0.9])
    e.cornish_fisher_quantile({k: float(val) for k, val in GAUSSIAN_ETA.items()}, 30, 5, v)
    gaussian = e.cornish_fisher_quantile(GAUSSIAN_ETA, 30, 5, v)
    assert np.array_equal(gaussian, [_normal_quantile(p) for p in v])
    assert np.max(_ulps(gaussian, ndtri(v))) <= 4.7
    assert e.collapse_report()["max_abs_coefficient"] == 0


def test_one_coefficient_matrix_per_table_and_eta_set(logistic_moments):
    _clear_coefficient_caches()
    for k in e.ORDERS:
        e.edgeworth_cdf(logistic_moments, 40, k, np.linspace(-3.0, 3.0, 7))
        e.cornish_fisher_quantile(logistic_moments, 40, k, [0.1, 0.5, 0.9])
    assert _coefficient_arrays.cache_info().currsize == 2
    # one weighted vector per table and order 2..5 at this n, read on every call
    assert _weighted_coefficients.cache_info().currsize == 8
    for kind in ("edgeworth", "cornish-fisher"):
        for k in e.ORDERS[1:]:
            weighted = _weighted_coefficients(kind, logistic_moments.eta_key, 40, k)
            assert weighted == tuple(_n_weights(40)[1:k] @ _coefficient_arrays(
                kind, logistic_moments.eta_key)[:k - 1, :1 + max(_table(kind)[k])])
    eta_key = tuple((i, v, repr(v)) for i, v in sorted(logistic_moments.eta.items()))
    assert logistic_moments.eta_key == eta_key
    for kind, table in (("edgeworth", EDGEWORTH_TABLE), ("cornish-fisher", CORNISH_FISHER_TABLE)):
        matrix = _coefficient_arrays(kind, eta_key)
        assert not matrix.flags.writeable
        assert matrix.shape == (4, 1 + max(table[5]))


@pytest.mark.parametrize("points", [5, _ARRAY_POINTS - 1, _ARRAY_POINTS, 55])
def test_tables_hold_the_bits_of_numpys_polyval(logistic_moments, t7_moments, points):
    # the former array form: polyval over all points, then Phi + corr * phi,
    # and z + corr for the quantile; a table of fewer than _ARRAY_POINTS
    # points runs per point, in the same float steps
    x = np.concatenate([[-0.0, np.inf, -np.inf, np.nan, -40.0, 38.0],
                        np.linspace(-6.0, 6.0, 49)])[:points]
    v = np.concatenate([[1e-300, 1.0 - 2.0 ** -53], np.linspace(0.01, 0.99, 53)])[:points]
    phi = np.exp(-0.5 * np.minimum(np.abs(x), 40.0) ** 2) / np.sqrt(2 * np.pi)
    z = np.array([_normal_quantile(p) for p in v])
    for ms in (logistic_moments, t7_moments):
        for n in (5, 100):
            for k in e.ORDERS:
                cdf_c = np.array(_corrections("edgeworth", ms, n, k) or (0.0,))
                corr = np.polynomial.polynomial.polyval(np.where(phi > 0, x, 0.0), cdf_c)
                want = np.array([_normal_cdf(t) for t in x]) + corr * phi
                assert e.edgeworth_cdf(ms, n, k, x).tobytes() == want.tobytes()
                want = z + np.polynomial.polynomial.polyval(
                    z, np.array(_corrections("cornish-fisher", ms, n, k) or (0.0,)))
                assert e.cornish_fisher_quantile(ms, n, k, v).tobytes() == want.tobytes()


def test_a_moment_set_builds_its_table_key_once(logistic_moments):
    ms = e.MomentSet(logistic_moments.fisher, logistic_moments.a, dict(logistic_moments.eta),
                     logistic_moments.quadrature_error)
    before = pickle.dumps(ms)
    x, v = np.linspace(-3.0, 3.0, 13), np.array([0.05, 0.5, 0.95])
    for k in e.ORDERS:
        # a plain mapping keys the same matrices, so the tables agree bit for bit
        assert (e.edgeworth_cdf(ms, 100, k, x).tobytes()
                == e.edgeworth_cdf(dict(ms.eta), 100, k, x).tobytes())
        assert (e.cornish_fisher_quantile(ms, 100, k, v).tobytes()
                == e.cornish_fisher_quantile(dict(ms.eta), 100, k, v).tobytes())
    key = ms.eta_key
    assert key == tuple((i, val, repr(val)) for i, val in sorted(ms.eta.items()))
    e.edgeworth_cdf(ms, 50, 5, x)
    assert ms.eta_key is key
    # the key is no field: equality, the JSON form and the pickle are those of the fields
    assert ms == logistic_moments and ms.to_dict() == logistic_moments.to_dict()
    assert pickle.dumps(ms) == before
    assert pickle.loads(before) == ms and pickle.loads(before).eta_key == key


def test_a_moment_set_keeps_its_own_eta():
    source = {k: float(v) for k, v in GAUSSIAN_ETA.items()}
    ms = e.MomentSet(1.0, NORMAL_EXACT_A, source, {})
    key = ms.eta_key
    source[4] = 5.0  # the caller's dict, not the set's
    assert ms.eta[4] == 3.0 and ms.eta_key == key


def test_table_keys_keep_a_fraction_and_a_signed_zero_apart():
    floats = {k: float(v) for k, v in GAUSSIAN_ETA.items()}
    keys = [e.MomentSet(1.0, NORMAL_EXACT_A, eta, {}).eta_key
            for eta in (GAUSSIAN_ETA, floats, {**floats, 3: -0.0})]
    assert len(set(keys)) == 3


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
                have = _horner(_corrections(kind, eta, n, order), t)
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


def test_compose_refuses_probabilities_outside_the_unit_interval(logistic_moments):
    # the v grid reaches the normal quantile before any residual; the error is
    # the package's ValueError, not the stdlib's StatisticsError
    for bad in ([0.0, 0.5], [0.5, 1.0], [0.5, math.nan], [-0.1]):
        with pytest.raises(ValueError, match="strictly inside") as caught:
            e.compose_check(logistic_moments, [100, 200], v_grid=bad)
        assert type(caught.value) is ValueError


def test_compose_rejects_unsorted_grid(logistic_moments):
    with pytest.raises(ValueError):
        e.compose_check(logistic_moments, [400, 100])


@pytest.fixture(params=["normal", "logistic", "t7", "expression", "gumbel"])
def any_moments(request):
    """The moment sets of the four benchmark families and of the skewed Gumbel expression."""
    if request.param == "expression":
        return e.compute_moment_set(e.from_expression("exp(-x**2/2)/sqrt(2*pi)"))
    if request.param == "gumbel":
        return request.getfixturevalue("gumbel")[1]
    return request.getfixturevalue(f"{request.param}_moments")


@pytest.mark.filterwarnings("ignore:order 5 is unreliable")
@pytest.mark.parametrize("n_grid, v_grid, orders, plain", [
    ((25,), None, e.ORDERS, False),
    ((25, 50, 100, 200, 400), None, e.ORDERS, False),
    ((2, 25, 1000), np.linspace(0.01, 0.99, _ARRAY_POINTS + 8), e.ORDERS, False),
    ((50, 400), None, (5, 2), True),
])
def test_compose_check_holds_the_bits_of_the_public_tables(any_moments, n_grid, v_grid, orders,
                                                           plain):
    # compose_check runs every (n, order) pair in one array pass; a loop over the
    # public functions, per point below _ARRAY_POINTS and per array from there
    # on, gives the same bits
    ms = dict(any_moments.eta) if plain else any_moments
    report = e.compose_check(ms, n_grid[0] if len(n_grid) == 1 else n_grid, v_grid, orders)
    v = np.linspace(0.05, 0.95, 19) if v_grid is None else v_grid
    z = e.cornish_fisher_quantile(ms, 1, 1, v)
    for k in orders:
        for m in n_grid:
            q = e.cornish_fisher_quantile(ms, m, k, v)
            assert report.residuals[k][m] == np.max(np.abs(e.edgeworth_cdf(ms, m, k, q) - v))
            assert report.normal_quantile_residuals[k][m] == np.max(
                np.abs(e.edgeworth_cdf(ms, m, k, z) - v))
    assert report.n_grid == n_grid and report.orders == orders


def test_compose_check_warns_for_order_five_of_a_skewed_family(gumbel):
    _, ms = gumbel
    with pytest.warns(UserWarning, match="eta3 = 2.*use order 4") as caught:
        e.compose_check(ms, [25, 100], orders=(4, 5))
    assert len(caught) == 4  # each n, each table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e.compose_check(ms, [25, 100], orders=(1, 2, 3, 4))


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


# ---------------------------------------------------------------------------
# confidence intervals only where the quantile expansion increases
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cauchy_moments():
    return e.compute_moment_set(e.student_t(1))


@pytest.mark.parametrize("n, level, ends", [(2, 0.95, "1.414"), (4, 0.99, "1.854")])
def test_confidence_interval_refuses_a_level_past_the_increasing_range(cauchy_moments, n, level,
                                                                       ends):
    alpha = (1.0 - level) / 2.0
    q_lo, q_hi = e.cornish_fisher_quantile(cauchy_moments, n, 5, [alpha, 1.0 - alpha])
    q = e.cornish_fisher_quantile(cauchy_moments, n, 5, np.linspace(alpha, 1.0 - alpha, 99))
    # at n = 2 the pair comes out inverted; at n = 4 in order, over a stretch that decreases
    assert (q_lo > q_hi) if n == 2 else (q_lo < q_hi and np.any(np.diff(q) < 0))
    est = e.LocationMLE("student_t", {"nu": 1}).fit(np.linspace(-0.3, 0.5, n))
    with pytest.raises(ValueError, match=rf"order-5 quantile expansion at n = {n} increases only "
                                         rf"for z in \(-{ends}, {ends}\).*not of level {level}"):
        est.confidence_interval(level, order=5, moments=cauchy_moments)
    # a lower order, or a level inside the range, is served
    lo, hi = est.confidence_interval(level, order=4, moments=cauchy_moments)
    assert lo < hi
    lo, hi = est.confidence_interval(0.8, order=5, moments=cauchy_moments)
    assert lo < est.theta_ < hi


@pytest.mark.parametrize("family", ["logistic", "t7"])
@pytest.mark.parametrize("n", [25, 100, 400])
def test_logistic_and_t7_intervals_are_served_inside_the_increasing_range(request, family, n):
    ms = request.getfixturevalue(f"{family}_moments")
    lo, hi, top = _increasing_range(ms.eta_key, n, 5)
    assert lo < -2.58 and hi > 2.58 and top > 0.99
    x = np.linspace(-1.0, 1.2, n)
    est = e.LocationMLE(*(("logistic", None) if family == "logistic" else ("student_t", {"nu": 7})))
    est.fit(x)
    s = math.sqrt(n * ms.fisher)
    for level in (0.9, 0.95, 0.99):
        alpha = (1.0 - level) / 2.0
        q_lo, q_hi = e.cornish_fisher_quantile(ms, n, 5, [alpha, 1.0 - alpha])
        assert est.confidence_interval(level, order=5, moments=ms) == (est.theta_ - q_hi / s,
                                                                       est.theta_ - q_lo / s)
