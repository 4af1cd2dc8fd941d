import hashlib
import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgemle as e
import edgemle.mle as mle
import edgemle.montecarlo as montecarlo
from conftest import logistic_table
from edgemle.density import make_model
from edgemle.mle import (BLOCK_ELEMENTS, GRID_POINTS, _contrast_rows, _grid_scan,
                         _median_and_scale, _sorted_quantile)


def test_contrast_normal_at_zero(normal_model):
    # rho(0) = -log phi(0) = log sqrt(2 pi)
    assert e.contrast([0.0], normal_model, 0.0) == pytest.approx(
        0.5 * math.log(2 * math.pi), rel=1e-12)


def test_contrast_logistic_at_zero(logistic_model):
    # f(0) = 1/4
    assert e.contrast([0.0], logistic_model, 0.0) == pytest.approx(
        2 * math.log(2), rel=1e-12)


def test_contrast_of_duplicates_equals_single_point(logistic_model):
    for theta in (-1.0, 0.3, 2.0):
        assert e.contrast([0.8, 0.8], logistic_model, theta) == pytest.approx(
            e.contrast([0.8], logistic_model, theta), rel=1e-15)


def test_contrast_domain_error_outside_support():
    half = e.from_expression("sqrt(2/pi)*x**2*exp(-x**2/2)", support=(0, np.inf))
    with pytest.raises(e.DomainError):
        e.contrast([1.0, 2.0], half, 1.5)


def test_normal_mle_is_the_sample_mean(normal_model):
    rng = np.random.default_rng(21)
    x = rng.normal(1.7, 2.0, 151)
    for tol in (1e-6, 1e-12):
        res = e.solve_mle(x, normal_model, tol=tol)
        assert res.theta_hat == pytest.approx(float(np.mean(x)), abs=1e-12)
        assert abs(res.gradient_at_solution) <= tol
        assert res.bracket[0] <= res.theta_hat <= res.bracket[1]


def test_identical_points_estimate_that_point(logistic_model, normal_model, t7_model):
    for model in (logistic_model, normal_model, t7_model):
        res = e.solve_mle(np.full(9, 2.4), model, tol=1e-11)
        assert res.theta_hat == pytest.approx(2.4, abs=1e-9)


def test_logistic_first_order_condition_and_grid_oracle(logistic_model):
    rng = np.random.default_rng(100)
    x = np.asarray(e.sample_iid(logistic_model, 100, 2024))
    res = e.solve_mle(x, logistic_model, tol=1e-10)
    # first-order condition |sum psi1(X - theta)| <= n tol
    score_sum = np.sum(np.tanh((x - res.theta_hat) / 2))
    assert abs(score_sum) <= 100 * 1e-10 * (1 + 1e-6) + 1e-12
    # independent oracle: two-stage grid refinement of the contrast to 1e-6
    med = np.median(x)
    coarse = np.linspace(med - 2, med + 2, 4001)
    vals = [e.contrast(x, logistic_model, t) for t in coarse]
    best = coarse[int(np.argmin(vals))]
    fine = np.linspace(best - 2e-3, best + 2e-3, 4001)
    vals = [e.contrast(x, logistic_model, t) for t in fine]
    best = fine[int(np.argmin(vals))]
    assert res.theta_hat == pytest.approx(best, abs=2e-6)


def test_solution_beats_every_grid_probe(logistic_model):
    x = np.asarray(e.sample_iid(logistic_model, 60, 5150))
    res = e.solve_mle(x, logistic_model)
    med, scale = np.median(x), np.subtract(*np.percentile(x, [75, 25])) / 1.349
    probes = np.linspace(med - 5 * scale, med + 5 * scale, 41)
    probe_vals = [e.contrast(x, logistic_model, t) for t in probes]
    assert res.contrast_value <= min(probe_vals) + 1e-12


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-40.0, 40.0))
def test_shift_equivariance(shift):
    model = e.logistic()
    x = np.asarray(e.sample_iid(model, 50, 31337))
    base = e.solve_mle(x, model, tol=1e-11).theta_hat
    moved = e.solve_mle(x + shift, model, tol=1e-11).theta_hat
    assert moved - base == pytest.approx(shift, abs=1e-8)


def test_multimodal_likelihood_is_flagged_and_globally_minimized():
    cauchy = e.student_t(1.0)
    x = np.array([-10.0, -9.5, 9.5, 10.0])
    res = e.solve_mle(x, cauchy)
    assert res.multimodal_flag
    # global minimum beats a dense scan
    probes = np.linspace(-12, 12, 2401)
    vals = [e.contrast(x, cauchy, t) for t in probes]
    assert res.contrast_value <= min(vals) + 1e-9


def _dense_scan_min(x, model, points=40001):
    # the contrast on a dense grid spanning the sample
    x = np.asarray(x, dtype=float)
    probes = np.linspace(x.min() - 1.0, x.max() + 1.0, points)
    return float(np.min(_contrast_rows(x[None, :], model, probes)))


def _spy(monkeypatch, name, record):
    # wrap edgemle.mle.<name>, passing each call's (args, result) to record
    fn = getattr(mle, name)

    def spied(*args):
        out = fn(*args)
        record(args, out)
        return out

    monkeypatch.setattr(mle, name, spied)


def test_scan_widens_while_its_minimum_sits_on_the_grid_edge(monkeypatch):
    # four points within 0.01 of zero give a scan interval of width ~0.1; the
    # minimum, pulled towards the point at 8, lies beyond its right edge
    model = e.student_t(7)
    x = [0.0, 0.01, -0.01, 0.005, 8.0]
    scans = []
    _spy(monkeypatch, "_grid_scan", lambda args, out: scans.append(args[0].shape[0]))
    res = e.solve_mle(x, model)
    assert scans == [1, 1, 1]  # the first scan and two widenings
    assert res.theta_hat == pytest.approx(0.20371834456604557, abs=1e-12)
    assert not res.multimodal_flag
    assert res.contrast_value <= _dense_scan_min(x, model) + 1e-12


def test_lower_basin_replaces_the_best_grid_point():
    # the best grid point lies in the basin near 0; the basin of the pair at
    # 18.24, 18.25 has the lower contrast once refined
    model = e.student_t(1)
    x = [0.0, -0.02, 18.24, 18.25]
    res = e.solve_mle(x, model)
    assert res.multimodal_flag
    assert res.theta_hat == pytest.approx(18.190050965588632, abs=1e-12)
    # the bracket is the first basin's, widened to the chosen theta
    assert res.bracket == pytest.approx((0.04495253232018758, 18.190050965588632), abs=1e-12)
    assert res.contrast_value <= _dense_scan_min(x, model) + 1e-12


_SPREAD_CAUCHY = [-86.4, -289.1, 105.8, -175.4, 64.6, -35.0, 58.0, 23.2, 169.2]


def _refine_once(monkeypatch):
    # record the starts and results of every _newton_refine call
    calls = []
    refine = mle._newton_refine

    def spied(samples, model, theta, *rest):
        start = theta.tolist()  # before Newton moves theta in place
        out = refine(samples, model, theta, *rest)
        calls.append((start, out))
        return out

    monkeypatch.setattr(mle, "_newton_refine", spied)
    return calls


def test_basin_whose_newton_fails_is_skipped(monkeypatch):
    model = e.student_t(1)
    calls = _refine_once(monkeypatch)
    res = e.solve_mle(_SPREAD_CAUCHY, model)
    (_start, out), = calls
    unconverged = out[5].tolist()
    # the best grid point's candidate converges; one of the other basins does not
    assert unconverged[0] is False and unconverged.count(True) == 1
    assert res.multimodal_flag
    assert res.theta_hat == pytest.approx(23.237396224925238, abs=1e-12)


def test_a_candidate_that_cannot_converge_stops_before_max_iter(monkeypatch):
    # the basin at 107.15 bisects onto its bracket end, where the score stays
    # positive; once a step leaves theta where it was, every later step would too
    model = e.student_t(1)
    calls = _refine_once(monkeypatch)
    e.solve_mle(_SPREAD_CAUCHY, model)
    (_start, (theta, grad, iters, lo, hi, active)), = calls
    assert active.tolist().count(True) == 1 and iters.max() < 200
    k = np.flatnonzero(active)
    x = np.tile(_SPREAD_CAUCHY, (k.size, 1))
    th, gr, it, lo2, hi2, act = mle._newton_refine(x, model, theta[k], lo[k].copy(),
                                                   hi[k].copy(), 1e-10, 5)
    assert it.tolist() == [1] and act.tolist() == [True]
    for before, after in zip((theta[k], grad[k], lo[k], hi[k]), (th, gr, lo2, hi2)):
        assert after.tobytes() == before.tobytes()


def test_argmin_basin_is_not_refined_twice(monkeypatch):
    model = e.student_t(1)
    calls = _refine_once(monkeypatch)
    searches = []
    _spy(monkeypatch, "_grid_basins", lambda args, out: searches.append(
        [a.copy() for a in out]))  # before Newton moves start, lo and hi in place
    res = e.solve_mle(_SPREAD_CAUCHY, model)
    (rows, start, _lo, _hi, _unresolved), = searches
    (starts, _out), = calls
    assert res.multimodal_flag and rows.tolist() == [0] * len(starts) and len(starts) > 1
    # one run: the best grid point first, then each other basin once
    assert starts == start.tolist()
    assert starts.count(starts[0]) == 1
    assert res.theta_hat == pytest.approx(23.237396224925238, abs=1e-12)


def test_an_edge_argmin_makes_every_basin_a_candidate(monkeypatch):
    # a scan whose minimum stays on the left edge, with interior basins at
    # grid points 7, 20 and 33
    k = np.arange(GRID_POINTS)
    shape = 1.0 + 0.5 * np.cos(6 * np.pi * k / (GRID_POINTS - 1))
    shape[0] = -1.0

    scans = []

    def edge_scan(samples, model, lo, hi):
        thetas = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)
        scans.append(thetas)
        return thetas, np.tile(shape, (samples.shape[0], 1))

    monkeypatch.setattr(mle, "_grid_scan", edge_scan)
    searches = []
    _spy(monkeypatch, "_grid_basins", lambda args, out: searches.append(
        [a.copy() for a in out]))
    calls = _refine_once(monkeypatch)
    batch = e.solve_mle_batch(np.array([_SPREAD_CAUCHY]), e.student_t(1))
    (rows, start, lo, hi, unresolved), = searches
    assert len(scans) == 1 + mle._WIDEN_STEPS  # the minimum never leaves the edge
    thetas = scans[-1][0]
    assert rows.tolist() == [0, 0, 0, 0]
    assert start.tolist() == thetas[[0, 7, 20, 33]].tolist()
    assert lo.tolist() == thetas[[0, 6, 19, 32]].tolist()
    assert hi.tolist() == thetas[[1, 8, 21, 34]].tolist()
    assert len(calls) == 1
    assert unresolved.tolist() == [True]
    assert batch.multimodal_flag.tolist() == [True] and batch.failed.tolist() == [True]


_FIELDS = ("theta_hat", "gradient_at_solution", "iterations", "bracket_lo", "bracket_hi",
           "multimodal_flag", "failed")


def _full_scan(x, model, lo, hi):
    # the contrast at every grid point, one point at a time
    thetas = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)[None, :]
    return thetas, np.stack([_contrast_rows(x, model, thetas[:, g])
                             for g in range(GRID_POINTS)], axis=1)


def _ruled_out_points(th, v, m2):
    """Grid points inside a cell whose concave-gap minorant stays above the lowest coarse value."""
    k = mle._COARSE
    best = v[::k].min()
    out = np.zeros(GRID_POINTS, dtype=bool)
    for a in range(0, GRID_POINTS - 1, k):
        b = a + k
        gap = 0.5 * m2 * (th[b] - th[a]) ** 2
        # the minimum over t in [0, 1] of v[a] + (v[b] - v[a]) t - gap t (1 - t)
        t = min(max(0.5 - (v[b] - v[a]) / (2.0 * gap), 0.0), 1.0)
        low = v[a] + (v[b] - v[a]) * t - gap * t * (1.0 - t)
        out[a + 1:b] = low - best > mle._CELL_SLACK * (abs(v[a]) + abs(v[b]) + gap)
    return out


def _reference_row(x, model, tol=1e-10, max_iter=200, bound=True):
    """One row solved by the multimodal rule, each other basin refined alone.

    The whole grid is evaluated, one point at a time.  The best grid point's
    basin is refined first; a converged other basin with strictly lower
    contrast replaces it, and the bracket widens to the chosen theta.  With
    ``bound`` and a family stating ``rho2_max``, a basin whose point or a
    neighbour lies inside a ruled-out cell is dropped; without it every
    basin counts, as before the cell rule.  Returns the seven
    ``BatchMleResult`` fields and whether another basin won.
    """
    x = x[None, :]
    med, scale = _median_and_scale(x)
    t_lo, t_hi = model.feasible_shift_interval(x, margin=1e-9 * np.maximum(scale, 1.0))
    lo = np.maximum(med - mle.GRID_SPAN * scale, t_lo)
    hi = np.minimum(med + mle.GRID_SPAN * scale, t_hi)
    thetas, values = _full_scan(x, model, lo, hi)
    for _ in range(mle._WIDEN_STEPS):
        j = int(np.argmin(values[0]))
        if 0 < j < GRID_POINTS - 1:
            break
        mle._widen(lo, hi, np.array([0]), j == 0, j == GRID_POINTS - 1, t_lo, t_hi)
        thetas, values = _full_scan(x, model, lo, hi)
    j, th, v = int(np.argmin(values[0])), thetas[0], values[0]

    def refine(b):
        return mle._newton_refine(x, model, th[[b]], th[[max(b - 1, 0)]],
                                  th[[min(b + 1, GRID_POINTS - 1)]], tol, max_iter)

    theta, grad, iters, b_lo, b_hi, active = refine(j)
    best, b_lo, b_hi = (theta[0], grad[0], iters[0]), b_lo[0], b_hi[0]
    d = np.diff(v)
    basins = np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0)) + 1
    if bound and model.rho2_max is not None:
        out = _ruled_out_points(th, v, model.rho2_max)
        basins = basins[~(out[basins - 1] | out[basins] | out[basins + 1])]
    replaced = False
    if basins.size > 1:
        best_val = mle._contrast_rows(x, model, theta)[0]
        for b in basins[basins != j]:
            tt, gg, ii, _lo, _hi, act = refine(b)
            val = mle._contrast_rows(x, model, tt)[0]
            if not act[0] and val < best_val:
                best, best_val, replaced = (tt[0], gg[0], ii[0]), val, True
        b_lo, b_hi = min(b_lo, best[0]), max(b_hi, best[0])
    fields = (*best, b_lo, b_hi, basins.size > 1, active[0] or j in (0, GRID_POINTS - 1))
    return fields, replaced


def _column(rows, name):
    return [fields[_FIELDS.index(name)] for fields, _won in rows]


# max_iter=5 leaves many candidates unconverged; contrasts rounded to
# integers make basins tie, within a row and with its own candidate
@pytest.mark.parametrize("max_iter, rounded", [(200, False), (5, False), (200, True)])
def test_one_newton_run_matches_the_per_row_basin_rule(monkeypatch, max_iter, rounded):
    if rounded:
        exact = mle._contrast_rows
        monkeypatch.setattr(mle, "_contrast_rows", lambda *args: np.round(exact(*args)))
    replaced = dropped = 0
    for nu in (0.5, 1.0, 3.0, 7.0):
        model = e.student_t(nu)
        for n in (3, 5, 9, 25):
            samples = 30.0 * np.random.default_rng(int(10 * nu) + n).standard_cauchy((40, n))
            batch = e.solve_mle_batch(samples, model, max_iter=max_iter)
            rows = [_reference_row(x, model, max_iter=max_iter) for x in samples]
            replaced += sum(won for _fields, won in rows)
            for name in _FIELDS:
                got = getattr(batch, name)
                expected = np.array(_column(rows, name), dtype=got.dtype)
                assert got.tobytes() == expected.tobytes(), (nu, n, name)
            # the cell rule only drops basins that never win: the estimate and
            # its iterations are those of the rule without it, and a row can
            # only lose its multimodal flag
            before = [_reference_row(x, model, max_iter=max_iter, bound=False) for x in samples]
            for name in ("theta_hat", "iterations"):
                got = getattr(batch, name)
                expected = np.array(_column(before, name), dtype=got.dtype)
                assert got.tobytes() == expected.tobytes(), (nu, n, name)
            flag_before = np.array(_column(before, "multimodal_flag"))
            assert not np.any(batch.multimodal_flag & ~flag_before), (nu, n)
            dropped += int(np.sum(flag_before & ~batch.multimodal_flag))
    assert replaced > 0 and dropped > 0


@pytest.mark.xfail(strict=True, reason="the 41-point scan (step ~28) straddles the narrow "
                   "global basin at 58.13, so the solver returns the basin at 23.24")
def test_spread_cauchy_sample_beats_a_dense_scan():
    model = e.student_t(1)
    res = e.solve_mle(_SPREAD_CAUCHY, model)
    assert res.contrast_value <= _dense_scan_min(_SPREAD_CAUCHY, model) + 1e-12


def test_no_convergence_raises(logistic_model):
    x = np.asarray(e.sample_iid(logistic_model, 30, 8))
    with pytest.raises(e.NoConvergence):
        e.solve_mle(x, logistic_model, tol=1e-14, max_iter=1)


def test_no_convergence_names_its_cause():
    # a Cauchy row whose own basin holds no root: Newton from the best grid
    # point ends on its bracket end, while another basin converges and is
    # returned; the message says so, with the iterations each ran and their
    # |score|, and names no iteration cap
    x = np.array([-34.362474, 53.624074, -45.067761, -16.278722, 12.05913, 26.196185])
    model = e.student_t(1)
    batch = e.solve_mle_batch(x, model)
    assert batch.failed[0] and abs(batch.gradient_at_solution[0]) <= 1e-10
    with pytest.raises(e.NoConvergence) as info:
        e.solve_mle(x, model)
    text = str(info.value)
    own = re.search(r"its own basin held no root: Newton ended on an end of the search's "
                    r"bracket; its own candidate ran (\d+) iterations to theta = 17.3503, "
                    r"\|score\| = 0.0361 \(tol 1e-10\)", text)
    assert own and 0 < int(own.group(1)) < 200 and "200" not in text
    assert text.endswith(f"; another basin converged at theta = {batch.theta_hat[0]:.6g} in "
                         f"{batch.iterations[0]} iterations, |score| = "
                         f"{abs(batch.gradient_at_solution[0]):.3g}")
    # the other causes: an unresolved search, the iteration cap, a fixed point
    with pytest.raises(e.NoConvergence, match="basin search was unresolved: the score kept "
                       "one sign at an end of the search interval after 8 widenings"):
        e.solve_mle([0.0, 0.0, 0.0, 0.0, 1.0, 1e12], e.normal())
    sample = [0.3, -1.7, 2.2, 0.9, -0.4, 1.1, 5.0]  # its score rounds to 1.6e-17, never to 0
    with pytest.raises(e.NoConvergence, match="ran out of its 1 iterations; its own "
                       "candidate ran 1 iterations"):
        e.solve_mle(sample, e.logistic(), tol=1e-14, max_iter=1)
    with pytest.raises(e.NoConvergence, match="stopped at a fixed point"):
        e.solve_mle(sample, e.logistic(), tol=0.0)


#: sample_iid's Philox uniforms themselves: the draws of a quantile that is the identity
_UNIFORM = SimpleNamespace(ppf=lambda u: u)


def _pinned_rows(family, n):
    # the seeded rows of the solver pin: scipy's ndtri and logit of the Philox
    # uniforms, the families' quantiles when the pin was recorded
    from scipy.special import logit, ndtri
    quantile = {"normal": ndtri, "logistic": logit}[family]
    return np.stack([quantile(e.sample_iid(_UNIFORM, n, s))
                     for s in range(1000 * n, 1000 * n + 128)])


def test_log_concave_solver_output_is_pinned():
    # sha256 over theta_hat and the iteration counts of seeded normal and
    # logistic blocks.  It was recorded before score and curvature shared
    # one chain pass, so it guards their bits; like every float after the
    # Philox uniforms, it holds for one numpy/scipy build and CPU
    digest = hashlib.sha256()
    for family in ("normal", "logistic"):
        model = e.make_model(family)
        for n in (25, 100, 400):
            samples = _pinned_rows(family, n)
            batch = e.solve_mle_batch(samples, model)
            digest.update(batch.theta_hat.tobytes())
            digest.update(batch.iterations.astype("<i8").tobytes())
    assert digest.hexdigest() == "1ef4a531c00403e075064548970126a928ae9c142b36120c9e105fa688df543d"


#: the SIMD targets numpy dispatches its kernels to in this process; numpy's
#: log, log1p, exp and the like give other last bits on other targets
_KERNELS = tuple(montecarlo.kernel_set()["simd"])
#: an AVX-512 host's targets, where the digests were first recorded, and its
#: AVX2 kernels under NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"
_AVX512, _AVX2 = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"), ("X86_V3",)


def _check_pin(digest, pins):
    # a digest of float bits holds on the kernel set it was recorded on; on
    # a set without one, the test's value checks alone apply
    if _KERNELS in pins:
        assert digest.hexdigest() == pins[_KERNELS], f"numpy kernel set {_KERNELS}"


def test_logistic_sampler_rows_are_pinned():
    # sha256 over the logistic family's own rows at the pin's seeds: numpy's
    # log(u/(1-u)), and 2 artanh(2u-1) on [0.3, 0.65]; within 2 ulp of scipy's
    # logit, whose rows the solver pin reads, on every kernel set
    digest = hashlib.sha256()
    model = e.logistic()
    for n in (25, 100, 400):
        rows = np.stack([e.sample_iid(model, n, s) for s in range(1000 * n, 1000 * n + 128)])
        logit_rows = _pinned_rows("logistic", n)
        assert np.all(np.abs(rows - logit_rows) <= 2 * np.spacing(np.abs(logit_rows)))
        digest.update(rows.tobytes())
    _check_pin(digest, {
        _AVX512: "ec5c19b536878b1aa7b836a54a991e72f317d46785781ed7c9aafbf6e3abbb1c",
        _AVX2: "13760be26f40805d88fadfd9308eefa048a4e63da16f377eadb4d8b9f3dd9bf7"})


def test_batch_rows_match_scalar_solves(logistic_model, normal_model):
    cases = [(model, np.stack([e.sample_iid(model, 40, 1000 ^ r) for r in range(5)]))
             for model in (logistic_model, normal_model)]
    # a grid-searched family whose rows all have several basins
    cases.append((e.student_t(1), 30.0 * np.random.default_rng(4).standard_cauchy((5, 7))))
    for model, samples in cases:
        batch = e.solve_mle_batch(samples, model, tol=1e-11)
        assert batch.multimodal_flag.all() == (model.name == "student_t")
        for r in range(5):
            single = e.solve_mle(samples[r], model, tol=1e-11)
            assert batch.theta_hat[r] == single.theta_hat
            assert batch.iterations[r] == single.iterations
            assert batch.bracket_lo[r] == single.bracket[0]
            assert batch.bracket_hi[r] == single.bracket[1]
            assert batch.multimodal_flag[r] == single.multimodal_flag


@pytest.mark.parametrize("make", [e.normal, e.logistic])
def test_log_concave_solve_evaluates_the_contrast_only_at_the_solution(make):
    model = make()
    samples = np.stack([e.sample_iid(model, 30, 600 ^ r) for r in range(8)])
    points = []
    rho = model.rho

    def counted_rho(y):
        points.append(np.size(y))
        return rho(y)

    model.rho = counted_rho
    batch = e.solve_mle_batch(samples, model, tol=1e-11)
    assert not batch.failed.any() and not batch.multimodal_flag.any()
    assert points == []


def test_log_concave_bracket_widens_to_a_distant_root(normal_model):
    # the mean sits far outside median +/- 5 robust scales (median 0, scale ~741)
    x = np.concatenate([np.zeros(51), np.full(48, 1000.0), [1e6]])
    res = e.solve_mle(x, normal_model, tol=1e-11)
    assert res.theta_hat == pytest.approx(float(np.mean(x)), rel=1e-12)
    assert not res.multimodal_flag


def test_log_concave_flag_is_fixed_per_family_and_survives_descriptors():
    expected = {"normal": True, "logistic": True, "student_t": False}
    for model in (e.normal(), e.logistic(), e.student_t(7)):
        assert model.log_concave is expected[model.name]
        rebuilt = e.model_from_descriptor(model.descriptor())
        assert rebuilt.log_concave is model.log_concave
        with pytest.raises(AttributeError):
            model.log_concave = True
    assert not e.from_expression("exp(-x**2/2)/sqrt(2*pi)").log_concave


@pytest.mark.parametrize("make", [e.normal, e.logistic, lambda: e.student_t(7),
                                  lambda: e.from_expression("exp(-x**2/2)/sqrt(2*pi)")])
def test_empty_batch_gives_empty_results(make):
    batch = e.solve_mle_batch(np.empty((0, 5)), make())
    for name in _FIELDS:
        assert getattr(batch, name).shape == (0,), name
    assert batch.iterations.dtype == np.int64
    assert batch.multimodal_flag.dtype == bool and batch.failed.dtype == bool


def test_empty_sample_rejected(logistic_model):
    with pytest.raises(ValueError):
        e.solve_mle([], logistic_model)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_is_named(t7_model, bad):
    with pytest.raises(ValueError, match="sample contains non-finite values"):
        e.solve_mle([1.0, 2.0, bad, 0.5], t7_model)
    with pytest.raises(ValueError, match="sample contains non-finite values"):
        e.solve_mle_batch(np.array([[1.0, 2.0], [bad, 0.5]]), t7_model)


def _scan_rows(rows, n, seed=17):
    samples = np.random.default_rng(seed).standard_t(7, size=(rows, n))
    med = np.median(samples, axis=1)
    return samples, med - 4.0, med + 4.0


# (1, 1000) scans 32 grid points per call, so it takes the pruned scan like (327, 100)
@pytest.mark.parametrize("rows, n", [(1, 25), (1, 400), (327, 100), (1, 1000)])
def test_chunked_grid_scan_matches_point_by_point_contrasts(t7_model, rows, n):
    samples, lo, hi = _scan_rows(rows, n)
    thetas, values = _grid_scan(samples, t7_model, lo, hi)
    expected = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)[None, :]
    assert thetas.tobytes() == expected.tobytes()
    evaluated = np.isfinite(values)
    # the whole grid when it fits one call, else the coarse points and the kept cells
    assert evaluated.all() == (rows * n * GRID_POINTS <= BLOCK_ELEMENTS)
    assert evaluated[:, ::mle._COARSE].all()
    lowest = np.min(values[:, ::mle._COARSE], axis=1)
    for g in range(GRID_POINTS):
        reference = _contrast_rows(samples, t7_model, thetas[:, g])
        done = evaluated[:, g]
        assert values[done, g].tobytes() == reference[done].tobytes()
        # a point left out lies strictly above the lowest coarse value
        assert np.all(reference[~done] > lowest[~done])


def test_grid_scan_calls_stay_within_the_element_budget(monkeypatch):
    model = e.student_t(7)
    rho, sizes = model.rho, []

    def counted(y):
        sizes.append(y.size)
        return rho(y)

    monkeypatch.setattr(model, "rho", counted)
    samples, lo, hi = _scan_rows(1, 100)
    _grid_scan(samples, model, lo, hi)
    assert sizes == [GRID_POINTS * 100]
    sizes.clear()
    samples, lo, hi = _scan_rows(327, 100)
    _grid_scan(samples, model, lo, hi)
    assert max(sizes) <= BLOCK_ELEMENTS
    # 11 coarse points and the 3 inside each of two kept cells per row, not 41
    assert sum(sizes) == 17 * 327 * 100


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 7.0, 12.0, 30.0])
def test_rho2_max_bounds_the_student_t_curvature(nu):
    model = e.student_t(nu)
    x = np.concatenate([[0.0], math.sqrt(nu) * np.linspace(-30.0, 30.0, 600001)])
    _r1, r2 = model.rho_chain(x, 2)
    assert r2.max() <= model.rho2_max
    # and it is rho''(0) = (nu + 1)/nu, up to rounding
    assert model.rho2_max == pytest.approx((nu + 1) / nu, rel=1e-11)


def test_curvature_bound_is_fixed_per_family_and_survives_descriptors():
    families = (e.normal(), e.logistic(), e.student_t(7),
                e.from_expression("exp(-x**2/2)/sqrt(2*pi)"),
                e.from_table(logistic_table(e.logistic())))
    for model in families:
        if model.name == "student_t":
            assert model.rho2_max == pytest.approx(8.0 / 7.0, rel=1e-11)
        else:
            assert model.rho2_max is None
        assert "rho2_max" not in json.dumps(model.descriptor())
        if model.name != "table":
            assert e.model_from_descriptor(model.descriptor()).rho2_max == model.rho2_max
        with pytest.raises(AttributeError):
            model.rho2_max = 1.0
    with pytest.raises(ValueError):
        make_model("student_t", nu=7.0, rho2_max=1.0)


def test_one_row_solves_match_pruned_batch_rows():
    # a batch over the element budget takes the pruned scan, a single row the
    # whole grid and the cell rule only where it shows several basins; both
    # give every field bit for bit
    model = e.student_t(7)
    cases = [(model, e.sample_iid(model, 100, 77, range(327)))]
    for nu in (0.5, 1.0, 3.0, 7.0):
        rng = np.random.default_rng(int(100 * nu))
        cases.append((e.student_t(nu),
                      rng.standard_cauchy((300, 5)) * rng.uniform(1.0, 60.0, (300, 1))))
    multimodal = 0
    for model, samples in cases:
        assert samples.size * GRID_POINTS > BLOCK_ELEMENTS
        batch = e.solve_mle_batch(samples, model)
        multimodal += int(batch.multimodal_flag.sum())
        singles = [e.solve_mle_batch(x[None, :], model) for x in samples]
        for name in _FIELDS:
            got = getattr(batch, name)
            assert got.tobytes() == np.concatenate([getattr(b, name) for b in singles]).tobytes(), (
                model, name)
    assert multimodal > 0


def test_t7_solver_output_is_pinned():
    # sha256 over theta_hat and the iteration counts of seeded t7 blocks,
    # recorded with the full 41-point scan before the pruned one replaced it.
    # On every kernel set theta_hat lies within 1e-15 of the rows recorded on
    # the AVX-512 set (the AVX2 kernels move 162 of 384 by at most 6.9e-17)
    # and the iteration counts are those rows' own
    ref = np.loadtxt(os.path.join(os.path.dirname(__file__), "data", "t7_solver_rows.csv"),
                     delimiter=",", skiprows=1)
    digest = hashlib.sha256()
    model = e.student_t(7)
    theta, iterations = [], []
    for n in (25, 100, 400):
        samples = np.stack([e.sample_iid(model, n, s) for s in range(1000 * n, 1000 * n + 128)])
        batch = e.solve_mle_batch(samples, model)
        digest.update(batch.theta_hat.tobytes())
        digest.update(batch.iterations.astype("<i8").tobytes())
        theta.append(batch.theta_hat)
        iterations.append(batch.iterations)
    assert ref[:, :2].tolist() == [[n, s] for n in (25, 100, 400)
                                   for s in range(1000 * n, 1000 * n + 128)]
    assert np.max(np.abs(np.concatenate(theta) - ref[:, 2])) <= 1e-15
    assert np.concatenate(iterations).tolist() == ref[:, 3].tolist()
    _check_pin(digest, {
        _AVX512: "3f501eaa5aed99ada8d75e6afe34a3702a5f5fd5bcfbc0c064959fb164cc3102",
        _AVX2: "ab1ccd394d79214a4a885335ed24e245af041956424a12583653c229f6a35a8d"})


def test_sorted_row_statistics_match_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in list(range(1, 61)) + [100, 101, 400, 401]:
        samples = rng.standard_t(3, size=(7, n))
        samples[1] = np.round(samples[1])  # ties
        samples[2] = samples[2, 0]  # one repeated value: zero IQR and std
        samples[3, : n // 2] = samples[3, 0]  # ties across the lower quartile
        samples[4, ::2] = -0.0  # signed zeros
        samples[4, 1::2] = 0.0
        samples[6, 1:-1] = samples[6, 0]  # zero IQR, nonzero std: the std is the scale
        srt = np.sort(samples, axis=1)
        q75, q25 = np.percentile(samples, [75, 25], axis=1)
        # a sort and numpy's partition may order -0.0 and 0.0 differently, so a
        # quartile matches up to the sign of a zero (+ 0.0 clears it); the scale
        # uses only the quartiles' difference, where that sign cancels
        assert (_sorted_quantile(srt, 0.75) + 0.0).tobytes() == (q75 + 0.0).tobytes()
        assert (_sorted_quantile(srt, 0.25) + 0.0).tobytes() == (q25 + 0.0).tobytes()
        med, scale = _median_and_scale(samples)
        assert med.tobytes() == np.median(samples, axis=1).tobytes()
        iqr_scale = (q75 - q25) / 1.349
        std = np.std(samples, axis=1)
        expected = np.where(iqr_scale > 0, iqr_scale, np.where(std > 0, std, 1.0))
        assert scale.tobytes() == expected.tobytes()
        if n >= 5:
            assert iqr_scale[6] == 0 and scale[6] == std[6] > 0


# ---------------------------------------------------------------------------
# estimator front end
# ---------------------------------------------------------------------------

def test_location_mle_params_round_trip():
    est = e.LocationMLE(family="student_t", family_params={"nu": 9}, tol=1e-9)
    params = est.get_params()
    clone = e.LocationMLE(**params)
    assert clone.get_params() == params
    est.set_params(tol=1e-8)
    assert est.tol == 1e-8
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_location_mle_builds_a_family_once(monkeypatch):
    builds = []

    def counting_make_model(*args, **kwargs):
        builds.append(args)
        return make_model(*args, **kwargs)

    monkeypatch.setattr(mle, "make_model", counting_make_model)
    mle._cached_model.cache_clear()
    x = -np.log(-np.log(np.linspace(0.05, 0.95, 50)))  # Gumbel quantiles
    gumbel = {"expr": "exp(-x - exp(-x))"}
    models = {id(e.LocationMLE(family="expression", family_params=gumbel).fit(x).model_)
              for _ in range(20)}
    assert builds == [("expression",)]
    assert len(models) == 1


def test_studies_and_estimators_share_one_model_cache():
    assert montecarlo._cached_model is mle._cached_model
    x = np.linspace(-2.0, 3.0, 30)
    for family, params, built in (("normal", None, e.normal()), ("logistic", {}, e.logistic()),
                                  ("student_t", {"nu": 7.0}, e.student_t(7.0))):
        key = json.dumps(built.descriptor(), sort_keys=True)  # a study block's key
        model = e.LocationMLE(family=family, family_params=params).fit(x).model_
        assert model is mle._cached_model(key)


def test_integer_and_float_nu_key_one_model():
    # LocationMLE keys nu=7 as 7.0, the float a study block's descriptor key stores
    mle._cached_model.cache_clear()
    x = np.linspace(-2.0, 3.0, 30)
    fitted = {id(e.LocationMLE(family="student_t", family_params={"nu": nu}).fit(x).model_)
              for nu in (7, 7.0, np.int64(7))}
    key = json.dumps(e.student_t(7).descriptor(), sort_keys=True)
    block = montecarlo._run_block((key, 10, 0, 2, 5, np.eye(6)[1], 1.0, (1,), 1e-9))
    assert block["theta"].size == 2
    assert fitted == {id(mle._cached_model(key))}
    assert mle._cached_model.cache_info().misses == 1


@pytest.mark.parametrize("family, params", [("student_t", {"nu": 7}),
                                            ("expression", {"expr": "exp(-x - exp(-x))"})])
def test_a_study_and_a_fit_of_one_family_build_it_once(monkeypatch, family, params):
    builds = []

    def counting_make_model(*args, **kwargs):
        builds.append(args)
        return make_model(*args, **kwargs)

    for module in (mle, e.density):  # every builder looks make_model up in one of these
        monkeypatch.setattr(module, "make_model", counting_make_model)
    mle._cached_model.cache_clear()
    cfg = e.SimulationConfig(family=family, family_params=params, n_grid=(25,),
                             replications=200, orders=(1, 2, 3, 4))
    e.run_study(cfg)
    e.LocationMLE(family=family, family_params=params).fit(np.linspace(-2.0, 3.0, 30))
    assert builds == [(family,)]
    assert mle._cached_model.cache_info().misses == 1


def test_location_mle_takes_numpy_table_columns_and_paths(tmp_path):
    columns = logistic_table(e.logistic())
    path = tmp_path / "logistic.csv"
    np.savetxt(path, np.column_stack(list(columns.values())), delimiter=",")
    x = np.linspace(-2.0, 3.0, 30)
    expected = e.solve_mle(x, e.from_table(columns)).theta_hat
    for params in ({"columns": columns}, {"path": path}):
        assert e.LocationMLE(family="table", family_params=params).fit(x).theta_ == expected


def test_location_mle_builds_a_column_table_without_keying_it():
    # a cache key would JSON-encode every float of the columns on every fit
    columns = logistic_table(e.logistic())
    x = np.linspace(-2.0, 3.0, 30)
    expected = e.solve_mle(x, e.from_table(columns)).theta_hat
    mle._cached_model.cache_clear()
    est = e.LocationMLE(family="table", family_params={"columns": columns})
    assert est.fit(x).theta_ == expected
    assert mle._cached_model.cache_info().currsize == 0


def test_location_mle_fit_and_score(logistic_model):
    x = np.asarray(e.sample_iid(logistic_model, 80, 55))
    est = e.LocationMLE(family="logistic").fit(x)
    assert abs(est.theta_ - np.median(x)) < 1.0
    assert est.n_samples_ == 80
    # score is the mean log-likelihood, maximized near theta_
    assert est.score(x) >= -e.contrast(x, logistic_model, est.theta_ + 0.3) - 1e-12
    # accepts a column vector too
    est2 = e.LocationMLE(family="logistic").fit(x[:, None])
    assert est2.theta_ == est.theta_


def test_location_mle_confidence_interval(logistic_moments):
    x = np.asarray(e.sample_iid(e.logistic(), 120, 9000))
    est = e.LocationMLE(family="logistic").fit(x)
    lo, hi = est.confidence_interval(level=0.95, order=5, moments=logistic_moments)
    assert lo < est.theta_ < hi
    width95 = hi - lo
    lo99, hi99 = est.confidence_interval(level=0.99, order=5, moments=logistic_moments)
    assert hi99 - lo99 > width95


def test_location_mle_rejects_bad_input():
    est = e.LocationMLE()
    with pytest.raises(ValueError):
        est.fit(np.ones((4, 2)))
    with pytest.raises(ValueError):
        est.fit([])
    with pytest.raises(ValueError):
        est.fit([1.0, np.nan])
    with pytest.raises(RuntimeError):
        e.LocationMLE().score([1.0])
