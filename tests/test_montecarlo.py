import io
import json
import logging
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import edgemle as e
import edgemle.mle as mle
import edgemle.montecarlo as mc
from edgemle.montecarlo import _run_block, _simulate_block


def test_sample_iid_is_deterministic(logistic_model):
    a = e.sample_iid(logistic_model, 100, 12345)
    b = e.sample_iid(logistic_model, 100, 12345)
    assert np.array_equal(a, b)
    c = e.sample_iid(logistic_model, 100, 12346)
    assert not np.array_equal(a, c)


def test_sample_iid_empty(logistic_model):
    assert e.sample_iid(logistic_model, 0, 1).size == 0


@pytest.mark.parametrize("n", [10.9, True, "10"])
def test_sample_iid_refuses_a_size_that_is_not_a_whole_number(n):
    with pytest.raises(ValueError, match="n must be a whole number"):
        e.sample_iid(e.normal(), n, 1)
    # a whole float is the same size
    assert e.sample_iid(e.normal(), 10.0, 1).tobytes() == e.sample_iid(e.normal(), 10, 1).tobytes()


#: a seed, its neighbours and the edges of the two 64-bit key words
SAMPLER_SEEDS = [0, *(20260810 ^ r for r in range(4)), 2**64 - 1, 2**64 + 5]


@pytest.mark.parametrize("n", [1, 3, 25, 100, 401])
def test_batched_sample_iid_matches_numpy_philox_bit_for_bit(logistic_model, n):
    def uniforms(raw):
        return ((raw >> np.uint64(11)) + 0.5) * 2.0**-53

    counters = math.ceil(n / 4)
    for seed in SAMPLER_SEEDS:
        # the scalar form is numpy's own 53-bit integer draw from the key
        gen = np.random.Generator(np.random.Philox(key=seed))
        u = (gen.integers(0, 2**53, size=n, dtype=np.uint64) + 0.5) * 2.0**-53
        scalar = e.sample_iid(logistic_model, n, seed)
        assert scalar.tobytes() == logistic_model.ppf(u).tobytes()
        # row r reads the stream from counter r * ceil(n/4) on
        whole = e.sample_iid(logistic_model, n, seed, range(3, 11))
        expected = np.stack([
            logistic_model.ppf(uniforms(
                np.random.Philox(key=seed, counter=r * counters).random_raw(n)))
            for r in range(3, 11)])
        assert whole.tobytes() == expected.tobytes()
        # a split range, concatenated, is the whole range
        parts = [e.sample_iid(logistic_model, n, seed, range(a, b))
                 for a, b in ((3, 4), (4, 4), (4, 9), (9, 11))]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert e.sample_iid(logistic_model, n, seed, range(0, 2))[0].tobytes() == \
            scalar.tobytes()


#: a quantile that is the identity: sample_iid then returns its uniforms
_UNIFORM = SimpleNamespace(ppf=lambda u: u)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 25, 100, 400])
def test_float_uniforms_are_the_half_offset_53_bit_draws(n):
    # Generator.random's k 2**-53 plus 2**-54 is the integer path's
    # (k + 0.5) 2**-53, on a replicate range that does not start at 0
    counters = math.ceil(n / 4)
    rows = range(5, 702)
    raw = np.random.Philox(key=987654321 + n, counter=rows.start * counters).random_raw(
        len(rows) * 4 * counters).reshape(len(rows), 4 * counters)[:, :n]
    expected = ((raw >> np.uint64(11)) + 0.5) * 2.0**-53
    got = e.sample_iid(_UNIFORM, n, 987654321 + n, rows)
    assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()


def test_the_top_53_bit_draw_stays_below_one():
    # (2**53 - 1 + 0.5) 2**-53 ties to 1.0 under round-half-even; it becomes
    # the largest float below 1, which no other draw gives
    k = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    u = mc._centred(k * 2.0**-53)
    below_one = np.nextafter(1.0, 0.0)
    assert u.tolist() == [2.0**-54, 0.5, 1.0 - 2.0**-52, below_one]
    assert ((k[:3] + 0.5) * 2.0**-53).tolist() == u[:3].tolist()
    assert (k[3] + 0.5) * 2.0**-53 == 1.0
    assert np.isfinite(e.normal().ppf(u)).all()


@pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), (True, "True")])
def test_sample_iid_refuses_a_seed_that_is_not_a_whole_number(logistic_model, seed, shown):
    with pytest.raises(ValueError, match=f"seed must be a whole number, got {shown}"):
        e.sample_iid(logistic_model, 2, seed)
    # a whole float is the same seed
    assert e.sample_iid(logistic_model, 2, 2.0).tobytes() == \
        e.sample_iid(logistic_model, 2, 2).tobytes()


@pytest.mark.parametrize("replicates", [range(0, 8, 2), [0, 1], range(-1, 2)],
                         ids=["step-2", "list", "negative-start"])
def test_sample_iid_refuses_replicates_that_are_not_a_step_one_range(logistic_model,
                                                                     replicates):
    with pytest.raises(ValueError, match="replicates must be a range of step 1 from a "
                                         "nonnegative start"):
        e.sample_iid(logistic_model, 2, 7, replicates)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_sample_iid_rejects_seeds_outside_128_bits(logistic_model, seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
        e.sample_iid(logistic_model, 5, seed)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
        e.sample_iid(logistic_model, 5, seed, range(3))


def test_sample_iid_matches_model_distribution(logistic_model):
    # aggregate 40 replicates of n=500; KS statistic against the model CDF
    # must sit below the alpha = 0.001 critical value 1.9495/sqrt(N)
    draws = np.concatenate([e.sample_iid(logistic_model, 500, 90 ^ r) for r in range(40)])
    stat = stats.kstest(draws, logistic_model.cdf).statistic
    assert stat < 1.9495 / math.sqrt(draws.size)


def test_sample_iid_student_t(t7_model):
    draws = np.concatenate([e.sample_iid(t7_model, 500, 17 ^ r) for r in range(20)])
    stat = stats.kstest(draws, t7_model.cdf).statistic
    assert stat < 1.9495 / math.sqrt(draws.size)


# ---------------------------------------------------------------------------
# ecdf distance
# ---------------------------------------------------------------------------

def test_ecdf_distance_of_own_values_is_zero():
    sample = np.array([0.3, 1.2, 2.0, 2.2])
    grid = np.array([0.5, 1.5, 2.1])
    ecdf_at = np.searchsorted(np.sort(sample), grid, side="right") / sample.size
    sup, l1 = e.ecdf_distance(sample, ecdf_at, grid)
    assert sup == 0.0 and l1 == 0.0


def test_ecdf_distance_point_mass_straddles_half():
    sup, l1 = e.ecdf_distance(np.array([0.0]), lambda g: ndtr(g), np.array([0.0]))
    assert sup == pytest.approx(0.5)
    assert l1 == pytest.approx(0.5)


def test_ecdf_distance_two_independent_ecdfs_within_dkw():
    m = 100_000
    a = np.sort(e.sample_iid(e.logistic(), m, 1))
    b = np.sort(e.sample_iid(e.logistic(), m, 2))
    grid = np.linspace(-6, 6, 241)
    ecdf_b = np.searchsorted(b, grid, side="right") / m
    sup, _ = e.ecdf_distance(a, ecdf_b, grid)
    assert sup <= 0.02  # two-sample DKW at far beyond 1 - 1e-6 confidence


def test_ecdf_distance_validates_grid():
    with pytest.raises(ValueError):
        e.ecdf_distance([1.0], lambda g: g, [])


def test_ecdf_distance_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="sample must be nonempty"):
        e.ecdf_distance([], lambda g: g, [0.0])


@pytest.mark.parametrize("sample, grid, bad", [([np.nan, 0.0, 1.0], [0.0, 0.5], "sample"),
                                               ([0.0, np.inf], [0.0, 0.5], "sample"),
                                               ([0.0, 1.0], [0.0, np.nan], "grid"),
                                               ([0.0, 1.0], [np.nan], "grid")])
def test_ecdf_distance_refuses_nonfinite_input(sample, grid, bad):
    # a nan sorts above every grid point, and a nan grid point passes the sorted check
    with pytest.raises(ValueError, match=f"^{bad} must be finite$"):
        e.ecdf_distance(sample, lambda g: 0.5 + 0 * g, grid)


# ---------------------------------------------------------------------------
# replicates and blocks
# ---------------------------------------------------------------------------

def test_block_rows_match_single_replicates(logistic_model, logistic_moments):
    desc = json.dumps(logistic_model.descriptor(), sort_keys=True)
    a = tuple(float(v) for v in logistic_moments.a)
    block = _run_block((desc, 30, 0, 6, 4242, a, logistic_moments.fisher,
                        e.ORDERS, 1e-11))
    for r in range(6):
        # a block of the one row r
        rep = _simulate_block(logistic_model, 30, r, r + 1, 4242, logistic_moments.a,
                              logistic_moments.fisher, e.ORDERS, 1e-11)
        assert not rep["failed"][0]
        for key in ("theta", "standardized", "gamma"):
            assert block[key][r].tobytes() == rep[key][0].tobytes(), (r, key)


def _block_samples(monkeypatch, model, moments, n, base_seed, rows):
    """The samples a study block at size n solves, caught on their way to the solver."""
    drawn = []
    solve = mc.solve_mle_batch

    def spy(samples, *args, **kwargs):
        drawn.append(samples)
        return solve(samples, *args, **kwargs)

    monkeypatch.setattr(mc, "solve_mle_batch", spy)
    _simulate_block(model, n, 0, rows, base_seed, moments.a, moments.fisher, e.ORDERS, 1e-11)
    monkeypatch.undo()
    return drawn[0]


@pytest.mark.parametrize("n", [7, 25, 100])
def test_study_row_zero_is_the_scalar_draw_of_its_size_key(monkeypatch, logistic_model,
                                                          logistic_moments, n):
    samples = _block_samples(monkeypatch, logistic_model, logistic_moments, n, 4242, 5)
    assert samples[0].tobytes() == e.sample_iid(logistic_model, n, 4242 ^ (n << 64)).tobytes()


def test_study_rows_at_one_size_are_not_prefixes_of_another(monkeypatch, logistic_model,
                                                             logistic_moments):
    # each sample size has its own stream: no row at n = 25 starts a row at n = 100
    small, large = (_block_samples(monkeypatch, logistic_model, logistic_moments, n, 4242, 16)
                    for n in (25, 100))
    assert not np.any(np.all(small[:, None, :] == large[None, :, :25], axis=2))


@pytest.mark.parametrize("n", [25, 400])
@pytest.mark.parametrize("family", ["logistic", "t7"])
def test_block_results_do_not_depend_on_the_block_split(request, family, n):
    model = request.getfixturevalue(f"{family}_model")
    moments = request.getfixturevalue(f"{family}_moments")
    m = 90

    def run(start, stop):
        return _simulate_block(model, n, start, stop, 20260810, moments.a, moments.fisher,
                               e.ORDERS, 1e-11)

    whole = run(0, m)
    for rows in (1, 7, 81):
        parts = [run(start, min(start + rows, m)) for start in range(0, m, rows)]
        for key in ("theta", "standardized", "xi", "gamma", "failed", "iterations",
                    "multimodal"):
            joined = np.concatenate([p[key] for p in parts])
            assert joined.dtype == whole[key].dtype, (rows, key)
            assert joined.tobytes() == whole[key].tobytes(), (rows, key)


def test_replication_result_normal_remainders_are_solver_noise(normal_model, normal_moments):
    rep = _simulate_block(normal_model, 50, 0, 1, 7, normal_moments.a, normal_moments.fisher,
                          e.ORDERS, 1e-12)
    assert not rep["failed"][0]
    for k, gamma in zip(e.ORDERS, rep["gamma"][0]):
        assert abs(gamma) < 1e-10, k


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        e.SimulationConfig(replications=50)
    with pytest.raises(ValueError):
        e.SimulationConfig(n_grid=(100, 50))
    with pytest.raises(ValueError):
        e.SimulationConfig(n_grid=(0, 50))
    with pytest.raises(ValueError):
        e.SimulationConfig(orders=(0, 1))
    with pytest.raises(ValueError):
        e.SimulationConfig.from_dict({"unknown_key": 1})
    # integers only, each error naming its key
    for key, value in [("replications", 150.5), ("replications", "200"),
                       ("replications", True), ("base_seed", 1.5), ("base_seed", "7"),
                       ("base_seed", -1), ("base_seed", 2**128),
                       ("n_grid", [10.7]), ("n_grid", [25, True]), ("n_grid", "25"),
                       ("orders", [1.5, 2]), ("orders", [True, 2])]:
        with pytest.raises(ValueError, match=key):
            e.SimulationConfig.from_dict({key: value})
    # a key of the sampler is any integer in [0, 2**128)
    assert e.SimulationConfig(base_seed=2**128 - 1).base_seed == 2**128 - 1
    # grids are lists, reals are finite numbers, the flag a bool, the
    # parameters a mapping: each error naming its key
    for key, value in [("n_grid", 25), ("orders", 3), ("eval_grid", 0.5), ("eval_grid", ["1"]),
                       ("eval_grid", [0.0, math.inf]), ("solver_tol", "1e-11"),
                       ("solver_tol", 0.0), ("solver_tol", math.nan), ("moment_tol", -1e-10),
                       ("moment_tol", True), ("epsilon_exponent", "0.5"),
                       ("epsilon_exponent", math.inf), ("require_valid_conditions", "no"),
                       ("require_valid_conditions", 0), ("family_params", [1]),
                       ("family_params", {"nu": object()})]:
        with pytest.raises(ValueError, match=key):
            e.SimulationConfig.from_dict({key: value})
    with pytest.raises(ValueError, match="n_grid must be nonempty"):
        e.SimulationConfig(n_grid=[])
    with pytest.raises(ValueError, match="eval_grid must be nonempty"):
        e.SimulationConfig(eval_grid=[])
    # a repeated order would repeat its CSV columns and keep one report entry
    for orders in ([3, 3, 5], (1, 1)):
        with pytest.raises(ValueError, match=r"^orders must not repeat, got \["):
            e.SimulationConfig.from_dict({"orders": orders})
    # numpy integers are integers
    cfg = e.SimulationConfig(n_grid=[np.int64(25)], replications=np.int32(200),
                             base_seed=np.uint64(3))
    assert type(cfg.replications) is int and type(cfg.n_grid[0]) is int
    cfg = e.SimulationConfig(orders=[np.int64(2)], eval_grid=np.linspace(-1.0, 1.0, 5))
    assert cfg.orders == (2,) and type(cfg.orders[0]) is int and len(cfg.eval_grid) == 5
    # every field is JSON data from the start: numpy reals, arrays and tuples included
    cfg = e.SimulationConfig(solver_tol=np.float32(0.5), epsilon_exponent=np.int64(1),
                             family_params={"nu": np.float64(7.0), "grid": np.arange(2.0),
                                            "pair": (1, 2)})
    assert type(cfg.solver_tol) is float and type(cfg.epsilon_exponent) is float
    assert cfg.family_params == {"nu": 7.0, "grid": [0.0, 1.0], "pair": [1, 2]}
    assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


def test_config_round_trip():
    cfg = e.SimulationConfig(family="normal", n_grid=(25, 50), replications=200)
    again = e.SimulationConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_epsilon_threshold_matches_definition():
    cfg = e.SimulationConfig(replications=200, epsilon_exponent=0.5)
    n = 50
    expected = math.log(n) ** 2.5 / math.sqrt(n) / n**2
    assert cfg.epsilon_threshold(n) == pytest.approx(expected, rel=1e-15)
    # the side condition eps_n sqrt(n) / log(n)^2 grows along the grid
    side = [cfg.epsilon_threshold(m) * m**2 * math.sqrt(m) / math.log(m) ** 2
            for m in (25, 100, 400, 1600)]
    assert all(b > a for a, b in zip(side, side[1:]))


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def normal_study(tmp_path_factory):
    cfg = e.SimulationConfig(family="normal", n_grid=(25, 50), replications=512,
                             base_seed=321, solver_tol=1e-12)
    out = tmp_path_factory.mktemp("normal_study")
    report = e.run_study(cfg, out_dir=out, workers=1)
    return report


def test_normal_study_is_an_identity_test(normal_study):
    for n in ("25", "50"):
        stats_n = normal_study.per_n[n]
        assert stats_n["solver_failures"] == 0
        for k in map(str, e.ORDERS):
            assert stats_n["remainders"][k]["max_abs"] < 1e-9
        sups = [stats_n["ecdf_distance"][k]["sup"] for k in map(str, e.ORDERS)]
        assert max(sups) - min(sups) < 2e-9


def test_normal_study_tail_fractions_are_zero(normal_study):
    for n in ("25", "50"):
        assert normal_study.per_n[n]["tail"]["fraction"] == 0.0


def test_study_outputs_are_worker_independent(tmp_path):
    cfg = e.SimulationConfig(family="logistic", n_grid=(25,), replications=512,
                             base_seed=77)
    r1 = e.run_study(cfg, out_dir=tmp_path / "w1", workers=1)
    r2 = e.run_study(cfg, out_dir=tmp_path / "w2", workers=2)
    for name in ("report.json", "remainders_25.csv", "ecdf_25.csv", "curves.csv"):
        b1 = (tmp_path / "w1" / name).read_bytes()
        b2 = (tmp_path / "w2" / name).read_bytes()
        assert b1 == b2, name


def test_study_report_does_not_depend_on_out_dir(tmp_path):
    cfg = e.SimulationConfig(family="logistic", n_grid=(25, 50), replications=512,
                             base_seed=20260810)
    written = e.run_study(cfg, out_dir=tmp_path)
    assert written.to_dict() == e.run_study(cfg).to_dict()
    assert sorted(Path(p).name for p in written.output_files) == [
        "curves.csv", "ecdf_25.csv", "ecdf_50.csv", "remainders_25.csv",
        "remainders_50.csv", "report.json"]


def test_one_size_study_writes_strict_json(tmp_path):
    def refuse(constant):
        raise ValueError(f"report.json holds {constant}, which is not JSON")

    cfg = e.SimulationConfig(family="logistic", n_grid=(25,), replications=200, base_seed=5)
    report = e.run_study(cfg, out_dir=tmp_path)
    written = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    # one sample size fits no slope: null in the file, nan in the returned report
    assert [v["slope"] for v in written["slopes"].values()] == [None] * len(cfg.orders)
    assert all(math.isnan(v["slope"]) for v in report.to_dict()["slopes"].values())


def _savetxt_rows(block, precision, columns):
    """What np.savetxt writes for one block's remainder rows: the writer's reference bytes."""
    out = io.StringIO()
    ids = block["start"] + np.arange(block["theta"].size)
    rows = np.column_stack([ids, block["theta"], block["standardized"], block["xi"],
                            block["gamma"]])
    np.savetxt(out, rows, fmt=["%d"] + [f"%.{precision}g"] * (columns - 1), delimiter=",")
    return out.getvalue()


def _awkward_block(start, rows, seed):
    """A block of ``rows`` replicates with failed rows, +-inf, -0.0 and a subnormal."""
    rng = np.random.default_rng(seed)
    block = {"start": start, "theta": rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows),
             "standardized": rng.normal(size=rows), "xi": rng.normal(size=(rows, 6)),
             "gamma": rng.normal(size=(rows, 5)) * 1e-7}
    failed = rng.random(rows) < 0.05
    for key in ("theta", "standardized", "gamma"):
        block[key][failed] = np.nan
    block["xi"][0] = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308]
    block["gamma"][-1] = [1e300, -1e-300, 0.1, 0.5, 123456789.0]
    return block


@pytest.mark.parametrize("precision", [1, 8, 12, 17])
def test_remainders_csv_holds_the_bytes_of_np_savetxt(tmp_path, precision):
    cfg = e.SimulationConfig(n_grid=(25,), replications=100)
    writer = mc._StudyWriter(tmp_path, cfg, 1, precision)
    # ids past 2^20; one block spans several formatted slices, one is a single row
    blocks = [_awkward_block(2**20 + 3, 2 * mc._CSV_ROWS + 17, 1),
              _awkward_block(2**20 + 3 + 2 * mc._CSV_ROWS + 17, 1, 2),
              _awkward_block(2**21, mc._CSV_ROWS, 3)]
    assert list(writer.remainders(25, iter(blocks))) == blocks
    header, body = (tmp_path / "remainders_25.csv").read_text().split("\n", 1)
    assert header.split(",")[:3] == ["replicate", "theta_hat", "standardized"]
    assert body == "".join(_savetxt_rows(b, precision, 14) for b in blocks)


def _awkward_values(shape, seed):
    """Floats over 60 decades with nan, +-inf, -0.0, subnormals and 1e300 planted in them."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
    values.flat[:8] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                       1e300]
    return values


def _curves_loop(grid, curves_by_n, orders, p):
    """The per-cell f-string loop that wrote curves.csv: the writer's reference bytes."""
    out = io.StringIO()
    out.write("x,order,value\n")
    for n, curves in curves_by_n.items():
        columns = {f"ecdf_n{n}": curves["ecdf_upper"]}
        columns.update({f"order{k}_n{n}": curves[f"pred_order{k}"] for k in orders})
        for i, x in enumerate(grid):
            out.writelines(f"{x:.{p}g},{label},{col[i]:.{p}g}\n" for label, col in columns.items())
    return out.getvalue()


@pytest.mark.parametrize("precision", [1, 8, 12, 17])
def test_ecdf_curves_and_report_hold_the_bytes_of_the_former_writers(tmp_path, precision):
    cfg = e.SimulationConfig(n_grid=(25, 400), replications=100, orders=[1, 3, 5])
    writer = mc._StudyWriter(tmp_path, cfg, 1, precision)
    # more grid points than one formatted slice holds
    grid = _awkward_values(mc._CSV_ROWS + 9, 1)
    curves_by_n = {}
    for n, seed in ((25, 2), (400, 3)):
        keys = ["ecdf_lower", "ecdf_upper"] + [f"pred_order{k}" for k in cfg.orders]
        curves_by_n[n] = dict(zip(keys, _awkward_values((len(keys), grid.size), seed)))
        writer.ecdf(n, grid, curves_by_n[n])
        savetxt = io.StringIO()
        np.savetxt(savetxt, np.column_stack([grid, *curves_by_n[n].values()]),
                   fmt=f"%.{precision}g", delimiter=",",
                   header=",".join(["x", *curves_by_n[n]]), comments="")
        assert (tmp_path / f"ecdf_{n}.csv").read_text() == savetxt.getvalue()
    report = {"slope": math.nan, "bounds": [math.inf, -math.inf, -0.0, 1 / 3]}
    writer.finish(grid, curves_by_n, report)
    assert (tmp_path / "curves.csv").read_text() == _curves_loop(grid, curves_by_n, cfg.orders,
                                                                precision)
    dumped = json.dumps(mc._json_data(report, precision, strict=True), indent=2, sort_keys=True,
                        allow_nan=False)
    assert (tmp_path / "report.json").read_text() == dumped + "\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["curves.csv", "ecdf_25.csv", "ecdf_400.csv",
                                           "report.json"]


def test_a_multi_block_remainders_csv_is_its_blocks_through_savetxt(tmp_path):
    cfg = e.SimulationConfig(family="logistic", n_grid=(400,), replications=300)
    e.run_study(cfg, out_dir=tmp_path)
    model = mle._cached_model(mle._model_key(cfg.family, cfg.family_params))
    moments = e.compute_moment_set(model, tol=cfg.moment_tol)
    rows = mle.BLOCK_ELEMENTS // 400
    blocks = [_simulate_block(model, 400, start, min(start + rows, 300), cfg.base_seed,
                              moments.a, moments.fisher, cfg.orders, cfg.solver_tol)
              for start in range(0, 300, rows)]
    assert len(blocks) == 4
    body = (tmp_path / "remainders_400.csv").read_text().split("\n", 1)[1]
    assert body == "".join(_savetxt_rows(b, 12, 14) for b in blocks)


def test_study_reports_solver_counters():
    cfg = e.SimulationConfig(family="logistic", n_grid=(25, 50), replications=300,
                             base_seed=99)
    for entry in e.run_study(cfg).per_n.values():
        solver = entry["solver"]
        assert solver["multimodal_rows"] == 0
        assert sum(solver["newton_iterations"].values()) == cfg.replications


def test_study_logs_progress_per_block_and_per_n(caplog):
    cfg = e.SimulationConfig(family="logistic", n_grid=(25, 400), replications=300,
                             base_seed=99)
    quiet = e.run_study(cfg).to_dict()
    assert not logging.getLogger("edgemle.montecarlo").handlers
    assert not logging.getLogger("edgemle").handlers
    with caplog.at_level(logging.DEBUG, logger="edgemle.montecarlo"):
        assert e.run_study(cfg).to_dict() == quiet
    records = [r for r in caplog.records if r.name == "edgemle.montecarlo"]
    # n=25 fills one block of 1310 rows; n=400 takes blocks of 81 rows
    assert [r.getMessage() for r in records if r.levelno == logging.DEBUG] == [
        "n=25: replicates 0-299 done, 0 solver failures",
        "n=400: replicates 0-80 done, 0 solver failures",
        "n=400: replicates 81-161 done, 0 solver failures",
        "n=400: replicates 162-242 done, 0 solver failures",
        "n=400: replicates 243-299 done, 0 solver failures"]
    assert [r.getMessage() for r in records if r.levelno == logging.INFO] == [
        "n=25: 300 replicates, 1 blocks, 0 solver failures",
        "n=400: 300 replicates, 4 blocks, 0 solver failures"]


def test_study_rejects_family_failing_conditions():
    cfg = e.SimulationConfig(
        family="expression",
        family_params={"expr": "sqrt(2/pi)*x**2*exp(-x**2/2)",
                       "support": [0, 1e309], "name": "xsq"},
        n_grid=(25,), replications=100)
    with pytest.raises(e.StudyAborted):
        e.run_study(cfg)


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"workers": -2}, {"workers": 1.0},
                                    {"precision": -1}, {"precision": 0}, {"precision": "8"}])
def test_study_refuses_a_bad_worker_count_or_precision_before_any_work(tmp_path, monkeypatch,
                                                                       kwargs):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr("edgemle.mle.make_model", no_model)
    mle._cached_model.cache_clear()  # a cached model would be read without a build
    cfg = e.SimulationConfig(family="logistic", n_grid=(25,), replications=100)
    (key, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"^{key} must be .*, got {value!r}$"):
        e.run_study(cfg, out_dir=tmp_path / "run", **kwargs)
    assert not (tmp_path / "run").exists()


def test_study_report_structure(normal_study):
    d = normal_study.to_dict()
    assert set(d) == {"config", "fisher", "moments", "dkw_noise_floor", "per_n",
                      "slopes", "tail_trend"}
    assert d["dkw_noise_floor"]["value"] == pytest.approx(1.3581 / math.sqrt(512), rel=1e-6)
    assert all(set(v) == {"slope", "expected"} for v in d["slopes"].values())
