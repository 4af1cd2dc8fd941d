import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import edgemle as e
from conftest import logistic_table
from edgemle.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "cdf", "--family", "logistic")
    assert code == 2


def test_moments_json(capsys):
    code, out, _ = run(capsys, "moments", "--family", "logistic")
    assert code == 0
    payload = json.loads(out)
    assert payload["fisher"] == pytest.approx(1 / 3, abs=1e-9)
    assert payload["eta"]["7"] == pytest.approx(27 / 7, abs=1e-9)


def test_moments_csv_shape_and_precision(capsys):
    code, out, _ = run(capsys, "moments", "--family", "logistic", "--format", "csv",
                       "--precision", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,value,est_error"
    assert len(lines) == 1 + 1 + 6 + 9  # header + fisher + a1..a6 + eta2..eta10
    fisher_row = lines[1].split(",")
    assert fisher_row[0] == "fisher" and fisher_row[1] == "0.3333"


def test_cdf_grid_shape(capsys):
    code, out, _ = run(capsys, "cdf", "--family", "logistic", "--n", "100",
                       "--order", "5", "--grid", "-3:3:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("point,value_order1,value_order2,value_order3,"
                        "value_order4,value_order5,out_of_range_flag")
    assert len(lines) == 1 + 13
    first = lines[1].split(",")
    assert float(first[0]) == -3.0
    assert first[-1] in ("true", "false")


def test_cdf_order_one_column_matches_normal_cdf(capsys):
    from scipy.special import ndtr
    code, out, _ = run(capsys, "cdf", "--family", "logistic", "--n", "50",
                       "--order", "1", "--grid", "0:1:0.5", "--precision", "15")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for row in rows:
        assert float(row[1]) == pytest.approx(ndtr(float(row[0])), abs=1e-12)


def test_quantile_grid(capsys):
    code, out, _ = run(capsys, "quantile", "--family", "logistic", "--n", "100",
                       "--order", "3", "--grid", "0.25,0.5,0.75")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,value_order1,value_order2,value_order3"
    mid = lines[2].split(",")
    assert float(mid[0]) == 0.5 and float(mid[3]) == 0.0


@pytest.mark.parametrize("grid, problem", [
    ("0:inf:1", "non-finite"),
    ("-inf:0:1", "non-finite"),
    ("100,inf", "non-finite"),
    # 10^12 points: refused by its count, before any array is allocated
    ("0:1:1e-12", "1000000000001 points; at most 1000000 allowed"),
])
def test_unbounded_grid_ranges_are_errors(capsys, grid, problem):
    # --flag=value, so that argparse reads "-inf:0:1" as a value
    code, out, err = run(capsys, "quantile", "--family", "normal", "--n", "100",
                         f"--grid={grid}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and problem in err
    code, _, err = run(capsys, "compose-check", "--family", "normal", f"--n-grid={grid}")
    assert code == 1 and err.startswith("error:") and problem in err


def test_mle_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5\n1.5\n-0.25\n2.0\n"))
    code, out, _ = run(capsys, "mle", "--family", "normal", "--input", "-")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_hat"] == pytest.approx((0.5 + 1.5 - 0.25 + 2.0) / 4, abs=1e-10)
    assert payload["n"] == 4


def test_mle_reads_csv_file(capsys, tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    code, out, _ = run(capsys, "mle", "--family", "normal", "--input", str(path))
    assert code == 0
    assert json.loads(out)["theta_hat"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_mle_names_non_finite_input(capsys, monkeypatch, bad):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"1 2 {bad} 0.5\n"))
    code, out, err = run(capsys, "mle", "--family", "student_t", "--input", "-")
    assert code == 1
    assert out == ""
    assert err == "error: sample contains non-finite values\n"


def test_validate_passes_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--family", "logistic")
    assert code == 0
    payload = json.loads(out)
    assert payload["conditions"]["all_pass"] is True
    assert payload["density"]["integrates_to_one"] is True


def test_validate_passes_tol_to_the_condition_checks(capsys, monkeypatch):
    seen = []

    def spy(model, tol):
        seen.append(tol)
        return e.validate_conditions(model, tol=tol)

    monkeypatch.setattr("edgemle.cli.validate_conditions", spy)
    code, _, _ = run(capsys, "validate", "--family", "logistic", "--tol", "1e-7")
    assert (code, seen) == (0, [1e-7])


@pytest.mark.parametrize("f6_sign, code", [(1.0, 0), (-1.0, 1)])
def test_validate_fails_a_table_with_a_wrong_derivative_column(capsys, tmp_path, f6_sign, code):
    lg = e.logistic()
    x = np.linspace(-25, 25, 2501)
    f = lg.pdf(x)
    cols = [x, f, *(p * f for p in lg.psi_chain(x, 6))]
    cols[-1] = f6_sign * cols[-1]
    path = tmp_path / "table.csv"
    np.savetxt(path, np.column_stack(cols), delimiter=",", header="x,f,f1,f2,f3,f4,f5,f6",
               comments="")
    got, out, _ = run(capsys, "validate", "--family", "table", "--param", f"path={path}",
                      "--tol", "1e-7")
    density = json.loads(out)["density"]
    assert (got, density["derivs_match"], density["integrates_to_one"]) == (code, code == 0, True)


def test_validate_fails_singular_family(capsys):
    code, out, _ = run(capsys, "validate", "--family", "expression",
                       "--param", "expr=sqrt(2/pi)*x**2*exp(-x**2/2)",
                       "--param", "support=[0, 1e309]")
    assert code == 1
    assert json.loads(out)["conditions"]["verdicts"]["4"] == "fail"


def test_collapse_check_passes(capsys):
    code, out, _ = run(capsys, "collapse-check")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_max_abs_coefficient"] == 0.0
    assert payload["quadrature_max_abs_coefficient"] < 1e-8


def test_collapse_check_threshold_controls_exit(capsys):
    code, _, _ = run(capsys, "collapse-check", "--threshold", "1e-20")
    assert code == 1  # quadrature noise sits above an impossible threshold


def test_compose_check_logistic(capsys):
    code, out, _ = run(capsys, "compose-check", "--family", "logistic",
                       "--n-grid", "100,400")
    assert code == 0
    payload = json.loads(out)
    assert payload["flagged_order"] is None
    assert payload["residuals"]["3"]["100"] > payload["residuals"]["3"]["400"]
    # sizes and orders are whole numbers, not truncated to one
    for flag in ("--n-grid=100.5,400", "--orders=1.5"):
        code, _, err = run(capsys, "compose-check", "--family", "logistic", "--n-grid=100,400",
                           flag)
        assert code == 1 and "must be a whole number" in err


@pytest.mark.parametrize("flag, problem", [
    ("--n-grid=", "n grid must not be empty"),
    ("--orders=,", "order list must not be empty"),
])
def test_compose_check_refuses_empty_grids(capsys, flag, problem):
    args = ["compose-check", "--family", "normal", "--n-grid=100,400", flag]
    code, out, err = run(capsys, *args)
    assert code == 1 and out == "" and problem in err


def test_error_reporting_returns_one(capsys):
    code, _, err = run(capsys, "mle", "--family", "normal", "--input",
                       "/nonexistent/sample.csv")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("params", [
    ("--family", "normal", "--param", "foo=1"),
    ("--family", "expression", "--param", "expr=exp(-x**2/2)/sqrt(2*pi)", "--param", "nu=7"),
])
def test_unknown_family_parameter_is_reported(capsys, params):
    # dispatch returns instead of raising: the error is handled, not a traceback
    bad = params[-1].split("=")[0]
    code, out, err = run(capsys, "moments", *params)
    assert code == 1
    assert out == ""
    assert err.startswith("error: unknown parameter(s) " + bad)
    assert "Traceback" not in err


@pytest.mark.parametrize("nu", ["NaN", "Infinity"])
def test_a_nonfinite_nu_is_named_as_the_cause(capsys, nu):
    code, out, err = run(capsys, "moments", "--family", "student_t", "--param", f"nu={nu}")
    assert (code, out) == (1, "")
    assert err == f"error: nu must be a finite positive number, got {float(nu)!r}\n"


def test_simulate_without_config_is_usage_error(capsys):
    code, _, err = run(capsys, "simulate")
    assert code == 2


def _config_file(tmp_path, **overrides):
    cfg = {"family": "logistic", "n_grid": [25], "replications": 256,
           "base_seed": 1234, "eval_grid": list(np.round(np.linspace(-3, 3, 25), 10))}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("key, value", [("replications", 150.5), ("replications", "200"),
                                        ("base_seed", 1.5), ("n_grid", [10.7]),
                                        ("n_grid", []), ("n_grid", 25), ("orders", [1.5, 2]),
                                        ("orders", [True, 2]), ("orders", 2), ("eval_grid", 0.5),
                                        ("solver_tol", "1e-11"), ("epsilon_exponent", "0.5"),
                                        ("family_params", [1]),
                                        ("require_valid_conditions", "no")])
def test_simulate_malformed_config_is_an_error(capsys, tmp_path, key, value):
    cfg_path = _config_file(tmp_path, **{key: value})
    code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_simulate_writes_outputs_and_manifest(capsys, tmp_path):
    cfg_path = _config_file(tmp_path)
    out_dir = tmp_path / "run"
    code, out, _ = run(capsys, "simulate", "--config", str(cfg_path),
                       "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool"] == "edgemle"
    assert manifest["config"]["replications"] == 256
    for name, digest in manifest["outputs"].items():
        blob = (out_dir / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, name
    report = json.loads((out_dir / "report.json").read_text())
    assert report["per_n"]["25"]["replications"] == 256


def test_simulate_replay_verifies_bitwise(capsys, tmp_path):
    cfg_path = _config_file(tmp_path)
    first = tmp_path / "first"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg_path),
                     "--out-dir", str(first))
    assert code == 0
    second = tmp_path / "second"
    code, out, _ = run(capsys, "simulate", "--replay", str(first / "manifest.json"),
                       "--out-dir", str(second))
    assert code == 0
    assert "replay verified" in out


def test_a_table_study_with_numpy_columns_replays(capsys, tmp_path):
    # the config holds JSON types from the start, so report.json and the
    # manifest are written after the blocks
    columns = logistic_table(e.logistic())
    cfg = e.SimulationConfig(family="table", family_params={"columns": columns},
                             n_grid=(25,), replications=100)
    e.run_study(cfg, out_dir=tmp_path / "first")
    report = json.loads((tmp_path / "first" / "report.json").read_text())
    assert report["config"]["family_params"]["columns"]["x"] == pytest.approx(columns["x"])
    code, out, _ = run(capsys, "simulate", "--replay", str(tmp_path / "first" / "manifest.json"),
                       "--out-dir", str(tmp_path / "second"))
    assert code == 0 and "replay verified" in out


def _snapshot(directory):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in directory.iterdir()}


def test_simulate_replay_leaves_the_default_out_dir_untouched(capsys, tmp_path, monkeypatch):
    cfg_path = _config_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "simulate", "--config", str(cfg_path))
    assert code == 0
    before = _snapshot(tmp_path / "edgemle-out")
    listing = sorted(p.name for p in tmp_path.iterdir())
    code, out, _ = run(capsys, "simulate", "--replay", "edgemle-out/manifest.json")
    assert code == 0
    assert "replay verified" in out
    assert _snapshot(tmp_path / "edgemle-out") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_simulate_replay_refuses_the_manifest_directory(capsys, tmp_path):
    cfg_path = _config_file(tmp_path)
    first = tmp_path / "first"
    run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(first))
    before = _snapshot(first)
    code, _, err = run(capsys, "simulate", "--replay", str(first / "manifest.json"),
                       "--out-dir", str(first))
    assert code == 1
    assert err.startswith("error:")
    assert _snapshot(first) == before


def test_simulate_replay_detects_tampering(capsys, tmp_path):
    cfg_path = _config_file(tmp_path)
    first = tmp_path / "first"
    run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(first))
    manifest = json.loads((first / "manifest.json").read_text())
    name = next(iter(manifest["outputs"]))
    manifest["outputs"][name] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest))
    code, _, err = run(capsys, "simulate", "--replay", str(tampered),
                       "--out-dir", str(tmp_path / "third"))
    assert code == 1
    assert "replay mismatch" in err


def test_simulate_replay_uses_the_recorded_precision(capsys, tmp_path):
    cfg_path = _config_file(tmp_path)
    first = tmp_path / "first"
    run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(first),
        "--precision", "8")
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["precision"] == 8
    assert manifest["execution"] == {"workers": 1}
    code, out, err = run(capsys, "simulate", "--replay", str(first / "manifest.json"))
    assert (code, err) == (0, "")
    assert out == f"replay verified: {len(manifest['outputs'])} files bit-identical\n"


def test_simulate_replay_of_a_manifest_without_precision_reads_the_flag(capsys, tmp_path):
    # manifests written before the precision key replay at --precision (default 12)
    cfg_path = _config_file(tmp_path)
    first = tmp_path / "first"
    run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(first),
        "--precision", "8")
    manifest = json.loads((first / "manifest.json").read_text())
    del manifest["precision"]
    older = tmp_path / "older.json"
    older.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "simulate", "--replay", str(older), "--precision", "8")
    assert code == 0
    assert "replay verified" in out
    code, _, err = run(capsys, "simulate", "--replay", str(older))
    assert code == 1
    assert "replay mismatch in: curves.csv" in err


def test_library_study_writes_a_replayable_manifest(capsys, tmp_path):
    cfg = e.SimulationConfig(family="logistic", n_grid=(25,), replications=256, base_seed=5)
    report = e.run_study(cfg, out_dir=tmp_path / "out", precision=np.int64(9))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["precision"], manifest["execution"]) == (9, {"workers": 1})
    assert manifest["outputs"] == {
        os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in report.output_files}
    assert (manifest["config"], manifest["base_seed"]) == (cfg.to_dict(), 5)
    code, out, _ = run(capsys, "simulate", "--replay", str(tmp_path / "out" / "manifest.json"))
    assert code == 0
    assert out == "replay verified: 4 files bit-identical\n"


@pytest.mark.parametrize("outputs", [{}, None])
def test_simulate_replay_refuses_a_manifest_without_outputs(capsys, tmp_path, outputs):
    cfg_path = _config_file(tmp_path)
    first = tmp_path / "first"
    run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(first))
    manifest = json.loads((first / "manifest.json").read_text())
    if outputs is None:
        del manifest["outputs"]
    else:
        manifest["outputs"] = outputs
    hollow = tmp_path / "hollow.json"
    hollow.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "simulate", "--replay", str(hollow),
                         "--out-dir", str(tmp_path / "second"))
    assert (code, out) == (1, "")
    assert err == f"error: manifest {hollow} records no outputs to verify\n"
    assert not (tmp_path / "second").exists()


@pytest.mark.parametrize("flag, shown", [("--precision=-1", "precision"),
                                         ("--workers=-2", "workers")])
def test_simulate_refuses_a_bad_precision_or_worker_count_before_any_work(capsys, tmp_path,
                                                                          flag, shown):
    cfg_path = _config_file(tmp_path)
    code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "run"), flag)
    assert (code, out) == (1, "")
    assert err == f"error: {shown} must be at least 1, got {flag.split('=')[1]}\n"
    assert not (tmp_path / "run").exists()


def test_cdf_out_of_range_flag_and_clamp(capsys):
    # the Gumbel's order-2 expansion at n = 2 dips below 0 at -3; the flag
    # reads the raw value, --clamp-cdf clips what is printed
    argv = ("cdf", "--family", "expression", "--param", "expr=exp(-x - exp(-x))",
            "--n", "2", "--order", "2", "--grid", "-3")
    for clamp, value in (((), "-0.0043953837547"), (("--clamp-cdf",), "0")):
        code, out, _ = run(capsys, *argv, *clamp)
        assert code == 0
        assert out.splitlines()[1] == f"-3,0.00134989803163,{value},true"


def test_cdf_out_dir_writes_manifest(capsys, tmp_path):
    out_dir = tmp_path / "cdfrun"
    code, _, _ = run(capsys, "cdf", "--family", "logistic", "--n", "50",
                     "--grid", "-1:1:1", "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "cdf.csv" in manifest["outputs"]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
