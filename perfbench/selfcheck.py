"""Quick self-check of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload it makes one run at the smallest size the output checks
apply to (``--seconds 0``: one cycle) and asserts that the run passes its
checks and prints every end-to-end metric of BENCHMARK.json with its unit.
It then makes the traced run twice and asserts that every per-layer metric
is printed, every count repeats exactly, the layers' self times add up to
the time of the top-level spans, and those spans cover at least
MIN_ACCOUNTED of the traced operations' wall time.  Last, it asserts that the
benchmark fails without printing a result in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "B", "iter/row")
TIMEOUT_S = 300
MIN_ACCOUNTED = 0.98


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def result(proc, what, with_info=False):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"]:
        raise AssertionError(f"{what}: bad result {res}")
    return (res["metrics"], json.loads(lines[-2])["run"]) if with_info else res["metrics"]


def same_names_and_units(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} differ from BENCHMARK.json {want}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        args = ["--workload", wl, "--seed", "7", "--seconds", "0"]
        metrics = result(bench(args + ["--trace", "0"]), f"{wl} untraced")
        same_names_and_units(metrics, spec["end_to_end"], wl)
        zero = [k for k, m in metrics.items() if not m["value"] > 0]
        if zero:
            raise AssertionError(f"{wl}: end-to-end metrics not positive: {zero}")
        (first, info), (second, _) = (result(bench(args + ["--trace", "1"]),
                                             f"{wl} traced", with_info=True)
                                      for _ in range(2))
        same_names_and_units(first, spec["per_layer"], f"{wl} traced")
        moved = [k for k, m in first.items()
                 if m["unit"] in COUNT_UNITS and m["value"] != second[k]["value"]]
        if moved:
            raise AssertionError(f"{wl}: counts differ between traced runs: {moved}")
        if abs(info["layers_s"] - info["top_level_s"]) > 1e-9 * info["top_level_s"]:
            raise AssertionError(f"{wl}: layer self times {info['layers_s']} do not add "
                                 f"up to the top-level spans {info['top_level_s']}")
        accounted = first["trace.accounted_frac"]["value"]
        if not MIN_ACCOUNTED <= accounted <= 1.0:
            raise AssertionError(f"{wl}: spans cover {accounted:.4f} of the traced wall time")
        print(f"{wl}: ok ({len(metrics)} end-to-end, {len(first)} per-layer metrics)")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(["--workload", "analytic", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    print("without source: fails as it should")


if __name__ == "__main__":
    main()
