"""edgemle benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_logistic --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the workload's closed loop for ``--seconds`` seconds and
prints the end-to-end metrics, each time scaled to a reference host speed
(see ``speed.py``).  ``--trace 1`` runs one fixed cycle of the
workload twice, untraced and then traced, and prints the per-layer metrics;
the cycle is fixed so that every count repeats exactly for a given seed.
Every output is checked against ``reference.json``; the last line of
standard output is the result, and the exit code is 1 when a check failed.
"""
import time

from speed import STUDY_EXPONENT, Sampler, at_reference_speed, host_speed

SPEED_AT_START = host_speed()
T0 = time.perf_counter()  # set-up time counts from the start of this script

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402  (pins thread pools before numpy loads)

SETUP_SAMPLES = 5        # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 60

CI_BATCH = 25            # CI requests between two host-speed samples

TRACE_CI_REQUESTS = 200
LAYERS = ("density", "moments", "mle", "expansion", "montecarlo", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="edgemle benchmark (one workload, one run)")
    p.add_argument("--workload", required=True,
                   choices=("mc_logistic", "mc_student_t", "analytic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__}


def probe_setup(args) -> tuple:
    """Set-up time of a fresh process, measured by that process itself,
    and the host speed over it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S)
    setup_s, speed = out.stdout.split()[-2:]
    return float(setup_s), float(speed)


class Checks:
    """Operations attempted and failed, and what was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, checked):
        attempted, failed, errors = checked
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)


class Run:
    """Timings of one run's operations, each with the host speed over it
    (see ``speed.py``); outputs are checked into ``checks``.  With
    ``sampled=False`` the host speed is not sampled while operations run."""

    def __init__(self, session, checks, sampled=True):
        self.session = session
        self.checks = checks
        self.sampler = Sampler(enabled=sampled)
        self.speed = host_speed()
        self.reps = 0
        self.studies = []        # (seconds, host speed)
        self.passes = []         # (seconds, host speed)
        self.ci = []             # (seconds, host speed)
        self.bytes_written = 0

    def _measure(self, op):
        """Run ``op``; return its result, the sampler's own time during it,
        and the host speed over it: the mean of the samples before, during
        and after it, the two ends at half weight."""
        spent, first = self.sampler.spent, len(self.sampler.samples)
        with self.sampler.running():
            result = op()
        before, self.speed = self.speed, host_speed()
        points = [before, *self.sampler.samples[first:], self.speed]
        speed = (sum(points) - 0.5 * (before + self.speed)) / (len(points) - 1)
        return result, self.sampler.spent - spent, speed

    def study(self, index):
        (self.reps, wall, report, written), spent, speed = self._measure(
            lambda: self.session.study(index))
        self.studies.append((wall - spent, speed))
        self.bytes_written += written
        self.checks.record(self.session.check_study(self.reps, report))

    def family_pass(self):
        def op():
            t0 = time.perf_counter()
            outputs = self.session.family_pass()
            return outputs, time.perf_counter() - t0

        (outputs, took), spent, speed = self._measure(op)
        self.passes.append((took - spent, speed))
        self.checks.record(self.session.check_pass(outputs))

    def ci_requests(self, first, count):
        results = []

        def batch(start, stop):
            times = []
            for i in range(start, stop):
                spent = self.sampler.spent
                t0 = time.perf_counter()
                results.append(self.session.ci_request(i))
                times.append(time.perf_counter() - t0 - (self.sampler.spent - spent))
            return times

        for start in range(first, first + count, CI_BATCH):
            stop = min(start + CI_BATCH, first + count)
            times, _, speed = self._measure(lambda: batch(start, stop))
            self.ci.extend((took, speed) for took in times)
        self.checks.record(self.session.check_ci(results))

    def cycle(self, index, passes, ci_count):
        """One study, then ``passes`` family passes, each followed by a
        share of ``ci_count`` CI requests."""
        self.study(index)
        for k in range(passes):
            self.family_pass()
            self.ci_requests(len(self.ci), ci_count * (k + 1) // passes - ci_count * k // passes)

    def wall(self):
        return sum(took for ops in (self.studies, self.passes, self.ci) for took, _ in ops)


def measure(session, seconds, setup_s, probe) -> tuple:
    """Closed loop of cycles for about ``seconds`` seconds of wall time.

    Set-up probes run between cycles, spread over the run, and count in
    ``seconds``.  Every metric is a median (and ``ci_ms_p99`` a percentile)
    of times at the reference speed.
    """
    import numpy as np

    from workloads import CI_MIN_SAMPLES

    passes, ci_count = session.spec["passes_per_cycle"], session.spec["ci_per_cycle"]
    run = Run(session, Checks())
    setup = [(setup_s, 0.5 * (SPEED_AT_START + run.speed))]
    run.ci_requests(0, 16)   # warm-up: checked, not timed
    run.ci.clear()
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        run.cycle(index, passes, ci_count)
        index += 1
        took = time.perf_counter() - t0
        if len(setup) < SETUP_SAMPLES and \
                time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(probe())
        # stop where the next cycle would end nearer the deadline's far side
        if time.perf_counter() - start + 0.5 * took >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe())
    if len(run.ci) < CI_MIN_SAMPLES:
        run.ci_requests(len(run.ci), CI_MIN_SAMPLES - len(run.ci))
    ci_ms = 1e3 * np.asarray(at_reference_speed(run.ci))
    metrics = {
        "setup_s": float(np.median(at_reference_speed(setup))),
        "study_reps_per_s": run.reps / float(np.median(at_reference_speed(run.studies,
                                                                          STUDY_EXPONENT))),
        "family_analysis_s": float(np.median(at_reference_speed(run.passes))),
        "ci_ms_p50": float(np.median(ci_ms)),
        "ci_ms_p99": float(np.percentile(ci_ms, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    speeds = [speed for ops in (run.studies, run.passes, run.ci, setup) for _, speed in ops]
    info = {"cycles": index, "study_s": [t for t, _ in run.studies],
            "family_pass_s": [t for t, _ in run.passes], "setup_s": [t for t, _ in setup],
            "ci_requests": int(ci_ms.size),
            "ci_beyond_p99": int(np.sum(ci_ms > metrics["ci_ms_p99"])),
            "ci_ms_p50_unscaled": 1e3 * float(np.median([t for t, _ in run.ci])),
            "host_speed_s": {"min": min(speeds), "median": float(np.median(speeds)),
                             "max": max(speeds)},
            "wall_s": time.perf_counter() - start}
    return run.checks, metrics, info


def traced(session) -> tuple:
    """One cycle untraced (the warm-up), then the same cycle traced.

    The tracer's cost is the number of wrapped calls times the cost of a
    wrapper, measured on its own: the host's speed changes between two
    cycles by more than tracing costs.
    """
    from spans import Tracer, wrapper_costs

    checks = Checks()

    def one_cycle():
        run = Run(session, checks, sampled=False)
        run.cycle(0, 1, TRACE_CI_REQUESTS)
        return run

    plain = one_cycle()
    span_cost, count_cost = wrapper_costs()
    tracer = Tracer()
    tracer.install()
    try:
        for model in session.models.values():
            tracer.instrument_model(model)
        run = one_cycle()
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    rows = values.get("mle.rows", 0)
    values["mle.newton_iters_per_row"] = values.get("mle.newton_iters", 0) / rows if rows else 0.0
    values["montecarlo.bytes_written"] = run.bytes_written
    cost = len(tracer.spans) * span_cost + tracer.counted_calls * count_cost
    values["trace.overhead_frac"] = cost / (run.wall() - cost)
    layers_s = sum(values.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    values["trace.accounted_frac"] = layers_s / run.wall()
    info = {"untraced_s": plain.wall(), "traced_s": run.wall(), "layers_s": layers_s,
            "top_level_s": values["trace.top_level_s"], "spans": len(tracer.spans),
            "counted_calls": tracer.counted_calls, "span_cost_s": span_cost,
            "count_cost_s": count_cost, "ci_requests": TRACE_CI_REQUESTS}
    return checks, values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.use_source()
    from workloads import Session

    work_dir = checkout.ROOT / "perfbench" / "_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(args.workload, args.seed, work_dir)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_s), repr(0.5 * (SPEED_AT_START + host_speed())))
            return 0
        if args.trace:
            checks, metrics, info = traced(session)
        else:
            checks, metrics, info = measure(session, args.seconds, setup_s,
                                            lambda: probe_setup(args))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    for err in checks.errors:
        print(f"perfbench: wrong output: {err}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "run": info,
                      "failed_frac": checks.failed / max(checks.attempted, 1)}))
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # a layer the workload does not reach reads 0
        declared = {m["name"]: (metrics.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    else:
        declared = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    correct = checks.failed == 0 and not checks.errors
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in declared.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
