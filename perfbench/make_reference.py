"""Record the reference values the benchmark checks outputs against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

Deterministic outputs (moment sets, CDF and quantile tables, the quantiles
behind the CI endpoints) are stored as computed.  Study statistics are Monte
Carlo estimates, so each is stored as the mean and standard deviation over
``REFERENCE_SEEDS`` studies with seeds no benchmark run uses.
"""
import json
import statistics

import checkout

checkout.use_source()

import workloads as w  # noqa: E402  (needs the source path set above)

# medians this small are round-off (Gaussian exactness); their slope is noise
ROUNDOFF = 1e-12
# studies per workload behind each reference mean and standard deviation;
# the study checks' tolerances scale with that standard deviation
REFERENCE_SEEDS = 16


def main():
    models = {f: spec[0]() for f, spec in w.FAMILIES.items()}
    families = {}
    for fam, model in models.items():
        ms = w.moments.compute_moment_set(model)
        families[fam] = {
            "moments": w.moment_vector(ms),
            "cdf": {str(n): {str(k): w.expansion.edgeworth_cdf(ms, n, k, w.X_GRID).tolist()
                             for k in w.ORDERS} for n in w.PASS_N},
            "quantile": {str(n): {str(k): w.expansion.cornish_fisher_quantile(
                ms, n, k, w.V_GRID).tolist() for k in w.ORDERS} for n in w.PASS_N},
        }
    alpha = (1.0 - w.CI_LEVEL) / 2.0
    ci = {}
    for fam in ("normal", "logistic", "student_t"):
        ms = w.moments.compute_moment_set(models[fam])
        ci[fam] = {str(n): {
            "fisher": ms.fisher,
            "q_lo": w.expansion.cornish_fisher_quantile(ms, n, w.CI_ORDER, alpha),
            "q_hi": w.expansion.cornish_fisher_quantile(ms, n, w.CI_ORDER, 1.0 - alpha),
        } for n in w.CI_N}

    studies = {}
    for name, spec in w.WORKLOADS.items():
        st = spec["study"]
        runs = []
        for j in range(REFERENCE_SEEDS):
            cfg = w.montecarlo.SimulationConfig(
                family=st["family"], family_params=st["params"], n_grid=w.STUDY_N_GRID,
                replications=st["replications"], base_seed=w.study_seed(10**9 + j, 0))
            runs.append(w.study_stats(w.montecarlo.run_study(cfg).to_dict()))
        stats = {key: [statistics.fmean(r[key] for r in runs),
                       statistics.stdev(r[key] for r in runs)] for key in runs[0]}
        for key in stats:
            if key.startswith("slope."):
                order = key.split(".o")[1]
                if min(v[0] for k, v in stats.items()
                       if k.startswith("rem_median.") and k.endswith(f".o{order}")) < ROUNDOFF:
                    stats[key] = [None, None]
        studies[name] = stats
        print(f"{name}: {REFERENCE_SEEDS} studies", flush=True)

    out = {"study_seeds": REFERENCE_SEEDS, "families": families, "ci": ci, "studies": studies}
    w.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
