"""Outside-in tracing of the edgemle layers.

The package is not modified.  :meth:`Tracer.install` replaces public
functions in the module namespaces the package looks them up in at call
time (``edgemle.cli.run_study``, ``edgemle.montecarlo.solve_mle_batch``, ...)
with wrappers that record a span per call, and it wraps the ``rho``,
``rho_derivs``, ``pdf`` and ``ppf`` callables of every model the traced code
builds with counters of the points they evaluate.  A count is charged to the
layer of the innermost open span, so the same ``rho_derivs`` call counts as
``mle`` work inside the solver and as ``expansion`` work inside the xi sums.

A span nested in a span of its own layer (``compose_check`` calling
``edgeworth_cdf``, ``solve_mle`` calling ``solve_mle_batch``) is part of the
outer call: per-function times and call counts cover calls into a layer from
outside it, and per-layer self times cover the time inside a layer outside
the spans of other layers, so that the layers' self times add up to the time
of the top-level spans.

Spans and counts stay in memory; :meth:`Tracer.metrics` turns them into the
per-layer metrics once the traced work has finished.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  The span name is "<layer>.<function>",
# where the layer is the package module that does the work.
SPANS = (
    ("edgemle.cli", "run_study", "montecarlo.run_study"),
    ("edgemle.montecarlo", "run_study", "montecarlo.run_study"),
    ("edgemle.montecarlo", "model_from_descriptor", "density.model_from_descriptor"),
    ("edgemle.montecarlo", "validate_conditions", "moments.validate_conditions"),
    ("edgemle.montecarlo", "compute_moment_set", "moments.compute_moment_set"),
    ("edgemle.montecarlo", "sample_iid", "density.sample_iid"),
    ("edgemle.montecarlo", "solve_mle_batch", "mle.solve_mle_batch"),
    ("edgemle.montecarlo", "compute_xi_batch", "expansion.compute_xi_batch"),
    ("edgemle.montecarlo", "stochastic_expansion_batch", "expansion.stochastic_expansion_batch"),
    ("edgemle.montecarlo", "edgeworth_cdf", "expansion.edgeworth_cdf"),
    ("edgemle.moments", "compute_moment_set", "moments.compute_moment_set"),
    ("edgemle.moments", "validate_conditions", "moments.validate_conditions"),
    ("edgemle.mle", "make_model", "density.make_model"),
    ("edgemle.mle", "solve_mle", "mle.solve_mle"),
    ("edgemle.mle", "solve_mle_batch", "mle.solve_mle_batch"),
    ("edgemle.expansion", "edgeworth_cdf", "expansion.edgeworth_cdf"),
    ("edgemle.expansion", "cornish_fisher_quantile", "expansion.cornish_fisher_quantile"),
    ("edgemle.expansion", "compose_check", "expansion.compose_check"),
)

#: functions whose spans are also reported per density family
PER_FAMILY = ("moments.compute_moment_set", "moments.validate_conditions")

# batches of calls behind the wrapper-cost estimate of :func:`wrapper_costs`
COST_CALLS = 2000
COST_REPEATS = 15


class Tracer:
    """Spans and counts for one traced pass; create one per pass."""

    def __init__(self):
        self.spans = []          # [name, family, parent index or None, start, end]
        self._stack = []
        self.counts = defaultdict(int)   # (layer, counter, family) -> count
        self.counted_calls = 0           # calls through counting wrappers
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _layer(self):
        return self.spans[self._stack[-1]][0].split(".", 1)[0] if self._stack else None

    def count(self, counter: str, amount: int, family=None):
        layer = self._layer()
        if layer is not None:
            self.counts[(layer, counter, family)] += int(amount)

    def wrap(self, name: str, fn, name_from_args=None):
        """Return ``fn`` recording a span per call.

        ``name_from_args`` may derive the span name from the call arguments
        (``cli.dispatch`` is named after its subcommand).
        """
        after = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_from_args(args) if name_from_args else name
            model = args[0] if args and hasattr(args[0], "rho_derivs") else None
            family = getattr(model, "name", None)
            index = len(self.spans)
            self.spans.append([span_name, family,
                               self._stack[-1] if self._stack else None,
                               time.perf_counter(), None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][4] = time.perf_counter()
            if after is not None:
                after(self, result)
            return result

        return traced

    def counting(self, fn, counter: str, family=None):
        """Return ``fn`` counting the points it is evaluated at."""
        def counted(x, *args, **kwargs):
            self.counted_calls += 1
            self.count(counter, getattr(x, "size", 1), family)
            return fn(x, *args, **kwargs)

        return counted

    def instrument_model(self, model):
        """Count the points at which the layers evaluate this model."""
        if getattr(model, "_perfbench_counted", False):
            return model
        fam = model.name
        model.rho = self.counting(model.rho, "rho_points", fam)
        model.rho_derivs = tuple(self.counting(f, "rho_deriv_points", fam)
                                 for f in model.rho_derivs)
        model.pdf = self.counting(model.pdf, "pdf_points", fam)
        model.ppf = self.counting(model.ppf, "ppf_points", fam)
        model._perfbench_counted = True
        return model

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch the package namespaces; undo with :meth:`uninstall`."""
        import importlib

        import edgemle.cli
        import edgemle.montecarlo

        for module_name, attr, span in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(span, getattr(module, attr)))
        self._patch(edgemle.cli, "dispatch",
                    self.wrap("cli", edgemle.cli.dispatch,
                              name_from_args=lambda args: "cli." + args[0][0]))
        block = edgemle.montecarlo._run_block

        def counted_block(payload):
            self.counts[("montecarlo", "blocks", None)] += 1
            return block(payload)

        self._patch(edgemle.montecarlo, "_run_block", counted_block)
        # study models are cached across calls; rebuild them under the tracer
        edgemle.montecarlo._cached_model.cache_clear()

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans and counts.

        For each span name, over the calls into its layer from outside it:
        ``.busy_s`` (summed duration), ``.self_s`` (duration not covered by
        child spans of other layers) and ``.calls``; ``.busy_s.<family>`` as
        well for the functions in PER_FAMILY.  For each layer, ``<layer>.self_s``
        is the time inside its spans and not inside a span of another layer;
        these add up to ``trace.top_level_s``, the time inside spans without a
        parent.  Counts are keyed ``<layer>.<counter>`` and
        ``<layer>.<counter>.<family>``.
        """
        out = defaultdict(int)
        layer = [name.split(".", 1)[0] for name, *_ in self.spans]
        entry = []          # index of the span by which the call entered its layer
        for index, (name, family, parent, start, end) in enumerate(self.spans):
            inside = parent is not None and layer[parent] == layer[index]
            entry.append(entry[parent] if inside else index)
            duration = end - start
            if parent is None:
                out["trace.top_level_s"] += duration
            else:
                out[f"{layer[parent]}.self_s"] -= duration
                if not inside:
                    out[f"{self.spans[entry[parent]][0]}.self_s"] -= duration
            out[f"{layer[index]}.self_s"] += duration
            if not inside:
                out[f"{name}.busy_s"] += duration
                out[f"{name}.self_s"] += duration
                out[f"{name}.calls"] += 1
                if name in PER_FAMILY and family:
                    out[f"{name}.busy_s.{family}"] += duration
        for (layer, counter, family), amount in self.counts.items():
            out[f"{layer}.{counter}"] += amount
            if family is not None:
                out[f"{layer}.{counter}.{family}"] += amount
        return dict(out)


def wrapper_costs() -> tuple:
    """Seconds a span wrapper and a counting wrapper add to one call.

    Each is the median over COST_REPEATS batches of COST_CALLS calls of the
    wrapped call's time less the bare call's, so it is the tracer's own cost
    at the host's typical speed.
    """
    import numpy as np

    probe = Tracer()
    probe.spans.append(["probe.open", None, None, 0.0, 0.0])
    probe._stack.append(0)      # counts need an open span to be charged to
    x = np.zeros(4)

    def bare(v):
        return v

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(COST_CALLS):
            fn(x)
        return (time.perf_counter() - t0) / COST_CALLS

    costs = []
    for wrapped in (probe.wrap("probe.span", bare), probe.counting(bare, "points")):
        extra = []
        for _ in range(COST_REPEATS):
            extra.append(per_call(wrapped) - per_call(bare))
            del probe.spans[1:]
        costs.append(max(statistics.median(extra), 0.0))
    return tuple(costs)


def _count_batch(tracer, result):
    # the solver's own statistics, taken from the BatchMleResult it returns
    for counter, amount in (("rows", result.theta_hat.size),
                            ("newton_iters", int(result.iterations.sum())),
                            ("multimodal_rows", int(result.multimodal_flag.sum())),
                            ("failed_rows", int(result.failed.sum()))):
        tracer.counts[("mle", counter, None)] += amount


def _count_model(tracer, model):
    tracer.instrument_model(model)


# run on the return value once the span has closed
_RESULT_HOOKS = {
    "mle.solve_mle_batch": _count_batch,
    "density.make_model": _count_model,
    "density.model_from_descriptor": _count_model,
}
