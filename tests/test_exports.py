import json
import os
import subprocess
import sys

import edgemle as e


def test_every_exported_name_resolves_once():
    assert len(e.__all__) == len(set(e.__all__))
    missing = [name for name in e.__all__ if not hasattr(e, name)]
    assert missing == []


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter on this package.

    A fresh interpreter: the test session itself has loaded sympy (the tests
    derive tables symbolically) and scipy.
    """
    src = os.path.dirname(os.path.dirname(e.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


#: the loaded modules of sympy and scipy, as a Python expression
_HEAVY = "sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'scipy'))"


def test_import_loads_no_heavy_module_and_derives_no_table():
    probe = ("import json, sys, edgemle.expansion as x; print(json.dumps("
             f"{{'loaded': {_HEAVY}, "
             "'tables': x._table.cache_info().currsize "
             "+ x._stochastic_table.cache_info().currsize}))")
    assert _fresh(probe) == {"loaded": [], "tables": 0}


def test_import_loads_no_process_pool():
    # concurrent.futures' pool loads multiprocessing, socket and selectors; only a
    # study with workers > 1 imports it
    probe = ("import json, sys, edgemle, edgemle.cli; print(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing', 'socket'))))")
    assert _fresh(probe) == []


_BUILTIN_PATHS = """
import json, sys
import numpy as np
import edgemle as e
for family, params in (("normal", {}), ("logistic", {}), ("student_t", {"nu": 7})):
    config = e.SimulationConfig(family=family, family_params=params, n_grid=(25, 50),
                                replications=128, base_seed=5)
    e.run_study(config, out_dir=None, workers=1)
    model = e.make_model(family, **params)
    ms = e.compute_moment_set(model)
    e.validate_conditions(model)
    e.edgeworth_cdf(ms, 50, 5, np.linspace(-3.0, 3.0, 13))
    e.cornish_fisher_quantile(ms, 50, 5, [0.025, 0.5, 0.975])
    e.compose_check(ms, [25, 100])
    x = e.sample_iid(model, 40, 7)
    e.LocationMLE(family=family, family_params=params).fit(x).confidence_interval()
print(json.dumps(%s))
"""


def test_builtin_family_paths_never_load_scipy():
    # studies, moments, conditions, both tables and CIs of the normal,
    # logistic and Student-t(7) families run on numpy and the stdlib alone
    assert _fresh(_BUILTIN_PATHS % _HEAVY) == []
    # what does load scipy.special, when the family is built: Student-t
    # outside 1 <= nu <= 12 (stdtrit)
    probe = ("import json, sys, edgemle as e; e.student_t(20); "
             "print(json.dumps('scipy.special' in sys.modules))")
    assert _fresh(probe) is True


_EXPRESSION_PATHS = """
import json, sys
import numpy as np
import edgemle as e
for expr in ("exp(-x**2/2)/sqrt(2*pi)", "exp(-x - exp(-x))"):
    model = e.from_expression(expr)
    e.compute_moment_set(model)
    e.validate_conditions(model)
config = e.SimulationConfig(family="expression", family_params={"expr": "exp(-x - exp(-x))"},
                            n_grid=(25, 50), replications=128, base_seed=5)
e.run_study(config, out_dir=None, workers=1)
x = e.sample_iid(e.from_expression("exp(-x - exp(-x))"), 40, 7)
e.LocationMLE(family="expression",
              family_params={"expr": "exp(-x - exp(-x))"}).fit(x).confidence_interval()
print(json.dumps(%s))
"""


def test_expression_families_load_neither_sympy_nor_scipy():
    # from_expression parses with ast and differentiates by Taylor jets: the
    # Gaussian and Gumbel expressions' builds, moment sets and conditions, a
    # two-n study and a CI load no heavy module
    assert _fresh(_EXPRESSION_PATHS % _HEAVY) == []
