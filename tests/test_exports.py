import json
import os
import subprocess
import sys

import edgemle as e


def test_every_exported_name_resolves_once():
    assert len(e.__all__) == len(set(e.__all__))
    missing = [name for name in e.__all__ if not hasattr(e, name)]
    assert missing == []


def test_import_loads_no_heavy_module_and_derives_no_table():
    # a fresh interpreter: the test session itself has loaded sympy and more
    probe = ("import json, sys, edgemle.expansion as x; print(json.dumps("
             "{'loaded': [m for m in ('sympy', 'scipy.optimize', 'scipy.integrate', "
             "'scipy.interpolate') if m in sys.modules], "
             "'tables': x._table.cache_info().currsize}))")
    src = os.path.dirname(os.path.dirname(e.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == {"loaded": [], "tables": 0}
