"""Process set-up shared by the benchmark's scripts.

Import this before numpy: it pins the numeric thread pools to one thread and
puts the checkout's own ``src`` first on the import path.
"""
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source():
    """Import edgemle from this checkout; exit with code 2 if it is missing."""
    if not (SRC / "edgemle" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'edgemle'}")
    sys.path.insert(0, str(SRC))
    import edgemle

    if Path(edgemle.__file__).resolve().parent != SRC / "edgemle":
        sys.exit(f"perfbench: edgemle imported from {edgemle.__file__}, not {SRC}")
