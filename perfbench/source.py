"""Point the benchmark at the program source of its own checkout.

Every benchmark process calls `prepare()` before importing numpy or the
package: it pins the BLAS/OpenMP thread pools to one thread (the
benchmark is one client on a small machine) and puts `<checkout>/src` first
on the import path.  Without that source tree there is nothing to
measure, so the process exits with status 2.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare() -> Path:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "schwingerlab" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program source under {SRC}\n")
        sys.exit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    return ROOT
