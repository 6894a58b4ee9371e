"""sddpkit benchmark: DD/RDD training and out-of-sample policy evaluation.

Usage, from the repository root::

    python3 perfbench/run.py --workload dd_train --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and the run itself in
``bench.py``.  This script pins BLAS to one thread before numpy loads, so
every side of a comparison runs single-threaded, and makes sure the
``sddpkit`` it measures is the one under ``src/`` next to this directory.
Without those sources it exits with code 1 before measuring anything.
"""

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _import_sources() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other sddpkit."""
    if not (SRC_DIR / "sddpkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sddpkit sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import sddpkit

    if Path(sddpkit.__file__).resolve().parent != (SRC_DIR / "sddpkit").resolve():
        raise SystemExit(f"perfbench: imported sddpkit from {sddpkit.__file__}, not {SRC_DIR}")


if __name__ == "__main__":
    _import_sources()
    import bench

    sys.exit(bench.main(blas_thread_vars=BLAS_THREAD_VARS))
