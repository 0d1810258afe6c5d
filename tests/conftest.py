"""Pin BLAS and OpenMP to one thread before numpy loads.

Several OpenBLAS threads may sum in another order from run to run, so the
last digits of some matrices (the span moments among them) would differ
between two runs of one test.  These are the variables that
``perfbench/run.py`` pins.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the test thread settings were pinned")
for var in THREAD_VARS:
    os.environ[var] = "1"
