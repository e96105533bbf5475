"""Test-session settings shared by ``tests`` and ``perfbench``.

BLAS is pinned to one thread before numpy loads: the matrices here are
small, and a multi-threaded BLAS on a machine whose other cores are busy
can make a single solve many times slower. A value already set in the
environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
