"""Test-session setup shared by every test module."""

import os

# Pin BLAS to one thread before any test module imports numpy, as the CLI
# does, unless the caller chose a count: the band factorizations are too
# small to gain from threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
