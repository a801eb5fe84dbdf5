"""One thread for every numerical library, fixed before numpy is imported.

Threaded BLAS gains nothing on the suite's small products and loses badly
when another process holds the other cores: the stacked moment product of
`ModeLattice` at N = 32 takes milliseconds instead of microseconds.  A
value already set in the environment is kept.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could cap "
                       "its threads; the caps would not take effect")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
