"""evacsim: preemptive typhoon evacuation decisions, simulated and analyzed.

Subpackages map to the pipeline stages: geo (spatial world), population
(coded households), risk (perceived-risk math), engine (tick simulation),
sweep (batch experiments), stats (OLS sensitivity), cli (command surface);
textfile reads every input file and numbers its lines.
"""

import os

# One BLAS/OpenMP thread, set before any submodule imports numpy: a
# multi-threaded BLAS sums the OLS products in a thread-count-dependent
# order, and the analysis report must be a pure function of its inputs.
# A program that imported numpy before evacsim has its BLAS started
# already and must pin these variables itself.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

__version__ = "0.1.0"
