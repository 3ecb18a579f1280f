import os
import sys

# One BLAS thread, as the benchmark runs: the Monte Carlo tests' LAPACK
# eigensolves otherwise spawn a thread per core and oversubscribe a busy
# host, which can push criterion 3 past its runtime bound.  The variables
# are read when numpy loads, so this comes before anything imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

# Make tests/oracles.py importable regardless of invocation directory.
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and carry no per-example
# deadline: a slow or busy host must not turn them into flaky failures.
settings.register_profile("freeconv", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("freeconv")
