import os
import sys

from hypothesis import settings

# Make tests/oracles.py importable regardless of invocation directory.
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and carry no per-example
# deadline: a slow or busy host must not turn them into flaky failures.
settings.register_profile("freeconv", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("freeconv")
