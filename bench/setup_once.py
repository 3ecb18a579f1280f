"""One set-up of a workload in a fresh interpreter, timed.

    python3 bench/setup_once.py --workload dense --seed 1 [--size toy]

``run.py`` starts this several times per run and reports the median as
``setup_s``.  A set-up is what a user pays before the first op: importing
numpy and the package, building the workload's operand laws and
ensembles, and the warm-up calls.  Imports can only be timed once per
interpreter, hence the separate process.

The time is in reference seconds, like the ops' (see ``hostspeed.py``),
but the host's speed is gauged by numpy's own import, which is fixed
work the package cannot change: the set-up's wall time is multiplied by
``NUMPY_REF_S`` over the time numpy took to import.  Module loading swings
by 2x from one interpreter to the next and follows the CPU probes only
loosely, while numpy's import, the package's import and the build all
move together (correlation 0.75-0.85 over 54 set-ups); the correction
cut their interquartile spread from 0.31 to 0.04 of the median.  Any
change in the package's import, build or warm-up still shows in full.
Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402,F401

NUMPY_S = time.perf_counter() - T0

import freeconv  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T0

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# Fixed unit of the reference second for set-up: about numpy 2.4's import
# time in a fresh Python 3.11 interpreter on an uncontended x86-64 vCPU.
NUMPY_REF_S = 0.07


def main(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    t0 = time.perf_counter()
    ops = workloads.build(args["--workload"], int(args["--seed"]),
                          args.get("--size", "full"))
    workloads.warm_up(ops)
    build_s = time.perf_counter() - t0
    raw_s = IMPORT_S + build_s
    print(json.dumps({"numpy_s": NUMPY_S, "import_s": IMPORT_S,
                      "build_s": build_s, "raw_s": raw_s,
                      "setup_s": raw_s * NUMPY_REF_S / NUMPY_S}))


if __name__ == "__main__":
    main(sys.argv[1:])
