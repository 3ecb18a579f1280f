"""Host-speed probe: times in reference seconds.

On a shared virtual machine the same deterministic op can take twice as
long from one second to the next, and the slow share drifts over minutes,
so raw seconds of two runs a few minutes apart cannot be compared within
a 25 % bound.  The probe measures that drift while the op runs: fixed
pieces of work of 0.1-0.2 ms each fire every ``INTERVAL_S`` from a SIGALRM
handler, and once just before and once just after the timed block.  Each
piece's mean time over the block, divided by its fixed reference time,
is that kind of code's slowdown; the block's slowdown is the mean over the
pieces of its workload's mix, and

    reference seconds = (raw seconds - seconds spent in probes) / slowdown

i.e. the time the block would take on a host on which every piece runs in
its reference time.  Nothing the package does can change the probes' own
times, so a faster or slower program still shows in full.

The pieces mirror the kinds of code the package runs, which slow down by
different amounts when the host is busy: a scalar complex loop (the
Python-level Newton steps), numpy calls on 3-element arrays (the resolvent
kernel of an atomic law: call overhead), logarithms over 1024-element
arrays (the kernel over the cells of a dense law), a 128 x 128 matrix
product (BLAS-3) and a complex 512 x 512 matrix-vector product
(memory-bound BLAS-2, as in Householder steps).  Each workload uses the
mix whose slowdown best tracked its own ops' in repeated runs of fixed
inputs (``MIXES``): there the log of op time against the log of slowdown
had a slope of 1.00 for both mixes.  The scalar loop alone swings about
three times as much as the pipelines do, so they leave it out.  Short ops
are measured less well than long ones: the noise left after the
correction falls with the op's length, from about 10 % at 0.5 s to 1-3 %
at 5 s.

``clock()`` is ``time.perf_counter()`` minus all probe time so far; spans
and kernel timers use it, so probe work is never charged to a layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02

_rng = np.random.default_rng(0)
_GRID = np.linspace(-1.0, 1.0, 257)
_CELLS = np.linspace(-1.0, 1.0, 1025)
_ATOMS = np.array([-1.0, 0.0, 1.0])
_WEIGHTS = np.array([0.3, 0.4, 0.3])
_GEMM = _rng.standard_normal((128, 128))
_GEMV = _rng.standard_normal((512, 512)) + 1j * _rng.standard_normal(
    (512, 512))
_VEC = _rng.standard_normal(512) + 0j


def _scalar():
    z, s = 0.3 + 0.7j, 0j
    for k in range(300):
        w = 1.0 / (z - _GRID[k & 255])
        s += w * w
        z = z * 0.999 + 0.001j
    return s


def _tiny():
    z, s = 0.3 + 0.7j, 0j
    for k in range(40):
        s += (_WEIGHTS / (z + k * 1e-3 - _ATOMS)).sum()
    return s


def _ufunc():
    z = 0.3 + 0.7j
    return np.log((z - _CELLS[1:]) / (z - _CELLS[:-1])).sum()


def _gemm():
    return _GEMM @ _GEMM


def _gemv():
    return _GEMV @ _VEC


# Reference seconds of each piece: the fixed unit of a reference second,
# about each piece's time on an uncontended x86-64 vCPU with Python 3.11,
# numpy 2.4 and single-threaded OpenBLAS 0.3.
REF_S = {"scalar": 1e-4, "tiny": 1.25e-4, "ufunc": 1.3e-4, "gemm": 9e-5,
         "gemv": 1.9e-4}
PIECES = {"scalar": _scalar, "tiny": _tiny, "ufunc": _ufunc, "gemm": _gemm,
          "gemv": _gemv}
MIXES = {
    "pipeline": ("tiny", "ufunc"),
    "matrix": ("scalar", "ufunc", "gemm", "gemv"),
}


class _State:
    # Process-wide, as the SIGALRM handler that fills it is.
    spent = 0.0     # probe seconds since the process started
    mix = MIXES["pipeline"]
    samples = None  # piece -> probe times of the open window, or None
    busy = False


def _probe(signum=None, frame=None):
    if _State.busy:
        return
    _State.busy = True
    for name in _State.mix:
        t0 = time.perf_counter()
        PIECES[name]()
        dt = time.perf_counter() - t0
        _State.spent += dt
        if _State.samples is not None:
            _State.samples[name].append(dt)
    _State.busy = False


def use(mix):
    """Select the probe mix (a key of ``MIXES``) for later windows."""
    _State.mix = MIXES[mix]


def clock():
    """``time.perf_counter()`` without the probes' own time."""
    return time.perf_counter() - _State.spent


def warm_up(n=50):
    """Fill caches for the probes before the first window."""
    for _ in range(n):
        _probe()


@dataclasses.dataclass
class Window:
    raw_s: float = 0.0      # wall seconds of the block, probes excluded
    slowdown: float = 1.0   # mean over the mix of probe time / REF_S

    @property
    def ref_s(self):
        """The block's time in reference seconds."""
        return self.raw_s / self.slowdown


@contextlib.contextmanager
def window():
    """Time the block and probe the host while it runs.

    Yields a ``Window`` that is filled in when the block exits, also when
    it raises.  Windows do not nest.  The SIGALRM handler stays installed
    afterwards, so a late alarm is harmless.
    """
    win = Window()
    _State.samples = {name: [] for name in _State.mix}
    signal.signal(signal.SIGALRM, _probe)
    _probe()
    t0 = clock()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield win
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        win.raw_s = clock() - t0
        _probe()
        win.slowdown = statistics.fmean(
            statistics.fmean(times) / REF_S[name]
            for name, times in _State.samples.items())
        _State.samples = None
