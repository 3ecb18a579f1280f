"""Span tracing for the benchmark's traced runs.

Spans are recorded around calls into the package's public functions from
outside the package: each wrapper is installed at the module binding (or
class attribute) that the package's own callers look up at call time, so
``freeconv.arithmetic.stieltjes_invert`` is patched in ``arithmetic`` where
``free_add`` finds it, and ``freeconv.rmt.hermitian_eigenvalues`` in
``rmt``.  Nothing in the package is edited.

A span is (id, name, start, end, parent, op id).  The resolvent kernel is
called ~10^5 times per pipeline, so kernel calls are not stored as spans:
each one is added to counters on the innermost open span (calls, points,
cell evaluations, seconds).  Self time of a span is its duration minus its
direct child spans and the kernel time attributed to it.  Times are read
from ``hostspeed.clock()``, which leaves out the host-speed probes.
"""

from __future__ import annotations

import contextlib
import json

from hostspeed import clock

SETUP = "setup"  # pass label of spans recorded during set-up


class Tracer:
    """In-memory span recorder; spans are kept until ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.pass_index = None
        self.factors = {}  # op id -> reference seconds per clock second

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": clock(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op_id,
            "pass": self.pass_index,
            "attrs": attrs,
            "children_s": 0.0,
            "kernel": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["children_s"] += rec["end"] - rec["start"]

    def kernel(self, seconds, points, cell_evals):
        """Attribute one kernel call to the innermost open span."""
        if not self._stack:
            return
        rec = self._stack[-1]
        agg = rec["kernel"]
        if agg is None:
            agg = rec["kernel"] = {"calls": 0, "points": 0, "cell_evals": 0,
                                   "s": 0.0}
        agg["calls"] += 1
        agg["points"] += points
        agg["cell_evals"] += cell_evals
        agg["s"] += seconds

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_time(rec):
    kernel_s = rec["kernel"]["s"] if rec["kernel"] else 0.0
    return (rec["end"] - rec["start"]) - rec["children_s"] - kernel_s


def householder_flops(n):
    """Real flops of the Householder reduction of an n x n complex
    Hermitian matrix as implemented in ``freeconv.eigen``: per step on an
    m x m trailing block, a matrix-vector product (8 m^2), the rank-2 GEMM
    (16 m^2) and the subtraction (2 m^2); the QL sweeps add ~30 n^2."""
    return sum(26 * m * m for m in range(2, n)) + 30 * n * n


def _measure_size(mu):
    cells = sum(len(seg.grid) - 1 for seg in mu.segments)
    return cells + len(mu.atoms)


def _wrap_span(tracer, fn, name, attrs_of=None):
    def wrapper(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of else {}
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_kernel(tracer, fn):
    def wrapper(self, z):
        t0 = clock()
        out = fn(self, z)
        seconds = clock() - t0
        points = 1 if isinstance(out[0], complex) else len(out[0])
        tracer.kernel(seconds, points, points * _measure_size(self.measure))
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def _sweep_attrs(self, xs, ladders):
    return {"columns": len(xs), "z": int(sum(len(lad) for lad in ladders))}


def _eigen_attrs(m):
    n = len(m)
    return {"n": n, "flops": householder_flops(n)}


@contextlib.contextmanager
def installed(tracer):
    """Install the wrappers for the duration of the block."""
    import freeconv.arithmetic as arithmetic
    import freeconv.eigen as eigen
    import freeconv.measures as measures
    import freeconv.rmt as rmt
    import freeconv.stieltjes as stieltjes

    patches = [
        (measures, "make_law", "measures.make_law", None),
        (arithmetic, "stieltjes_invert", "stieltjes.invert", None),
        (rmt, "hermitian_eigenvalues", "eigen.hermitian_eigenvalues",
         _eigen_attrs),
        (eigen, "householder_tridiagonalize", "eigen.householder", None),
        (eigen, "tridiagonal_eigenvalues", "eigen.ql", None),
        (rmt, "haar_unitary", "rmt.haar_unitary", None),
        (rmt, "sample_ensemble", "rmt.sample_ensemble", None),
        (rmt, "mc_free_add_experiment", "rmt.experiment", None),
        (rmt, "mc_free_mul_experiment", "rmt.experiment", None),
    ]
    for cls in (arithmetic.FreeSumResolvent, arithmetic.FreeProductResolvent,
                arithmetic.PasturResolvent):
        patches.append((cls, "sample_columns", "arithmetic.sweep",
                        _sweep_attrs))
    saved = []
    for owner, attr, name, attrs_of in patches:
        saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr,
                _wrap_span(tracer, getattr(owner, attr), name, attrs_of))
    resolvent = stieltjes.MeasureResolvent
    for attr in ("vd_scalar", "value_and_derivative"):
        saved.append((resolvent, attr, resolvent.__dict__[attr]))
        setattr(resolvent, attr,
                _wrap_kernel(tracer, getattr(resolvent, attr)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def layer_metrics(tracer, passes):
    """Per-layer figures per traced pass, from the spans of ``passes``;
    ``measures.make_law_s`` is for the run's one set-up instead.  Times
    are in reference seconds: each span is scaled by the host-speed factor
    of the op it belongs to (see hostspeed.py)."""
    spans = [s for s in tracer.spans if s["pass"] in passes]
    k = max(1, len(passes))
    make_law = [s for s in tracer.spans
                if s["pass"] == SETUP and s["name"] == "measures.make_law"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(recs, fn):
        return sum(fn(s) for s in recs) / k

    def ref(fn):
        return lambda s: fn(s) * tracer.factors[s["op"]]

    def duration(s):
        return s["end"] - s["start"]

    def kernel(s, key):
        return s["kernel"][key] if s["kernel"] else 0

    sweeps = named("arithmetic.sweep")
    kernel_calls = total(spans, lambda s: kernel(s, "calls"))
    kernel_s = total(spans, ref(lambda s: kernel(s, "s")))
    z_points = total(sweeps, lambda s: s["attrs"]["z"])
    sweep_kernel_calls = total(sweeps, lambda s: kernel(s, "calls"))
    eig = named("eigen.hermitian_eigenvalues")
    return {
        "stieltjes.kernel_calls": (kernel_calls, "count"),
        "stieltjes.kernel_points":
            (total(spans, lambda s: kernel(s, "points")), "count"),
        "stieltjes.kernel_cell_evals":
            (total(spans, lambda s: kernel(s, "cell_evals")), "count"),
        "stieltjes.kernel_s": (kernel_s, "s"),
        "stieltjes.kernel_us_per_call":
            (1e6 * kernel_s / kernel_calls if kernel_calls else 0.0, "us"),
        "stieltjes.recover_self_s":
            (total(named("stieltjes.invert"), ref(self_time)), "s"),
        "stieltjes.sample_calls": (len(sweeps) / k, "count"),
        "stieltjes.columns":
            (total(sweeps, lambda s: s["attrs"]["columns"]), "count"),
        "stieltjes.z_points": (z_points, "count"),
        "arithmetic.sweep_self_s": (total(sweeps, ref(self_time)), "s"),
        "arithmetic.kernel_calls_per_point":
            (sweep_kernel_calls / z_points if z_points else 0.0,
             "calls/point"),
        "measures.make_law_s":
            (sum(ref(duration)(s) for s in make_law), "s"),
        "series.oracle_s":
            (total(named("series.oracle"), ref(duration)), "s"),
        "eigen.calls": (len(eig) / k, "count"),
        "eigen.s": (total(eig, ref(duration)), "s"),
        "eigen.householder_s":
            (total(named("eigen.householder"), ref(duration)), "s"),
        "eigen.ql_s": (total(named("eigen.ql"), ref(duration)), "s"),
        "eigen.flops_computed":
            (total(eig, lambda s: s["attrs"]["flops"]), "flop"),
        "rmt.haar_calls": (len(named("rmt.haar_unitary")) / k, "count"),
        "rmt.haar_s":
            (total(named("rmt.haar_unitary"), ref(duration)), "s"),
        "rmt.sample_calls": (len(named("rmt.sample_ensemble")) / k, "count"),
        "rmt.sample_self_s":
            (total(named("rmt.sample_ensemble"), ref(self_time)), "s"),
        "rmt.experiment_self_s":
            (total(named("rmt.experiment"), ref(self_time)), "s"),
    }

