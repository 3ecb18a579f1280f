"""freeconv benchmark: one workload per run, in a closed loop.

    python3 bench/run.py --workload dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One caller runs the workload's operations in order, each starting when the
previous one returns, and repeats the whole list (a pass) until
``--seconds`` have elapsed; at least one pass always runs.  Every output is
checked against the series oracle (Monte Carlo outputs on pooled moments)
outside the timed region, and a SHA-256 digest of it is recorded.

Times are in reference seconds: each op's wall time, divided by the host
slowdown that ``hostspeed.py`` measures while the op runs, so that runs
minutes apart on a shared host can be compared.  The raw wall time and
the slowdown are printed too.  Set-up is timed in fresh interpreters,
the median of ``SETUP_REPEATS``, with numpy's import as the gauge of host
speed (see ``setup_once.py``).

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures: medians over passes.  With
``--trace 1`` the run makes one untraced pass, then traced passes, and the
JSON holds the per-layer figures (per traced pass); the tracing overhead is
the traced pass time minus the untraced one.  Human-readable lines before
the JSON list every op, every metric with its unit, the run environment
and the output digest.  A record of the run (and, when traced, its spans)
is written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# One BLAS thread: steadier timings on a shared host, and bit-identical
# outputs from run to run.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Import time swings by up to 2x from one interpreter to the next.
SETUP_REPEATS = 9
FAILURE_CLASSES = ("PipelineError", "SupportCoverageError", "InversionError",
                   "BranchError", "NumericalError", "ValidationError",
                   "OracleMismatch", "Other")
# Before anything imports numpy.
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402  (numpy, after the BLAS settings)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ok_frac": "frac",
                    "add_s": "s", "mul_s": "s", "pastur_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("dense", "atomic", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy sizes are for the smoke test")
    return ap.parse_args(argv)


@dataclasses.dataclass
class OpResult:
    name: str
    kind: str
    seconds: float      # reference seconds (see hostspeed.py)
    raw_s: float        # wall seconds, probes excluded
    slowdown: float     # host slowdown while the op ran
    error: str | None
    message: str | None
    ratio: float | None
    digest: str


def _failure_class(exc, freeconv_errors):
    name = type(exc).__name__
    if name in FAILURE_CLASSES:
        return name
    if isinstance(exc, freeconv_errors.NumericalError):
        return "NumericalError"
    if isinstance(exc, freeconv_errors.ValidationError):
        return "ValidationError"
    return "Other"


def run_op(op, tracer, checks, freeconv_errors):
    """Time one op, then check and digest its output untimed."""
    span = tracer.span("bench.op", op=op.name, kind=op.kind) if tracer \
        else contextlib.nullcontext()
    error = message = None
    out = None
    with span, hostspeed.window() as win:
        try:
            out = op.run()
        except freeconv_errors.FreeconvError as exc:
            error, message = _failure_class(exc, freeconv_errors), str(exc)
        except Exception as exc:  # keep running; reported as "Other"
            traceback.print_exc(file=sys.stderr)
            error, message = "Other", f"{type(exc).__name__}: {exc}"
    if tracer:
        tracer.factors[tracer.op_id] = 1.0 / win.slowdown
    ratio = None
    if out is not None:
        check = tracer.span("series.oracle", op=op.name) if tracer \
            else contextlib.nullcontext()
        with check:
            ratio = op.check(out)
        if not ratio <= 1.0:
            error = "OracleMismatch"
            message = f"error {ratio:.3g} x tolerance"
    digest = checks.digest(out) if out is not None else f"raised:{error}"
    return OpResult(op.name, op.kind, win.ref_s, win.raw_s, win.slowdown,
                    error, message, ratio, digest)


def run_pass(ops, index, tracer, checks, freeconv_errors, log):
    results = []
    for op in ops:
        if tracer:
            tracer.pass_index = index
            tracer.op_id = f"{index}:{op.name}"
        res = run_op(op, tracer, checks, freeconv_errors)
        status = "ok" if res.error is None else f"FAILED {res.error}"
        detail = f" err/tol={res.ratio:.4g}" if res.ratio is not None else ""
        log(f"op pass={index} {op.name} kind={op.kind} "
            f"{res.seconds:.3f} s (raw {res.raw_s:.3f} s, slowdown "
            f"{res.slowdown:.2f}) {status}{detail}"
            + (f" ({res.message[:100]})" if res.message else ""))
        results.append(res)
    return results


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setup_s):
    flat = [r for p in passes for r in p]
    failed = sum(r.error is not None for r in flat)

    def per_pass(kind=None):
        return _median([sum(r.seconds for r in p
                            if kind is None or r.kind == kind)
                        for p in passes])

    return {
        "wall_s": per_pass(),
        "setup_s": setup_s,
        "ok_frac": 1.0 - failed / len(flat),
        "add_s": per_pass("add"),
        "mul_s": per_pass("mul"),
        "pastur_s": per_pass("pastur"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_figures(passes, ops):
    """End-to-end figures that exist on one workload only."""
    flat = [r for p in passes for r in p]
    crit1 = [r.seconds for r in flat if r.name == "crit1"]
    pipeline = {op.name for op in ops if op.operands}
    errs = [r.ratio for r in flat
            if r.ratio is not None and r.name in pipeline]
    return {
        "crit1_s": (_median(crit1), "s"),
        "spectrum_s": (_median([sum(r.seconds for r in p
                                    if r.kind == "spectrum")
                                for p in passes]), "s"),
        "moment_err": (max(errs) if errs else 0.0, "x_tolerance"),
    }


def host_figures(passes):
    """Raw wall seconds per pass and the mean host slowdown, so that
    reference seconds can be traced back to what the clock read."""
    flat = [r for p in passes for r in p]
    return {
        "host.raw_wall_s":
            (_median([sum(r.raw_s for r in p) for p in passes]), "s"),
        "host.slowdown":
            (statistics.fmean(r.slowdown for r in flat), "x"),
    }


def run_setups(args):
    """Median reference seconds of SETUP_REPEATS set-ups, each in a fresh
    interpreter (see setup_once.py)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_once.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def failure_counts(passes):
    counts = dict.fromkeys(FAILURE_CLASSES, 0)
    for p in passes:
        for r in p:
            if r.error is not None:
                counts[r.error] += 1
    return {k: v / max(1, len(passes)) for k, v in counts.items()}


def environment(numpy, load):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "loadavg_start": list(load),
        "src_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freeconv", "__init__.py")):
        print(f"error: no package at {SRC}/freeconv; run the benchmark from "
              "the root of a checkout", file=sys.stderr)
        return 2
    load = os.getloadavg()
    setup_s = run_setups(args)
    sys.path.insert(0, SRC)
    import numpy

    import freeconv
    import freeconv.errors as freeconv_errors
    sys.path.insert(0, HERE)
    import checks
    import tracing
    import workloads

    def log(line):
        print(line, flush=True)

    env = environment(numpy, load)
    log(f"# freeconv {freeconv.__version__} bench workload={args.workload} "
        f"seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"size={args.size}")
    log("# env " + json.dumps(env))

    tracer = tracing.Tracer() if args.trace else None

    def traced():
        return tracing.installed(tracer) if tracer \
            else contextlib.nullcontext()

    hostspeed.use(workloads.PROBE_MIX[args.workload])
    hostspeed.warm_up()
    with traced(), hostspeed.window() as win:
        if tracer:
            tracer.pass_index = tracer.op_id = tracing.SETUP
        ops = workloads.build(args.workload, args.seed, args.size)
        workloads.warm_up(ops)
    if tracer:
        tracer.factors[tracing.SETUP] = 1.0 / win.slowdown

    untraced, traced_passes = [], []
    start = time.perf_counter()
    if tracer:
        untraced.append(run_pass(ops, 0, None, checks, freeconv_errors, log))
        with traced():
            while not traced_passes \
                    or time.perf_counter() - start < args.seconds:
                traced_passes.append(run_pass(
                    ops, 1 + len(traced_passes), tracer, checks,
                    freeconv_errors, log))
    else:
        while not untraced or time.perf_counter() - start < args.seconds:
            untraced.append(run_pass(ops, len(untraced), None, checks,
                                     freeconv_errors, log))
    all_passes = untraced + traced_passes

    digests = {}
    stable = True
    for p in all_passes:
        for r in p:
            stable &= digests.setdefault(r.name, r.digest) == r.digest
    flat = [r for p in all_passes for r in p]
    attempted = len(flat)
    failed = sum(r.error is not None for r in flat)
    # Known failures (ops named fail_*) may raise a documented error or
    # miss the oracle; anywhere else a wrong answer makes the run incorrect.
    unexpected = [r for r in flat if r.error == "Other" or (
        r.error == "OracleMismatch" and not r.name.startswith("fail_"))]
    correct = stable and not unexpected

    for r in flat[:len(ops)]:
        if r.error is not None:
            log(f"failure {r.name}: {r.error}: {r.message}")
    log(f"metric failed_frac {failed}/{attempted} = "
        f"{failed / attempted:.4f} (failed ops over attempted ops)")
    e2e = end_to_end(untraced, setup_s)
    for name, value in e2e.items():
        log(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]}")
    figures = workload_figures(untraced, ops)
    figures.update(host_figures(untraced))
    for name, (value, unit) in figures.items():
        log(f"metric {name} {value:.6g} {unit}")
    run_digest = checks.sha256_text(
        "\n".join(f"{k}={v}" for k, v in sorted(digests.items())))
    log(f"digest {run_digest} ({'stable' if stable else 'UNSTABLE'} "
        f"across {len(all_passes)} passes)")

    if tracer:
        indices = list(range(1, 1 + len(traced_passes)))
        layers = tracing.layer_metrics(tracer, indices)
        for cls, count in failure_counts(traced_passes).items():
            layers[f"arithmetic.failed.{cls}"] = (count, "count")
        layers["arithmetic.crit1_s"] = figures["crit1_s"]
        layers["rmt.spectrum_s"] = figures["spectrum_s"]
        layers["series.moment_err"] = figures["moment_err"]
        layers["host.raw_wall_s"] = figures["host.raw_wall_s"]
        layers["host.slowdown"] = figures["host.slowdown"]
        layers["trace.overhead_s"] = (
            end_to_end(traced_passes, setup_s)["wall_s"] - e2e["wall_s"], "s")
        for name, (value, unit) in layers.items():
            log(f"layer {name} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "digest": run_digest,
                   "op_digests": digests,
                   "passes": [[dataclasses.asdict(r) for r in p]
                              for p in all_passes],
                   "metrics": metrics}, fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
