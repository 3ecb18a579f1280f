"""Smoke test of the benchmark: every workload at toy size, traced.

    python3 -m pytest bench/test_bench.py -q

Toy sizes are too coarse for the oracle tolerances, so ``correct`` is not
asserted here; the test checks the plumbing: every metric is printed with
its unit and every per-layer counter fires where its layer runs.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

PIPELINE_COUNTERS = (
    "stieltjes.kernel_calls", "stieltjes.kernel_points",
    "stieltjes.kernel_cell_evals", "stieltjes.kernel_s",
    "stieltjes.kernel_us_per_call", "stieltjes.recover_self_s",
    "stieltjes.sample_calls", "stieltjes.columns", "stieltjes.z_points",
    "arithmetic.sweep_self_s", "arithmetic.kernel_calls_per_point",
)
MC_COUNTERS = (
    "eigen.calls", "eigen.s", "eigen.householder_s", "eigen.ql_s",
    "eigen.flops_computed", "rmt.haar_calls", "rmt.haar_s",
    "rmt.sample_calls", "rmt.sample_self_s", "rmt.experiment_self_s",
    "rmt.spectrum_s",
)


def run_bench(workload, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "1",
         "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, *unit = line.split()
            printed[name] = (value, " ".join(unit))
    digest = [ln.split()[1] for ln in lines if ln.startswith("digest ")]
    return printed, json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def runs():
    return {w["name"]: run_bench(w["name"]) for w in SPEC["workloads"]}


def test_every_metric_printed_with_unit(runs):
    for workload, (printed, result, _) in runs.items():
        for m in SPEC["end_to_end"]:
            assert printed[m["name"]][1] == m["unit"], (workload, m)
        assert "failed_frac" in printed
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["attempted"] >= 1


def test_counters_fire_where_their_layer_runs(runs):
    for workload, (_, result, _) in runs.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        pipelines = workload != "montecarlo"
        for name in PIPELINE_COUNTERS:
            assert (values[name] > 0) == pipelines, (workload, name)
        for name in MC_COUNTERS:
            assert (values[name] > 0) != pipelines, (workload, name)
        assert (values["series.moment_err"] > 0) == pipelines
        assert values["series.oracle_s"] > 0
        assert values["stieltjes.kernel_cell_evals"] \
            >= values["stieltjes.kernel_points"]
    assert runs["dense"][1]["metrics"]["arithmetic.crit1_s"]["value"] > 0
    failures = {w: sum(v["value"] for k, v in r[1]["metrics"].items()
                       if k.startswith("arithmetic.failed."))
                for w, r in runs.items()}
    assert failures["dense"] > 0 and failures["atomic"] > 0


def test_counts_and_digest_repeat(runs):
    printed, result, digest = run_bench("montecarlo")
    first = runs["montecarlo"]
    assert digest == first[2]
    for name in ("eigen.calls", "rmt.haar_calls", "rmt.sample_calls",
                 "eigen.flops_computed"):
        assert result["metrics"][name] == first[1]["metrics"][name]


def test_wrappers_patch_bindings_and_restore():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import freeconv.arithmetic as arithmetic
        import freeconv.rmt as rmt
        import tracing

        names = [(rmt, "hermitian_eigenvalues"), (rmt, "haar_unitary"),
                 (arithmetic, "stieltjes_invert")]
        before = [getattr(mod, attr) for mod, attr in names]
        with tracing.installed(tracing.Tracer()):
            for (mod, attr), orig in zip(names, before):
                assert getattr(mod, attr).__wrapped__ is orig
        assert [getattr(mod, attr) for mod, attr in names] == before
    finally:
        sys.path.remove(HERE)
        sys.path.remove(os.path.join(ROOT, "src"))
