"""Acceptance criteria, each at its pinned tolerance.

Every test prints a one-line pass/fail verdict for its criterion, and the
suite as a whole is what `freeconv selftest` replays.
"""

import math

import pytest

from freeconv import acceptance


def _run(number, fn, **kwargs):
    report = fn(**kwargs)
    status = "pass" if report.passed else "FAIL"
    print(f"criterion {number} [{report.experiment_id}]: {status} "
          f"({report.wall_time_s:.1f} s)")
    for c in report.criteria:
        mark = "ok" if c.passed else "FAIL"
        print(f"    {c.name}: {c.value!r} vs {c.tolerance!r} [{mark}]")
    assert report.passed, [c.name for c in report.criteria if not c.passed]
    return report


def test_criterion_1_semicircle_stability():
    report = _run(1, acceptance.criterion_1_semicircle_stability)
    assert report.metrics["runtime_s"] < 10.0


def test_criterion_2_bernoulli_arcsine():
    report = _run(2, acceptance.criterion_2_bernoulli_arcsine)
    assert report.metrics["m4"] == pytest.approx(6.0, rel=1e-2)


def test_criterion_3_pastur_consistency():
    report = _run(3, acceptance.criterion_3_pastur_consistency)
    assert report.metrics["runtime_s"] < 120.0


def test_criterion_4_multiplication_law():
    report = _run(4, acceptance.criterion_4_multiplication_law)
    assert report.metrics["m4"] == pytest.approx(55.0, rel=1e-2)


def test_criterion_5_s_transform_equivalence():
    report = _run(5, acceptance.criterion_5_s_transform_equivalence)
    assert report.metrics["max_coefficient_difference"] <= 1e-10


def test_criterion_6_generalized_addition():
    report = _run(6, acceptance.criterion_6_generalized_addition)
    assert report.metrics["max_analytic_residual"] <= 1e-12


def test_criterion_7_connected_moments():
    report = _run(7, acceptance.criterion_7_connected_moments)
    assert 0.85 <= report.metrics["ratio"] <= 1.15


def test_criterion_8_transform_round_trips():
    report = _run(8, acceptance.criterion_8_transform_round_trips)
    assert report.metrics["worst_inversion_residual"] <= 1e-12


def test_criterion_9_oracle_equivalence():
    report = _run(9, acceptance.criterion_9_oracle_equivalence)
    worst = max(v for k, v in report.metrics.items())
    assert worst <= 1e-2


def test_reports_are_self_contained():
    from freeconv.report import ReportDocument

    report = acceptance.criterion_5_s_transform_equivalence()
    back = ReportDocument.from_json(report.to_json())
    assert back.passed == report.passed
    assert back.metrics == report.metrics


def test_external_field_check_keeps_a_nan_residual(monkeypatch):
    # max(0.0, nan) is 0.0: a running Python max would pass a NaN residual
    from types import SimpleNamespace

    from freeconv.arithmetic import ExternalFieldSpec
    from freeconv.measures import dirac

    residuals = iter([float("nan"), 1e-15])
    monkeypatch.setattr(
        acceptance, "verify_generalized_addition_gaussian",
        lambda *case: SimpleNamespace(
            metrics={"max_residual": next(residuals)}))
    field = ExternalFieldSpec(dirac(0.0))
    metrics = acceptance.external_field_check(
        [(1.0, 1.0, field, [2.0]), (1.0, 2.0, field, [3.0])], 1.0, field,
        16, 20, 3)
    assert math.isnan(metrics["max_analytic_residual"])
