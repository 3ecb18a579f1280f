"""Acceptance criteria, each at its pinned tolerance.

Every test prints a one-line pass/fail verdict for its criterion, and the
suite as a whole is what `freeconv selftest` replays.  ``run_all`` and
``selftest`` themselves run here on stub criteria.
"""

import json
import math

import pytest

from freeconv import acceptance
from freeconv.cli import main
from freeconv.report import CriterionRecord, ReportDocument


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
    from freeconv.arithmetic import external_field_lambda_gaussian
    from freeconv.measures import dirac

    # the first case's probe gives a NaN lambda, the second case's does not
    monkeypatch.setattr(
        acceptance, "external_field_lambda_gaussian",
        lambda sigma, field, a: (float("nan") if a == 2.0 else
                                 external_field_lambda_gaussian(sigma, field,
                                                                a)))
    field = dirac(0.0)
    metrics = acceptance.external_field_check(
        [(1.0, 1.0, field, [2.0]), (1.0, 2.0, field, [3.0])], 1.0, field,
        16, 20, 3)
    assert math.isnan(metrics["max_analytic_residual"])


def _stub_criteria(calls, second_value):
    """A seeded criterion that passes and an unseeded one whose value is
    ``second_value`` against a bound of 1.0; each call is logged."""
    def seeded(seed):
        calls.append(("seeded", seed))
        return ReportDocument("stub_seeded", {}, {},
                              (CriterionRecord("x", 0.5, 1.0),), seed=seed)

    def unseeded():
        calls.append(("unseeded",))
        return ReportDocument("stub_unseeded", {}, {},
                              (CriterionRecord("y", second_value, 1.0),))

    return (("1", seeded, True), ("2", unseeded, False))


def test_run_all_seeds_only_seeded_criteria_and_logs_failures(monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", _stub_criteria(calls, 2.0))
    lines = []
    reports = acceptance.run_all(seed=7, log=lines.append)
    assert calls == [("seeded", 7), ("unseeded",)]
    assert [r.experiment_id for r in reports] == ["stub_seeded",
                                                  "stub_unseeded"]
    assert lines[0].startswith("criterion 1 [stub_seeded]: pass")
    assert lines[1].startswith("criterion 2 [stub_unseeded]: FAIL")
    assert lines[2:] == ["    y: value 2.0 vs tolerance 1.0"]


@pytest.mark.parametrize("second_value, code, verdict",
                         [(0.5, 0, "pass"), (2.0, 2, "fail")])
def test_selftest_writes_the_combined_report(monkeypatch, tmp_path,
                                             second_value, code, verdict):
    calls = []
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        _stub_criteria(calls, second_value))
    assert main(["selftest", "--out", str(tmp_path), "--seed", "3"]) == code
    assert calls == [("seeded", 3), ("unseeded",)]
    combined = json.loads((tmp_path / "selftest_report.json").read_text())
    assert combined["verdict"] == verdict
    assert [r["experiment_id"] for r in combined["reports"]] == \
        ["stub_seeded", "stub_unseeded"]
    assert combined["reports"][0]["seed"] == 3
