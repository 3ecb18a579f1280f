import json
import subprocess
import sys

import numpy as np
import pytest

from freeconv.acceptance import (
    MC_FRACTION_FLOOR,
    VERIFY_TOLERANCES,
    external_field_check,
    monte_carlo_w1,
    oracle_moment_error,
    pastur_l1,
    scaled_moment_error,
)
from freeconv.arithmetic import free_add
from freeconv.cli import (
    contour_from_config,
    ensemble_from_config,
    main,
    measure_from_config,
)
from freeconv.eigen import hermitian_eigenvalues
from freeconv.measures import MomentVector, moment, read_density_csv
from freeconv.rmt import (
    EmpiricalSpectrum,
    mc_free_mul_experiment,
    sample_ensemble,
)
from freeconv.series import free_add_series

from oracles import total_mass


def write_config(tmp_path, name, payload):
    """Write ``payload`` as JSON, or as it is if it is already text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


def test_law_emits_normalized_density(tmp_path):
    cfg = write_config(tmp_path, "law.json", {
        "law": {"kind": "semicircle", "params": [1.0], "grid_points": 2000},
    })
    code = main(["law", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    mu = read_density_csv(tmp_path / "density.csv",
                          tmp_path / "density.atoms.json")
    assert abs(total_mass(mu) - 1.0) <= 1e-6


def test_transform_csv(tmp_path):
    cfg = write_config(tmp_path, "t.json", {
        "law": {"kind": "two_atom", "params": [0.5, -1.0, 1.0]},
        "transform": "cauchy",
        "grid": {"lo": -3.0, "hi": 3.0, "points": 33},
        "imag_offset": 0.05,
    })
    assert main(["transform", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "transform_cauchy.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 34


# transform, config and closed form of its values at each grid point x
TRANSFORM_CASES = {
    # the semicircle of variance 1 has R(w) = w; probes are w = x - 0.1i
    "r": ({"law": {"kind": "semicircle", "params": [1.0]},
           "grid": {"lo": -0.05, "hi": 0.05, "points": 5},
           "imag_offset": 0.1},
          lambda x: x - 0.1j, 1e-6),
    # h(lambda) = lambda G(lambda) = lambda / (lambda - 1) for a unit atom
    # at 1; probes are lambda = x + 0.05i
    "h": ({"law": {"kind": "atom_list", "params": [[1.0, 1.0]]},
           "grid": {"lo": -3.0, "hi": 3.0, "points": 13},
           "imag_offset": 0.05},
          lambda x: (x + 0.05j) / (x + 0.05j - 1.0), 1e-12),
    # the principal value of uniform(-1, 1) is log((1 + x)/(1 - x))/2
    "pv": ({"law": {"kind": "uniform", "params": [-1.0, 1.0]},
            "grid": {"lo": -0.85, "hi": 0.85, "points": 35}},
           lambda x: 0.5 * np.log((1.0 + x) / (1.0 - x)), 1e-12),
}


@pytest.mark.parametrize("which", sorted(TRANSFORM_CASES))
def test_transform_matches_its_closed_form(tmp_path, which):
    cfg, exact, tol = TRANSFORM_CASES[which]
    path = write_config(tmp_path, "t.json", {**cfg, "transform": which})
    assert main(["transform", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / f"transform_{which}.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    grid = cfg["grid"]
    assert np.array_equal(rows[:, 0], np.linspace(grid["lo"], grid["hi"],
                                                  grid["points"]))
    got = rows[:, 1] + 1j * rows[:, 2]
    assert np.max(np.abs(got - exact(rows[:, 0]))) <= tol


def test_invalid_config_exits_one(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {
        "law": {"kind": "semicircle", "params": [-1.0]},
    })
    assert main(["law", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_sample_spectrum_csv_and_determinism(tmp_path):
    payload = {
        "ensemble1": {"kind": "gue", "sigma": 1.0, "dimension": 32},
        "ensemble2": {"kind": "gue", "sigma": 1.0, "dimension": 32},
        "trials": 3,
        "base_seed": 5,
    }
    cfg = write_config(tmp_path, "s.json", payload)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["sample", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == \
        (out2 / "spectrum.csv").read_bytes()
    # a different seed changes the draw
    out3 = tmp_path / "run3"
    assert main(["sample", "--config", str(cfg), "--seed", "6",
                 "--out", str(out3)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() != \
        (out3 / "spectrum.csv").read_bytes()


def test_verify_add_passes_and_report_is_deterministic(tmp_path):
    payload = {
        "mode": "add",
        "law1": {"kind": "semicircle", "params": [1.0], "grid_points": 1200},
        "law2": {"kind": "semicircle", "params": [1.0], "grid_points": 1200},
        "contour": {"lo": -4.0, "hi": 4.0, "points": 700},
        "dimension": 128,
        "trials": 4,
        "base_seed": 11,
        "tolerances": {"w1_vs_monte_carlo": 0.08},
    }
    cfg = write_config(tmp_path, "v.json", payload)
    out1 = tmp_path / "v1"
    out2 = tmp_path / "v2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2
    assert r1["verdict"] == "pass"
    # every stored verdict must be recomputable from value and tolerance
    from freeconv.report import ReportDocument

    ReportDocument.from_json((out1 / "report.json").read_text())
    # density CSVs byte-identical across reruns
    assert (out1 / "add_density.csv").read_bytes() == \
        (out2 / "add_density.csv").read_bytes()


def test_verify_with_absurd_tolerance_exits_two(tmp_path):
    payload = {
        "mode": "add",
        "law1": {"kind": "semicircle", "params": [1.0], "grid_points": 1200},
        "law2": {"kind": "semicircle", "params": [1.0], "grid_points": 1200},
        "contour": {"lo": -4.0, "hi": 4.0, "points": 700},
        "dimension": 128,
        "trials": 4,
        "base_seed": 11,
        "tolerances": {"moment_rel_error": 1e-9,
                       "w1_vs_monte_carlo": 1e-9},
    }
    cfg = write_config(tmp_path, "v.json", payload)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "fail"
    failing = [c for c in report["criteria"] if not c["passed"]]
    assert failing


def test_verify_moment_error_is_the_acceptance_metric(tmp_path):
    # The largest error of this symmetric sum is in an odd moment, where
    # the Cauchy-Schwarz scale is 7x larger than max(1, |m|).
    payload = {
        "mode": "add",
        "law1": {"kind": "semicircle", "params": [1.0], "grid_points": 400},
        "law2": {"kind": "uniform", "params": [-1.0, 1.0], "grid_points": 400},
        "contour": {"lo": -4.0, "hi": 4.0, "points": 400},
        "dimension": 32,
        "trials": 1,
    }
    cfg = write_config(tmp_path, "v.json", payload)
    main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    mu1 = measure_from_config(payload["law1"])
    mu2 = measure_from_config(payload["law2"])
    out = free_add(mu1, mu2, contour_from_config(payload["contour"]))
    expected = free_add_series(MomentVector.from_measure(mu1, 8),
                               MomentVector.from_measure(mu2, 8))
    got = MomentVector.from_measure(out, 8)
    assert report["metrics"]["moment_rel_error"] == \
        scaled_moment_error(got.m, expected.m)


def test_narrow_contour_exits_three(tmp_path):
    payload = {
        "law1": {"kind": "semicircle", "params": [1.0], "grid_points": 400},
        "law2": {"kind": "semicircle", "params": [1.0], "grid_points": 400},
        "contour": {"lo": -0.5, "hi": 0.5, "points": 200},
    }
    cfg = write_config(tmp_path, "narrow.json", payload)
    assert main(["add", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_verify_external_field(tmp_path):
    payload = {
        "mode": "external_field",
        "field": {"kind": "two_atom", "params": [0.5, -1.0, 1.0]},
        "sigma1": 1.0,
        "sigma2": 2.0,
        "dimension": 64,
        "trials": 200,
        "base_seed": 11,
    }
    cfg = write_config(tmp_path, "ef.json", payload)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "freeconv.cli", "law", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def test_add_writes_the_sum_density(tmp_path):
    cfg = write_config(tmp_path, "add.json", {
        "law1": {"kind": "semicircle", "params": [1.0], "grid_points": 400},
        "law2": {"kind": "semicircle", "params": [1.0], "grid_points": 400},
        "contour": {"lo": -4.0, "hi": 4.0, "points": 400},
    })
    assert main(["add", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    mu = read_density_csv(tmp_path / "sum_density.csv",
                          tmp_path / "sum_density.atoms.json")
    assert abs(total_mass(mu) - 1.0) <= 1e-6
    # semicircle variances add: 1 + 1
    assert moment(mu, 2) == pytest.approx(2.0, rel=1e-2)


def test_mul_writes_the_product_density(tmp_path):
    payload = {
        "law1": {"kind": "marchenko_pastur", "params": [1.0],
                 "grid_points": 400},
        "law2": {"kind": "uniform", "params": [0.5, 1.5], "grid_points": 400},
    }
    cfg = write_config(tmp_path, "mul.json", payload)
    assert main(["mul", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    mu = read_density_csv(tmp_path / "product_density.csv",
                          tmp_path / "product_density.atoms.json")
    # free means multiply, to the 1e-3 free_multiply itself enforces (the
    # 400-cell MP(1) law has mean 1.0025)
    expected = moment(measure_from_config(payload["law1"]), 1) * \
        moment(measure_from_config(payload["law2"]), 1)
    assert moment(mu, 1) == pytest.approx(expected, rel=1e-3)


def test_add_with_pastur_cross_check_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "add.json", {
        "law1": {"kind": "two_atom", "params": [0.5, -1.0, 1.0]},
        "law2": {"kind": "semicircle", "params": [1.0]},
        "pastur_cross_check": True,
        "pastur_sigma": 1.0,
    })
    assert main(["add", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "verify --mode pastur" in capsys.readouterr().err
    assert not (tmp_path / "sum_density.csv").exists()


def test_sample_mul_experiment(tmp_path):
    payload = {
        "experiment": "mul",
        "ensemble1": {"kind": "wishart", "ratio": 1.0, "dimension": 16},
        "ensemble2": {"kind": "wishart", "ratio": 0.5, "dimension": 16},
        "trials": 2,
        "base_seed": 3,
    }
    cfg = write_config(tmp_path, "s.json", payload)
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    got = EmpiricalSpectrum.from_csv(tmp_path / "spectrum.csv")
    expected = mc_free_mul_experiment(
        ensemble_from_config(payload["ensemble1"], 3),
        ensemble_from_config(payload["ensemble2"], 3), 2)
    np.testing.assert_array_equal(got.eigenvalues, expected.eigenvalues)
    assert np.all(got.eigenvalues > -1e-12)


def test_sample_one_ensemble(tmp_path):
    payload = {
        "ensemble1": {"kind": "fixed_spectrum", "dimension": 16,
                      "measure": {"kind": "two_atom",
                                  "params": [0.5, -1.0, 1.0]}},
        "trials": 3,
        "base_seed": 4,
    }
    cfg = write_config(tmp_path, "s.json", payload)
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    got = EmpiricalSpectrum.from_csv(tmp_path / "spectrum.csv")
    spec = ensemble_from_config(payload["ensemble1"], 4)
    expected = [hermitian_eigenvalues(sample_ensemble(spec, t))
                for t in range(3)]
    np.testing.assert_array_equal(got.eigenvalues, np.asarray(expected))
    # a rotated two-point spectrum keeps its eigenvalues
    np.testing.assert_allclose(np.abs(got.eigenvalues), 1.0, atol=1e-12)


def _pair_metrics(mode, cfg, seed):
    mu1 = measure_from_config(cfg["law1"])
    mu2 = measure_from_config(cfg["law2"])
    out, err = oracle_moment_error(mode, mu1, mu2, 8,
                                   contour_from_config(cfg.get("contour")))
    w1 = monte_carlo_w1(mode, out, mu1, mu2, cfg["dimension"],
                        cfg["trials"], seed)
    return {"moment_rel_error": err, "w1_vs_monte_carlo": w1}


def _pastur_metrics(mode, cfg, seed):
    _, l1 = pastur_l1(measure_from_config(cfg["law"]), cfg["sigma"],
                      contour_from_config(cfg["contour"]))
    return {"l1_vs_free_add": l1}


def _external_field_metrics(mode, cfg, seed):
    field = measure_from_config(cfg["field"])
    hi = field.support()[1]
    probes = np.random.default_rng(seed).uniform(hi + 0.5, hi + 3.0,
                                                 cfg["probes"])
    return external_field_check(
        [(cfg["sigma1"], cfg["sigma2"], field, probes)], cfg["sigma1"],
        field, cfg["dimension"], cfg["trials"], seed)


VERIFY_CASES = {
    "add": ({
        "law1": {"kind": "semicircle", "params": [1.0], "grid_points": 400},
        "law2": {"kind": "uniform", "params": [-1.0, 1.0],
                 "grid_points": 400},
        "contour": {"lo": -4.0, "hi": 4.0, "points": 400},
        "dimension": 32,
        "trials": 2,
    }, _pair_metrics),
    "mul": ({
        "law1": {"kind": "marchenko_pastur", "params": [1.0],
                 "grid_points": 400},
        "law2": {"kind": "uniform", "params": [0.5, 1.5], "grid_points": 400},
        "dimension": 32,
        "trials": 2,
    }, _pair_metrics),
    "pastur": ({
        "law": {"kind": "two_atom", "params": [0.5, -1.0, 1.0]},
        "sigma": 0.8,
        "contour": {"lo": -3.5, "hi": 3.5, "points": 600},
    }, _pastur_metrics),
    "external_field": ({
        "field": {"kind": "two_atom", "params": [0.25, -2.0, 0.5]},
        "sigma1": 1.5,
        "sigma2": 0.7,
        "probes": 10,
        "dimension": 32,
        "trials": 50,
    }, _external_field_metrics),
}


@pytest.mark.parametrize("mode", sorted(VERIFY_CASES))
def test_verify_reports_the_shared_check_values(tmp_path, mode):
    cfg, metrics_of = VERIFY_CASES[mode]
    path = write_config(tmp_path, "v.json", {"mode": mode, **cfg})
    code = main(["verify", "--config", str(path), "--out", str(tmp_path),
                 "--seed", "5"])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metrics"] == metrics_of(mode, cfg, 5)
    assert code == 0 and report["verdict"] == "pass"
    for c in report["criteria"]:
        if c["name"] == "mc_fraction_within_3_stderr":
            assert (c["tolerance"], c["comparator"]) == \
                (MC_FRACTION_FLOOR, ">=")
        else:
            assert c["tolerance"] == VERIFY_TOLERANCES[c["name"]]
    if mode in ("add", "mul", "pastur"):
        assert (tmp_path / f"{mode}_density.csv").exists()


def test_verify_external_field_rejects_a_small_dimension(tmp_path):
    cfg, _ = VERIFY_CASES["external_field"]
    path = write_config(tmp_path, "v.json", {"mode": "external_field", **cfg,
                                             "dimension": 4})
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path)]) == 1


def test_verify_external_field_without_probes_has_zero_residual(tmp_path):
    cfg, _ = VERIFY_CASES["external_field"]
    path = write_config(tmp_path, "v.json", {"mode": "external_field", **cfg,
                                             "probes": 0})
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metrics"]["max_analytic_residual"] == 0.0
    assert report["verdict"] == "pass"


def test_verify_external_field_takes_a_zero_sigma2(tmp_path, capsys):
    # a field coupled to one Gaussian: sigma2 = 0 is a valid input; the
    # Monte Carlo half samples at sigma1, which must be positive
    cfg, _ = VERIFY_CASES["external_field"]
    path = write_config(tmp_path, "v.json", {"mode": "external_field", **cfg,
                                             "sigma2": 0})
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path)]) in (0, 2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert np.isfinite(report["metrics"]["max_analytic_residual"])
    path = write_config(tmp_path, "v.json", {"mode": "external_field", **cfg,
                                             "sigma1": 0})
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "sigma1 must be positive" in capsys.readouterr().err


LAW_CONFIG = {"law": {"kind": "semicircle", "params": [1.0],
                      "grid_points": 200}}
ADD_LAWS = {"law1": {"kind": "semicircle", "params": [1.0],
                     "grid_points": 200},
            "law2": {"kind": "semicircle", "params": [1.0],
                     "grid_points": 200}}

BAD_INPUTS = {
    "unknown_command": (["nope"], LAW_CONFIG),
    "unknown_flag": (["law", "--no-such-flag"], LAW_CONFIG),
    "removed_tolerance_scale": (["law", "--tolerance-scale", "2"],
                                LAW_CONFIG),
    "bad_flag_value": (["law", "--seed", "x"], LAW_CONFIG),
    "missing_config_file": (["law"], None),
    "config_is_a_list": (["law"], [LAW_CONFIG]),
    "law_is_a_list": (["law"], {"law": ["semicircle", 1.0]}),
    "kind_names_a_class_attribute": (["law"],
                                     {"law": {"kind": "KINDS"}}),
    "param_is_a_string": (["law"], {"law": {"kind": "semicircle",
                                            "params": ["a"]}}),
    "too_many_params": (["law"], {"law": {"kind": "semicircle",
                                          "params": [1.0, 2.0]}}),
    "atom_is_a_number": (["law"], {"law": {"kind": "atom_list",
                                           "params": [0.5]}}),
    "dimension_is_a_string": (["sample"], {"ensemble1": {
        "kind": "gue", "dimension": "a"}}),
    "dimension_is_fractional": (["sample"], {"ensemble1": {
        "kind": "gue", "dimension": 16.5}}),
    "sigma_is_a_bool": (["sample"], {"ensemble1": {
        "kind": "gue", "dimension": 16, "sigma": True}}),
    "ratio_is_nan": (["sample"], {"ensemble1": {
        "kind": "wishart", "dimension": 16, "ratio": float("nan")}}),
    "add_trials_is_a_bool": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16},
        "ensemble2": {"kind": "gue", "dimension": 16}, "trials": True}),
    "mul_trials_is_fractional": (["sample"], {
        "experiment": "mul",
        "ensemble1": {"kind": "wishart", "dimension": 16},
        "ensemble2": {"kind": "wishart", "dimension": 16}, "trials": 2.5}),
    "one_ensemble_trials_is_a_string": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16}, "trials": "3"}),
    "tolerance_names_no_metric": (["verify"], {
        "mode": "pastur", **VERIFY_CASES["pastur"][0],
        "tolerances": {"l1_vs_free_ad": 1e-9}}),
    "tolerance_is_a_string": (["verify"], {
        "mode": "pastur", **VERIFY_CASES["pastur"][0],
        "tolerances": {"l1_vs_free_add": "1e-9"}}),
    "unknown_transform": (["transform"], {
        **LAW_CONFIG, "transform": "s",
        "grid": {"lo": -3.0, "hi": 3.0, "points": 10}}),
    "grid_points_is_a_string": (["law"], {"law": {
        "kind": "semicircle", "params": [1.0], "grid_points": "x"}}),
    "contour_lo_is_a_string": (["add"], {
        **ADD_LAWS, "contour": {"lo": "a", "hi": 3.0, "points": 100}}),
    "contour_points_is_fractional": (["add"], {
        **ADD_LAWS, "contour": {"lo": -3.0, "hi": 3.0, "points": 2.5}}),
    # sizes past POINTS_LIMIT and DIMENSION_LIMIT, which numpy would
    # reject with a traceback
    "grid_points_is_huge": (["law"], {"law": {
        "kind": "semicircle", "params": [1.0], "grid_points": 10 ** 400}}),
    "contour_points_is_huge": (["add"], {
        **ADD_LAWS, "contour": {"lo": -3.0, "hi": 3.0, "points": 10 ** 400}}),
    "dimension_is_huge": (["sample"], {"ensemble1": {
        "kind": "gue", "dimension": 10 ** 400}}),
    "transform_grid_lo_is_a_string": (["transform"], {
        **LAW_CONFIG, "transform": "cauchy",
        "grid": {"lo": "a", "hi": 3.0, "points": 10}}),
    "imag_offset_is_a_string": (["transform"], {
        **LAW_CONFIG, "transform": "cauchy",
        "grid": {"lo": -3.0, "hi": 3.0, "points": 10}, "imag_offset": "a"}),
    "verify_order_is_a_string": (["verify"], {
        "mode": "add", **VERIFY_CASES["add"][0], "order": "a"}),
    "probes_is_negative": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "probes": -1}),
    "pastur_sigma_is_a_string": (["verify"], {
        "mode": "pastur", **VERIFY_CASES["pastur"][0], "sigma": "a"}),
    "pastur_sigma_is_a_bool": (["verify"], {
        "mode": "pastur", **VERIFY_CASES["pastur"][0], "sigma": True}),
    "field_sigma1_is_a_string": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "sigma1": "a"}),
    "field_sigma2_is_a_string": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "sigma2": "a"}),
    "field_sigma2_is_negative": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "sigma2": -0.5}),
    "epsilon_schedule_is_a_string": (["add"], {
        **ADD_LAWS, "contour": {"lo": -3.0, "hi": 3.0, "points": 100,
                                "epsilon_schedule": "a"}}),
    "contour_hi_is_huge": (["add"], {
        **ADD_LAWS, "contour": {"lo": -3.0, "hi": 1e308, "points": 100}}),
    "sample_experiment_is_unknown": (["sample"], {
        "experiment": "mull",
        "ensemble1": {"kind": "gue", "dimension": 16},
        "ensemble2": {"kind": "gue", "dimension": 16}}),
    "base_seed_is_a_string": (["sample"], {
        "base_seed": "a", "ensemble1": {"kind": "gue", "dimension": 16}}),
    "ensemble_base_seed_is_negative": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16, "base_seed": -1}}),
    "field_dimension_is_a_string": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "dimension": "a"}),
    "field_trials_is_a_string": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "trials": "a"}),
    "law_param_is_nan": (["law"], {"law": {
        "kind": "semicircle", "params": [float("nan")]}}),
    "atom_position_is_infinite": (["law"], {"law": {
        "kind": "atom_list", "params": [[float("inf"), 1.0]]}}),
    "law_param_is_huge": (["law"], {"law": {
        "kind": "semicircle", "params": [1e308]}}),
    "transform_law_param_is_huge": (["transform"], {
        "law": {"kind": "semicircle", "params": [1e308]}, "transform": "h",
        "grid": {"lo": -3.0, "hi": 3.0, "points": 10}}),
    "epsilon_schedule_is_huge": (["add"], {
        **ADD_LAWS, "contour": {"lo": -3.0, "hi": 3.0, "points": 100,
                                "epsilon_schedule": [1e308, 0.01]}}),
    "field_sigma1_is_huge": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "sigma1": 1e308}),
    "law_param_is_a_huge_integer": (["law"], {"law": {
        "kind": "semicircle", "params": [10 ** 400]}}),
    "law_sets_output": (["law"], {**LAW_CONFIG, "output": "a/b"}),
    # counts past TRIALS_LIMIT, PROBES_LIMIT and ORDER_LIMIT, which would
    # run for hours or end in a numpy traceback
    "sample_trials_is_huge": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16}, "trials": 10 ** 400}),
    "verify_order_is_huge": (["verify"], {
        "mode": "add", **VERIFY_CASES["add"][0], "order": 10 ** 400}),
    "verify_trials_is_huge": (["verify"], {
        "mode": "mul", **VERIFY_CASES["mul"][0], "trials": 10 ** 400}),
    "field_probes_is_huge": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "probes": 10 ** 400}),
    "field_trials_is_huge": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "trials": 10 ** 400}),
    # json.loads raises a plain ValueError on an integer of more than
    # 4300 digits
    "config_integer_past_the_digit_limit": (
        ["sample"], '{"trials": ' + "9" * 5000 + "}"),
    "transform_h_on_the_support": (["transform"], {
        **LAW_CONFIG, "transform": "h", "imag_offset": 0.0,
        "grid": {"lo": -1.0, "hi": 1.0, "points": 10}}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one(tmp_path, capsys, case):
    args, payload = BAD_INPUTS[case]
    path = tmp_path / "missing.json"
    if payload is not None:
        path = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(args + ["--config", str(path), "--out", str(out)]) == 1
    assert "invalid input: " in capsys.readouterr().err
    assert not (out / "density.csv").exists()



# One misspelled key per command and per kind of config object: each would
# be ignored, and its default used, if unknown keys were not rejected.
UNKNOWN_KEYS = {
    "law": (["law"], {**LAW_CONFIG, "lawz": 1}, "lawz"),
    "transform": (["transform"], {
        **LAW_CONFIG, "transform": "cauchy", "imag_ofset": 0.5,
        "grid": {"lo": -3.0, "hi": 3.0, "points": 10}}, "imag_ofset"),
    "add": (["add"], {
        **ADD_LAWS, "contuor": {"lo": -3.0, "hi": 3.0, "points": 100}},
        "contuor"),
    "mul": (["mul"], {
        "law1": {"kind": "uniform", "params": [0.5, 1.5], "grid_points": 100},
        "law2": {"kind": "uniform", "params": [0.5, 1.5], "grid_points": 100},
        "countour": {"lo": 0.2, "hi": 2.3, "points": 100}}, "countour"),
    "sample": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16}, "trails": 1},
        "trails"),
    "verify": (["verify"], {
        "mode": "pastur", **VERIFY_CASES["pastur"][0], "sigam": 0.5},
        "sigam"),
    "selftest": (["selftest"], {"base_sed": 3}, "base_sed"),
    "law_object": (["law"], {"law": {
        "kind": "semicircle", "params": [1.0], "grid_point": 100}},
        "grid_point"),
    "contour_object": (["add"], {
        **ADD_LAWS, "contour": {"lo": -3.0, "hi": 3.0, "point": 100}},
        "point"),
    "grid_object": (["transform"], {
        **LAW_CONFIG, "transform": "cauchy",
        "grid": {"lo": -3.0, "hi": 3.0, "point": 10}}, "point"),
    "ensemble_object": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16, "sigam": 2.0},
        "trials": 1}, "sigam"),
    # a key of another kind or mode is unknown too
    "ratio_of_a_gue": (["sample"], {
        "ensemble1": {"kind": "gue", "dimension": 16, "ratio": 2.0},
        "trials": 1}, "ratio"),
    "contour_of_external_field": (["verify"], {
        "mode": "external_field", **VERIFY_CASES["external_field"][0],
        "contour": {"lo": -3.0, "hi": 3.0}}, "contour"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_an_unknown_key_exits_one(tmp_path, capsys, case):
    args, payload, key = UNKNOWN_KEYS[case]
    path = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(args + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and repr(key) in err
    assert not any(out.iterdir())
