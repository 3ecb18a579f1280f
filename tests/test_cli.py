import json
import subprocess
import sys

from freeconv.acceptance import scaled_moment_error
from freeconv.arithmetic import free_add
from freeconv.cli import contour_from_config, main, measure_from_config
from freeconv.measures import MomentVector, read_density_csv
from freeconv.series import free_add_series


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_law_emits_normalized_density(tmp_path):
    cfg = write_config(tmp_path, "law.json", {
        "law": {"kind": "semicircle", "params": [1.0], "grid_points": 2000},
    })
    code = main(["law", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    mu = read_density_csv(tmp_path / "density.csv",
                          tmp_path / "density.atoms.json")
    assert abs(mu.mass - 1.0) <= 1e-6


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
