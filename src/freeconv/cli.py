"""Command-line runner: seed-pinned experiments driven by JSON configs.

Subcommands: law, transform, add, mul, sample, verify, selftest.  Exit
codes: 0 success, 1 invalid arguments, config or parameters, 2 a
verification tolerance failed, 3 a numerical pipeline failure.
``verify`` and ``selftest`` run the checks of ``acceptance``; this module
only turns config keys into their arguments and writes what they return.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from .acceptance import (
    DEFAULT_SEED,
    external_field_check,
    external_field_probes,
    monte_carlo_w1,
    oracle_moment_error,
    pastur_l1,
    run_all,
    verify_report,
)
from .arithmetic import RTransform, free_add, free_multiply
from .eigen import hermitian_eigenvalues
from .errors import NumericalError, ValidationError
from .measures import CONTOUR_LIMIT, LawSpec, make_law, write_density_csv
from .rmt import (
    EmpiricalSpectrum,
    EnsembleSpec,
    _finite_real,
    _integer,
    _positive_real,
    mc_free_add_experiment,
    mc_free_mul_experiment,
    sample_ensemble,
)
from .stieltjes import (
    DEFAULT_EPSILON_SCHEDULE,
    ContourSpec,
    cauchy_transform,
    principal_value_transform,
)

# The largest sizes a config may ask for: the nodes of a law's grid, of a
# contour or of a transform grid, the dimension of a random matrix (4096^2
# complex entries take 256 MiB), Monte Carlo trials or external-field
# probes, and the moment order of verify's oracle.
POINTS_LIMIT = 1_000_000
DIMENSION_LIMIT = 4096
COUNT_LIMIT = 10_000
ORDER_LIMIT = 64

# The keys each config object takes; any other key exits 1.  A command's
# config also takes ``base_seed``, verify's takes ``mode`` and
# ``tolerances`` and the keys of its mode, and an ensemble takes ``kind``,
# ``dimension`` and ``base_seed`` and the keys of its kind.
COMMAND_KEYS = {
    "law": ("law",),
    "transform": ("law", "transform", "grid", "imag_offset"),
    "add": ("law1", "law2", "contour"),
    "mul": ("law1", "law2", "contour"),
    "sample": ("experiment", "trials", "ensemble1", "ensemble2"),
    "selftest": (),
}
VERIFY_KEYS = {
    "add": ("law1", "law2", "contour", "dimension", "order", "trials"),
    "mul": ("law1", "law2", "contour", "dimension", "order", "trials"),
    "pastur": ("law", "sigma", "contour"),
    "external_field": ("field", "sigma1", "sigma2", "probes", "dimension",
                       "trials"),
}
ENSEMBLE_KEYS = {
    "gue": ("sigma",),
    "wishart": ("ratio",),
    "fixed_spectrum": ("measure",),
    "shifted_gue": ("sigma", "field"),
}
LAW_KEYS = ("kind", "params", "grid_points")
GRID_KEYS = ("lo", "hi", "points")
CONTOUR_KEYS = GRID_KEYS + ("epsilon_schedule",)


def _object(cfg, what, keys=None):
    """``cfg`` if it is a JSON object with no key outside ``keys`` (any
    keys for None), else a ValidationError that names the first other
    key."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"{what} must be a JSON object, not {cfg!r}")
    unknown = [] if keys is None else sorted(set(cfg) - set(keys))
    if unknown:
        raise ValidationError(
            f"unknown key {unknown[0]!r} in {what}, which takes "
            f"{', '.join(sorted(keys)) or 'no keys'}")
    return cfg


def _config(cfg, command):
    """``cfg`` if it has no key that ``command`` does not take."""
    return _object(cfg, f"the {command} config",
                   COMMAND_KEYS[command] + ("base_seed",))


def _numbers(values, count, what):
    """``values`` if a list of ``count`` numbers within ±CONTOUR_LIMIT (any
    number of them for a ``count`` of None), else a ValidationError."""
    if not (isinstance(values, list) and count in (None, len(values))
            and all(type(v) in (int, float) and abs(v) <= CONTOUR_LIMIT
                    for v in values)):
        raise ValidationError(f"{what} takes {count or 'a list of'} numbers "
                              f"within ±{CONTOUR_LIMIT:g}, not {values!r}")
    return values


def _nonnegative_real(value, name):
    """``value`` as a float if it is a finite real of at least 0 (not a
    bool), else a ValidationError."""
    if _finite_real(value, name) < 0:
        raise ValidationError(f"{name} must be nonnegative, not {value!r}")
    return float(value)


def measure_from_config(cfg):
    kind = _object(cfg, "a law", LAW_KEYS)["kind"]
    if kind not in LawSpec.KINDS:
        raise ValidationError(f"unknown law kind {kind!r}")
    params = cfg.get("params", [])
    if kind == "atom_list":
        pairs = params if isinstance(params, list) else [params]
        spec = LawSpec.atom_list([_numbers(p, 2, "an atom") for p in pairs])
    else:
        ctor = getattr(LawSpec, kind)
        count = len(inspect.signature(ctor).parameters)
        spec = ctor(*_numbers(params, count, f"law {kind!r}"))
    return make_law(spec, _integer(cfg.get("grid_points", 2000),
                                   "grid_points", 1, POINTS_LIMIT))


def _grid(cfg, points, what, keys):
    """The ``linspace`` of a ``lo``, ``hi``, ``points`` config object that
    takes ``keys``."""
    _object(cfg, what, keys)
    return np.linspace(_finite_real(cfg["lo"], "lo"),
                       _finite_real(cfg["hi"], "hi"),
                       _integer(cfg.get("points", points), "points", 1,
                                POINTS_LIMIT))


def contour_from_config(cfg) -> ContourSpec | None:
    if cfg is None:
        return None
    grid = _grid(cfg, 2000, "a contour", CONTOUR_KEYS)
    schedule = cfg.get("epsilon_schedule", list(DEFAULT_EPSILON_SCHEDULE))
    return ContourSpec(grid, np.asarray(
        _numbers(schedule, None, "epsilon_schedule"), dtype=float))


def ensemble_from_config(cfg, base_seed) -> EnsembleSpec:
    kind = _object(cfg, "an ensemble")["kind"]
    if kind not in tuple(ENSEMBLE_KEYS):
        raise ValidationError(f"unknown ensemble kind {kind!r}")
    _object(cfg, f"a {kind} ensemble",
            ENSEMBLE_KEYS[kind] + ("kind", "dimension", "base_seed"))
    n = _integer(cfg["dimension"], "dimension", 2, DIMENSION_LIMIT)
    seed = cfg.get("base_seed", base_seed)
    if kind == "gue":
        return EnsembleSpec.gue(cfg.get("sigma", 1.0), n, seed)
    if kind == "wishart":
        return EnsembleSpec.wishart(cfg.get("ratio", 1.0), n, seed)
    if kind == "fixed_spectrum":
        return EnsembleSpec.fixed_spectrum(measure_from_config(cfg["measure"]),
                                           n, seed)
    field = measure_from_config(cfg["field"])
    return EnsembleSpec.shifted_gue(cfg.get("sigma", 1.0), field, n, seed)


def _write_measure(mu, out_dir, stem):
    csv_path = out_dir / f"{stem}.csv"
    sidecar = out_dir / f"{stem}.atoms.json"
    write_density_csv(mu, csv_path, sidecar)
    return csv_path


def cmd_law(cfg, out_dir, seed):
    _config(cfg, "law")
    mu = measure_from_config(cfg["law"])
    _write_measure(mu, out_dir, "density")
    return 0


def cmd_transform(cfg, out_dir, seed):
    _config(cfg, "transform")
    mu = measure_from_config(cfg["law"])
    which = cfg["transform"]
    xs = _grid(cfg["grid"], 200, "grid", GRID_KEYS)
    offset = _finite_real(cfg.get("imag_offset", 1e-2), "imag_offset")
    # one evaluator (and one domain check) serves the whole grid
    if which in ("cauchy", "h"):
        lam = xs + 1j * offset
        vals = cauchy_transform(mu, lam)
        if which == "h":
            vals = lam * vals
    elif which == "pv":
        vals = [principal_value_transform(mu, float(x)) for x in xs]
    elif which == "r":
        rt = RTransform(mu)
        vals = [rt(complex(x, -offset)) for x in xs]
    else:
        raise ValidationError(f"unknown transform {which!r}")
    path = out_dir / f"transform_{which}.csv"
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for x, val in zip(xs, vals):
            val = complex(val)
            fh.write(f"{x:.17g},{val.real:.17g},{val.imag:.17g}\n")
    return 0


def cmd_add(cfg, out_dir, seed):
    if "pastur_cross_check" in cfg or "pastur_sigma" in cfg:
        raise ValidationError(
            "add no longer takes pastur_cross_check or pastur_sigma; run "
            "verify --mode pastur for the Pastur cross-check")
    _config(cfg, "add")
    mu1 = measure_from_config(cfg["law1"])
    mu2 = measure_from_config(cfg["law2"])
    out = free_add(mu1, mu2, contour_from_config(cfg.get("contour")))
    _write_measure(out, out_dir, "sum_density")
    return 0


def cmd_mul(cfg, out_dir, seed):
    _config(cfg, "mul")
    mu1 = measure_from_config(cfg["law1"])
    mu2 = measure_from_config(cfg["law2"])
    out = free_multiply(mu1, mu2, contour_from_config(cfg.get("contour")))
    _write_measure(out, out_dir, "product_density")
    return 0


def cmd_sample(cfg, out_dir, seed):
    _config(cfg, "sample")
    trials = _integer(cfg.get("trials", 20), "trials", 1, COUNT_LIMIT)
    experiment = cfg.get("experiment", "add")
    if experiment not in ("add", "mul"):
        raise ValidationError(
            f"experiment must be 'add' or 'mul', not {experiment!r}")
    spec1 = ensemble_from_config(cfg["ensemble1"], seed)
    if experiment == "mul":
        spec2 = ensemble_from_config(cfg["ensemble2"], seed)
        es = mc_free_mul_experiment(spec1, spec2, trials)
    elif "ensemble2" in cfg:
        spec2 = ensemble_from_config(cfg["ensemble2"], seed)
        es = mc_free_add_experiment(spec1, spec2, trials)
    else:
        rows = [hermitian_eigenvalues(sample_ensemble(spec1, t))
                for t in range(trials)]
        es = EmpiricalSpectrum(np.asarray(rows))
    es.to_csv(out_dir / "spectrum.csv")
    return 0


def cmd_verify(cfg, out_dir, seed):
    mode = cfg.get("mode", "add")
    if mode not in tuple(VERIFY_KEYS):
        raise ValidationError(f"unknown verify mode {mode!r}")
    _object(cfg, f"the verify {mode} config",
            VERIFY_KEYS[mode] + ("mode", "tolerances", "base_seed"))
    t0 = time.perf_counter()
    contour = contour_from_config(cfg.get("contour"))
    if mode in ("add", "mul"):
        mu1 = measure_from_config(cfg["law1"])
        mu2 = measure_from_config(cfg["law2"])
        dimension = _integer(cfg.get("dimension", 512), "dimension", 2,
                             DIMENSION_LIMIT)
        order = _integer(cfg.get("order", 8), "order", 1, ORDER_LIMIT)
        trials = _integer(cfg.get("trials", 10), "trials", 1, COUNT_LIMIT)
        out, err = oracle_moment_error(mode, mu1, mu2, order, contour)
        w1 = monte_carlo_w1(mode, out, mu1, mu2, dimension, trials, seed)
        metrics = {"moment_rel_error": err, "w1_vs_monte_carlo": w1}
        _write_measure(out, out_dir, f"{mode}_density")
    elif mode == "pastur":
        out, l1 = pastur_l1(measure_from_config(cfg["law"]),
                            _positive_real(cfg.get("sigma", 1.0), "sigma"),
                            contour)
        metrics = {"l1_vs_free_add": l1}
        _write_measure(out, out_dir, "pastur_density")
    else:
        field = measure_from_config(cfg["field"])
        sigma1 = _positive_real(cfg.get("sigma1", 1.0), "sigma1")
        sigma2 = _nonnegative_real(cfg.get("sigma2", 1.0), "sigma2")
        probes = external_field_probes(
            field, _integer(cfg.get("probes", 50), "probes", 0, COUNT_LIMIT),
            np.random.default_rng(seed))
        metrics = external_field_check(
            [(sigma1, sigma2, field, probes)], sigma1, field,
            _integer(cfg.get("dimension", 128), "dimension", 8,
                     DIMENSION_LIMIT),
            _integer(cfg.get("trials", 400), "trials", 1, COUNT_LIMIT), seed)
    report = verify_report(mode, {"config": cfg}, metrics, t0, seed,
                           cfg.get("tolerances"))
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    print(f"verify {mode}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def cmd_selftest(cfg, out_dir, seed):
    _config(cfg, "selftest")
    reports = run_all(seed=seed)
    combined = {
        "experiment_id": "selftest",
        "reports": [r.as_dict() for r in reports],
        "verdict": "pass" if all(r.passed for r in reports) else "fail",
    }
    (out_dir / "selftest_report.json").write_text(
        json.dumps(combined, indent=1) + "\n")
    return 0 if all(r.passed for r in reports) else 2


COMMANDS = {
    "law": cmd_law,
    "transform": cmd_transform,
    "add": cmd_add,
    "mul": cmd_mul,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "selftest": cmd_selftest,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Bad arguments are invalid input, exit code 1: argparse's own code,
    2, is the code of a failed tolerance."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _read_config(path):
    """The JSON object in the file at ``path``, or {} without a path."""
    if path is None:
        return {}
    try:
        # ValueError: bad UTF-8, bad JSON or an integer of too many digits
        cfg = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise ValidationError(f"cannot read config {str(path)!r}: {err}")
    return _object(cfg, "the config")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="freeconv",
        description="Free-probability spectral arithmetic and verification",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path,
                        help="JSON experiment config (optional for selftest)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config base seed")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    try:
        args = parser.parse_args(argv)
        cfg = _read_config(args.config)
        seed = _integer(cfg.get("base_seed", DEFAULT_SEED)
                        if args.seed is None else args.seed, "base_seed", 0)
        args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, seed)
    except (ValidationError, KeyError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
