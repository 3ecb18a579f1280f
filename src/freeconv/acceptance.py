"""The acceptance suite: nine named checks, each returning a ReportDocument.

These are the package's exit criteria.  The numerical modules return
numbers; every tolerance and every report is built here.  ``run_all`` is
what the CLI selftest executes and what the test suite asserts on.  The
checks ``freeconv verify`` runs live here too: ``oracle_moment_error``,
``pastur_l1`` and ``external_field_check`` serve criteria 9, 3 and 6 and
the verify modes alike, and ``verify_report`` holds verify's default
tolerances.
"""

from __future__ import annotations

import time

import numpy as np

from .arithmetic import (
    ExternalFieldSpec,
    external_field_lambda_gaussian,
    free_add,
    free_multiply,
    invert_cauchy,
    pastur_add_gaussian,
)
from .errors import ValidationError
from .measures import (
    LawSpec,
    MomentVector,
    density_l1_distance,
    dirac,
    make_law,
    moment,
    support_interval,
    wasserstein1,
    wasserstein1_empirical,
)
from .report import CriterionRecord, ReportDocument
from .rmt import (
    EnsembleSpec,
    mc_free_add_experiment,
    mc_free_mul_experiment,
    sample_ensemble,
)
from .series import (
    free_add_series,
    free_multiply_series,
    free_multiply_series_h_route,
)
from .stieltjes import (
    MeasureResolvent,
    default_contour,
    principal_value_transform,
    stieltjes_invert,
)

DEFAULT_SEED = 11


def _moment_scales(m: np.ndarray) -> np.ndarray:
    """Natural magnitude scale per moment order.

    Odd moments of near-symmetric measures vanish, so plain relative error
    is meaningless there; the Cauchy-Schwarz envelope |m_n| <=
    sqrt(m_{n-1} m_{n+1}) (even neighbors) supplies the right scale.
    """
    full = np.concatenate([[1.0], np.asarray(m, dtype=float)])
    scales = np.maximum(1.0, np.abs(m)).astype(float)
    for n in range(1, len(m) + 1):
        if n % 2 == 1 and n + 1 < len(full):
            envelope = np.sqrt(max(full[n - 1] * full[n + 1], 0.0))
            scales[n - 1] = max(scales[n - 1], envelope)
    return scales


def scaled_moment_error(got: np.ndarray, expected: np.ndarray) -> float:
    """Largest moment error of ``got`` against ``expected``, each order
    divided by its ``_moment_scales`` scale; the one moment-error metric
    of the acceptance suite and ``cli verify``."""
    return float(np.max(np.abs(got - expected) / _moment_scales(expected)))


def _report(experiment_id, inputs, metrics, criteria, t0, seed=None):
    return ReportDocument(
        experiment_id=experiment_id,
        inputs=inputs,
        metrics=metrics,
        criteria=tuple(criteria),
        wall_time_s=time.perf_counter() - t0,
        seed=seed,
    )


# -- checks shared with ``freeconv verify`` -----------------------------------

_PAIR_OPERATIONS = {
    "add": (free_add, free_add_series, mc_free_add_experiment),
    "mul": (free_multiply, free_multiply_series, mc_free_mul_experiment),
}

# Default tolerance of each ``freeconv verify`` metric.  The Monte Carlo
# fraction is a floor that neither overrides nor the tolerance scale move.
VERIFY_TOLERANCES = {
    "moment_rel_error": 1e-2,
    "w1_vs_monte_carlo": 0.05,
    "l1_vs_free_add": 1e-2,
    "max_analytic_residual": 1e-12,
}
MC_FRACTION_FLOOR = 0.95


def oracle_moment_error(operation, mu1, mu2, order, contour=None):
    """Run the ``operation`` pipeline ("add" or "mul") on two measures;
    returns its output and the output's ``scaled_moment_error`` through
    order ``order`` against the series oracle on the operands' moments."""
    pipeline, series, _ = _PAIR_OPERATIONS[operation]
    out = pipeline(mu1, mu2, contour)
    expected = series(MomentVector.from_measure(mu1, order),
                      MomentVector.from_measure(mu2, order))
    got = MomentVector.from_measure(out, order)
    return out, scaled_moment_error(got.m, expected.m)


def monte_carlo_w1(operation, out, mu1, mu2, dimension, trials, seed):
    """W1 distance from ``out`` to the pooled spectra of ``trials`` free
    sums or products of two ``dimension``-square fixed-spectrum matrices."""
    experiment = _PAIR_OPERATIONS[operation][2]
    es = experiment(EnsembleSpec.fixed_spectrum(mu1, dimension, seed),
                    EnsembleSpec.fixed_spectrum(mu2, dimension, seed + 1),
                    trials)
    return wasserstein1_empirical(es.pooled(), out)


def pastur_l1(mu, sigma, contour=None):
    """The Pastur solver's law of ``mu`` plus a Gaussian of scale
    ``sigma``, and its L1 distance to ``free_add`` of ``mu`` and the
    2000-cell semicircle of radius ``2 * sigma``."""
    out = pastur_add_gaussian(mu, sigma, contour)
    semi = make_law(LawSpec.semicircle(sigma), 2000)
    return out, density_l1_distance(out, free_add(mu, semi, contour))


def _additivity_residuals(sigma1, sigma2, field, probes):
    """lambda_1 + lambda_2 - lambda_12 - pv at each probe a: the inverse
    resolvents of two Gaussians of scales sigma1 and sigma2 in a common
    external field, of their sum (scale hypot(sigma1, sigma2)), and the
    field's principal-value transform.  Additivity makes each one 0."""
    sigma_sum = float(np.hypot(sigma1, sigma2))
    return np.array([
        external_field_lambda_gaussian(sigma1, field, a)
        + external_field_lambda_gaussian(sigma2, field, a)
        - external_field_lambda_gaussian(sigma_sum, field, a)
        - principal_value_transform(field.measure, a)
        for a in np.asarray(probes, dtype=float)])


def _diagonal_deviations(sigma, field, dimension, trials, seed):
    """|<M_jj> - sigma^2 a_j| for each j, the diagonal averages of
    ``trials`` draws of the Gaussian of scale ``sigma`` in ``field`` against
    the completed-square shift, and their standard error
    sigma / sqrt(dimension * trials)."""
    if dimension < 8:
        raise ValidationError("dimension must be at least 8")
    spec = EnsembleSpec.shifted_gue(sigma, field, dimension, seed)
    acc = np.zeros(dimension)
    for t in range(trials):
        acc += np.real(np.diagonal(sample_ensemble(spec, t)))
    expected = sigma ** 2 * field.eigenvalues(dimension)
    return (np.abs(acc / trials - expected),
            sigma / np.sqrt(dimension * trials))


def _connected_moments(sigma, dimension, trials, seed):
    """The ratio Var(M_11) N^2 / <tr M^2> over ``trials`` draws of the
    invariant Gaussian, which the planar connected-moment relation fixes
    at 1 for every N and sigma, with its standard deviation and both
    factors."""
    spec = EnsembleSpec.gue(sigma, dimension, seed)
    m11 = np.empty(trials)
    tr2 = np.empty(trials)
    for t in range(trials):
        m = sample_ensemble(spec, t)
        m11[t] = m[0, 0].real
        tr2[t] = float(np.sum(np.abs(m) ** 2))
    var11 = float(np.var(m11, ddof=1))
    mean_tr2 = float(np.mean(tr2))
    ratio = var11 * dimension ** 2 / mean_tr2
    return {"ratio": ratio, "ratio_std": ratio * np.sqrt(2.0 / (trials - 1)),
            "var_m11": var11, "mean_tr_m2": mean_tr2}


def external_field_check(cases, mc_sigma, mc_field, dimension, trials, seed):
    """The worst external-field additivity residual over ``cases``, each a
    (sigma1, sigma2, field, probes) tuple, and the fraction of sampled
    diagonal averages of a ``mc_sigma`` Gaussian in ``mc_field`` within 3
    standard errors of the analytic shift.  No probes give a residual of
    0; a NaN residual makes the worst one NaN, which fails every
    tolerance."""
    residuals = np.concatenate([_additivity_residuals(*case)
                                for case in cases])
    dev, stderr = _diagonal_deviations(mc_sigma, mc_field, dimension, trials,
                                       seed)
    return {"max_analytic_residual":
                float(np.max(np.abs(residuals), initial=0.0)),
            "mc_fraction_within_3_stderr":
                float(np.mean(dev <= 3.0 * stderr))}


def verify_report(mode, inputs, metrics, t0, seed, tolerances=None,
                  tolerance_scale=1.0):
    """The ``freeconv verify`` report: each metric against its tolerance
    in ``tolerances``, else in ``VERIFY_TOLERANCES``, times
    ``tolerance_scale``; the Monte Carlo fraction against its floor."""
    tolerances = tolerances or {}
    crits = []
    for name, value in metrics.items():
        if name == "mc_fraction_within_3_stderr":
            crits.append(CriterionRecord(name, value, MC_FRACTION_FLOOR,
                                         comparator=">="))
        else:
            tol = tolerances.get(name, VERIFY_TOLERANCES[name])
            crits.append(CriterionRecord(name, value, tol * tolerance_scale))
    return _report(f"verify_{mode}", inputs, metrics, crits, t0, seed)


def criterion_1_semicircle_stability(tolerance_scale=1.0):
    """Self-convolution of the unit semicircle against the closed form."""
    t0 = time.perf_counter()
    semi = make_law(LawSpec.semicircle(1.0), 2000)
    t_run = time.perf_counter()
    out = free_add(semi, semi)
    runtime = time.perf_counter() - t_run
    target = make_law(LawSpec.semicircle(np.sqrt(2.0)), 2000)
    l1 = density_l1_distance(target, out)
    w1 = wasserstein1(target, out)
    crits = [
        CriterionRecord("l1_density_error", l1, 2e-2 * tolerance_scale),
        CriterionRecord("wasserstein1", w1, 5e-3 * tolerance_scale),
        CriterionRecord("runtime_s", runtime, 10.0),
    ]
    return _report(
        "semicircle_stability",
        {"law": "semicircle(1) + semicircle(1)", "contour_points": 2000},
        {"l1": l1, "w1": w1, "runtime_s": runtime},
        crits, t0,
    )


def criterion_2_bernoulli_arcsine(tolerance_scale=1.0):
    """Symmetric two-point law added to itself gives the arcsine law."""
    t0 = time.perf_counter()
    two = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    out = free_add(two, two)
    metrics = {}
    crits = []
    for n, expect in ((2, 2.0), (4, 6.0), (6, 20.0)):
        got = moment(out, n)
        rel = abs(got - expect) / expect
        metrics[f"m{n}"] = got
        crits.append(CriterionRecord(f"m{n}_relative_error", rel,
                                     1e-2 * tolerance_scale))
    lo, hi = support_interval(out, 1e-3)
    metrics["support_lo"] = lo
    metrics["support_hi"] = hi
    crits.append(CriterionRecord("support_lo_error", abs(lo + 2.0),
                                 0.02 * tolerance_scale))
    crits.append(CriterionRecord("support_hi_error", abs(hi - 2.0),
                                 0.02 * tolerance_scale))
    return _report(
        "bernoulli_to_arcsine",
        {"law": "two_atom(1/2, -1, 1) twice"},
        metrics, crits, t0,
    )


def criterion_3_pastur_consistency(seed=DEFAULT_SEED, tolerance_scale=1.0):
    """Deterministic-plus-Gaussian solver against the generic addition
    pipeline and against Monte Carlo sampling."""
    t0 = time.perf_counter()
    two = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    a, l1 = pastur_l1(two, 1.0, default_contour(-3.0, 3.0, 1200))
    n_dim, trials = 1024, 20
    es = mc_free_add_experiment(
        EnsembleSpec.fixed_spectrum(two, n_dim, seed),
        EnsembleSpec.gue(1.0, n_dim, seed),
        trials,
    )
    w1 = wasserstein1_empirical(es.pooled(), a)
    runtime = time.perf_counter() - t0
    crits = [
        CriterionRecord("l1_vs_free_add", l1, 1e-2 * tolerance_scale),
        CriterionRecord("w1_vs_monte_carlo", w1, 0.03 * tolerance_scale),
        CriterionRecord("runtime_s", runtime, 120.0),
    ]
    return _report(
        "pastur_consistency",
        {"law": "two_atom plus unit Gaussian", "dimension": n_dim,
         "trials": trials},
        {"l1": l1, "w1": w1, "runtime_s": runtime},
        crits, t0, seed=seed,
    )


def criterion_4_multiplication_law(seed=DEFAULT_SEED, tolerance_scale=1.0):
    """Free multiplicative convolution of two unit-ratio sample-covariance
    laws: Fuss-Catalan moments and the matching matrix experiment."""
    t0 = time.perf_counter()
    mp = make_law(LawSpec.marchenko_pastur(1.0), 2000)
    out = free_multiply(mp, mp)
    metrics = {}
    crits = []
    for n, expect in ((1, 1.0), (2, 3.0), (3, 12.0), (4, 55.0)):
        got = moment(out, n)
        rel = abs(got - expect) / expect
        metrics[f"m{n}"] = got
        crits.append(CriterionRecord(f"m{n}_relative_error", rel,
                                     1e-2 * tolerance_scale))
    n_dim, trials = 512, 20
    es = mc_free_mul_experiment(
        EnsembleSpec.wishart(1.0, n_dim, seed),
        EnsembleSpec.wishart(1.0, n_dim, seed + 1),
        trials,
    )
    for n, expect in ((1, 1.0), (2, 3.0), (3, 12.0)):
        got = es.pooled_moment(n)
        rel = abs(got - expect) / expect
        metrics[f"mc_m{n}"] = got
        crits.append(CriterionRecord(f"mc_m{n}_relative_error", rel,
                                     0.05 * tolerance_scale))
    return _report(
        "multiplication_law",
        {"law": "marchenko_pastur(1) times itself", "dimension": n_dim,
         "trials": trials},
        metrics, crits, t0, seed=seed,
    )


def criterion_5_s_transform_equivalence(seed=DEFAULT_SEED,
                                        tolerance_scale=1.0):
    """The inverse-h composition and S-series multiplicativity give the
    same product moments, coefficient by coefficient."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        # supports within (0, 1.25] keep order-10 moments O(1), matching
        # the absolute coefficientwise bound
        pts1 = rng.uniform(0.05, 1.25, size=6)
        pts2 = rng.uniform(0.05, 1.25, size=6)
        w1 = rng.dirichlet(np.ones(6))
        w2 = rng.dirichlet(np.ones(6))
        m1 = MomentVector(np.array([np.sum(w1 * pts1**n)
                                    for n in range(1, 11)]))
        m2 = MomentVector(np.array([np.sum(w2 * pts2**n)
                                    for n in range(1, 11)]))
        via_s = free_multiply_series(m1, m2)
        via_h = free_multiply_series_h_route(m1, m2)
        worst = max(worst, float(np.max(np.abs(via_s.m - via_h.m))))
    crit = CriterionRecord("max_coefficient_difference", worst,
                           1e-10 * tolerance_scale)
    return _report(
        "s_transform_equivalence",
        {"vectors": 20, "order": 10},
        {"max_coefficient_difference": worst},
        [crit], t0, seed=seed,
    )


def criterion_6_generalized_addition(seed=DEFAULT_SEED, tolerance_scale=1.0):
    """Additivity of the inverse resolvents in a fixed external field for
    the Gaussian family, analytically and by Monte Carlo."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    two = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    fields = [ExternalFieldSpec(two), ExternalFieldSpec(dirac(0.0)),
              ExternalFieldSpec(make_law(LawSpec.two_atom(0.25, -2.0, 0.5)))]
    cases = []
    for k in range(5):
        s1, s2 = rng.uniform(0.5, 3.0, size=2)
        field = fields[k % len(fields)]
        lo, hi = field.measure.support()
        cases.append((s1, s2, field,
                      rng.uniform(hi + 0.5, hi + 3.0, size=50)))
    metrics = external_field_check(cases, 1.0, ExternalFieldSpec(two), 128,
                                   400, seed)
    crits = [
        CriterionRecord("max_analytic_residual",
                        metrics["max_analytic_residual"],
                        1e-12 * tolerance_scale),
        CriterionRecord("mc_fraction_within_3_stderr",
                        metrics["mc_fraction_within_3_stderr"],
                        MC_FRACTION_FLOOR, comparator=">="),
    ]
    return _report(
        "generalized_addition_gaussian",
        {"configs": 5, "probes_per_config": 50, "mc_dimension": 128,
         "mc_trials": 400},
        metrics, crits, t0, seed=seed,
    )


def criterion_7_connected_moments(seed=DEFAULT_SEED, tolerance_scale=1.0):
    """Planar connected-moment relation at order two for the invariant
    Gaussian: Var(M_11) N^2 / <tr M^2> = 1."""
    t0 = time.perf_counter()
    metrics = _connected_moments(1.0, 256, 200, seed)
    lo = 1.0 - 0.15 * tolerance_scale
    hi = 1.0 + 0.15 * tolerance_scale
    crit = CriterionRecord("connected_moment_ratio",
                           metrics["ratio"], (lo, hi), comparator="in")
    return _report(
        "connected_moments",
        {"dimension": 256, "trials": 200},
        metrics,
        [crit], t0, seed=seed,
    )


def criterion_8_transform_round_trips(seed=DEFAULT_SEED, tolerance_scale=1.0):
    """Density recovery undoes the transform on every catalog law, and the
    functional inversion meets its residual contract everywhere."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    catalog = [
        ("semicircle", LawSpec.semicircle(1.0)),
        ("marchenko_pastur_1", LawSpec.marchenko_pastur(1.0)),
        ("marchenko_pastur_half", LawSpec.marchenko_pastur(0.5)),
        ("marchenko_pastur_2", LawSpec.marchenko_pastur(2.0)),
        ("two_atom", LawSpec.two_atom(0.5, -1.0, 1.0)),
        ("arcsine", LawSpec.arcsine(2.0)),
        ("uniform", LawSpec.uniform(-1.0, 1.0)),
        ("atom_list", LawSpec.atom_list([(-0.5, 0.25), (0.25, 0.5),
                                         (1.5, 0.25)])),
    ]
    metrics = {}
    crits = []
    worst_residual = 0.0
    for name, spec in catalog:
        mu = make_law(spec, 2000)
        lo, hi = mu.support()
        back = stieltjes_invert(MeasureResolvent(mu),
                                default_contour(lo, hi, 1500))
        l1 = density_l1_distance(mu, back, atom_position_tol=1e-3)
        metrics[f"l1_{name}"] = l1
        crits.append(CriterionRecord(f"round_trip_{name}", l1,
                                     1e-2 * tolerance_scale))
        ev = MeasureResolvent(mu)
        for _ in range(6):
            z = complex(rng.uniform(lo - 1, hi + 1), rng.uniform(0.5, 3.0))
            w = ev(z)
            lam = invert_cauchy(ev, w)
            worst_residual = max(worst_residual,
                                 abs(ev(lam) - w) / max(1.0, abs(w)))
    metrics["worst_inversion_residual"] = worst_residual
    crits.append(CriterionRecord("inversion_residual", worst_residual,
                                 1e-12 * tolerance_scale))
    return _report(
        "transform_round_trips",
        {"laws": [name for name, _ in catalog]},
        metrics, crits, t0, seed=seed,
    )


def criterion_9_oracle_equivalence(tolerance_scale=1.0):
    """Pipeline moments match the series route for every catalog pair
    under addition and every admissible pair under multiplication."""
    t0 = time.perf_counter()
    add_catalog = [
        ("semicircle", make_law(LawSpec.semicircle(1.0), 2000), False),
        ("two_atom", make_law(LawSpec.two_atom(0.5, -1.0, 1.0)), True),
        ("uniform", make_law(LawSpec.uniform(-1.0, 1.0), 2000), False),
        ("marchenko_pastur", make_law(LawSpec.marchenko_pastur(1.0), 2000),
         True),
    ]
    mul_catalog = [
        ("marchenko_pastur_1", make_law(LawSpec.marchenko_pastur(1.0), 2000),
         True),
        ("marchenko_pastur_half",
         make_law(LawSpec.marchenko_pastur(0.5), 2000), True),
        ("uniform_positive", make_law(LawSpec.uniform(0.5, 1.5), 2000),
         False),
    ]
    metrics = {}
    crits = []
    order = 8
    for operation, catalog in (("add", add_catalog), ("mul", mul_catalog)):
        for i, (name1, mu1, sing1) in enumerate(catalog):
            for name2, mu2, sing2 in catalog[i:]:
                _, rel = oracle_moment_error(operation, mu1, mu2, order)
                tag = f"{operation}_{name1}_{name2}"
                metrics[tag] = rel
                tol = (1e-2 if sing1 or sing2 else 1e-3) * tolerance_scale
                crits.append(CriterionRecord(tag, rel, tol))
    return _report(
        "oracle_equivalence",
        {"order": order,
         "add_pairs": len(add_catalog) * (len(add_catalog) + 1) // 2,
         "mul_pairs": len(mul_catalog) * (len(mul_catalog) + 1) // 2},
        metrics, crits, t0,
    )


ALL_CRITERIA = (
    ("1", criterion_1_semicircle_stability),
    ("2", criterion_2_bernoulli_arcsine),
    ("3", criterion_3_pastur_consistency),
    ("4", criterion_4_multiplication_law),
    ("5", criterion_5_s_transform_equivalence),
    ("6", criterion_6_generalized_addition),
    ("7", criterion_7_connected_moments),
    ("8", criterion_8_transform_round_trips),
    ("9", criterion_9_oracle_equivalence),
)


def run_all(seed=DEFAULT_SEED, tolerance_scale=1.0, log=print):
    """Run the full acceptance suite; returns the list of reports."""
    reports = []
    for number, fn in ALL_CRITERIA:
        kwargs = {"tolerance_scale": tolerance_scale}
        if "seed" in fn.__code__.co_varnames[:fn.__code__.co_argcount]:
            kwargs["seed"] = seed
        rep = fn(**kwargs)
        reports.append(rep)
        status = "pass" if rep.passed else "FAIL"
        log(f"criterion {number} [{rep.experiment_id}]: {status} "
            f"({rep.wall_time_s:.1f} s)")
        if not rep.passed:
            for c in rep.criteria:
                if not c.passed:
                    log(f"    {c.name}: value {c.value!r} vs "
                        f"tolerance {c.tolerance!r}")
    return reports
