import cmath
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeconv.errors import (
    BranchError,
    DomainError,
    InversionError,
    ValidationError,
)
from freeconv.measures import (
    LawSpec,
    Segment,
    SpectralMeasure,
    affine_map,
    density_l1_distance,
    dirac,
    make_law,
    moment,
    write_density_csv,
)
from freeconv import stieltjes
from freeconv.arithmetic import (
    FreeSumResolvent,
    RTransform,
    free_add,
    pastur_add_gaussian,
)
from freeconv.stieltjes import (
    _NODES,
    _CellTree,
    ATOM_MASS_THRESHOLD,
    DEFAULT_EPSILON_SCHEDULE,
    ContourSpec,
    MeasureResolvent,
    ResolventEvaluator,
    _column_densities,
    _ladder,
    cauchy_transform,
    damped_newton,
    default_contour,
    invert_cauchy,
    neville_to_zero,
    principal_value_transform,
    stieltjes_invert,
)

from oracles import (
    absolute_moment,
    affine_image_defect,
    block_moments,
    cauchy_reference,
    semicircle_g,
)

RNG = np.random.default_rng(31081998)

CATALOG = [
    LawSpec.semicircle(1.0),
    LawSpec.marchenko_pastur(1.0),
    LawSpec.marchenko_pastur(0.5),
    LawSpec.marchenko_pastur(2.0),
    LawSpec.two_atom(0.5, -1.0, 1.0),
    LawSpec.arcsine(2.0),
    LawSpec.uniform(-1.0, 1.0),
]


# -- transform values ---------------------------------------------------------


def test_atom_transform():
    assert cauchy_transform(dirac(0.0), 1j) == pytest.approx(-1j, abs=1e-14)


def test_two_atom_transform_value():
    mu = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    assert cauchy_transform(mu, 2.0 + 0j) == pytest.approx(2 / 3, abs=1e-14)


def test_semicircle_transform_closed_form():
    mu = make_law(LawSpec.semicircle(1.0), 4000)
    got = cauchy_transform(mu, 2j)
    assert got == pytest.approx(1j * (1 - np.sqrt(2)), abs=1e-8)
    for _ in range(25):
        z = complex(RNG.uniform(-3, 3), RNG.uniform(0.2, 5))
        assert cauchy_transform(mu, z) == pytest.approx(
            semicircle_g(z), abs=2e-6
        )


def test_transform_rejects_on_support_real_points():
    mu = make_law(LawSpec.semicircle(1.0), 200)
    with pytest.raises(DomainError):
        cauchy_transform(mu, 0.5 + 0j)
    # outside the support the real axis is fine
    assert cauchy_transform(mu, 3.0 + 0j).imag == pytest.approx(0.0, abs=1e-12)


def test_derivative_domain_rules_and_pole_hits():
    semi = make_law(LawSpec.semicircle(1.0), 200)
    mp2 = make_law(LawSpec.marchenko_pastur(2.0), 200)  # atom 1/2 at 0
    with pytest.raises(DomainError):
        cauchy_transform(mp2, 0.0 + 0j)
    # off the support G' matches a central difference of G
    for z in (3.0 + 0j, 0.5 + 2j):
        h = 1e-5
        quotient = (cauchy_transform(semi, z + h)
                    - cauchy_transform(semi, z - h)) / (2 * h)
        gp = MeasureResolvent(semi).value_and_derivative(z)[1]
        assert gp == pytest.approx(quotient, abs=1e-8)
    # the evaluator itself checks no domain: an exact pole hit is
    # non-finite, never a bare ZeroDivisionError
    for mu in (dirac(0.0), mp2):
        g, gp = MeasureResolvent(mu).vd_scalar(0.0)
        assert not (cmath.isfinite(g) and cmath.isfinite(gp))


@pytest.mark.parametrize("spec", CATALOG)
def test_herglotz_property(spec):
    mu = make_law(spec, 600)
    z = RNG.uniform(-4, 4, 200) + 1j * RNG.uniform(1e-3, 10, 200)
    vals = cauchy_transform(mu, z)
    assert np.all(vals.imag < 0)


@pytest.mark.parametrize("spec", CATALOG)
def test_asymptotic_decay(spec):
    mu = make_law(spec, 600)
    bound = 2.0 * absolute_moment(mu, 1) / 1e3
    for k in range(8):
        z = 1e3 * np.exp(1j * (np.pi * (k + 0.5) / 8))
        assert abs(z * cauchy_transform(mu, z) - 1.0) <= bound


# -- principal values ---------------------------------------------------------


def test_pv_odd_symmetry():
    mu = make_law(LawSpec.semicircle(1.0), 2000)
    assert principal_value_transform(mu, 0.0) == pytest.approx(0.0, abs=1e-10)
    two = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    assert principal_value_transform(two, 0.0) == 0.0


def test_pv_semicircle_interior():
    mu = make_law(LawSpec.semicircle(1.0), 4000)
    assert principal_value_transform(mu, 1.0) == pytest.approx(0.5, abs=1e-3)


def test_pv_matches_extrapolated_real_part():
    mu = make_law(LawSpec.semicircle(1.0), 4000)
    eps = np.array([1e-2, 5e-3, 2.5e-3])
    for x in (0.3, 0.9, 1.5):
        re = np.array([cauchy_transform(mu, x + 1j * e).real for e in eps])
        extrap = neville_to_zero(eps, re)
        assert principal_value_transform(mu, x) == pytest.approx(
            extrap, abs=1e-4
        )


def test_pv_at_atom_rejected():
    with pytest.raises(DomainError):
        principal_value_transform(dirac(1.0), 1.0)


def test_pv_rejected_where_the_density_jumps():
    mu = make_law(LawSpec.uniform(-1.0, 1.0), 200)
    for edge in (-1.0, 1.0):
        with pytest.raises(DomainError):
            principal_value_transform(mu, edge)
    # interior nodes are safe, and the linear pieces represent the
    # constant density exactly: pv(x) = log((1 + x)/(1 - x)) / 2
    for node in mu.segments[0].grid[[1, 57, 100, 198]]:
        assert principal_value_transform(mu, node) == pytest.approx(
            0.5 * np.log((1 + node) / (1 - node)), abs=1e-12)
    # a zero-density endpoint is no jump: pv is continuous into G outside
    semi = make_law(LawSpec.semicircle(1.0), 200)
    assert principal_value_transform(semi, 2.0) == pytest.approx(
        cauchy_transform(semi, 2.0 + 1e-9).real, abs=1e-6)


# -- functional inversion -----------------------------------------------------


def test_invert_atom_resolvents():
    ev0 = MeasureResolvent(dirac(0.0))
    w = -0.5j
    assert invert_cauchy(ev0, w) == pytest.approx(1 / w, abs=1e-12)
    ev3 = MeasureResolvent(dirac(3.0))
    w = -0.25j
    assert invert_cauchy(ev3, w) == pytest.approx(3 + 1 / w, abs=1e-12)


def test_invert_semicircle_round_trip_value():
    mu = make_law(LawSpec.semicircle(1.0), 4000)
    ev = MeasureResolvent(mu)
    w = ev(2j)
    assert w == pytest.approx(1j * (1 - np.sqrt(2)), abs=1e-8)
    lam = invert_cauchy(ev, w)
    assert lam == pytest.approx(2j, abs=1e-8)


@pytest.mark.parametrize("spec", CATALOG[:5])
def test_invert_round_trip_random(spec):
    mu = make_law(spec, 1000)
    ev = MeasureResolvent(mu)
    rng = np.random.default_rng(31081998)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 4.0))
        w = ev(z)
        lam = invert_cauchy(ev, w)
        # G(z) = z / (z^2 - 1) of two_atom(0.5, -1, 1) takes each value at
        # z and at -1/z; the principal preimage is the one with |z| >= 1.
        expect = z
        if spec == LawSpec.two_atom(0.5, -1.0, 1.0) and abs(z) < 1:
            expect = -1.0 / z
        assert lam == pytest.approx(expect, abs=1e-8)
        assert abs(ev(lam) - w) <= 1e-12 * max(1.0, abs(w))


def test_invert_continues_where_direct_newton_stalls():
    # Next to the atom at 1, |G(z)| is about 36 and Newton from the
    # asymptotic seed 1/w stalls at residual 35.5; the continuation path,
    # which walks |w| up from 0.01, must meet the residual contract.
    ev = MeasureResolvent(make_law(LawSpec.two_atom(0.5, -1.0, 1.0)))
    z = complex(1.01, 0.01)
    w = ev(z)
    with pytest.raises(InversionError):
        damped_newton(ev.vd_scalar, 1.0 / w, w, 1e-12 * abs(w))
    lam = invert_cauchy(ev, w)
    assert abs(ev(lam) - w) <= 1e-12 * max(1.0, abs(w))
    assert lam == pytest.approx(z, abs=1e-12)


def test_invert_rejects_zero():
    with pytest.raises(ValidationError):
        invert_cauchy(MeasureResolvent(dirac(0.0)), 0.0)


def test_inversion_error_carries_diagnostics():
    ev = MeasureResolvent(make_law(LawSpec.semicircle(1.0), 200))
    # w with |w| far beyond the image of the upper half plane forces the
    # solver onto the cut and it must report, not loop.
    with pytest.raises(InversionError) as info:
        damped_newton(ev.vd_scalar, 0.9 + 0j, 500.0 + 0j, 500.0 * 1e-12)
    err = info.value
    assert err.residual == abs(ev.vd_scalar(err.last_iterate)[0] - 500.0)
    assert err.residual > 400.0


# -- the shared damped Newton loop ---------------------------------------------


def test_newton_trial_that_raises_halves_the_step():
    trials = []

    def f(x):
        trials.append(x)
        if len(trials) == 2:  # the first trial, after the call at x0
            raise InversionError("trial left the domain")
        return x * x, 2 * x

    root, (value, _) = damped_newton(f, 3.0 + 0j, 4.0, 1e-12)
    assert root == pytest.approx(2.0, abs=1e-12)
    assert abs(value - 4.0) <= 1e-12
    full_step = -(9.0 - 4.0) / 6.0
    assert trials[1] == 3.0 + full_step
    assert trials[2] == 3.0 + 0.5 * full_step


def _floored_linear(x):
    """1e6 (x - 1) whose magnitude cannot drop below 1e-3: Newton lands
    on x = 1 and then stalls at the floor."""
    value = 1e6 * (x - 1.0)
    if abs(value) < 1e-3:
        value = 1e-3
    return value, 1e6


def test_newton_stall_rule_accepts_a_residual_within_stall_tol():
    root, (value, _) = damped_newton(_floored_linear, 2.0 + 0j, 0.0, 1e-12,
                                     1e-3)
    assert root == 1.0
    assert value == 1e-3


def test_newton_failure_carries_last_iterate_and_residual():
    with pytest.raises(InversionError) as info:
        damped_newton(_floored_linear, 2.0 + 0j, 0.0, 1e-12)
    assert info.value.last_iterate == 1.0
    assert info.value.residual == 1e-3


# -- density recovery ---------------------------------------------------------


def l1_round_trip(spec, points=1500, schedule=(1e-2, 5e-3, 2.5e-3)):
    mu = make_law(spec, 2000)
    lo, hi = mu.support()
    contour = ContourSpec(default_contour(lo, hi, points).real_grid, schedule)
    back = stieltjes_invert(MeasureResolvent(mu), contour)
    return density_l1_distance(mu, back, atom_position_tol=1e-3), mu, back


def test_round_trip_semicircle():
    err, _, _ = l1_round_trip(LawSpec.semicircle(1.0))
    assert err <= 1e-2


def test_round_trip_uniform():
    err, mu, back = l1_round_trip(LawSpec.uniform(-1.0, 1.0))
    assert err <= 1e-2
    # interior plateau is flat at 1/2 away from the edges
    x = np.linspace(-0.8, 0.8, 50)
    assert np.max(np.abs(back.density_at(x) - 0.5)) <= 1e-2


def test_round_trip_atom():
    contour = default_contour(-1.0, 1.0, 400)
    back = stieltjes_invert(MeasureResolvent(dirac(0.0)), contour)
    assert len(back.atoms) == 1
    pos, w = back.atoms[0]
    assert abs(pos) < 1e-6
    assert w == pytest.approx(1.0, abs=1e-3)
    assert back.segments == () or back.segments[0].mass < 1e-6


def test_round_trip_two_atom():
    mu = make_law(LawSpec.two_atom(0.3, -1.0, 0.5))
    contour = default_contour(-1.0, 0.5, 600)
    back = stieltjes_invert(MeasureResolvent(mu), contour)
    assert density_l1_distance(mu, back, atom_position_tol=1e-3) <= 1e-2


def test_round_trip_marchenko_pastur_with_atom():
    err, mu, back = l1_round_trip(LawSpec.marchenko_pastur(2.0))
    assert err <= 1e-2
    assert len(back.atoms) == 1
    assert back.atoms[0][1] == pytest.approx(0.5, abs=2e-3)


def test_round_trip_on_a_shallow_schedule():
    # A schedule that halves less than once gives the outer edge columns
    # of a coarse contour two-rung ladders and the inner ones three, so
    # edge refinement extrapolates each depth on its own.
    err, _, _ = l1_round_trip(LawSpec.semicircle(1.0), 200, (1e-2, 6e-3))
    assert err <= 1e-2


def test_round_trip_edge_singular_laws():
    for spec in (LawSpec.marchenko_pastur(1.0), LawSpec.arcsine(2.0)):
        err, _, _ = l1_round_trip(spec)
        assert err <= 1e-2


def test_round_trip_preserves_moments():
    mu = make_law(LawSpec.semicircle(1.0), 2000)
    contour = default_contour(-2, 2, 1500)
    back = stieltjes_invert(MeasureResolvent(mu), contour)
    for n in range(1, 9):
        assert moment(back, n) == pytest.approx(moment(mu, n), abs=2e-3)


def test_column_densities_take_one_ladder_per_column():
    # Edge refinement extrapolates every column in one call, each on its
    # own three rungs; the answer is the per-column one to the last bit,
    # including where the long stencil overshoots below zero.
    rng = np.random.default_rng(8)
    ladders = np.array([_ladder(1e-2, t)[-3:]
                        for t in np.geomspace(1e-9, 2.5e-3, 60)])
    cols = -1j * np.pi * rng.normal(0.5, 1.0, (60, 3))
    per_column = [_column_densities(lad, [col])[0]
                  for lad, col in zip(ladders, cols)]
    assert np.array_equal(_column_densities(ladders, cols), per_column)
    assert 0.0 in per_column and max(per_column) > 0.0


def test_atom_candidates_are_the_peaks_of_flagged_runs(monkeypatch):
    # Atom detection takes one candidate per run of nodes whose
    # extrapolated eps*|G| clears the threshold, at the run's peak.  The
    # runs come from array bounds; a node-by-node scan is the reference.
    rng = np.random.default_rng(26)
    xs = np.linspace(-1.0, 1.0, 400)
    lad = np.asarray(DEFAULT_EPSILON_SCHEDULE)
    mass = rng.random(xs.size) * (rng.random(xs.size) < 0.6)
    mass[[0, -1]] = 0.5
    cols = -1j * mass[:, None] / lad  # eps*|G| is mass on every rung
    seen = []

    def rejecting(ev, a0, top_eps, spacing):
        seen.append(a0)
        return (a0, 0.0), 0.0

    monkeypatch.setattr(stieltjes, "_refine_atom", rejecting)
    assert stieltjes._detect_atoms(None, xs, lad, cols) == []
    flags = mass > ATOM_MASS_THRESHOLD
    expected, k = [], 0
    while k < xs.size:
        j = k
        while flags[k] and j + 1 < xs.size and flags[j + 1]:
            j += 1
        if flags[k]:
            expected.append(xs[k + int(np.argmax(mass[k:j + 1]))])
        k = j + 1
    assert seen == expected and len(expected) > 20


def test_support_error_when_grid_too_narrow():
    mu = make_law(LawSpec.semicircle(1.0), 500)
    bad = ContourSpec(np.linspace(-0.8, 0.8, 200))
    from freeconv.errors import SupportCoverageError

    with pytest.raises(SupportCoverageError):
        stieltjes_invert(MeasureResolvent(mu), bad)


class _FlippedSemicircle(ResolventEvaluator):
    """Semicircle transform on [-2, 2] with Im G > 0 where ``bad(x)``."""

    support = (-2.0, 2.0)
    edge_hints = (-2.0, 2.0)

    def __init__(self, bad):
        self.bad = bad

    def value_and_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        root = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
        g = (z - root) / 2.0
        g = np.where(self.bad(z.real), g.conj(), g)
        return g, (1.0 - z / root) / 2.0


@pytest.mark.parametrize("where", ["main", "refinement"])
def test_branch_error_where_im_g_is_positive(where):
    # The main pass samples x = -2.4 + 0.024 k; edge refinement marches
    # into the hinted edge at -2 from 1e-9 of the width, so its columns
    # alone reach the window (-2 + 1e-6, -2 + 1e-4).
    contour = default_contour(-2.0, 2.0, 201)
    clean = _FlippedSemicircle(lambda x: np.zeros(np.shape(x), dtype=bool))
    assert stieltjes_invert(clean, contour).segments
    if where == "main":
        ev = _FlippedSemicircle(lambda x: np.abs(x) < 1e-9)
    else:
        ev = _FlippedSemicircle(lambda x: (x > -2 + 1e-6) & (x < -2 + 1e-4))
    with pytest.raises(BranchError, match="Im G > 0"):
        stieltjes_invert(ev, contour)


class _ConjugateSum(FreeSumResolvent):
    """A free sum whose G is the conjugate of the physical one."""

    @staticmethod
    def _g_of(z, state):
        return FreeSumResolvent._g_of(z, state).conjugate()


def test_a_pipeline_off_the_sign_convention_is_a_branch_error():
    # A pipeline's columns pass the same Herglotz check as any evaluator's:
    # the error is a BranchError that names the first offending z, here a
    # contour node on the top rung.
    semi = make_law(LawSpec.semicircle(1.0), 200)
    ev = _ConjugateSum(semi, semi)
    contour = default_contour(*ev.support, points=200)
    with pytest.raises(BranchError, match="Im G > 0") as info:
        stieltjes_invert(ev, contour)
    z = complex(re.search(r"at z = (\(.*?\))", str(info.value)).group(1))
    assert z.real in contour.real_grid
    assert z.imag == contour.epsilon_schedule[0]
    g = ev(z)
    assert g.imag > 1e-9 * (1.0 + abs(g))


def test_contour_validation():
    with pytest.raises(ValidationError, match="at least 8 real nodes"):
        ContourSpec(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValidationError, match="strictly increasing"):
        ContourSpec(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 6.0]))
    with pytest.raises(ValidationError):
        ContourSpec(np.linspace(0, 1, 16), np.array([1e-3, 1e-2]))


# -- scalar and batched kernel paths ------------------------------------------

CONTINUOUS = [spec for spec in CATALOG if spec.kind != "two_atom"]


@st.composite
def atom_lists(draw):
    positions = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12,
                              unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(positions),
                            max_size=len(positions)))
    total = sum(weights)
    return tuple((x, w / total) for x, w in zip(positions, weights))


@st.composite
def kernel_measures(draw):
    """Atom lists, catalog laws on 64- to 2000-point grids, and mixtures."""
    kind = draw(st.sampled_from(["atoms", "law", "mixture"]))
    if kind == "atoms":
        return SpectralMeasure(atoms=draw(atom_lists()))
    law = make_law(draw(st.sampled_from(CONTINUOUS)),
                   draw(st.integers(64, 2000)))
    if kind == "law":
        return law
    p = draw(st.floats(0.05, 0.95))
    # the segments carry 1 - p of the mass, also for a law with an atom
    cont = 1.0 - sum(w for _, w in law.atoms)
    return SpectralMeasure(
        atoms=tuple((x, p * w) for x, w in draw(atom_lists())),
        segments=tuple(s.scaled((1.0 - p) / cont) for s in law.segments),
    )


@st.composite
def kernel_cases(draw):
    """A measure and points 1e-9 to 1 above the axis: some over the
    support, some 20 half-widths from a cell's midpoint."""
    mu = draw(kernel_measures())
    lo, hi = mu.support()
    zs = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.floats(lo - 0.5, hi + 0.5))
        zs.append(complex(x, 10.0 ** draw(st.floats(-9.0, 0.0))))
    cells = [(g0, g1) for s in mu.segments for g0, g1 in zip(s.grid[:-1],
                                                            s.grid[1:])]
    if cells:
        for _ in range(draw(st.integers(1, 6))):
            g0, g1 = draw(st.sampled_from(cells))
            theta = draw(st.floats(1e-3, np.pi - 1e-3))
            zc = 20.0 * 0.5 * (g1 - g0) * cmath.exp(1j * theta)
            zs.append(complex(0.5 * (g0 + g1) + zc.real,
                              max(zc.imag, 1e-9)))
    return mu, zs


def _term_scales(mu, z, g, gp):
    """|G| and |G'| plus the magnitudes of the atoms' terms: the atom sums
    may round differently (Python loop against a numpy product), so
    "relative" is against the size of the summed terms."""
    return (abs(g) + sum(w / abs(z - a) for a, w in mu.atoms),
            abs(gp) + sum(w / abs(z - a) ** 2 for a, w in mu.atoms))


@given(kernel_cases())
def test_scalar_kernel_matches_batched(case):
    mu, zs = case
    ev = MeasureResolvent(mu)
    g_batch, gp_batch = ev.value_and_derivative(np.array(zs))
    for z, g_ref, gp_ref in zip(zs, g_batch, gp_batch):
        g, gp = ev.vd_scalar(z)
        assert type(g) is complex and type(gp) is complex
        g_scale, gp_scale = _term_scales(mu, z, g_ref, gp_ref)
        assert abs(g - g_ref) <= 1e-13 * g_scale
        assert abs(gp - gp_ref) <= 1e-13 * gp_scale


# -- the cell treecode against a 40-digit oracle ------------------------------


@st.composite
def small_measures(draw):
    """One segment of fewer cells than the smallest block."""
    cells = draw(st.integers(1, 15))
    grid = np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=cells + 1,
                                   max_size=cells + 1)))
    dens = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=cells + 1,
                                  max_size=cells + 1))) + 0.01
    return SpectralMeasure(segments=(
        Segment(grid, dens / np.trapezoid(dens, grid)),))


@st.composite
def gapped_measures(draw):
    """Two catalog laws on disjoint intervals, with a gap between."""
    p = draw(st.floats(0.1, 0.9))
    left = make_law(draw(st.sampled_from(CONTINUOUS)),
                    draw(st.integers(16, 600)))
    right = make_law(draw(st.sampled_from(CONTINUOUS)),
                     draw(st.integers(16, 600)))
    lo, hi = left.support()
    left = affine_map(left, 1.0 / (hi - lo), -1.0 - lo / (hi - lo))
    lo, hi = right.support()
    gap = draw(st.floats(1e-3, 2.0))
    right = affine_map(right, 2.0 / (hi - lo), gap - 2.0 * lo / (hi - lo))
    return SpectralMeasure(
        atoms=tuple((x, p * w) for x, w in left.atoms)
        + tuple((x, (1 - p) * w) for x, w in right.atoms),
        segments=tuple(s.scaled(p) for s in left.segments)
        + tuple(s.scaled(1 - p) for s in right.segments))


@st.composite
def oracle_cases(draw):
    """A measure and points 1e-9 to 1 above the axis, plus points on the
    circle |z - c| = r/theta where a block of cells switches between its
    Gauss rule and the exact near sum, and, with two segments, points
    within a few cells of the split, where the near slice spans both."""
    mu = draw(st.one_of(kernel_measures(), small_measures(),
                        gapped_measures()))
    lo, hi = mu.support()
    zs = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.floats(lo - 0.5, hi + 0.5))
        zs.append(complex(x, 10.0 ** draw(st.floats(-9.0, 0.0))))
    if len(mu.segments) > 1:
        left, right = mu.segments[0].grid, mu.segments[1].grid
        for _ in range(draw(st.integers(1, 3))):
            x = draw(st.floats(left[-4], right[3]))
            zs.append(complex(x, 10.0 ** draw(st.floats(-9.0, -1.0))))
    tree = MeasureResolvent(mu)._cells
    if tree is not None:
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.integers(0, tree.cen.size - 1))
            theta = draw(st.floats(1e-3, np.pi - 1e-3))
            on = tree.cen[j] + tree.reach[j] * cmath.exp(1j * theta)
            zs.append(complex(on.real, max(on.imag, 1e-9)))
    return mu, zs


# Bounds met by the kernel before the treecode (a midpoint series per
# cell), over this test's cases and relative to the summed magnitudes of
# the terms: its largest errors were 2.36e-14 in G and 1.53e-13 in G'.
G_TOL, GP_TOL = 2.4e-14, 1.6e-13


def _both_paths(ev, zs):
    """Each point of ``zs`` with its (G, G') by ``vd_scalar`` and by one
    ``value_and_derivative`` call on all the points."""
    g, gp = ev.value_and_derivative(np.array(zs, dtype=complex))
    for z, g_arr, gp_arr in zip(zs, g.tolist(), gp.tolist()):
        yield z, (ev.vd_scalar(z), (g_arr, gp_arr))


def _gapped_semicircle_uniform():
    # semicircle(1) on [-2, 2] and uniform on [2.001, 4.001], half the mass
    # each: the near sum at 2.0015 spans the end of one segment and the
    # start of the next, where the density jumps.
    left = make_law(LawSpec.semicircle(1.0), 300)
    right = affine_map(make_law(LawSpec.uniform(-1.0, 1.0), 300), 1.0, 3.001)
    return SpectralMeasure(segments=tuple(
        s.scaled(0.5) for s in left.segments + right.segments))


def _rough_spike(seed, cells):
    """rho = 1/sqrt(t + 1e-12) on a grid from 0 with spacings drawn
    log-uniform from 1e-16 to 1, in random order (a spacing lost to
    rounding merges two nodes): a spike at the start of the first block,
    over cells of very unequal size."""
    rng = np.random.default_rng(seed)
    grid = np.unique(np.r_[0.0, np.cumsum(10.0 ** rng.uniform(-16, 0, cells))])
    dens = 1 / np.sqrt(grid + 1e-12)
    return SpectralMeasure(segments=(
        Segment(grid, dens / np.trapezoid(dens, grid)),))


@settings(max_examples=30)
@given(oracle_cases())
# the near slice spans a split where the density jumps to 1/4
@example((_gapped_semicircle_uniform(), [2.0005 + 1e-9j, 2.0015 + 1e-4j]))
# a near slice past a spike of height 1.6e5: the jumps rho(t1) - rho(t0)
# of its cells must telescope, not come from running sums over the grid,
# which round by eps times the spike
@example((_rough_spike(0, 100), [-0.13907107252802298 + 1e-12j]))
def test_kernel_matches_a_40_digit_oracle(case):
    mu, zs = case
    for z, paths in _both_paths(MeasureResolvent(mu), zs):
        g_ref, gp_ref, g_abs, gp_abs = cauchy_reference(mu, z)
        for g, gp in paths:
            assert abs(g - g_ref) <= G_TOL * g_abs
            assert abs(gp - gp_ref) <= GP_TOL * gp_abs


@pytest.mark.parametrize("law, x", [
    (lambda: make_law(LawSpec.marchenko_pastur(0.5), 500),
     1.3976982732318584),
    (lambda: make_law(LawSpec.marchenko_pastur(0.5), 500), 0.7),
    (_gapped_semicircle_uniform, 2.0015),
], ids=["mp-near-a-node", "mp-between-nodes", "segment-boundary"])
def test_kernel_derivative_keeps_its_digits_next_to_the_axis(law, x):
    # 1e-7 above the axis the rho(t)/(z - t) terms of neighbouring cells
    # are up to 1e7 times |G'| and cancel.  The oracle test above bounds
    # the error against the summed magnitudes of the terms, which hides
    # that cancellation; this bounds it against |G'| itself.  6.9e-8 from
    # a node (mp-near-a-node), cell ends rebuilt as m +- h round by
    # eps |m|, a few 1e-9 of z - t: G must take them from the grid.
    mu = law()
    z = complex(x, 1e-7)
    g_ref, gp_ref = cauchy_reference(mu, z)[:2]
    (_, paths), = _both_paths(MeasureResolvent(mu), [z])
    for g, gp in paths:
        assert abs(g - g_ref) <= 1e-12 * abs(g_ref)
        assert abs(gp - gp_ref) <= 1e-9 * abs(gp_ref)


def _sparse_density(seed, n):
    """About 30 % of n uniform nodes on [0, 1] nonzero, with random values:
    a zero node next to a nonzero one ends a steep cell."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n)
    dens = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
    return SpectralMeasure(segments=(
        Segment(grid, dens / np.trapezoid(dens, grid)),))


@st.composite
def steep_cell_cases(draw):
    """A sparse density and points 1e-12 to 1e-6 above the zero nodes that
    end its steep cells."""
    mu = _sparse_density(draw(st.integers(0, 2 ** 32 - 1)),
                         draw(st.integers(50, 400)))
    grid, dens = mu.segments[0].grid, mu.segments[0].density
    feet = np.flatnonzero((dens[1:-1] == 0)
                          & ((dens[:-2] > 0) | (dens[2:] > 0))) + 1
    nodes = draw(st.lists(st.sampled_from(feet.tolist() or [1]),
                          min_size=1, max_size=4))
    return mu, [complex(grid[j], 10.0 ** draw(st.floats(-12.0, -6.0)))
                for j in nodes]


@settings(max_examples=30)
@given(steep_cell_cases())
@example((_sparse_density(0, 100),
          [complex(np.linspace(0.0, 1.0, 100)[33], 1e-12)]))
def test_kernel_keeps_its_digits_on_steep_cells_at_a_node(case):
    # Next to Re z the near sum takes rho(z) from the nearer stored end of
    # the cell.  Built from the midpoint, rho(z) = rc + s (z - m) rounds by
    # about eps |s h|, which a steep cell ending at z multiplies by its
    # large log: 3.2e-14 of the terms in the example, over G_TOL.
    mu, zs = case
    for z, paths in _both_paths(MeasureResolvent(mu), zs):
        g_ref, gp_ref, g_abs, gp_abs = cauchy_reference(mu, z)
        for g, gp in paths:
            assert abs(g - g_ref) <= G_TOL * g_abs
            assert abs(gp - gp_ref) <= GP_TOL * gp_abs


def _one_bump(grid, values):
    density = np.asarray(values, dtype=float)
    return SpectralMeasure(segments=(
        Segment(grid, density / np.trapezoid(density, grid)),))


_FLAT = np.linspace(0.0, 1.0, 65)
RULE_CASES = {
    "semicircle-2000": lambda: make_law(LawSpec.semicircle(1.0), 2000),
    "mp1-2000": lambda: make_law(LawSpec.marchenko_pastur(1.0), 2000),
    "mp-half-500": lambda: make_law(LawSpec.marchenko_pastur(0.5), 500),
    "uniform-64": lambda: make_law(LawSpec.uniform(-1.0, 1.0), 64),
    "two-segments": _gapped_semicircle_uniform,
    # densities that vanish on most of a block
    "one-hat": lambda: _one_bump(_FLAT, np.arange(65) == 30),
    "two-ends": lambda: _one_bump(_FLAT, (np.arange(65) < 3)
                                  | (np.arange(65) > 61)),
    "floor-1e-300": lambda: _one_bump(
        _FLAT, np.where(np.arange(65) == 30, 1.0, 1e-300)),
    # a spike at a block end over cells of very unequal size
    "rough-spike-64": lambda: _rough_spike(5, 64),
    "rough-spike-100": lambda: _rough_spike(0, 100),
    "rough-spike-300": lambda: _rough_spike(0, 300),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_each_block_keeps_the_gauss_rule_of_its_measure(case):
    mu = RULE_CASES[case]()
    tree = MeasureResolvent(mu)._cells
    t0, t1, r0, r1 = (np.concatenate(parts) for parts in zip(
        *[(s.grid[:-1], s.grid[1:], s.density[:-1], s.density[1:])
          for s in mu.segments]))
    nodes = tree.nodes.real.reshape(-1, _NODES)
    weights = tree.weights.real.reshape(-1, _NODES)
    eps = np.finfo(float).eps
    for j, (lo, hi) in enumerate(zip(tree.starts, tree.stops)):
        a, b = t0[lo], t1[hi - 1]
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        mom = block_moments(t0[lo:hi], t1[lo:hi], r0[lo:hi], r1[lo:hi],
                            c, r, 2 * _NODES)
        assert np.all((a <= nodes[j]) & (nodes[j] <= b))
        if mom[0] == 0:
            assert np.all(weights[j] == 0)
            continue
        assert np.all(weights[j] > 0)
        assert abs(weights[j].sum() - mom[0]) <= 1e-14 * mom[0]
        # nodes are stored as t, which rounds y = (t - c)/r by eps |c|/r
        y = (nodes[j] - c) / r
        tol = (1e-14 + 2 * _NODES * eps * abs(c) / r) * mom[0]
        for k in range(2 * _NODES):
            assert abs(np.dot(weights[j], y ** k) - mom[k]) <= tol


@pytest.mark.parametrize("case", ["mp1-300", "semicircle-300", "one-hat"])
def test_kernel_holds_its_bound_at_the_worst_far_points(case):
    """Where a block's Gauss rule takes over, on the axis at c +- r/theta
    (its Bernstein ellipse is thinnest there) and at the top of the
    circle, against the 40-digit oracle."""
    mu = {"mp1-300": lambda: make_law(LawSpec.marchenko_pastur(1.0), 300),
          "semicircle-300": lambda: make_law(LawSpec.semicircle(1.0), 300),
          "one-hat": RULE_CASES["one-hat"]}[case]()
    ev = MeasureResolvent(mu)
    tree = ev._cells
    zs = [z for c, reach in zip(tree.cen.real, tree.reach)
          for z in (c - reach + 1e-12j, c + reach + 1e-12j, c + 1j * reach)]
    for z, paths in _both_paths(ev, zs):
        g_ref, gp_ref, g_abs, gp_abs = cauchy_reference(mu, z)
        for g, gp in paths:
            assert abs(g - g_ref) <= G_TOL * g_abs
            assert abs(gp - gp_ref) <= GP_TOL * gp_abs


def _near_cells(tree, z):
    """The cells [lo, hi) of the near slice at z, as ``_CellTree`` finds
    it, and whether it spans a segment split."""
    near = (np.abs(z - tree.cen) < tree.reach).nonzero()[0]
    if not near.size:
        return 0, 0, False
    jlo, jhi = int(near[0]), int(near[-1]) + 1
    return (tree.starts[jlo], tree.stops[jhi - 1],
            any(jlo < k < jhi for k in tree.splits))


@pytest.mark.parametrize("law", [
    lambda: make_law(LawSpec.semicircle(1.0), 2000),
    lambda: make_law(LawSpec.marchenko_pastur(0.5), 500),
    lambda: make_law(LawSpec.uniform(-1.0, 1.0), 20),
    lambda: _sparse_density(3, 400),
    _gapped_semicircle_uniform,
], ids=["semicircle-2000", "mp-half-500", "uniform-20", "sparse-400",
        "segment-boundary"])
def test_array_kernel_gives_the_scalar_bits_on_cells(law):
    """Without atoms, ``value_and_derivative`` is ``vd_scalar`` bit for
    bit, on one call that mixes near slices of different widths, points
    with no near block, near slices across a segment split and real
    points on grid nodes, which give NaN on both paths."""
    mu = law()
    ev = MeasureResolvent(mu)
    rng = np.random.default_rng(7)
    grid = np.concatenate([s.grid for s in mu.segments])
    lo, hi = mu.support()
    x = np.r_[rng.uniform(lo - 0.5, hi + 0.5, 150),
              rng.choice(grid, 150) + rng.normal(0.0, 1e-6, 150)]
    zs = (x + 1j * 10.0 ** rng.uniform(-12.0, 0.5, x.size)).tolist()
    # high above the support, and next to the split of the gapped law
    zs += [complex(0.5 * (lo + hi), 10.0 * (hi - lo)),
           2.0005 + 1e-9j, 2.0015 + 1e-4j]
    nodes = [complex(t) for t in rng.choice(grid, 5)]
    slices = [_near_cells(ev._cells, z) for z in zs]
    assert len({b - a for a, b, _ in slices} - {0}) > 1
    assert (0, 0, False) in slices
    assert any(split for *_, split in slices) == (len(mu.segments) > 1)
    with np.errstate(all="raise"):  # the nodes give NaN without a warning
        g, gp = ev.value_and_derivative(np.array(zs + nodes))
        for z, g_arr, gp_arr in zip(zs + nodes, g.tolist(), gp.tolist()):
            if z in nodes:
                assert all(map(cmath.isnan,
                               (g_arr, gp_arr, *ev.vd_scalar(z))))
            else:
                assert (g_arr, gp_arr) == ev.vd_scalar(z)


@given(st.sampled_from(CONTINUOUS), st.floats(-3.0, 3.0),
       st.floats(-1.0, 1.0), st.floats(-2.0, 0.0), st.floats(-1.0, 1.0))
@example(spec=LawSpec.arcsine(2.0), log_scale=0.0, shift=0.99,
         log_height=-1.0, x=0.0)
def test_kernel_is_affine_covariant(spec, log_scale, shift, log_height, x):
    """G of a*mu + b at a*z + b is G(z)/a, and G' is G'(z)/a^2: the
    near/far rule of the tree has no absolute length in it.

    ``affine_map`` rounds the nodes and densities it maps, so its measure
    is the image of mu only to rounding; next to a singular edge the
    transforms of the two differ by up to 1e-13 relative (the example: on
    the arcsine law shifted by 0.99, 662 nodes move by up to 2.2e-16 and
    G' by 9.9e-14).  That difference, from ``affine_image_defect``, comes
    off the mapped side before the comparison."""
    mu = make_law(spec, 2000)
    a = 10.0 ** log_scale
    b = shift * a
    lo, hi = mu.support()
    z = complex(0.5 * (lo + hi) + x * 0.6 * (hi - lo),
                10.0 ** log_height * (hi - lo))
    g, gp = MeasureResolvent(mu).vd_scalar(z)
    g_a, gp_a = MeasureResolvent(affine_map(mu, a, b)).vd_scalar(a * z + b)
    dg, dgp = affine_image_defect(mu, a, b, a * z + b)
    assert abs(a * (g_a - dg) - g) <= 1e-13 * abs(g)
    assert abs(a * a * (gp_a - dgp) - gp) <= 1e-13 * abs(gp)


def test_resolvent_freed_without_the_cycle_collector():
    mu = make_law(LawSpec.semicircle(1.0), 2000)
    ev = MeasureResolvent(mu)
    ev.vd_scalar(0.3 + 0.1j)
    ref = weakref.ref(ev)
    gc.disable()
    try:
        del ev
        assert ref() is None
    finally:
        gc.enable()


# -- one cell tree per measure ---------------------------------------------------


def _counted_trees(monkeypatch):
    """Count the ``_CellTree`` constructions."""
    built = [0]
    init = _CellTree.__init__

    def counted(self, segments):
        built[0] += 1
        init(self, segments)

    monkeypatch.setattr(_CellTree, "__init__", counted)
    return built


def _bits(mu):
    return (mu.atoms, [(s.grid.tobytes(), s.density.tobytes())
                       for s in mu.segments])


def _shared_tree_runs(mu):
    """Two pipelines, a transform and an R transform on ``mu``."""
    contour = default_contour(-3.5, 3.5, 400)
    zs = np.array([0.3 + 0.1j, -2.5 + 1e-3j, 4.0 + 0j])
    return (_bits(free_add(mu, dirac(0.4), contour)),
            _bits(pastur_add_gaussian(mu, 0.5, contour)),
            cauchy_transform(mu, zs).tobytes(),
            RTransform(mu)(0.3 - 0.1j))


def test_one_cell_tree_serves_every_resolvent_of_a_measure(monkeypatch):
    built = _counted_trees(monkeypatch)
    mu = make_law(LawSpec.semicircle(1.0), 300)
    shared = _shared_tree_runs(mu)
    assert built[0] == 1
    assert MeasureResolvent(mu)._cells is MeasureResolvent(mu)._cells
    # an equal measure built apart builds its own tree, to the same bits
    fresh = make_law(LawSpec.semicircle(1.0), 300)
    assert _shared_tree_runs(fresh) == shared
    assert built[0] == 2


def test_an_atom_only_measure_builds_no_tree(monkeypatch):
    built = _counted_trees(monkeypatch)
    mu = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    assert MeasureResolvent(mu)._cells is None
    cauchy_transform(mu, 0.5j)
    RTransform(mu)(0.3 - 0.1j)
    assert built[0] == 0


def test_images_of_a_measure_get_trees_of_their_own(monkeypatch):
    mu = make_law(LawSpec.semicircle(1.0), 300)
    tree = MeasureResolvent(mu)._cells
    built = _counted_trees(monkeypatch)
    shifted = affine_map(mu, 2.0, 1.0)
    halved = SpectralMeasure(atoms=((5.0, 0.5),), segments=tuple(
        s.scaled(0.5) for s in mu.segments))
    for image in (shifted, halved):
        own = MeasureResolvent(image)._cells
        assert own is not tree
        assert np.array_equal(own.weights, _CellTree(image.segments).weights)
    assert built[0] == 4
    assert not np.array_equal(MeasureResolvent(halved)._cells.weights,
                              tree.weights)


def test_a_shared_tree_is_read_only():
    mu = make_law(LawSpec.uniform(-1.0, 1.0), 200)
    tree = MeasureResolvent(mu)._cells
    arrays = {k: v for k, v in vars(tree).items()
              if isinstance(v, np.ndarray)}
    assert {"nodes", "weights", "cen", "reach", "mid", "slope"} <= set(arrays)
    for name, a in arrays.items():
        with pytest.raises(ValueError):
            a[0] = 0.0
    for name, v in vars(tree).items():
        assert isinstance(v, (np.ndarray, tuple)), name
    before = MeasureResolvent(mu).vd_scalar(0.2 + 0.01j)
    MeasureResolvent(mu).value_and_derivative(
        np.array([0.2 + 0.01j, 0.5 + 1e-6j]))
    assert MeasureResolvent(mu).vd_scalar(0.2 + 0.01j) == before


def test_a_tree_leaves_repr_equality_and_csv_unchanged(tmp_path):
    mu = make_law(LawSpec.marchenko_pastur(2.0), 200)
    twin = SpectralMeasure(mu.atoms, mu.segments, mu.renorm)
    text, files = repr(mu), []
    for stage in ("before", "after"):
        if stage == "after":
            MeasureResolvent(mu)
        csv, sidecar = tmp_path / f"{stage}.csv", tmp_path / f"{stage}.json"
        write_density_csv(mu, csv, sidecar)
        files.append((csv.read_bytes(), sidecar.read_bytes()))
        assert repr(mu) == text and mu == twin and twin == mu
    assert files[0] == files[1]
    atom = dirac(0.5)
    MeasureResolvent(atom)
    assert atom == dirac(0.5) and repr(atom) == repr(dirac(0.5))


def test_a_tree_is_freed_with_its_measure():
    mu = make_law(LawSpec.semicircle(1.0), 2000)
    ev = MeasureResolvent(mu)
    ev.vd_scalar(0.3 + 0.1j)
    ref = weakref.ref(ev._cells)
    gc.disable()
    try:
        del ev, mu
        assert ref() is None
    finally:
        gc.enable()
