import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv.acceptance import (
    _additivity_residuals,
    _moment_scales,
    scaled_moment_error,
)
from freeconv import arithmetic
from freeconv.arithmetic import (
    FreeProductResolvent,
    FreeSumResolvent,
    PasturResolvent,
    RTransform,
    _inverter,
    _product_edge,
    _side,
    _sum_edge,
    external_field_lambda_gaussian,
    free_add,
    free_multiply,
    pastur_add_gaussian,
)
from freeconv.errors import (
    InversionError,
    NumericalError,
    PipelineError,
    SupportCoverageError,
    ValidationError,
)
from freeconv.measures import (
    LawSpec,
    MomentVector,
    SpectralMeasure,
    affine_map,
    density_l1_distance,
    dirac,
    make_law,
    moment,
    wasserstein1,
)
from freeconv.series import free_add_series, free_multiply_series
from freeconv import stieltjes
from freeconv.stieltjes import MeasureResolvent, _ladder, default_contour

from oracles import semicircle_g, variance
from test_stieltjes import CONTINUOUS, atom_lists, gapped_measures

RNG = np.random.default_rng(19981031)

SEMI = make_law(LawSpec.semicircle(1.0), 2000)
TWO = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
UNIF = make_law(LawSpec.uniform(-1.0, 1.0), 2000)
MP1 = make_law(LawSpec.marchenko_pastur(1.0), 2000)


def quick_contour(lo, hi, points=900):
    return default_contour(lo, hi, points)


# -- R transform ---------------------------------------------------------------


def test_r_transform_of_atom_is_constant():
    for w in (-0.5j, 0.3 - 0.2j, -1e-3j):
        assert RTransform(dirac(2.5))(w) == pytest.approx(2.5, abs=1e-12)
    assert RTransform(dirac(0.0))(-0.5j) == pytest.approx(0.0, abs=1e-12)


def test_r_transform_of_semicircle_is_linear():
    w = -0.1j
    assert RTransform(SEMI)(w) == pytest.approx(w, abs=1e-6)
    w = 0.05 - 0.1j
    assert RTransform(SEMI)(w) == pytest.approx(w, abs=1e-6)


def test_r_transform_small_w_limit_is_mean():
    mu = make_law(LawSpec.marchenko_pastur(0.5), 1500)
    got = RTransform(mu)(-1e-4j)
    assert got == pytest.approx(moment(mu, 1), abs=1e-3)


# -- free addition ---------------------------------------------------------------


# The addition law of section 2 at finite w: R of the free_add output is
# R_1 + R_2.  The largest residuals measured at these w are 1.2e-5 for the
# uniform sum and 1.6e-5 for the two-atom sum; each bound is two to three
# times that, so an output mean 7.1e-5 off 0 (a recovery cut on a contour
# node) fails it.  Leaving out R_2 misses by 1.7e-2 or more on both.
R_LAW_W = (-0.05j, -0.1j, 0.05 - 0.1j, -0.05 - 0.2j, 0.1 - 0.3j, -0.3j)


@pytest.mark.parametrize("mu1, mu2, bound", [
    (SEMI, UNIF, 4e-5),
    (TWO, SEMI, 3e-5),
], ids=["semicircle_uniform", "two_atom_semicircle"])
def test_free_add_r_transforms_add(mu1, mu2, bound):
    out = free_add(mu1, mu2)
    r_out, r1, r2 = RTransform(out), RTransform(mu1), RTransform(mu2)
    for w in R_LAW_W:
        assert abs(r_out(w) - r1(w) - r2(w)) <= bound


def test_free_add_atom_shift():
    out = free_add(SEMI, dirac(0.75), quick_contour(-1.5, 3.0))
    expect = affine_map(SEMI, 1.0, 0.75)
    assert density_l1_distance(expect, out, atom_position_tol=1e-3) <= 1e-2


def test_free_add_semicircles():
    out = free_add(SEMI, SEMI, quick_contour(-4.0, 4.0))
    expect = make_law(LawSpec.semicircle(np.sqrt(2.0)), 2000)
    assert density_l1_distance(expect, out) <= 2e-2
    assert wasserstein1(expect, out) <= 5e-3


def test_free_add_bernoulli_gives_arcsine_moments():
    out = free_add(TWO, TWO, quick_contour(-2.0, 2.0))
    for n, expect in ((2, 2.0), (4, 6.0), (6, 20.0)):
        assert moment(out, n) == pytest.approx(expect, rel=1e-2)
    arcsine = make_law(LawSpec.arcsine(2.0), 2000)
    assert density_l1_distance(arcsine, out) <= 2e-2


def test_free_add_commutes():
    a = free_add(SEMI, MP1, quick_contour(-2.0, 6.0))
    b = free_add(MP1, SEMI, quick_contour(-2.0, 6.0))
    assert density_l1_distance(a, b) <= 1e-3


def test_free_add_identity_element():
    out = free_add(SEMI, dirac(0.0), quick_contour(-2.0, 2.0))
    assert density_l1_distance(SEMI, out) <= 1e-2


def test_free_add_mean_and_variance_additive():
    mu = make_law(LawSpec.marchenko_pastur(0.5), 1500)
    out = free_add(mu, SEMI, quick_contour(-3.0, 5.0))
    assert moment(out, 1) == pytest.approx(moment(mu, 1), abs=1e-3)
    assert variance(out) == pytest.approx(variance(mu) + 1.0, abs=1e-3)


def test_free_add_matches_series_oracle():
    out = free_add(MP1, SEMI, quick_contour(-2.0, 6.0))
    expect = free_add_series(
        MomentVector.from_measure(MP1, 8), MomentVector.from_measure(SEMI, 8)
    )
    got = MomentVector.from_measure(out, 8)
    rel = np.abs(got.m - expect.m) / np.maximum(1.0, np.abs(expect.m))
    assert np.max(rel) <= 1e-2


def test_free_add_associative_at_desk_scale():
    ab = free_add(SEMI, TWO, quick_contour(-3.0, 3.0))
    abc1 = free_add(ab, dirac(1.0), quick_contour(-2.5, 4.5))
    bc = free_add(TWO, dirac(1.0), quick_contour(-1.0, 3.0))
    abc2 = free_add(SEMI, bc, quick_contour(-2.5, 4.5))
    assert density_l1_distance(abc1, abc2) <= 2e-2


# Criterion 9's tolerances on the scaled moments 1-8: 1e-2 where an operand
# has an atom or a singular edge, else 1e-3.
SEMI_HALF = make_law(LawSpec.semicircle(0.5), 2000)
MP_HALF = make_law(LawSpec.marchenko_pastur(0.5), 2000)
UNIF_POSITIVE = make_law(LawSpec.uniform(0.5, 1.5), 2000)


def _moment_gap(a, b):
    return scaled_moment_error(MomentVector.from_measure(a, 8).m,
                               MomentVector.from_measure(b, 8).m)


# Measured: 3.1e-5, 1.5e-4 and 1.9e-4.
@pytest.mark.parametrize("a, b, c, tol", [
    (SEMI, UNIF, SEMI_HALF, 1e-3),
    (UNIF, SEMI_HALF, TWO, 1e-2),
    (TWO, SEMI, UNIF, 1e-2),
], ids=["semicircle_uniform_semicircle", "uniform_semicircle_two_atom",
        "two_atom_semicircle_uniform"])
def test_free_add_groups_either_way(a, b, c, tol):
    left = free_add(free_add(a, b), c)
    right = free_add(a, free_add(b, c))
    assert _moment_gap(left, right) <= tol


# Measured: at most 2.0e-5 for the semicircle and 1.5e-4 for the uniform law.
@pytest.mark.parametrize("mu", [SEMI, UNIF], ids=["semicircle", "uniform"])
@pytest.mark.parametrize("a", [0.0, 0.7, 5.0])
def test_free_add_with_a_point_mass_is_the_shift(mu, a):
    assert _moment_gap(free_add(mu, dirac(a)), affine_map(mu, 1.0, a)) <= 1e-3


# Measured: at most 1.7e-3 for MP(1/2), whose square-root edge at 0.086
# criterion 9 counts as singular, and 2.3e-4 for the uniform law.
@pytest.mark.parametrize("mu, tol", [(MP_HALF, 1e-2), (UNIF_POSITIVE, 1e-3)],
                         ids=["marchenko_pastur_half", "uniform_positive"])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_free_multiply_by_a_point_mass_is_the_dilation(mu, tol, c):
    out = free_multiply(mu, dirac(c))
    assert _moment_gap(out, affine_map(mu, c, 0.0)) <= tol


# -- deterministic plus Gaussian --------------------------------------------------


def test_pastur_of_point_mass_is_semicircle():
    out = pastur_add_gaussian(dirac(0.0), 1.0, quick_contour(-2.0, 2.0))
    assert density_l1_distance(SEMI, out) <= 1e-2


def test_pastur_vanishing_noise():
    out = pastur_add_gaussian(TWO, 1e-6, quick_contour(-1.1, 1.1, 600))
    assert density_l1_distance(TWO, out, atom_position_tol=1e-3) <= 2e-2


def test_pastur_matches_free_add_with_semicircle():
    contour = quick_contour(-3.0, 3.0)
    a = pastur_add_gaussian(TWO, 1.0, contour)
    b = free_add(TWO, SEMI, contour)
    assert density_l1_distance(a, b) <= 1e-2


@st.composite
def atoms_and_sigma(draw):
    """2-5 atoms in [-2, 2], at least 0.5 apart, and sigma in [0.3, 1.5]."""
    n = draw(st.integers(2, 5))
    slack = 4.0 - 0.5 * (n - 1)
    at = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    wts = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    atoms = [(-2.0 + slack * u + 0.5 * i, wt / sum(wts))
             for i, (u, wt) in enumerate(zip(at, wts))]
    return atoms, draw(st.floats(0.3, 1.5))


def _semicircle_moments(sigma):
    """Moments 1-8 of the semicircle of variance sigma^2: sigma^k C_{k/2}."""
    return MomentVector(np.array(
        [0.0, sigma ** 2, 0.0, 2 * sigma ** 4, 0.0, 5 * sigma ** 6, 0.0,
         14 * sigma ** 8]))


@settings(max_examples=30)
@given(atoms_and_sigma())
def test_pastur_moments_match_the_series_oracle(case):
    # Moments 1-8 against the free sum's series with the semicircle's
    # moments sigma^k C_{k/2}, at criterion 9's tolerance for atoms.
    atoms, sigma = case
    mu = make_law(LawSpec.atom_list(atoms), 0)
    expected = free_add_series(MomentVector.from_measure(mu, 8),
                               _semicircle_moments(sigma))
    got = MomentVector.from_measure(pastur_add_gaussian(mu, sigma), 8)
    assert scaled_moment_error(got.m, expected.m) <= 1e-2


# -- free multiplication ----------------------------------------------------------


def test_free_multiply_identity():
    out = free_multiply(MP1, dirac(1.0), quick_contour(-0.5, 4.5))
    assert density_l1_distance(MP1, out) <= 1e-2


def test_free_multiply_atom_scales():
    out = free_multiply(MP1, dirac(2.0), quick_contour(-1.0, 9.0))
    expect = affine_map(MP1, 2.0, 0.0)
    assert density_l1_distance(expect, out) <= 1e-2


def test_free_multiply_fuss_catalan_moments():
    out = free_multiply(MP1, MP1)
    for n, expect in ((1, 1.0), (2, 3.0), (3, 12.0), (4, 55.0)):
        assert moment(out, n) == pytest.approx(expect, rel=1e-2)


def test_free_multiply_commutes():
    mp_half = make_law(LawSpec.marchenko_pastur(0.5), 1500)
    a = free_multiply(MP1, mp_half, quick_contour(-0.5, 10.0))
    b = free_multiply(mp_half, MP1, quick_contour(-0.5, 10.0))
    assert density_l1_distance(a, b) <= 1e-3


def test_free_multiply_mean_multiplicative():
    mp_half = make_law(LawSpec.marchenko_pastur(0.5), 1500)
    out = free_multiply(MP1, mp_half, quick_contour(-0.5, 10.0))
    expect = moment(MP1, 1) * moment(mp_half, 1)
    assert moment(out, 1) == pytest.approx(expect, rel=1e-3)


def test_free_multiply_matches_series_oracle():
    mp_half = make_law(LawSpec.marchenko_pastur(0.5), 1500)
    out = free_multiply(MP1, mp_half, quick_contour(-0.5, 10.0))
    expect = free_multiply_series(
        MomentVector.from_measure(MP1, 8),
        MomentVector.from_measure(mp_half, 8),
    )
    got = MomentVector.from_measure(out, 8)
    rel = np.abs(got.m - expect.m) / np.maximum(1.0, np.abs(expect.m))
    assert np.max(rel) <= 1e-2


def test_free_multiply_rejects_negative_support():
    with pytest.raises(ValidationError):
        free_multiply(SEMI, MP1)
    for pair in ((dirac(0.0), dirac(0.0)), (dirac(0.0), MP1),
                 (MP1, dirac(0.0))):
        with pytest.raises(ValidationError):
            free_multiply(*pair)


# -- edges and cuts in density recovery ----------------------------------------


def _oracle_error(out, expected):
    """Scaled moment error of ``out`` on orders 1-8 (criterion 9's metric)."""
    return scaled_moment_error(MomentVector.from_measure(out, 8).m,
                               expected.m)


@pytest.mark.parametrize("pipeline, mu, other", [
    (free_add, SEMI, UNIF),
    (free_add, UNIF, UNIF),
    (free_add, SEMI, SEMI),
    (free_add, TWO, make_law(LawSpec.semicircle(0.5), 2000)),
    (pastur_add_gaussian, make_law(LawSpec.uniform(-1.0, 1.0), 500), 0.5),
], ids=["semicircle_uniform", "uniform_uniform", "semicircle_semicircle",
        "two_atom_semicircle", "pastur_uniform"])
def test_symmetric_inputs_recover_a_symmetric_law_without_ties(pipeline, mu,
                                                               other):
    # Recovery cuts the contour beyond each soft edge and at the ends of
    # each refined edge zone.  A cut a whole number of spacings from a
    # node fell within an ulp of one, so one side kept a node the other
    # dropped: the semicircle-uniform sum had mean 7.1e-5, and its
    # 4.4e-16-wide cells made the shift below raise ValidationError.
    # Every cut now lies half a spacing off the nodes.
    out = pipeline(mu, other)
    m = MomentVector.from_measure(out, 8).m
    assert np.max(np.abs(m[0::2]) / _moment_scales(m)[0::2]) <= 1e-9
    affine_map(out, 1.0, 5.0)


ERRATIC_SUM = (make_law(LawSpec.semicircle(0.9171298334287249), 500),
               make_law(LawSpec.uniform(-1.1655306904028395,
                                        0.9549790956797193), 500))
ERRATIC_PASTUR = (make_law(LawSpec.uniform(-1.029246699411188,
                                           1.029246699411188), 500),
                  0.5039826881782143)
# A soft edge is anchored at the node where the mass reaches 1e-4 and
# everything 2.5 spacings beyond it is dropped, so how much mass the cut
# takes depends on where the nodes fall (ROADMAP item 2): 1.29, 1.89 and
# 1.42 times the tolerance at these points.
EDGE_ANCHOR_MISSES = pytest.mark.xfail(
    strict=True, reason="quantile anchor of a soft edge cuts off mass")


@pytest.mark.parametrize("case, points", [
    ("sum", 1000), ("sum", 2000), ("pastur", 1000), ("pastur", 2000),
    ("pastur", 4000),
    pytest.param("sum", 500, marks=EDGE_ANCHOR_MISSES),
    pytest.param("sum", 4000, marks=EDGE_ANCHOR_MISSES),
    pytest.param("pastur", 500, marks=EDGE_ANCHOR_MISSES),
])
def test_erratic_operands_meet_the_oracle(case, points):
    # Operands at which the order-8 moment error once jumped past
    # criterion 9's tolerance (1.85 and 1.45 at 1000 points, where a cut
    # fell on a contour node), against 0.2-0.3 at nearby parameters.
    if case == "sum":
        mu1, mu2 = ERRATIC_SUM
        (lo1, hi1), (lo2, hi2) = mu1.support(), mu2.support()
        out = free_add(mu1, mu2, default_contour(lo1 + lo2, hi1 + hi2,
                                                 points))
        expected = free_add_series(MomentVector.from_measure(mu1, 8),
                                   MomentVector.from_measure(mu2, 8))
    else:
        mu, sigma = ERRATIC_PASTUR
        lo, hi = mu.support()
        out = pastur_add_gaussian(
            mu, sigma, default_contour(lo - 2 * sigma, hi + 2 * sigma, points))
        expected = free_add_series(MomentVector.from_measure(mu, 8),
                                   _semicircle_moments(sigma))
    assert _oracle_error(out, expected) <= 1e-3


@pytest.mark.parametrize("seed", range(1, 21))
def test_mp_products_keep_half_their_tolerance(seed):
    # The ratio pairs the benchmark's dense workload draws from seeds
    # 1-20, on its 500-cell grids and 1000-point contour.  A cut on a
    # contour node took the error to 0.56 and 0.59 of criterion 9's
    # singular-edge tolerance (1e-2) at seeds 10 and 13; with every cut
    # off the nodes it is at most 0.24.
    rng = np.random.default_rng(seed)
    c1, c2 = rng.uniform(0.48, 0.52), rng.uniform(0.58, 0.62)
    mu1 = make_law(LawSpec.marchenko_pastur(c1), 500)
    mu2 = make_law(LawSpec.marchenko_pastur(c2), 500)
    (lo1, hi1), (lo2, hi2) = mu1.support(), mu2.support()
    out = free_multiply(mu1, mu2,
                        default_contour(lo1 * lo2, hi1 * hi2, 1000))
    expected = free_multiply_series(MomentVector.from_measure(mu1, 8),
                                    MomentVector.from_measure(mu2, 8))
    assert _oracle_error(out, expected) <= 0.5e-2


# -- support hulls --------------------------------------------------------------


def _semicircle_sum_edge(a, b):
    return 2.0 * np.hypot(a, b)


def _pastur_uniform_edges(c, h, sigma):
    """Edges of Pastur(uniform(c - h, c + h), sigma): z(omega) = omega +
    sigma^2 G(omega) at omega = c -+ sqrt(h^2 + sigma^2) (Biane 1997)."""
    def z(om):
        return om + sigma * sigma / (2 * h) * np.log((om - c + h) / (om - c - h))
    r = np.sqrt(h * h + sigma * sigma)
    return z(c - r), z(c + r)


MP1_500 = make_law(LawSpec.marchenko_pastur(1.0), 500)
TWO_WIDE = make_law(LawSpec.two_atom(0.5, -3.0, 3.0))


# (evaluator, closed-form hull, relative tolerance).  The semicircle sums
# and MP(1) x MP(1) are exact for the continuous laws, so their tolerance
# is the discretization of the operands (the bounds read 2.0e-7 and 3.3e-4
# relative); Pastur on the uniform law is exact on its cells and within
# the search's tolerance (at most 8.4e-8 measured); the rest are the naive
# bounds, which atoms at the edges or a point-mass operand reach exactly.
HULL_CASES = {
    "semicircle_sum": (
        lambda: FreeSumResolvent(make_law(LawSpec.semicircle(0.7), 2000),
                                 make_law(LawSpec.semicircle(1.3), 2000)),
        (-_semicircle_sum_edge(0.7, 1.3), _semicircle_sum_edge(0.7, 1.3)),
        1e-6),
    "semicircle_self_sum": (
        lambda: FreeSumResolvent(SEMI, SEMI),
        (-_semicircle_sum_edge(1.0, 1.0), _semicircle_sum_edge(1.0, 1.0)),
        1e-6),
    "pastur_uniform": (
        lambda: PasturResolvent(make_law(LawSpec.uniform(0.3 - 0.8,
                                                         0.3 + 0.8), 500),
                                1.2),
        _pastur_uniform_edges(0.3, 0.8, 1.2), 1e-6),
    "pastur_narrow_uniform": (
        lambda: PasturResolvent(make_law(LawSpec.uniform(-2.2, -1.8), 500),
                                0.05),
        _pastur_uniform_edges(-2.0, 0.2, 0.05), 1e-6),
    # G of the semicircle stays below 1/sigma = 2, so the scan reaches the
    # end of K_2's domain before the least value; Pastur's convex search
    # on the same law needs no inversion
    "atoms_plus_semicircle": (
        lambda: FreeSumResolvent(TWO_WIDE, make_law(LawSpec.semicircle(0.5),
                                                    2000)),
        PasturResolvent(TWO_WIDE, 0.5).hull(), 1e-6),
    "bernoulli_self_sum": (lambda: FreeSumResolvent(TWO, TWO), (-2.0, 2.0),
                           0.0),
    "bernoulli_sum": (
        lambda: FreeSumResolvent(make_law(LawSpec.two_atom(0.5, -0.5, 0.5)),
                                 TWO),
        (-1.5, 1.5), 0.0),
    "shift": (lambda: FreeSumResolvent(SEMI500, dirac(0.7)), (-1.3, 2.7),
              0.0),
    "dilation": (
        lambda: FreeProductResolvent(MP_HALF500, dirac(3.0)),
        (3.0 * (1.0 - np.sqrt(0.5)) ** 2, 3.0 * (1.0 + np.sqrt(0.5)) ** 2),
        1e-15),
    "marchenko_pastur_product": (
        lambda: FreeProductResolvent(MP1, MP1_500), (0.0, 27.0 / 4.0), 1e-3),
    # one measure on both sides takes the self-product's formula
    "marchenko_pastur_self_product": (
        lambda: FreeProductResolvent(MP1, MP1), (0.0, 27.0 / 4.0), 1e-3),
}


@pytest.mark.parametrize("case", sorted(HULL_CASES))
def test_hull_matches_the_closed_form(case):
    make, (lo, hi), rtol = HULL_CASES[case]
    got_lo, got_hi = make().hull()
    scale = max(abs(lo), abs(hi))
    assert abs(got_lo - lo) <= rtol * scale
    assert abs(got_hi - hi) <= rtol * scale


def test_bounds_come_from_the_operands_alone():
    # A hull costs a few hundred scalar kernel calls on the operands and
    # no pipeline solve; evaluators that declare none keep the whole line.
    ev = FreeSumResolvent(SEMI500, UNIF500)
    counts = [0, 0]
    _counting(ev.op1, counts, 0)
    _counting(ev.op2, counts, 1)
    lo, hi = ev.hull()
    assert -3.0 < lo < -2.2 and 2.2 < hi < 3.0
    assert 0 < counts[0] + counts[1] <= 600
    assert stieltjes.ResolventEvaluator().hull() == (-np.inf, np.inf)
    assert MeasureResolvent(SEMI).hull() == SEMI.support()


def _inversions(monkeypatch):
    """Count the inverters that the hull bounds build."""
    built = [0]

    def counted(*args):
        built[0] += 1
        return _inverter(*args)

    monkeypatch.setattr(arithmetic, "_inverter", counted)
    return built


def _equal_resolvents(spec):
    """One operand's resolvent, and a second one on an equal copy of its
    measure, which the bounds treat as a different operand."""
    return [MeasureResolvent(make_law(spec, 500)) for _ in range(2)]


# A self-convolution's bound takes operand 2's root at y_2 = y_1 (K_2 of
# G_1(y_1), or lambda_2 of h(y_1) - 1) with no inversion; an equal copy of
# the measure takes the inversion path to the same root.
@pytest.mark.parametrize("s", [-1, 1])
@pytest.mark.parametrize("spec", [
    LawSpec.semicircle(1.0), LawSpec.uniform(-1.0, 1.0),
    LawSpec.marchenko_pastur(0.5), LawSpec.arcsine(1.0)], ids=str)
def test_a_self_sum_bound_is_the_general_formula(spec, s, monkeypatch):
    op, copy = _equal_resolvents(spec)
    built = _inversions(monkeypatch)
    same = _sum_edge(op, op, s)
    assert built[0] == 0
    other = _sum_edge(op, copy, s)
    assert built[0] == 1
    lo, hi = op.support
    assert same is not None and abs(same - other) <= 1e-12 * 2.0 * (hi - lo)


@pytest.mark.parametrize("spec", [
    LawSpec.marchenko_pastur(1.0), LawSpec.marchenko_pastur(0.5),
    LawSpec.uniform(0.5, 1.5)], ids=str)
def test_a_self_product_bound_is_the_general_formula(spec, monkeypatch):
    op, copy = _equal_resolvents(spec)
    built = _inversions(monkeypatch)
    m = moment(op.measure, 1)
    same = _product_edge(op, op, m)
    assert built[0] == 0
    other = _product_edge(op, copy, m)
    assert built[0] == 1
    lo, hi = op.support
    assert same is not None and abs(same - other) <= 1e-12 * (hi * hi - lo * lo)


INVERTED = {"semicircle": SEMI, "uniform": UNIF, "two_atom": TWO,
            "mp_half": MP_HALF}


def _inverse_of(mu):
    """A maker of right-side inverters of ``mu``'s G, its (G, G'), its
    edge, its scale and G at the inverters' hair."""
    edge, width, gd = _side(MeasureResolvent(mu), 1)
    scale = width + abs(edge)
    return ((lambda: _inverter(edge, width, gd, 1.0)), gd, edge, scale,
            gd(edge + 1e-12 * scale)[0])


# Distances past the edge, relative to width + |edge|, at which y's
# rounding leaves 1/G room to meet the inverter's tolerance: G falls, then
# rises.
INVERTED_AT = np.array([1e-4, 1e-3, 0.01, 0.1, 1.0, 4.0, 0.3, 0.03, 3e-3,
                        3e-4])


@pytest.mark.parametrize("name", sorted(INVERTED))
def test_the_inverter_meets_its_residual(name):
    make, gd, edge, scale, g_top = _inverse_of(INVERTED[name])
    inverse = make()
    for d in INVERTED_AT * scale:
        g = gd(edge + d)[0]
        y, gp = inverse(g)
        gy, gpy = gd(y)
        assert y > edge and gp == gpy
        assert abs(1.0 / gy - 1.0 / g) <= 1e-11 / g
    # closer to the edge, where y's rounding keeps 1/G from resolving
    # 1e-11/g, a root is still found, within the change in 1/G over one
    # ulp of y
    for g in g_top * np.geomspace(1e-4, 0.999, 30):
        y, gp = inverse(g)
        gy, gpy = gd(y)
        assert y > edge and gp == gpy
        ulp = -gpy / (gy * gy) * abs(np.spacing(y))
        assert abs(1.0 / gy - 1.0 / g) <= max(1e-11 / g, ulp)


def test_the_inverter_gives_none_outside_its_range():
    make, _, _, _, g_top = _inverse_of(SEMI)
    inverse = make()
    for g in (-1.0, 0.0, g_top, 2.0 * g_top):
        assert inverse(g) is None
    assert inverse(0.5 * g_top) is not None
    # a point mass at 0 has no length to take a hair from
    edge, width, gd = _side(MeasureResolvent(dirac(0.0)), 1)
    point = _inverter(edge, width, gd, 1.0)
    assert all(point(g) is None for g in (1e-3, 1.0, 1e3))


@pytest.mark.parametrize("name", sorted(INVERTED))
def test_warm_starts_do_not_move_a_root(name):
    # Each solve starts from the last root found, left or right of it.
    # Both roots meet |1/G - 1/g| <= 1e-11/g, so they may differ by up to
    # 2e-11 g/|G'| (3.2e-12 relative on MP(1/2), the most measured); a root
    # on another branch, or one that kept its seed, would not.
    make, gd, edge, scale, _ = _inverse_of(INVERTED[name])
    inverse = make()
    for d in INVERTED_AT * scale:
        g, gp = gd(edge + d)
        warm, cold = inverse(g)[0], make()(g)[0]
        assert abs(warm - cold) <= 2e-11 * g / abs(gp)


def _output_atoms(atoms1, atoms2, op=np.add):
    """Positions of the atoms of a sum, or with ``op=np.multiply`` of a
    product: op(a, b) wherever mu({a}) + nu({b}) > 1 (Bercovici and
    Voiculescu 1998)."""
    return [op(a, b) for a, v in atoms1 for b, w in atoms2 if v + w > 1.0]


# Atom lists moved onto (0, inf), their positions at least 1e-3 apart.
positive_atom_lists = atom_lists().map(
    lambda atoms: tuple((float(np.exp(x / 5.0)), w) for x, w in atoms)
).filter(lambda atoms: np.min(np.diff(sorted(x for x, _ in atoms)),
                              initial=1.0) >= 1e-3)


ATOMLESS = [spec for spec in CONTINUOUS
            if spec != LawSpec.marchenko_pastur(2.0)]


@st.composite
def continuous_laws(draw, positive=False):
    """A catalog law without atoms on 100 to 600 points, moved onto [0.5,
    1.5] where ``positive``."""
    law = make_law(draw(st.sampled_from(ATOMLESS)), draw(st.integers(100, 600)))
    if not positive:
        return law
    lo, hi = law.support()
    return affine_map(law, 1.0 / (hi - lo), 0.5 - lo / (hi - lo))


@st.composite
def hull_cases(draw):
    """A Pastur, self-sum or sum evaluator on the atom lists of
    ``atoms_and_sigma``; Pastur on a gapped mixture, or a gapped mixture
    plus a continuous law; a product or self-product of positive atom
    lists, or of a gapped mixture moved onto [0.5, inf) and a positive
    continuous law.  Each with where the output's atoms sit."""
    kind = draw(st.sampled_from(["pastur", "self_sum", "sum", "gapped_pastur",
                                 "gapped_sum", "product", "self_product",
                                 "gapped_product"]))
    if kind == "gapped_pastur":
        return PasturResolvent(draw(gapped_measures()),
                               draw(st.floats(0.05, 1.0))), []
    if kind == "gapped_sum":
        return FreeSumResolvent(draw(gapped_measures()),
                                draw(continuous_laws())), []
    if kind == "gapped_product":
        return FreeProductResolvent(affine_map(draw(gapped_measures()), 1.0,
                                               1.5),
                                    draw(continuous_laws(positive=True))), []
    if kind in ("product", "self_product"):
        atoms = draw(positive_atom_lists)
        other = atoms if kind == "self_product" else draw(positive_atom_lists)
        mu = SpectralMeasure(atoms=atoms)
        nu = mu if kind == "self_product" else SpectralMeasure(atoms=other)
        return (FreeProductResolvent(mu, nu),
                _output_atoms(atoms, other, np.multiply))
    atoms, sigma = draw(atoms_and_sigma())
    mu = make_law(LawSpec.atom_list(atoms))
    if kind == "pastur":
        return PasturResolvent(mu, sigma), []
    if kind == "self_sum":
        return FreeSumResolvent(mu, mu), _output_atoms(atoms, atoms)
    other = draw(atoms_and_sigma())[0]
    return (FreeSumResolvent(mu, make_law(LawSpec.atom_list(other))),
            _output_atoms(atoms, other))


@settings(max_examples=60)
@given(hull_cases())
def test_hull_is_never_inside_the_support(case):
    # Just outside the support -Im G(x + i eps) = eps * int dmu/((x -
    # t)^2 + eps^2) falls in proportion to eps while eps is well below the
    # distance to the support; inside it tends to pi times the density.  So
    # 1e-6 of the width beyond each bound, it must fall about a hundredfold
    # from eps = 1e-7 to 1e-9 of the width, whatever the density does at
    # the edge.  An output atom at the edge is skipped: there the bound is
    # the naive one and the atom's own eps/x^2 tail is what the test would
    # read.
    ev, atoms = case
    lo, hi = ev.hull()
    assert ev.support[0] <= lo <= hi <= ev.support[1]
    width = hi - lo
    for edge, x in ((lo, lo - 1e-6 * width), (hi, hi + 1e-6 * width)):
        if any(abs(a - edge) <= 1e-9 * width for a in atoms):
            continue
        g = ev.value_and_derivative(x + np.array([1e-7j, 1e-9j]) * width)[0]
        assert g[0].imag / g[1].imag >= 50.0


class _WholeLine(stieltjes.ResolventEvaluator):
    """An evaluator's answers with no hull declared, and the abscissae of
    each ``sample_columns`` call."""

    def __init__(self, ev):
        self.ev, self.calls = ev, []
        self.support, self.edge_hints = ev.support, ev.edge_hints

    def value_and_derivative(self, z):
        return self.ev.value_and_derivative(z)

    def sample_columns(self, xs, eps):
        self.calls.append(np.array(xs))
        return self.ev.sample_columns(xs, eps)


def _invert_or_error(ev, contour):
    try:
        return stieltjes.stieltjes_invert(ev, contour)
    except (NumericalError, ValidationError) as err:
        return type(err)


# How far skipping may move the output's moments (scaled as criterion 9
# scales them) and its atom weights.  Sums and Pastur move by rounding: at
# most 1.1e-12 over 142 random cases.  A product of atom lists has steep
# edges, whose extrapolation residue reaches well past the hull; without
# the skip those far columns join the mass that the quantile edges and the
# renormalization read, so the two answers part by up to 3.7e-4 over 559
# random cases (the bound is a tenth of criterion 9's 1e-2 for atoms).
# Against the series oracle the answer with the skip was the closer in 79
# of the 92 cases where the two differed by more than 1e-4 relative.
SKIP_TOL = {"sum": 1e-8, "pastur": 1e-8, "gapped_sum": 1e-8, "product": 1e-3}


@st.composite
def skip_cases(draw):
    """Sums of atom lists, Pastur on a gapped mixture, a gapped mixture plus
    an atom list, and products of atom lists moved onto (0, inf); each
    with its tolerance from SKIP_TOL."""
    kind = draw(st.sampled_from(sorted(SKIP_TOL)))
    if kind == "sum":
        ev = FreeSumResolvent(SpectralMeasure(atoms=draw(atom_lists())),
                              SpectralMeasure(atoms=draw(atom_lists())))
    elif kind == "pastur":
        ev = PasturResolvent(draw(gapped_measures()),
                             draw(st.floats(0.05, 1.0)))
    elif kind == "gapped_sum":
        ev = FreeSumResolvent(draw(gapped_measures()),
                              SpectralMeasure(atoms=draw(atom_lists())))
    else:
        ev = FreeProductResolvent(
            SpectralMeasure(atoms=draw(positive_atom_lists)),
            SpectralMeasure(atoms=draw(positive_atom_lists)))
    return ev, SKIP_TOL[kind]


@settings(max_examples=30)
@given(skip_cases())
def test_skipping_columns_outside_the_hull_keeps_the_answer(case):
    # The columns beyond the hull carry no mass, so dropping them leaves
    # the same atoms and moments; where the pipeline fails, it fails the
    # same way with or without them.
    ev, tol = case
    contour = default_contour(*ev.support, points=600)
    whole = _WholeLine(ev)
    got, expect = _invert_or_error(ev, contour), _invert_or_error(whole,
                                                                  contour)
    assert whole.calls[0].size == contour.real_grid.size
    if isinstance(expect, type):
        assert got is expect
        return
    # the sweep's path depends on which columns it is given, so G moves
    # within the solver's tolerance
    width = np.ptp(contour.real_grid)
    assert len(got.atoms) == len(expect.atoms)
    for (x, w), (x0, w0) in zip(got.atoms, expect.atoms):
        assert abs(x - x0) <= 1e-12 * width
        assert abs(w - w0) <= tol * w0
    m = MomentVector.from_measure(got, 8).m
    m0 = MomentVector.from_measure(expect, 8).m
    assert np.all(np.abs(m - m0) <= tol * _moment_scales(m0))


def test_a_contour_outside_the_hull_is_a_coverage_error():
    contour = stieltjes.ContourSpec(np.linspace(3.0, 4.0, 100))
    with pytest.raises(SupportCoverageError, match=r"hull \[-2.8284"):
        stieltjes.stieltjes_invert(FreeSumResolvent(SEMI500, SEMI500),
                                   contour)
    # the naive support reaches the contour, so the whole line's answer
    # is a mass that misses the window
    with pytest.raises(SupportCoverageError, match="recovered mass"):
        stieltjes.stieltjes_invert(
            _WholeLine(FreeSumResolvent(SEMI500, SEMI500)), contour)


def test_an_evaluator_without_a_hull_loses_no_column():
    contour = default_contour(-2.0, 2.0, 400)
    whole = _WholeLine(MeasureResolvent(SEMI500))
    stieltjes.stieltjes_invert(whole, contour)
    assert np.array_equal(whole.calls[0], contour.real_grid)
    # a stored measure declares its support: 4 eps_0 + 2 spacings beyond
    # it is kept, the rest of the 0.4-wide margins is not solved
    seen = []
    ev = MeasureResolvent(SEMI500)
    original = ev.sample_columns
    ev.sample_columns = lambda xs, eps: seen.append(xs) or original(xs, eps)
    stieltjes.stieltjes_invert(ev, contour)
    xs = contour.real_grid
    margin = 4 * contour.epsilon_schedule[0] + 2 * np.median(np.diff(xs))
    assert np.array_equal(seen[0], xs[np.abs(xs) <= 2.0 + margin])
    assert seen[0].size == 344


# -- the two-operand contour solve ---------------------------------------------


def _counting(r, counts, i):
    """Count the points that ``r`` is evaluated at into ``counts[i]``: one
    per ``vd_scalar`` call and one per point of an array call."""
    def count(fn):
        def counted(z):
            counts[i] += np.size(z)
            return fn(z)
        return counted
    r.vd_scalar = count(r.vd_scalar)
    r.value_and_derivative = count(r.value_and_derivative)


def _kernel_calls(resolvents, ev, columns=None):
    """Sweep ``ev`` over ``columns`` (abscissae, ladders), by default 24
    coarse two-rung columns, and count kernel points per resolvent.  A
    resolvent listed twice (the one operand of a self-convolution) counts
    at its first place only."""
    counts = [0] * len(resolvents)
    for i, r in enumerate(resolvents):
        if all(r is not other for other in resolvents[:i]):
            _counting(r, counts, i)
    if columns is None:
        xs = np.linspace(-3.0, 5.0, 24)
        columns = xs, [np.array([1e-2, 5e-3])] * len(xs)
    ev.sample_columns(*columns)
    return counts


@pytest.mark.parametrize("same", [True, False])
def test_sweep_kernel_calls_per_point(same):
    # A self-convolution evaluates only its first operand, and the warm
    # sweep keeps the solve to a few kernel calls per contour point.
    mu = make_law(LawSpec.atom_list([(0.5, 0.5), (2.0, 0.5)]))
    other = make_law(LawSpec.atom_list([(0.5, 0.5), (3.0, 0.5)]))
    mu2 = mu if same else other
    ev = FreeSumResolvent(mu, mu2)
    assert (ev.op2 is ev.op1) == same
    sums = _kernel_calls([ev.op1, ev.op2], ev)
    ev = FreeProductResolvent(mu, mu2)
    assert (ev.op2 is ev.op1) == same
    products = _kernel_calls([ev.op1, ev.op2], ev)
    for first, second in (sums, products):
        assert first > 0
        assert (second == 0) if same else (second > 0)
        assert (first + second) / (24 * 2) <= 20


def test_sum_solves_in_the_gap_of_its_support():
    # The nested inverse-function solve stalled at this point of the gap
    # around 0; Pastur's equation gives the same law.
    two = make_law(LawSpec.two_atom(0.5, -3.0, 3.0))
    ev = FreeSumResolvent(two, make_law(LawSpec.semicircle(0.5), 200))
    z = complex(-0.0024012006003006903, 0.0025)
    got = ev.sample_columns([z.real], [[z.imag]])[0][0]
    expect = PasturResolvent(two, 0.5).sample_columns([z.real],
                                                      [[z.imag]])[0][0]
    assert abs(got - expect) <= 1e-5 * abs(expect)


def test_contour_failure_names_the_evaluator():
    ev = FreeSumResolvent(TWO, SEMI)
    ev.op2.vd_scalar = lambda w: (complex("nan"), complex("nan"))
    z = complex(0.5, 0.01)
    with pytest.raises(PipelineError, match="^FreeSumResolvent: ") as info:
        ev.sample_columns([z.real], [[z.imag]])
    assert info.value.point == z


SEMI500 = make_law(LawSpec.semicircle(1.0), 500)
UNIF500 = make_law(LawSpec.uniform(-1.0, 1.0), 500)
MP500 = make_law(LawSpec.marchenko_pastur(1.0), 500)
MP_HALF500 = make_law(LawSpec.marchenko_pastur(0.5), 500)


def _uniform_pastur_edge(sigma):
    # Left edge of uniform(-1, 1) plus a Gaussian of scale sigma (so for
    # sigma = 1 of semicircle(1) + uniform(-1, 1)): the real omega < -1
    # with sigma^2 / (omega^2 - 1) = 1, mapped by z = omega + sigma^2
    # G(omega) (Biane 1997).
    om = -np.sqrt(1.0 + sigma * sigma)
    return om + sigma * sigma * 0.5 * np.log((om + 1.0) / (om - 1.0))


# (evaluator, its left support edge, kernel points per contour point
# allowed on the 400- and on the 2000-column sweep, each point of an array
# call counting as one).  The septic Hermite predictor through four
# columns of Newton-refined history took 1.51, 2.87, 2.99, 1.57 solved
# serially, against 2.12, 4.10, 4.04, 2.17 for the quintic one through
# three columns of accepted iterates.  With step-controlled anchors
# solving every rung serially the sweep took 1.78, 3.35, 3.29 and 1.76
# there, and 1.22, 2.43, 2.42 and 1.21 on 2000 columns.  With one serial
# path through the anchors' top points, and every other point seeded from
# it, it takes 1.45, 2.82, 2.82 and 1.46, and 1.10, 2.19, 2.18 and 1.11;
# the bounds leave about 5 %.
SWEEP_CASES = {
    "sum_same": (lambda: FreeSumResolvent(SEMI500, SEMI500),
                 -2.0 * np.sqrt(2.0), (1.52, 1.16)),
    "sum_distinct": (lambda: FreeSumResolvent(SEMI500, UNIF500),
                     _uniform_pastur_edge(1.0), (2.96, 2.3)),
    "product": (lambda: FreeProductResolvent(MP500, MP_HALF500), 0.0,
                (2.96, 2.29)),
    "pastur": (lambda: PasturResolvent(UNIF500, 0.5),
               _uniform_pastur_edge(0.5), (1.53, 1.16)),
}


def _uniform_columns(ev, points=400):
    contour = default_contour(*ev.support, points=points)
    xs = contour.real_grid
    return xs, [contour.epsilon_schedule] * len(xs)


def _edge_columns(edge, width, top=1e-2, n_march=40, n_hand=6):
    """Columns shaped like stieltjes_invert's edge refinement: geometric
    offsets into ``edge`` from the right, each with a ladder that reaches
    a tenth of its offset."""
    spacing = 1.2 * width / 400
    offsets = np.concatenate([
        np.geomspace(1e-7 * width, 2.0 * spacing, n_march, endpoint=False),
        np.linspace(2.0 * spacing, 8.0 * spacing, n_hand),
    ])
    ladders = [_ladder(top, float(np.clip(d / 10.0, 3e-11 * width, top / 4)))
               for d in offsets]
    return edge + offsets, ladders


def _padded(ladders):
    """Ladders of any depths as one (columns x rungs) array, each padded
    with NaN at the bottom."""
    eps = np.full((len(ladders), max(len(lad) for lad in ladders)), np.nan)
    for row, lad in zip(eps, ladders):
        row[:len(lad)] = lad
    return eps


def _sweep_against_pointwise(ev, xs, eps):
    """Per offset of the (columns x rungs) array ``eps``, in row order:
    |sweep - cold|, |G| and |G'| * max(1, |z|) of the cold solve.  The
    sweep's G must be NaN exactly at the padding."""
    eps = np.asarray(eps, dtype=float)
    some = ~np.isnan(eps)
    got = ev.sample_columns(xs, eps)
    assert got.shape == eps.shape
    assert np.array_equal(np.isnan(got), ~some)
    z = (np.asarray(xs, dtype=float)[:, None] + 1j * eps)[some]
    g, gp = ev.value_and_derivative(z)
    return (np.abs(got[some] - g), np.abs(g),
            np.abs(gp) * np.maximum(1.0, np.abs(z)))


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_pointwise_solves(case):
    # Every solve of the sweep lands on the root that a cold, per-point
    # solve finds, on a uniform 3-rung contour and on edge-refinement
    # columns, whose ladders differ in depth and whose abscissae are
    # geometric, with full ladders and with the three bottom rungs that
    # edge refinement samples (no two neighbours then share every eps).
    # Next to a hard edge the fixed point is ill-conditioned: two solves
    # that both meet the Newton tolerance differ by up to 3e-7 relative
    # there, as they did when every solve was seeded from the previous
    # column.  So the edge columns are held to 1e-10 in G or in z.
    # The 2000-column contour is where the step control spaces the
    # anchors widest.
    make, edge, _ = SWEEP_CASES[case]
    ev = make()
    for points in (400, 2000):
        diff, g, _ = _sweep_against_pointwise(
            ev, *_uniform_columns(ev, points))
        assert np.max(diff / g) <= 1e-10
    lo, hi = ev.support
    xs, ladders = _edge_columns(edge, hi - lo)
    for lads in (ladders, [lad[-3:] for lad in ladders]):
        diff, g, gp_z = _sweep_against_pointwise(ev, xs, _padded(lads))
        assert np.max(diff / (g + gp_z)) <= 1e-10


def test_sweep_takes_columns_in_any_order():
    # A repeated top point restarts the serial path: two equal abscissae
    # in one history would zero a Lagrange weight's denominator, and they
    # leave the interpolated seeds of the points around them not finite,
    # so those are solved serially.  The last column repeats the
    # fourth-to-last, the oldest one a history holds.
    ev = PasturResolvent(UNIF500, 0.5)
    xs = [0.1, 0.2, 0.3, 0.2, 0.3, -0.4, 0.5, 0.6, 0.7, -0.4]
    diff, g, _ = _sweep_against_pointwise(ev, xs, [[1e-2, 5e-3]] * len(xs))
    assert np.max(diff / g) <= 1e-10


def test_a_column_without_offsets_is_invalid_input():
    # The serial path runs through each anchor's top offset, so a column
    # needs one: a row of padding alone is invalid.
    ev = PasturResolvent(UNIF500, 0.5)
    with pytest.raises(ValidationError, match="at least one offset"):
        ev.sample_columns([0.1, 0.2, 0.3],
                          [[1e-2, 5e-3], [np.nan, np.nan], [1e-2, 5e-3]])


@pytest.mark.parametrize("case", ["measure", "sum", "product", "pastur"])
def test_each_evaluator_answers_one_array_nan_at_the_padding(case):
    # sample_columns takes one (columns x rungs) array of offsets, a
    # shorter ladder padded with NaN at the bottom, and returns one
    # complex array of that shape, NaN exactly at the padding and G at
    # every other offset.
    ev = {"measure": lambda: MeasureResolvent(UNIF500),
          "sum": lambda: FreeSumResolvent(SEMI500, UNIF500),
          "product": lambda: FreeProductResolvent(MP500, MP_HALF500),
          "pastur": lambda: PasturResolvent(UNIF500, 0.5)}[case]()
    xs = np.linspace(0.2, 1.5, 12)
    eps = _padded([[1e-2, 5e-3, 2.5e-3]] * 4 + [[1e-2]] + [[1e-2, 5e-3]] * 3
                  + [[1e-2, 5e-3, 2.5e-3]] * 3 + [[1e-2, 5e-3]])
    got = ev.sample_columns(xs, eps)
    assert got.shape == (12, 3) and got.dtype == complex
    some = ~np.isnan(eps)
    assert np.array_equal(np.isnan(got), ~some)
    assert not np.isnan(got.real[some]).any()
    want = ev((xs[:, None] + 1j * eps)[some])
    assert np.max(np.abs(got[some] - want) / np.abs(want)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_sweeps_of_few_columns(n):
    # Anchors are column 0, the last, and those the step control puts
    # between, at least two columns apart: one to three columns leave zero
    # or one between, and the last anchor may follow the one before it.
    ev = FreeSumResolvent(SEMI500, UNIF500)
    xs = np.linspace(-1.0, 1.5, n)
    diff, g, _ = _sweep_against_pointwise(ev, xs, [[1e-2, 5e-3, 2.5e-3]] * n)
    assert diff.size == 3 * n
    assert np.max(diff / g) <= 1e-10


def test_array_hermite_interpolant_matches_the_scalar_predictor():
    # _hermite_rows is the serial predictor's interpolant written for
    # arrays, one stencil per point; the order of its sums differs, so it
    # agrees to rounding, and a stencil of one node is the line
    # w + w' (x - x_0).
    from freeconv.arithmetic import _hermite, _hermite_rows

    rng = np.random.default_rng(22)
    for n in (1, 2, 4, 6):
        nodes = (np.cumsum(rng.uniform(0.5, 1.5, (5, n)), axis=1)
                 + 1j * rng.uniform(0.5, 1.0, (5, n)))
        w = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        d = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        row = rng.integers(0, 5, 40)
        x = nodes[row, 0] + rng.uniform(0.0, n, 40) - 0.3j
        got = _hermite_rows(nodes, w, d, x, row)
        want = [_hermite(tuple(zip(nodes[r], w[r], d[r])), xi)
                for r, xi in zip(row, x)]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _recording_serial_solves(ev, seeds=None):
    """Record the z of every serial solve (anchors and fallbacks alike),
    and into ``seeds`` its predicted and warm seeds, keyed by z."""
    seen = []
    solve = ev._solve_from

    def recorded(z, predicted, warm):
        seen.append(z)
        if seeds is not None:
            seeds[z] = predicted, warm
        return solve(z, predicted, warm)

    ev._solve_from = recorded
    return seen


def _recording_anchors(ev):
    """Record the anchor columns of every sweep of ``ev``."""
    seen = []
    sweep = ev._sweep

    def recorded(xs, lads):
        anchors, path = sweep(xs, lads)
        seen.append(anchors.tolist())
        return anchors, path

    ev._sweep = recorded
    return seen


def test_arcsine_contour_is_mostly_solved_on_arrays():
    # two_atom(1/2, -1, 1) added to itself is the arcsine law on [-2, 2].
    # On a fine contour the step control solves under a quarter of the
    # columns serially (240 of 2000), and next to the hard edges, where
    # the predictor reaches only as far as the ladder's offsets, it keeps
    # the step at two columns.
    ev = FreeSumResolvent(TWO, TWO)
    anchors = _recording_anchors(ev)
    xs, ladders = _uniform_columns(ev, 2000)
    diff, g, _ = _sweep_against_pointwise(ev, xs, ladders)
    assert np.max(diff / g) <= 1e-10
    (anchors,) = anchors
    assert anchors[0] == 0 and anchors[-1] == len(xs) - 1
    assert len(anchors) < len(xs) / 4
    steps = np.diff(anchors)
    edge = np.abs(np.abs(xs[anchors]) - 2.0) <= 0.05
    assert np.all(steps[edge[:-1] | edge[1:]] <= 2)


def test_points_the_array_pass_rejects_are_solved_serially():
    # The array residual is NaN right of 0.2, so the array pass rejects
    # every point there but the anchors' top points, the lower rungs of
    # anchors as well as the columns between; the serial fallback must
    # land each on the root a cold solve finds.
    ev = PasturResolvent(UNIF500, 0.5)
    make = ev._map

    def rejecting(z, array):
        fixed = make(z, array)

        def fun(w):
            res, *rest = fixed(w)
            return (np.where(np.real(z) > 0.2, np.nan, res), *rest)

        return fun if array else fixed

    ev._map = rejecting
    seen = _recording_serial_solves(ev)
    anchors = _recording_anchors(ev)
    xs = np.linspace(-1.0, 1.0, 41)
    ladders = [[1e-2, 5e-3]] * len(xs)
    diff, g, _ = _sweep_against_pointwise(ev, xs, ladders)
    assert np.max(diff / g) <= 1e-10
    tops = {complex(xs[a], ladders[0][0]) for a in anchors[0]}
    rest = {complex(x, e) for x in xs for e in ladders[0]} - tops
    rejected = {z for z in rest if z.real > 0.2}
    assert len(rejected) >= 24 and set(seen) == tops | rejected


def test_serial_solves_are_the_anchors_top_points():
    # On a uniform 3-rung contour inside the support, away from the edges
    # where a lower rung's seed reaches towards the branch point, the
    # array pass accepts every seed.  So the serial level solves one path,
    # the top point of each anchor, and the anchors' lower rungs join the
    # columns between on arrays.
    ev = PasturResolvent(UNIF500, 0.5)
    seen = _recording_serial_solves(ev)
    anchors = _recording_anchors(ev)
    xs = np.linspace(-1.0, 1.0, 200)
    ladders = [default_contour(*ev.support).epsilon_schedule] * len(xs)
    assert len(ladders[0]) == 3
    diff, g, _ = _sweep_against_pointwise(ev, xs, ladders)
    assert np.max(diff / g) <= 1e-10
    (anchors,) = anchors
    assert seen == [complex(xs[c], ladders[c][0]) for c in anchors]


def test_a_far_seed_between_anchors_is_solved_from_the_point_above():
    # A point whose first residual in the array pass is far over its
    # tolerance is not searched from there: it is solved serially, warm
    # from the solved point above it in its column, and never from the
    # seed that was dropped.
    ev = PasturResolvent(UNIF500, 0.5)
    xs = np.linspace(-1.0, 1.0, 41)
    ladders = [[1e-2, 5e-3, 2.5e-3]] * len(xs)
    anchors = _recording_anchors(ev)
    ev.sample_columns(xs, ladders)
    c = min(set(range(len(xs))) - set(anchors[0]))
    far = complex(xs[c], 5e-3)
    make = ev._map

    def offset(z, array):
        fixed = make(z, array)

        def fun(w):
            res, *rest = fixed(w)
            return (np.where(z == far, res + 1.0, res), *rest)

        return fun if array else fixed

    ev._map = offset
    seeds = {}
    seen = _recording_serial_solves(ev, seeds)
    diff, g, _ = _sweep_against_pointwise(ev, xs, ladders)
    assert np.max(diff / g) <= 1e-10
    tops = {complex(xs[a], 1e-2) for a in anchors[1]}
    assert set(seen) == tops | {far}
    predicted, warm = seeds[far]
    above = ev._cold_states(xs[c], [1e-2])[0][0]
    assert predicted is None
    assert abs(warm - above) <= 1e-10 * abs(above)


def test_a_deep_ladder_on_one_column_matches_cold_solves():
    # _refine_atom weighs a pole on one column with a deep ladder: one
    # anchor, so every lower rung is seeded by a line through its top
    # point, and the rungs the array pass drops are solved down the column.
    # The sum has an atom of mass 0.3 at 0, where G ~ 0.3 / (z - a) is as
    # ill-conditioned in z as an edge, so it is held to 1e-10 in G or in z.
    one = make_law(LawSpec.atom_list([(0.0, 0.7), (1.0, 0.3)]))
    two = make_law(LawSpec.atom_list([(0.0, 0.6), (2.0, 0.4)]))
    lad = _ladder(1e-2, 1e-6)
    assert lad.size >= 10
    for ev in (FreeSumResolvent(one, two), PasturResolvent(UNIF500, 0.5)):
        for a in (0.0, 1e-3, 0.3):
            diff, g, gp_z = _sweep_against_pointwise(ev, [a], [lad])
            assert np.max(diff / (g + gp_z)) <= 1e-10


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_calls_per_point(case):
    # Each anchor's top point is seeded by extrapolating the path across
    # the last four anchors, and every other point by interpolating it, so
    # Newton needs about one correction per point.
    make, _, bounds = SWEEP_CASES[case]
    for points, bound in zip((400, 2000), bounds):
        ev = make()
        # Pastur, like a self-convolution, has one operand: op2 is op1
        ops = [ev.op1, ev.op2]
        if case in ("sum_same", "pastur"):
            assert ev.op2 is ev.op1
        columns = _uniform_columns(ev, points)
        calls = _kernel_calls(ops, ev, columns)
        assert sum(calls) / (3 * points) <= bound


def test_arcsine_sweep_on_edge_columns():
    # two_atom(1/2, -1, 1) added to itself is the arcsine law on [-2, 2],
    # with G(z) = 1/sqrt(z^2 - 4); its hard edges are the deepest test of
    # the predictor on non-uniform columns.
    ev = FreeSumResolvent(TWO, TWO)
    for edge, sign in ((-2.0, 1.0), (2.0, -1.0)):
        xs, ladders = _edge_columns(0.0, 4.0, n_march=144, n_hand=25)
        xs = edge + sign * xs
        order = np.argsort(xs)
        xs, eps = xs[order], _padded(ladders)[order]
        got = ev.sample_columns(xs, eps)
        some = ~np.isnan(eps)
        assert np.array_equal(np.isnan(got), ~some)
        z = (xs[:, None] + 1j * eps)[some]
        exact = 1.0 / (np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
        assert np.max(np.abs(got[some] - exact) / np.abs(exact)) <= 1e-5


def test_edge_refinement_samples_three_rungs(monkeypatch):
    # Density recovery reads only the three bottom rungs of an edge
    # column, so refinement solves only those.  Neighbouring columns then
    # share two offsets at most, and their top points shift by a rung now
    # and then.  The serial path runs through the top points at their
    # complex abscissae, so such a shift does not break its history, and
    # every other rung is seeded from that path at its own z: 1.67 kernel
    # points per point here.  Histories kept per offset took 2.08, and
    # histories keyed by position in the ladder, which extrapolate values
    # from other offsets, took 4.5.
    ev = FreeSumResolvent(TWO, TWO)
    refine = stieltjes._refine_edge
    columns, calls = [], [0]
    refining_now = [False]

    def refining(*args):
        # kernel points are counted while edge refinement runs only
        _counting(ev.op1, calls, 0)
        refining_now[0] = True
        try:
            return refine(*args)
        finally:
            refining_now[0] = False
            del ev.op1.vd_scalar, ev.op1.value_and_derivative

    def recording(xs, ladders):
        if refining_now[0]:
            columns.extend(zip(xs, ladders))
        return FreeSumResolvent.sample_columns(ev, xs, ladders)

    monkeypatch.setattr(stieltjes, "_refine_edge", refining)
    ev.sample_columns = recording
    contour = default_contour(*ev.support)
    stieltjes.stieltjes_invert(ev, contour)
    bottom = contour.epsilon_schedule[-1]
    assert len(columns) == 2 * 169
    for x, lad in columns:
        lad = np.asarray(lad)
        assert lad.size == 3
        assert np.allclose(lad[:-1] / lad[1:], 2.0, rtol=1e-12, atol=0)
        assert lad[-1] <= 1.01 * min((2.0 - abs(x)) / 10.0, bottom)
    assert calls[0] / (3 * len(columns)) <= 1.75


def test_a_far_seed_does_not_loosen_its_own_acceptance():
    # The solve's tolerances scale with |seed|, so from a far seed Newton
    # stalled on a point with residual 0.2, no root at all (G off by 0.53),
    # and accepted it.  The residual is checked again at the iterate
    # reached, and the fallback then finds the root of a cold solve.
    ev = PasturResolvent(UNIF500, 0.5)
    z = complex(-1.47894, 0.005)
    cold = ev._g_of(z, ev._solve(z, None))
    for far in (complex(1.5e15, 1.25e16), 1e6 * (1 + 1j)):
        try:
            w, fx = ev._solve(z, far)
        except InversionError:
            pass
        else:
            assert abs(fx[0]) <= 1e-9 * max(1.0, abs(w))
            assert abs(ev._g_of(z, (w, fx)) - cold) <= 1e-8 * abs(cold)
        g = ev._g_of(z, ev._solve_from(z, far, None))
        assert abs(g - cold) <= 1e-10 * abs(cold)


def test_pastur_rejects_a_seed_off_the_physical_sheet():
    # The physical root is the one omega_1 = z - sigma^2 G(omega_1) in the
    # upper half plane, so a seed outside it fails fast instead of
    # converging to another root.
    ev = PasturResolvent(UNIF500, 0.5)
    z = complex(0.3, 1e-3)
    with pytest.raises(InversionError, match="upper half plane"):
        ev._solve(z, complex(0.3, -1e-2))
    assert ev._solve(z, None)[0].imag > 0


def _point_case(case):
    """(evaluator, closed form, relative tolerance) of one pipeline.  The
    sum is checked against the exact law, so its tolerance is the
    discretization of its 2000-point operands; the product and Pastur
    cases are exact identities on the operands as given."""
    if case == "sum":
        return (FreeSumResolvent(SEMI, SEMI),
                lambda z: semicircle_g(z, np.sqrt(2.0)), 1e-5)
    if case == "product":
        g_mp = MeasureResolvent(MP1)
        return (FreeProductResolvent(MP1, dirac(2.0)),
                lambda z: g_mp(z / 2) / 2, 1e-10)
    return PasturResolvent(dirac(0.0), 1.0), semicircle_g, 1e-10


@pytest.mark.parametrize("case", ["sum", "product", "pastur"])
def test_pipeline_point_evaluation(case):
    ev, expect, rtol = _point_case(case)
    zs = [complex(x, y) for x in (-3.0, -0.7, 0.4, 1.9, 5.0)
          for y in (0.05, 0.5, 3.0)]
    h = 1e-5
    for z in zs:
        g, gp = ev.value_and_derivative(z)
        assert ev(z) == g
        assert abs(g - expect(z)) <= rtol * abs(g)
        quotient = (ev(z + h) - ev(z - h)) / (2 * h)
        assert abs(gp - quotient) <= 1e-6 * max(1.0, abs(gp))
    g, gp = ev.value_and_derivative(np.array(zs))
    assert g.shape == gp.shape == (len(zs),)
    assert np.allclose(g, [expect(z) for z in zs], rtol=rtol, atol=0)


# -- Gaussian external field -------------------------------------------------------


def test_external_field_lambda_at_zero_field():
    got = external_field_lambda_gaussian(1.0, dirac(0.0), 0.5)
    assert got == pytest.approx(0.5 + 2.0, abs=1e-12)


def test_external_field_lambda_zero_sigma():
    from freeconv.stieltjes import principal_value_transform

    got = external_field_lambda_gaussian(0.0, TWO, 2.0)
    assert got == pytest.approx(
        principal_value_transform(TWO, 2.0), abs=1e-14
    )


def test_external_field_lambda_two_atom():
    got = external_field_lambda_gaussian(1.0, TWO, 2.0)
    assert got == pytest.approx(2.0 + 2.0 / 3.0, abs=1e-12)


def test_generalized_addition_identity():
    residuals = _additivity_residuals(1.0, 1.0, dirac(0.0), [0.3, 0.7, 1.5])
    assert np.max(np.abs(residuals)) <= 1e-12


def test_generalized_addition_random_configs():
    for _ in range(5):
        s1, s2 = RNG.uniform(0.5, 3.0, size=2)
        probes = RNG.uniform(1.5, 4.0, size=50)
        residuals = _additivity_residuals(s1, s2, TWO, probes)
        assert np.max(np.abs(residuals)) <= 1e-12
