import numpy as np
import pytest

from freeconv.acceptance import _additivity_residuals
from freeconv.arithmetic import (
    ExternalFieldSpec,
    FreeProductResolvent,
    FreeSumResolvent,
    PasturResolvent,
    external_field_lambda_gaussian,
    free_add,
    free_multiply,
    h_function,
    invert_h,
    pastur_add_gaussian,
    r_transform,
)
from freeconv.errors import InversionError, PipelineError, ValidationError
from freeconv.measures import (
    LawSpec,
    MomentVector,
    affine_map,
    density_l1_distance,
    dirac,
    make_law,
    moment,
    variance,
    wasserstein1,
)
from freeconv.series import free_add_series, free_multiply_series
from freeconv import stieltjes
from freeconv.stieltjes import MeasureResolvent, _ladder, default_contour

from oracles import semicircle_g

RNG = np.random.default_rng(19981031)

SEMI = make_law(LawSpec.semicircle(1.0), 2000)
TWO = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
MP1 = make_law(LawSpec.marchenko_pastur(1.0), 2000)


def quick_contour(lo, hi, points=900):
    return default_contour(lo, hi, points)


# -- R transform ---------------------------------------------------------------


def test_r_transform_of_atom_is_constant():
    for w in (-0.5j, 0.3 - 0.2j, -1e-3j):
        assert r_transform(dirac(2.5), w) == pytest.approx(2.5, abs=1e-12)
    assert r_transform(dirac(0.0), -0.5j) == pytest.approx(0.0, abs=1e-12)


def test_r_transform_of_semicircle_is_linear():
    w = -0.1j
    assert r_transform(SEMI, w) == pytest.approx(w, abs=1e-6)
    w = 0.05 - 0.1j
    assert r_transform(SEMI, w) == pytest.approx(w, abs=1e-6)


def test_r_transform_small_w_limit_is_mean():
    mu = make_law(LawSpec.marchenko_pastur(0.5), 1500)
    got = r_transform(mu, -1e-4j)
    assert got == pytest.approx(moment(mu, 1), abs=1e-3)


# -- free addition ---------------------------------------------------------------


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


# -- h function and free multiplication -------------------------------------------


def test_h_function_of_atom():
    assert h_function(dirac(1.0), 3.0 + 0j) == pytest.approx(1.5, abs=1e-12)
    assert invert_h(dirac(1.0), 1.5 + 0j) == pytest.approx(3.0, abs=1e-10)


def test_invert_h_round_trip_marchenko_pastur():
    h = 1.0 + 0.1 * (-1.0 - 1.0j)
    lam = invert_h(MP1, h)
    assert abs(h_function(MP1, lam) - h) <= 1e-10


@pytest.mark.parametrize("h", [1.0, 1 + 0j])
def test_invert_h_at_one_is_validation_error(h):
    # h = 1 is the value of h at infinity, not at any finite lambda
    with pytest.raises(ValidationError):
        invert_h(MP1, h)
    with pytest.raises(ValidationError):
        invert_h(MP1, h, seed=2.0)


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
    products = _kernel_calls([ev.op1.resolvent, ev.op2.resolvent], ev)
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
# allowed on the 400-column sweep, each point of an array call counting
# as one).  The bounds sit between the septic Hermite predictor through
# four columns of Newton-refined history (1.51, 2.87, 2.99, 1.57 solved
# serially; 1.73, 3.20, 3.27, 1.76 with every other column corrected in
# the array pass) and the quintic one through three columns of accepted
# iterates (2.12, 4.10, 4.04, 2.17).
SWEEP_CASES = {
    "sum_same": (lambda: FreeSumResolvent(SEMI500, SEMI500),
                 -2.0 * np.sqrt(2.0), 1.8),
    "sum_distinct": (lambda: FreeSumResolvent(SEMI500, UNIF500),
                     _uniform_pastur_edge(1.0), 3.45),
    "product": (lambda: FreeProductResolvent(MP500, MP_HALF500), 0.0, 3.5),
    "pastur": (lambda: PasturResolvent(UNIF500, 0.5),
               _uniform_pastur_edge(0.5), 1.85),
}


def _uniform_columns(ev):
    contour = default_contour(*ev.support, points=400)
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


def _sweep_against_pointwise(ev, xs, ladders):
    """Per point: |sweep - cold|, |G| and |G'| * max(1, |z|) of the cold
    solve."""
    cols = ev.sample_columns(xs, ladders)
    z = np.concatenate([x + 1j * np.asarray(lad)
                        for x, lad in zip(xs, ladders)])
    g, gp = ev.value_and_derivative(z)
    return (np.abs(np.concatenate(cols) - g), np.abs(g),
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
    make, edge, _ = SWEEP_CASES[case]
    ev = make()
    diff, g, _ = _sweep_against_pointwise(ev, *_uniform_columns(ev))
    assert np.max(diff / g) <= 1e-10
    lo, hi = ev.support
    xs, ladders = _edge_columns(edge, hi - lo)
    for lads in (ladders, [lad[-3:] for lad in ladders]):
        diff, g, gp_z = _sweep_against_pointwise(ev, xs, lads)
        assert np.max(diff / (g + gp_z)) <= 1e-10


def test_sweep_takes_columns_in_any_order():
    # A repeated abscissa restarts the rung histories: two equal abscissae
    # in one history would zero a Lagrange weight's denominator.  The last
    # column repeats the fourth-to-last, the oldest one a history holds.
    ev = PasturResolvent(UNIF500, 0.5)
    xs = [0.1, 0.2, 0.3, 0.2, 0.3, -0.4, 0.5, 0.6, 0.7, -0.4]
    diff, g, _ = _sweep_against_pointwise(ev, xs, [[1e-2, 5e-3]] * len(xs))
    assert np.max(diff / g) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_sweeps_of_few_columns(n):
    # Anchors are columns 0, 2, 4, ... and the last, so an even count ends
    # on two anchors and one to three columns leave zero or one between.
    ev = FreeSumResolvent(SEMI500, UNIF500)
    xs = np.linspace(-1.0, 1.5, n)
    diff, g, _ = _sweep_against_pointwise(ev, xs, [[1e-2, 5e-3, 2.5e-3]] * n)
    assert diff.size == 3 * n
    assert np.max(diff / g) <= 1e-10


def _recording_serial_solves(ev):
    """Record the z of every serial solve (anchors and fallbacks alike)."""
    seen = []
    solve = ev._solve_from

    def recorded(z, predicted, warm):
        seen.append(z)
        return solve(z, predicted, warm)

    ev._solve_from = recorded
    return seen


def test_points_the_array_pass_rejects_are_solved_serially():
    # The array residual is NaN right of 0.2, so the array pass rejects
    # every point there between anchors; the serial fallback must land
    # each on the root a cold solve finds.
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
    xs = np.linspace(-1.0, 1.0, 41)
    ladders = [[1e-2, 5e-3]] * len(xs)
    diff, g, _ = _sweep_against_pointwise(ev, xs, ladders)
    assert np.max(diff / g) <= 1e-10
    seen = set(seen)
    between = {complex(x, e) for x in xs[1:-1:2] for e in ladders[0]}
    rejected = {z for z in between if z.real > 0.2}
    assert len(rejected) == 16 and rejected <= seen
    assert not (between - rejected) & seen


def test_offset_missing_from_a_bracketing_anchor_is_solved_serially():
    # Column 3 lies between anchors 2 and 4; its bottom offset is on
    # anchor 4 only, so that point has no bracketing interpolant and is
    # solved serially, while its other rungs go to the array pass.
    ev = FreeSumResolvent(SEMI500, UNIF500)
    xs = np.linspace(-0.5, 0.5, 9)
    ladders = [[1e-2, 5e-3]] * 9
    ladders[3] = ladders[4] = [1e-2, 5e-3, 2.5e-3]
    seen = _recording_serial_solves(ev)
    diff, g, _ = _sweep_against_pointwise(ev, xs, ladders)
    assert np.max(diff / g) <= 1e-10
    seen = set(seen)
    assert complex(xs[3], 2.5e-3) in seen
    assert not {complex(xs[3], 1e-2), complex(xs[3], 5e-3)} & seen


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_calls_per_point(case):
    # Each solve is seeded by extrapolating its rung across the last four
    # columns, so Newton needs about one correction per point.
    make, _, bound = SWEEP_CASES[case]
    ev = make()
    ops = [ev.r] if isinstance(ev, PasturResolvent) else [ev.op1, ev.op2]
    if case == "sum_same":
        assert ev.op2 is ev.op1
    columns = _uniform_columns(ev)
    calls = _kernel_calls([getattr(op, "resolvent", op) for op in ops], ev,
                          columns)
    assert sum(calls) / (3 * len(columns[0])) <= bound


def test_arcsine_sweep_on_edge_columns():
    # two_atom(1/2, -1, 1) added to itself is the arcsine law on [-2, 2],
    # with G(z) = 1/sqrt(z^2 - 4); its hard edges are the deepest test of
    # the predictor on non-uniform columns.
    ev = FreeSumResolvent(TWO, TWO)
    for edge, sign in ((-2.0, 1.0), (2.0, -1.0)):
        xs, ladders = _edge_columns(0.0, 4.0, n_march=144, n_hand=25)
        xs = edge + sign * xs
        order = np.argsort(xs)
        xs, ladders = xs[order], [ladders[i] for i in order]
        cols = ev.sample_columns(xs, ladders)
        for x, lad, col in zip(xs, ladders, cols):
            z = x + 1j * lad
            exact = 1.0 / (np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
            assert np.max(np.abs(col - exact) / np.abs(exact)) <= 1e-5


def test_edge_refinement_samples_three_rungs(monkeypatch):
    # Density recovery reads only the three bottom rungs of an edge
    # column, so refinement solves only those.  Neighbouring columns then
    # share two offsets at most, and each rung's history follows its eps:
    # keyed by position in the ladder, the predictor would extrapolate
    # values from other offsets and cost 4.5 kernel points per point here
    # instead of 2.08.  A rung that has just entered the three bottom ones
    # is seeded from the columns it has (2.30 if it waited for four).
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
    assert calls[0] / (3 * len(columns)) <= 2.2


def test_pastur_rejects_a_seed_off_the_physical_sheet():
    # The physical root has z - sigma^2 omega in the upper half plane, so
    # a seed outside it fails fast instead of converging to another root.
    ev = PasturResolvent(UNIF500, 0.5)
    z = complex(0.3, 1e-3)
    with pytest.raises(InversionError, match="upper half plane"):
        ev._solve(z, 0.04j)  # Im(z - sigma^2 omega) = 1e-3 - 1e-2
    good = ev._solve(z, None)[0]
    assert (z - 0.25 * good).imag > 0


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
    field = ExternalFieldSpec(dirac(0.0))
    got = external_field_lambda_gaussian(1.0, field, 0.5)
    assert got == pytest.approx(0.5 + 2.0, abs=1e-12)


def test_external_field_lambda_zero_sigma():
    field = ExternalFieldSpec(TWO)
    from freeconv.stieltjes import principal_value_transform

    got = external_field_lambda_gaussian(0.0, field, 2.0)
    assert got == pytest.approx(
        principal_value_transform(TWO, 2.0), abs=1e-14
    )


def test_external_field_lambda_two_atom():
    field = ExternalFieldSpec(TWO)
    got = external_field_lambda_gaussian(1.0, field, 2.0)
    assert got == pytest.approx(2.0 + 2.0 / 3.0, abs=1e-12)


def test_generalized_addition_identity():
    field = ExternalFieldSpec(dirac(0.0))
    residuals = _additivity_residuals(1.0, 1.0, field, [0.3, 0.7, 1.5])
    assert np.max(np.abs(residuals)) <= 1e-12


def test_generalized_addition_random_configs():
    for _ in range(5):
        s1, s2 = RNG.uniform(0.5, 3.0, size=2)
        field = ExternalFieldSpec(TWO)
        probes = RNG.uniform(1.5, 4.0, size=50)
        residuals = _additivity_residuals(s1, s2, field, probes)
        assert np.max(np.abs(residuals)) <= 1e-12
