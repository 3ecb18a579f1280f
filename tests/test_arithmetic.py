import numpy as np
import pytest

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
    verify_generalized_addition_gaussian,
)
from freeconv.errors import PipelineError, ValidationError
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
from freeconv.stieltjes import MeasureResolvent, default_contour

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


def _kernel_calls(resolvents, ev):
    """Run a short sweep of ``ev`` and count vd_scalar calls per resolvent."""
    counts = [0] * len(resolvents)
    for i, r in enumerate(resolvents):
        def counted(z, _vd=r.vd_scalar, _i=i):
            counts[_i] += 1
            return _vd(z)
        r.vd_scalar = counted
    xs = np.linspace(-3.0, 5.0, 24)
    ev.sample_columns(xs, [np.array([1e-2, 5e-3])] * len(xs))
    return counts


@pytest.mark.parametrize("same", [True, False])
def test_sweep_kernel_calls_per_point(same):
    # A self-convolution evaluates only its first operand, and the warm
    # sweep keeps the solve to a few kernel calls per contour point.
    mu = make_law(LawSpec.atom_list([(0.5, 0.5), (2.0, 0.5)]))
    other = make_law(LawSpec.atom_list([(0.5, 0.5), (3.0, 0.5)]))
    mu2 = mu if same else other
    ev = FreeSumResolvent(mu, mu2)
    sums = _kernel_calls([ev.op1, ev.op2], ev)
    ev = FreeProductResolvent(mu, mu2)
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
    report = verify_generalized_addition_gaussian(
        1.0, 1.0, field, [0.3, 0.7, 1.5]
    )
    assert report.passed
    assert report.metrics["max_residual"] <= 1e-12


def test_generalized_addition_random_configs():
    for _ in range(5):
        s1, s2 = RNG.uniform(0.5, 3.0, size=2)
        field = ExternalFieldSpec(TWO)
        probes = RNG.uniform(1.5, 4.0, size=50)
        report = verify_generalized_addition_gaussian(s1, s2, field, probes)
        assert report.passed
