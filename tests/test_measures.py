import math

import numpy as np
import pytest

from freeconv.arithmetic import FreeSumResolvent
from freeconv.errors import ValidationError
from freeconv.measures import (
    LawSpec,
    Segment,
    SpectralMeasure,
    affine_map,
    cdf,
    density_l1_distance,
    dirac,
    make_law,
    moment,
    quantiles,
    read_density_csv,
    support_interval,
    wasserstein1,
    write_density_csv,
)

from oracles import absolute_moment, quadrature_moment, total_mass, variance

RNG = np.random.default_rng(20260808)

CATALOG = [
    LawSpec.semicircle(1.0),
    LawSpec.marchenko_pastur(1.0),
    LawSpec.marchenko_pastur(0.5),
    LawSpec.two_atom(0.5, -1.0, 1.0),
    LawSpec.arcsine(2.0),
    LawSpec.uniform(-2.0, 2.0),
]


def test_two_atom_is_pure_atoms():
    mu = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    assert mu.segments == ()
    assert mu.atoms == ((-1.0, 0.5), (1.0, 0.5))


def test_semicircle_mass_and_support():
    mu = make_law(LawSpec.semicircle(1.0), 2000)
    assert abs(total_mass(mu) - 1.0) < 1e-6
    assert mu.support() == (-2.0, 2.0)


def test_marchenko_pastur_mass_and_mean_against_quadrature():
    # Independent oracle: dense trapezoid of the closed-form density after
    # the substitution x = u^2, which removes the inverse-sqrt edge.
    mass = quadrature_moment(lambda u: np.sqrt(4.0 - u**2) / np.pi, 0.0, 2.0, 0)
    mean = quadrature_moment(
        lambda u: u**2 * np.sqrt(4.0 - u**2) / np.pi, 0.0, 2.0, 0
    )
    assert abs(mass - 1.0) < 2e-3
    assert abs(mean - 1.0) < 2e-3
    mu = make_law(LawSpec.marchenko_pastur(1.0), 4000)
    assert mu.support()[0] == 0.0
    assert abs(mu.support()[1] - 4.0) < 1e-12
    assert abs(total_mass(mu) - 1.0) < 1e-9
    assert abs(moment(mu, 1) - 1.0) < 2e-3


def test_marchenko_pastur_above_one_has_zero_atom():
    mu = make_law(LawSpec.marchenko_pastur(2.0), 1000)
    assert mu.atoms[0][0] == 0.0
    assert abs(mu.atoms[0][1] - 0.5) < 1e-12
    assert abs(total_mass(mu) - 1.0) < 1e-9


@pytest.mark.parametrize("spec", CATALOG)
def test_mass_and_nonnegativity_invariants(spec):
    mu = make_law(spec, 800)
    assert abs(total_mass(mu) - 1.0) <= 1e-9
    for s in mu.segments:
        assert np.all(s.density >= 0)
    assert moment(mu, 0) == pytest.approx(1.0, abs=1e-12)


def test_moment_examples():
    assert moment(make_law(LawSpec.two_atom(0.5, -1, 1)), 2) == 1.0
    # Catalan number C_2 = 2 via the non-crossing oracle (see test_series).
    mu = make_law(LawSpec.semicircle(1.0), 4000)
    assert moment(mu, 4) == pytest.approx(2.0, abs=1e-4)


def _moment_in_full_widths(mu, n):
    # the moment with each cell's terms in powers of its full width h,
    # which overflow past h of about 5.6e102
    total = sum(w * x**n for x, w in mu.atoms)
    for seg in mu.segments:
        t0, t1 = seg.grid[:-1], seg.grid[1:]
        r0, r1 = seg.density[:-1], seg.density[1:]
        h, c = t1 - t0, 0.5 * (t0 + t1)
        rc, s = 0.5 * (r0 + r1), (r1 - r0) / (t1 - t0)
        cells = np.zeros_like(h)
        for k in range(n + 1):
            if k % 2 == 0:
                piece = rc * h ** (k + 1) / (2**k * (k + 1))
            else:
                piece = s * h ** (k + 2) / (2 ** (k + 1) * (k + 2))
            cells += math.comb(n, k) * c ** (n - k) * piece
        total += float(np.sum(cells))
    return total


@pytest.mark.parametrize("spec", CATALOG)
def test_moments_in_half_widths_match_full_widths(spec):
    mu = make_law(spec, 2000)
    for n in range(1, 9):
        want = _moment_in_full_widths(mu, n)
        assert abs(moment(mu, n) - want) <= 1e-13 * max(abs(want), 1e-300)


def test_moments_of_a_law_with_wide_cells_are_finite():
    # cells about 1e147 wide: a power h^(k + 2) of the width overflows
    mu = make_law(LawSpec.semicircle(1e149))
    assert np.isfinite([moment(mu, 1), moment(mu, 2)]).all()
    ev = FreeSumResolvent(mu, mu)
    assert np.isfinite(ev.m2)


def test_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        LawSpec.semicircle(0.0)
    with pytest.raises(ValidationError):
        LawSpec.marchenko_pastur(-1.0)
    with pytest.raises(ValidationError):
        LawSpec.uniform(2.0, 1.0)
    with pytest.raises(ValidationError):
        make_law(LawSpec.semicircle(1.0), 8)


def test_constructor_rejects_mass_far_from_one():
    grid = np.linspace(0, 1, 11)
    dens = np.full(11, 0.5)
    with pytest.raises(ValidationError):
        SpectralMeasure(segments=(Segment(grid, dens),))


def test_constructor_polishes_small_mass_error():
    grid = np.linspace(0, 1, 11)
    dens = np.full(11, 1.0 + 5e-7)
    mu = SpectralMeasure(segments=(Segment(grid, dens),))
    assert abs(total_mass(mu) - 1.0) <= 1e-9
    assert mu.renorm != 1.0


def test_affine_identity_is_node_for_node():
    mu = make_law(LawSpec.semicircle(1.0), 300)
    nu = affine_map(mu, 1.0, 0.0)
    assert np.array_equal(mu.segments[0].grid, nu.segments[0].grid)
    assert np.array_equal(mu.segments[0].density, nu.segments[0].density)


def test_affine_shifts_atoms():
    mu = affine_map(make_law(LawSpec.two_atom(0.5, -1, 1)), 1.0, 3.0)
    assert mu.atoms == ((2.0, 0.5), (4.0, 0.5))


def test_affine_scale_matches_catalog():
    mu = affine_map(make_law(LawSpec.semicircle(1.0), 2000), 2.0, 0.0)
    nu = make_law(LawSpec.semicircle(2.0), 2000)
    assert density_l1_distance(mu, nu) < 1e-6


def test_affine_moment_rule():
    mu = make_law(LawSpec.marchenko_pastur(0.5), 500)
    for s, t in [(2.0, 1.0), (-1.5, 0.25), (0.5, -3.0)]:
        got = moment(affine_map(mu, s, t), 1)
        assert abs(got - (s * moment(mu, 1) + t)) < 1e-10


def test_affine_zero_scale_rejected():
    with pytest.raises(ValidationError):
        affine_map(dirac(0.0), 0.0, 1.0)


def test_cdf_monotone_and_limits():
    for spec in CATALOG:
        mu = make_law(spec, 400)
        lo, hi = mu.support()
        probes = np.sort(RNG.uniform(lo - 1, hi + 1, size=200))
        vals = np.asarray(cdf(mu, probes))
        assert np.all(np.diff(vals) >= -1e-12)
        assert cdf(mu, hi + 10.0) == pytest.approx(1.0, abs=1e-12)
        assert cdf(mu, lo - 10.0) == 0.0


def test_wasserstein_unit_transport():
    assert wasserstein1(dirac(0.0), dirac(1.0)) == pytest.approx(1.0, abs=1e-14)
    mu = make_law(LawSpec.semicircle(1.0), 500)
    assert wasserstein1(mu, mu) == 0.0


def test_metric_symmetry_and_triangle():
    laws = [make_law(s, 300) for s in CATALOG[:4]]
    for _ in range(5):
        i, j, k = RNG.integers(0, len(laws), size=3)
        a, b, c = laws[i], laws[j], laws[k]
        assert abs(wasserstein1(a, b) - wasserstein1(b, a)) < 1e-9
        assert (wasserstein1(a, c)
                <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9)


def test_wasserstein_affine_shift_exact():
    mu = make_law(LawSpec.semicircle(1.0), 400)
    nu = affine_map(mu, 1.0, 0.125)
    assert wasserstein1(mu, nu) == pytest.approx(0.125, abs=1e-9)


def test_quantiles_of_atoms_exact():
    mu = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    q = quantiles(mu, 128)
    assert np.all(q[:64] == -1.0)
    assert np.all(q[64:] == 1.0)


def test_quantiles_continuous_match_cdf():
    mu = make_law(LawSpec.semicircle(1.0), 1000)
    q = quantiles(mu, 64)
    back = np.asarray(cdf(mu, q))
    assert np.max(np.abs(back - (np.arange(64) + 0.5) / 64)) < 1e-10


def test_absolute_moment():
    mu = make_law(LawSpec.two_atom(0.5, -1.0, 1.0))
    assert absolute_moment(mu, 1) == pytest.approx(1.0, abs=1e-14)
    semi = make_law(LawSpec.semicircle(1.0), 4000)
    # E|x| for the unit semicircle is 8/(3 pi).
    assert absolute_moment(semi, 1) == pytest.approx(8 / (3 * math.pi), abs=1e-4)


def test_variance_of_semicircle():
    mu = make_law(LawSpec.semicircle(1.5), 3000)
    assert variance(mu) == pytest.approx(2.25, abs=1e-4)


def test_support_interval_trims_tails():
    mu = make_law(LawSpec.semicircle(1.0), 2000)
    lo, hi = support_interval(mu)
    assert -2.0 <= lo < -1.9
    assert 1.9 < hi <= 2.0


def test_csv_round_trip(tmp_path):
    mu = make_law(LawSpec.marchenko_pastur(2.0), 300)
    csv_path = tmp_path / "density.csv"
    sidecar = tmp_path / "density.atoms.json"
    write_density_csv(mu, csv_path, sidecar)
    back = read_density_csv(csv_path, sidecar)
    assert back.atoms == mu.atoms
    assert len(back.segments) == len(mu.segments)
    for s, t in zip(back.segments, mu.segments):
        assert np.array_equal(s.grid, t.grid)
        assert np.array_equal(s.density, t.density)
