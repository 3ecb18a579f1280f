"""Probability measures on the real line: atoms plus a piecewise-linear density.

The continuous part is stored on explicit grids and interpreted as the
piecewise-linear interpolant, so integrals against polynomials and against
the Cauchy kernel 1/(z-t) have closed forms.  Normalization is enforced at
construction: small deviations (< 1e-6) are repaired by proportional
rescaling, larger ones are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb as _comb

import numpy as np

from .errors import ValidationError

# Largest magnitude of a law parameter, a contour node or offset and a real
# read from a config: beyond ~1e161, G(z) ~ 1/z squares to zero in floating
# point and the Newton steps divide by it, and squares of a scale overflow.
CONTOUR_LIMIT = 1e150

MASS_TOL = 1e-9
RENORM_LIMIT = 1e-6


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Segment:
    """One piece of a continuous density: nodes ``grid`` and values ``density``.

    Between nodes the density is linear; outside the grid it is zero.
    """

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", _readonly(self.grid))
        object.__setattr__(self, "density", _readonly(self.density))
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValidationError("segment grid needs at least 2 nodes")
        if np.any(np.diff(self.grid) <= 0):
            raise ValidationError("segment grid must be strictly increasing")
        if self.density.shape != self.grid.shape:
            raise ValidationError("density and grid length mismatch")
        if np.any(self.density < 0):
            raise ValidationError("negative density value in segment")

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def scaled(self, factor: float) -> "Segment":
        return Segment(self.grid, self.density * factor)


@dataclass(frozen=True)
class SpectralMeasure:
    """Spectral probability measure: point masses plus piecewise-linear density.

    Parameters
    ----------
    atoms : sequence of (position, weight)
        Point masses; positions must be distinct, weights nonnegative.
    segments : sequence of Segment
        Continuous parts, pairwise disjoint and sorted by left endpoint.
    renorm : float
        Rescaling factor that was applied to reach unit mass (metadata).
    """

    atoms: tuple = ()
    segments: tuple = ()
    renorm: float = 1.0

    def __post_init__(self):
        atoms = tuple(
            (float(x), float(w)) for x, w in sorted(self.atoms, key=lambda t: t[0])
        )
        segments = tuple(
            sorted(self.segments, key=lambda s: s.grid[0])
        )
        for _, w in atoms:
            if w < 0:
                raise ValidationError("negative atom weight")
        positions = [x for x, _ in atoms]
        if len(set(positions)) != len(positions):
            raise ValidationError("atom positions must be distinct")
        for a, b in zip(segments, segments[1:]):
            if b.grid[0] < a.grid[-1]:
                raise ValidationError("segments overlap")
        mass = sum(w for _, w in atoms) + sum(s.mass for s in segments)
        if abs(mass - 1.0) > RENORM_LIMIT:
            raise ValidationError(
                f"measure mass {mass!r} deviates from 1 by more than {RENORM_LIMIT}"
            )
        scale = 1.0
        if abs(mass - 1.0) > MASS_TOL:
            scale = 1.0 / mass
            atoms = tuple((x, w * scale) for x, w in atoms)
            segments = tuple(s.scaled(scale) for s in segments)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "renorm", float(self.renorm) * scale)

    # -- basic queries --------------------------------------------------

    def support(self) -> tuple[float, float]:
        """Smallest closed interval carrying the whole measure."""
        points = [x for x, _ in self.atoms]
        for s in self.segments:
            points.extend((s.grid[0], s.grid[-1]))
        if not points:
            raise ValidationError("empty measure")
        return min(points), max(points)

    def density_at(self, x) -> np.ndarray:
        """Piecewise-linear density, zero off the segments (atoms ignored)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for s in self.segments:
            inside = (x >= s.grid[0]) & (x <= s.grid[-1])
            if np.any(inside):
                out[inside] = np.interp(x[inside], s.grid, s.density)
        return out


def dirac(position: float) -> SpectralMeasure:
    """Unit point mass at ``position``."""
    return SpectralMeasure(atoms=((position, 1.0),))


# -- law catalog ---------------------------------------------------------


@dataclass(frozen=True)
class LawSpec:
    """Catalog entry: a named closed-form law plus its parameters."""

    kind: str
    params: tuple = ()

    KINDS = ("semicircle", "marchenko_pastur", "two_atom", "arcsine",
             "atom_list", "uniform")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown law kind {self.kind!r}")
        if not np.all(np.abs(np.asarray(self.params, dtype=float))
                      <= CONTOUR_LIMIT):
            raise ValidationError(
                f"law {self.kind!r} parameters must be finite and within "
                f"±{CONTOUR_LIMIT:g}, not {self.params!r}")

    @classmethod
    def semicircle(cls, sigma: float) -> "LawSpec":
        if sigma <= 0:
            raise ValidationError("semicircle sigma must be > 0")
        return cls("semicircle", (float(sigma),))

    @classmethod
    def marchenko_pastur(cls, ratio: float) -> "LawSpec":
        if ratio <= 0:
            raise ValidationError("marchenko_pastur ratio must be > 0")
        return cls("marchenko_pastur", (float(ratio),))

    @classmethod
    def two_atom(cls, p: float, x1: float, x2: float) -> "LawSpec":
        if not 0.0 <= p <= 1.0:
            raise ValidationError("two_atom weight must lie in [0, 1]")
        if x1 == x2:
            raise ValidationError("two_atom positions must differ")
        return cls("two_atom", (float(p), float(x1), float(x2)))

    @classmethod
    def arcsine(cls, half_width: float) -> "LawSpec":
        if half_width <= 0:
            raise ValidationError("arcsine half_width must be > 0")
        return cls("arcsine", (float(half_width),))

    @classmethod
    def atom_list(cls, atoms) -> "LawSpec":
        atoms = tuple((float(x), float(w)) for x, w in atoms)
        if not atoms:
            raise ValidationError("atom_list needs at least one atom")
        return cls("atom_list", atoms)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "LawSpec":
        if not lo < hi:
            raise ValidationError("uniform requires lo < hi")
        return cls("uniform", (float(lo), float(hi)))


def _cosine_grid(lo: float, hi: float, n: int) -> np.ndarray:
    # Chebyshev-extreme spacing: nodes cluster at both endpoints, which keeps
    # trapezoid mass honest for densities with edge singularities.
    theta = np.linspace(0.0, np.pi, n)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(theta))


def _continuous_law(lo, hi, density_fn, grid_points, target_mass=1.0, atoms=()):
    grid = _cosine_grid(lo, hi, grid_points)
    dens = np.clip(density_fn(grid), 0.0, None)
    raw = np.trapezoid(dens, grid)
    if raw <= 0:
        raise ValidationError("law density integrates to zero on its support")
    scale = target_mass / raw
    seg = Segment(grid, dens * scale)
    return SpectralMeasure(atoms=atoms, segments=(seg,), renorm=scale)


def make_law(spec: LawSpec, grid_points: int = 2000) -> SpectralMeasure:
    """Construct a catalog law as a normalized SpectralMeasure.

    Laws with a continuous part are sampled on a cosine-stretched grid of
    ``grid_points`` nodes and rescaled so the trapezoid mass is exactly the
    analytic mass; the applied factor is recorded in ``renorm``.
    """
    if spec.kind in ("semicircle", "marchenko_pastur", "arcsine", "uniform"):
        if grid_points < 16:
            raise ValidationError("grid_points must be >= 16 for continuous laws")

    if spec.kind == "semicircle":
        (sigma,) = spec.params
        return _continuous_law(
            -2.0 * sigma, 2.0 * sigma,
            lambda x: np.sqrt(np.clip(4 * sigma**2 - x**2, 0, None))
            / (2 * np.pi * sigma**2),
            grid_points,
        )

    if spec.kind == "marchenko_pastur":
        (c,) = spec.params
        lo, hi = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2

        def mp_density(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                val = np.sqrt(np.clip((hi - x) * (x - lo), 0, None)) / (
                    2 * np.pi * c * x
                )
            return np.where(x > 0, val, 0.0)

        atom_weight = max(0.0, 1.0 - 1.0 / c)
        atoms = ((0.0, atom_weight),) if atom_weight > 0 else ()
        return _continuous_law(
            lo, hi, mp_density, grid_points,
            target_mass=1.0 - atom_weight, atoms=atoms,
        )

    if spec.kind == "arcsine":
        (r,) = spec.params

        def arcsine_density(x):
            with np.errstate(divide="ignore"):
                val = 1.0 / (np.pi * np.sqrt(np.clip(r**2 - x**2, 0, None)))
            return np.where(np.isfinite(val), val, 0.0)

        return _continuous_law(-r, r, arcsine_density, grid_points)

    if spec.kind == "uniform":
        lo, hi = spec.params
        return _continuous_law(lo, hi, lambda x: np.full_like(x, 1.0 / (hi - lo)),
                               grid_points)

    if spec.kind == "two_atom":
        p, x1, x2 = spec.params
        return SpectralMeasure(atoms=((x1, p), (x2, 1.0 - p)))

    if spec.kind == "atom_list":
        return SpectralMeasure(atoms=spec.params)

    raise ValidationError(f"unknown law kind {spec.kind!r}")


# -- moments and affine maps ---------------------------------------------


def _segment_power_integral(seg: Segment, n: int) -> float:
    # Exact integral of x^n against the linear interpolant, cell by cell.
    # Expanded around each cell midpoint to avoid cancellation on the tiny
    # edge cells of stretched grids, in powers of the half-width, so no
    # power of the width beyond the moment's own is formed.
    t0, t1 = seg.grid[:-1], seg.grid[1:]
    r0, r1 = seg.density[:-1], seg.density[1:]
    h = t1 - t0
    c = 0.5 * (t0 + t1)
    rc = 0.5 * (r0 + r1)
    total = np.zeros_like(h)
    for k in range(n + 1):
        binom = _comb(n, k)
        if k % 2 == 0:
            piece = rc * h * (0.5 * h) ** k / (k + 1)
        else:
            piece = (r1 - r0) * (0.5 * h) ** (k + 1) / (k + 2)
        total += binom * c ** (n - k) * piece
    return float(np.sum(total))


def moment(mu: SpectralMeasure, n: int) -> float:
    """Raw moment of order ``n``, exact for the stored interpolant."""
    if n < 0:
        raise ValidationError("moment order must be >= 0")
    total = sum(w * x**n for x, w in mu.atoms)
    total += sum(_segment_power_integral(s, n) for s in mu.segments)
    return float(total)


def affine_map(mu: SpectralMeasure, scale: float, shift: float) -> SpectralMeasure:
    """Pushforward of the measure under x -> scale*x + shift."""
    if scale == 0:
        raise ValidationError("affine_map scale must be nonzero")
    atoms = tuple((scale * x + shift, w) for x, w in mu.atoms)
    segments = []
    for s in mu.segments:
        grid = scale * s.grid + shift
        dens = s.density / abs(scale)
        if scale < 0:
            grid, dens = grid[::-1], dens[::-1]
        segments.append(Segment(grid, dens))
    return SpectralMeasure(atoms=atoms, segments=tuple(segments),
                           renorm=mu.renorm)


# -- cumulative distribution and quantiles --------------------------------


def cdf(mu: SpectralMeasure, x) -> np.ndarray:
    """Right-continuous distribution function F(x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for pos, w in mu.atoms:
        out = out + w * (x >= pos)
    for s in mu.segments:
        nodes = s.grid
        cum = np.concatenate(
            [[0.0], np.cumsum(np.diff(nodes) * (s.density[:-1] + s.density[1:]) / 2)]
        )
        inside = np.interp(x, nodes, cum)
        # np.interp clamps: left of segment -> 0, right -> full mass.  For
        # points inside a cell add the quadratic correction below.
        idx = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
        t0 = nodes[idx]
        r0 = s.density[idx]
        slope = (s.density[idx + 1] - r0) / (nodes[idx + 1] - t0)
        dx = np.clip(x - t0, 0.0, nodes[idx + 1] - t0)
        quad = r0 * dx + 0.5 * slope * dx * dx
        interior = (x >= nodes[0]) & (x < nodes[-1])
        out = out + np.where(interior, cum[idx] + quad, inside)
    return out if out.ndim else float(out)


def quantiles(mu: SpectralMeasure, n: int) -> np.ndarray:
    """Deterministic quantiles F^{-1}((k - 1/2)/n), k = 1..n, ascending.

    Atom positions are returned exactly when the probe falls inside the
    jump of the distribution function.
    """
    if n < 1:
        raise ValidationError("need n >= 1 quantiles")
    probes = (np.arange(n) + 0.5) / n
    xs = [x for x, _ in mu.atoms]
    for s in mu.segments:
        xs.extend(s.grid)
    xs = np.unique(np.asarray(xs, dtype=float))
    fs = np.asarray(cdf(mu, xs))
    atom_w = {x: w for x, w in mu.atoms}

    ks = np.minimum(np.searchsorted(fs, probes, side="left"), len(xs) - 1)
    out = xs[ks].copy()
    need = np.zeros(n, dtype=bool)
    for i, (q, k) in enumerate(zip(probes, ks)):
        if k == 0:
            continue
        left_limit = fs[k] - atom_w.get(xs[k], 0.0)
        if q > left_limit - 1e-14:
            continue  # probe lands in the jump: the atom position is exact
        need[i] = True
    if np.any(need):
        lo = xs[ks[need] - 1].astype(float)
        hi = xs[ks[need]].astype(float)
        q = probes[need]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = np.asarray(cdf(mu, mid)) < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[need] = 0.5 * (lo + hi)
    return out


# -- distances -------------------------------------------------------------


def _breakpoints(mu: SpectralMeasure, nu: SpectralMeasure) -> np.ndarray:
    pts = []
    for m in (mu, nu):
        pts.extend(x for x, _ in m.atoms)
        for s in m.segments:
            pts.extend(s.grid)
    return np.unique(np.asarray(pts, dtype=float))


def _density_slope_right(mu: SpectralMeasure, xs: np.ndarray):
    """Density value and slope just right of each probe (zero off segments)."""
    val = np.zeros_like(xs)
    slope = np.zeros_like(xs)
    for s in mu.segments:
        inside = (xs >= s.grid[0]) & (xs < s.grid[-1])
        if not np.any(inside):
            continue
        idx = np.searchsorted(s.grid, xs[inside], side="right") - 1
        t0 = s.grid[idx]
        sl = (s.density[idx + 1] - s.density[idx]) / (s.grid[idx + 1] - t0)
        val[inside] = s.density[idx] + sl * (xs[inside] - t0)
        slope[inside] = sl
    return val, slope


def _abs_quadratic_integral(c, b, a, L):
    """Exact integral of |a*y^2 + b*y + c| over [0, L]."""

    def antideriv(y):
        return c * y + 0.5 * b * y * y + a * y**3 / 3.0

    roots = []
    if a != 0.0:
        disc = b * b - 4 * a * c
        if disc > 0:
            sq = np.sqrt(disc)
            roots = [(-b - sq) / (2 * a), (-b + sq) / (2 * a)]
    elif b != 0.0:
        roots = [-c / b]
    cuts = sorted({0.0, L, *[r for r in roots if 0.0 < r < L]})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        sign = 1.0 if (a * mid * mid + b * mid + c) >= 0 else -1.0
        total += sign * (antideriv(hi) - antideriv(lo))
    return total


def wasserstein1(mu: SpectralMeasure, nu: SpectralMeasure) -> float:
    """Kantorovich distance: exact integral of |F_mu - F_nu|.

    Between consecutive breakpoints both distribution functions are
    quadratic, so each piece integrates in closed form.
    """
    pts = _breakpoints(mu, nu)
    if pts.size < 2:
        return 0.0
    u = pts[:-1]
    c = np.asarray(cdf(mu, u)) - np.asarray(cdf(nu, u))
    v1, s1 = _density_slope_right(mu, u)
    v2, s2 = _density_slope_right(nu, u)
    b = v1 - v2
    a = 0.5 * (s1 - s2)
    lengths = np.diff(pts)
    total = 0.0
    for ci, bi, ai, li in zip(c, b, a, lengths):
        total += _abs_quadratic_integral(ci, bi, ai, li)
    return total


def wasserstein1_empirical(values, mu: SpectralMeasure) -> float:
    """Exact integral of |F_empirical - F_mu| for a finite sample."""
    values = np.sort(np.asarray(values, dtype=float))
    m = values.size
    if m == 0:
        raise ValidationError("empty sample")
    pts = np.unique(np.concatenate([values, _breakpoints(mu, mu)]))
    u = pts[:-1]
    f_emp = np.searchsorted(values, u, side="right") / m
    c = f_emp - np.asarray(cdf(mu, u))
    v, s = _density_slope_right(mu, u)
    lengths = np.diff(pts)
    total = 0.0
    for ci, bi, ai, li in zip(c, -v, -0.5 * s, lengths):
        total += _abs_quadratic_integral(ci, bi, ai, li)
    return total


def density_l1_distance(mu: SpectralMeasure, nu: SpectralMeasure,
                        atom_position_tol: float = 1e-6) -> float:
    """L1 distance: exact integral of |density difference| plus atom mismatch.

    Atoms of the two measures are matched greedily within
    ``atom_position_tol``; unmatched atoms contribute their full weight.
    """
    nodes = []
    for m in (mu, nu):
        for s in m.segments:
            nodes.extend(s.grid)
    total = 0.0
    if nodes:
        grid = np.unique(np.asarray(nodes, dtype=float))
        d = mu.density_at(grid) - nu.density_at(grid)
        y0, y1 = d[:-1], d[1:]
        h = np.diff(grid)
        same = y0 * y1 >= 0
        tri = np.where(
            same,
            0.5 * np.abs(y0 + y1) * h,
            0.5 * h * (y0 * y0 + y1 * y1) / np.maximum(np.abs(y0 - y1), 1e-300),
        )
        total += float(np.sum(tri))
    remaining = list(nu.atoms)
    for x, w in mu.atoms:
        match = None
        for j, (y, v) in enumerate(remaining):
            if abs(x - y) <= atom_position_tol:
                match = j
                break
        if match is None:
            total += w
        else:
            total += abs(w - remaining[match][1])
            remaining.pop(match)
    total += sum(v for _, v in remaining)
    return total


def support_interval(mu: SpectralMeasure):
    """Support endpoints after trimming 1e-3 of mass from each tail."""
    lo, hi = mu.support()
    xs = np.unique(np.concatenate([
        np.asarray([x for x, _ in mu.atoms] or [lo]),
        *[s.grid for s in mu.segments],
    ]))
    fs = np.asarray(cdf(mu, xs))
    i_lo = int(np.searchsorted(fs, 1e-3, side="left"))
    i_hi = int(np.searchsorted(fs, 1.0 - 1e-3, side="left"))
    return float(xs[min(i_lo, len(xs) - 1)]), float(xs[min(i_hi, len(xs) - 1)])


# -- moment vectors --------------------------------------------------------


@dataclass(frozen=True)
class MomentVector:
    """Raw moments m_1..m_K (m_0 = 1 implicit)."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _readonly(self.m))
        if self.m.ndim != 1 or self.m.size < 1:
            raise ValidationError("moment vector needs order K >= 1")

    @property
    def order(self) -> int:
        return int(self.m.size)

    @classmethod
    def from_measure(cls, mu: SpectralMeasure, order: int) -> "MomentVector":
        return cls(np.array([moment(mu, n) for n in range(1, order + 1)]))


# -- CSV round trip --------------------------------------------------------


def write_density_csv(mu: SpectralMeasure, csv_path, sidecar_path) -> None:
    """Emit the density CSV (`x,density`) and the atom/segment sidecar JSON."""
    with open(csv_path, "w") as fh:
        fh.write("x,density\n")
        for s in mu.segments:
            for x, d in zip(s.grid, s.density):
                fh.write(f"{x:.17g},{d:.17g}\n")
    sidecar = {
        "atoms": [{"x": x, "w": w} for x, w in mu.atoms],
        "segment_lengths": [int(s.grid.size) for s in mu.segments],
        "renorm": mu.renorm,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")


def read_density_csv(csv_path, sidecar_path) -> SpectralMeasure:
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    xs, ds = [], []
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "x,density":
            raise ValidationError(f"unexpected density CSV header {header!r}")
        for line in fh:
            a, b = line.strip().split(",")
            xs.append(float(a))
            ds.append(float(b))
    segments = []
    start = 0
    for length in sidecar["segment_lengths"]:
        segments.append(Segment(xs[start:start + length], ds[start:start + length]))
        start += length
    if start != len(xs):
        raise ValidationError("segment lengths do not cover the CSV rows")
    atoms = tuple((a["x"], a["w"]) for a in sidecar["atoms"])
    return SpectralMeasure(atoms=atoms, segments=tuple(segments),
                           renorm=sidecar.get("renorm", 1.0))
