"""Cauchy/Stieltjes transforms, functional inversion, and density recovery.

Branch convention, fixed once for the whole package: G maps the upper half
plane into the lower half plane and G(z) ~ 1/z at infinity.  Densities are
recovered from boundary values through polynomial (Neville) extrapolation of
-Im G(x + i*eps)/pi over a decreasing epsilon ladder; point masses are
detected from the scale-invariance of eps*|G| near a pole.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchError,
    DomainError,
    InversionError,
    SupportCoverageError,
    ValidationError,
)
from .measures import Segment, SpectralMeasure, _readonly, moment

DEFAULT_EPSILON_SCHEDULE = (1e-2, 5e-3, 2.5e-3)
NEWTON_TOL = 1e-12
MAX_ITER = 100
MAX_HALVINGS = 20
ATOM_MASS_THRESHOLD = 1e-3
ATOM_FLATNESS = 0.9
MASS_WINDOW = (0.99, 1.01)


@dataclass(frozen=True)
class ContourSpec:
    """Real evaluation grid plus the decreasing ladder of imaginary offsets."""

    real_grid: np.ndarray
    epsilon_schedule: np.ndarray = DEFAULT_EPSILON_SCHEDULE

    def __post_init__(self):
        object.__setattr__(self, "real_grid", _readonly(self.real_grid))
        object.__setattr__(self, "epsilon_schedule",
                           _readonly(self.epsilon_schedule))
        if self.real_grid.size < 8:
            raise ValidationError("contour needs at least 8 real nodes")
        if np.any(np.diff(self.real_grid) <= 0):
            raise ValidationError("contour real grid must be strictly increasing")
        eps = self.epsilon_schedule
        if eps.size < 2 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValidationError(
                "epsilon schedule must be positive and strictly decreasing"
            )


def default_contour(lo: float, hi: float, points: int = 2000,
                    schedule=DEFAULT_EPSILON_SCHEDULE,
                    margin: float = 0.1) -> ContourSpec:
    """Uniform contour covering [lo, hi] with a relative margin each side."""
    width = max(hi - lo, 1.0)
    grid = np.linspace(lo - margin * width, hi + margin * width, points)
    return ContourSpec(grid, np.asarray(schedule, dtype=float))


# -- evaluators ---------------------------------------------------------------


class ResolventEvaluator:
    """Deterministic contract z -> G(z) for z off the real support.

    Subclasses provide ``value_and_derivative`` returning (G, G'), report a
    ``support`` interval, structurally exact ``edge_hints``, and a ``mean``
    used for seeding.  Evaluation is reentrant: ``sample_columns`` carries
    any warm-start state locally, so concurrent use needs no coordination.
    """

    support: tuple[float, float] = (-1.0, 1.0)
    edge_hints: tuple = ()
    mean: float = 0.0

    def value_and_derivative(self, z):
        raise NotImplementedError

    def vd_scalar(self, z):
        return self.value_and_derivative(complex(z))

    def __call__(self, z):
        return self.value_and_derivative(z)[0]

    def sample_columns(self, xs, ladders):
        """G at x_k + i*eps for each column's descending epsilon ladder."""
        return [np.asarray(self(x + 1j * np.asarray(lad)))
                for x, lad in zip(xs, ladders)]


# Treecode constants for the cell sum.  A block of cells with centre c and
# half-width r is far from z when |z - c| >= r / _FAR_THETA; its multipole
# series then converges like theta^k, and truncating it after order
# p = _ORDER errs by at most theta^(p+1)/(1 - theta) = 8e-16 of the
# block's mass over |z - c|.
_FAR_THETA = 1 / 3
_ORDER = int(np.ceil(np.log(1e-15 * (1 - _FAR_THETA))
                     / np.log(_FAR_THETA))) - 1
_MIN_BLOCK = 16


class _CellTree:
    """One-level treecode for the cells of a piecewise-linear density.

    The cells of each segment are grouped into contiguous blocks of about
    sqrt(2 cells) cells, and each block keeps its exact multipole moments
    int rho(t) ((t - c)/r)^k dt, k <= _ORDER.  At z, the blocks near z
    span one contiguous slice of cells, which is summed exactly; every
    block outside the slice is far and adds its multipole series.  The
    tree holds arrays only, never the resolvent that owns it.
    """

    def __init__(self, segments):
        t0 = np.concatenate([s.grid[:-1] for s in segments])
        t1 = np.concatenate([s.grid[1:] for s in segments])
        r0 = np.concatenate([s.density[:-1] for s in segments])
        r1 = np.concatenate([s.density[1:] for s in segments])
        size = max(_MIN_BLOCK, int(np.sqrt(2 * t0.size)))
        bounds = [0]
        firsts = []  # the first block of each segment
        for s in segments:
            firsts.append(len(bounds) - 1)
            n = s.grid.size - 1
            k = -(-n // size)
            bounds.extend(bounds[-1] + (n * np.arange(1, k + 1)) // k)
        bounds = np.array(bounds)
        starts, stops = bounds[:-1], bounds[1:]
        self.starts, self.stops = starts.tolist(), stops.tolist()
        cen = 0.5 * (t0[starts] + t1[stops - 1])
        rad = 0.5 * (t1[stops - 1] - t0[starts])
        self.cen = cen.astype(complex)
        self.reach = rad / _FAR_THETA
        self.rad = rad.astype(complex)
        # Cell moments from the two hat functions of the linear piece:
        # with y = (t - c)/r, int_cell rho y^k dt equals
        # dt (r1 A_k + r0 B_k) / ((k+1)(k+2)), where
        # A_k = sum_j (j+1) y1^j y0^(k-j) and B_k is A_k with y0 and y1
        # swapped.  Where y0 and y1 share a sign every term does too, so
        # the moments carry no cancellation.
        blk = np.repeat(np.arange(starts.size), stops - starts)
        y0 = (t0 - cen[blk]) / rad[blk]
        y1 = (t1 - cen[blk]) / rad[blk]
        dt = t1 - t0
        mom = np.empty((_ORDER + 1, starts.size))
        p0 = p1 = a = b = np.ones_like(dt)
        for k in range(_ORDER + 1):
            if k:
                p0, p1 = p0 * y0, p1 * y1
                a = y0 * a + (k + 1) * p1
                b = y1 * b + (k + 1) * p0
            mom[k] = np.add.reduceat((r1 * a + r0 * b) * dt, starts)
            mom[k] /= (k + 1) * (k + 2)
        # With q = r/(z - c), the far sums are sum_k mom_k q^(k+1) / r and
        # -sum_k (k+1) mom_k q^(k+2) / r^2: dot products of the power
        # table q^1 .. q^(p+2) with these coefficient rows.
        order = np.arange(1, _ORDER + 2)[:, None]
        cg = np.zeros((_ORDER + 2, starts.size))
        cd = np.zeros_like(cg)
        cg[:-1] = mom / rad
        cd[1:] = -order * mom / (rad * rad)
        self.cg = cg.ravel().astype(complex)
        self.cd = cd.ravel().astype(complex)
        self.ones = np.ones(cg.shape, dtype=complex)
        # The exact near sum works on cell midpoints and half-widths.
        # Held as complex (imaginary part +0), the arrays spare numpy a
        # cast on every call.
        self.mid = (0.5 * (t0 + t1)).astype(complex)
        self.half = (0.5 * dt).astype(complex)
        self.rc = (0.5 * (r0 + r1)).astype(complex)
        self.slope = ((r1 - r0) / dt).astype(complex)
        # running sums of 2*slope*half = r1 - r0 over the cells
        self.jumps = np.concatenate(([0.0], np.cumsum(r1 - r0))).tolist()
        # (t, rho(t)) where each block starts and ends, and the blocks
        # that start a later segment: the boundary terms of the near G'.
        self.heads = list(zip(t0[starts].tolist(), r0[starts].tolist()))
        self.tails = list(zip(t1[stops - 1].tolist(),
                              r1[stops - 1].tolist()))
        self.splits = firsts[1:]

    def __call__(self, z):
        """(G, G') of the cells at one point, as Python complex numbers.

        A near cell with midpoint m and half-width h adds
        (rc + s w) L - 2 s h and s L + (rc + s w) L', with w = z - m,
        L = 2 atanh(h/w) and L' = -2h/((w - h)(w + h)).  The atanh form
        keeps full relative accuracy where h/w is small.  The second
        term of G' is rho(t0)/(z - t0) - rho(t1)/(z - t1) for a cell
        [t0, t1], which telescopes along a segment, so the near sum adds
        it only at the ends of the segments it spans: summed cell by cell
        those large terms cancel and swamp G' next to the real axis.  A
        real z at the end of a segment gives NaN.
        """
        zc = z - self.cen
        near = (np.abs(zc) < self.reach).nonzero()[0]
        g = gp = 0j
        if near.size:
            jlo, jhi = int(near[0]), int(near[-1]) + 1
            lo, hi = self.starts[jlo], self.stops[jhi - 1]
            w = z - self.mid[lo:hi]
            h = self.half[lo:hi]
            s = self.slope[lo:hi]
            at = np.arctanh(h / w)
            g = (2 * complex(np.dot(self.rc[lo:hi] + s * w, at))
                 - (self.jumps[hi] - self.jumps[lo]))
            (ta, ra), (tb, rb) = self.heads[jlo], self.tails[jhi - 1]
            try:
                gp = 2 * complex(np.dot(s, at)) + ra / (z - ta) - rb / (z - tb)
                for k in self.splits:
                    if jlo < k < jhi:
                        (ta, ra), (tb, rb) = self.heads[k], self.tails[k - 1]
                        gp += ra / (z - ta) - rb / (z - tb)
            except ZeroDivisionError:
                return complex("nan"), complex("nan")
            if hi - lo == self.mid.size:  # no block is far
                return g, gp
            # a near block drops out of the power table as q = r/inf = 0
            zc[jlo:jhi] = np.inf
        q = self.ones * (self.rad / zc)
        np.multiply.accumulate(q, axis=0, out=q)
        q = q.ravel()
        return (g + complex(np.dot(q, self.cg)),
                gp + complex(np.dot(q, self.cd)))


class MeasureResolvent(ResolventEvaluator):
    """Exact transform of a stored measure.

    Each atom adds w/(z - a).  Each linear density cell integrates against
    1/(z - t) to a closed-form log term; the cells are summed by a
    one-level treecode (``_CellTree``), built once here: blocks far from z
    add their multipole series, and the cells of the near blocks are
    summed exactly.  ``vd_scalar`` and ``value_and_derivative`` evaluate
    every point through the same body.
    """

    def __init__(self, mu: SpectralMeasure):
        self.measure = mu
        self.support = mu.support()
        self.edge_hints = tuple(np.unique([e for s in mu.segments
                                           for e in (s.grid[0], s.grid[-1])]))
        self.mean = moment(mu, 1)
        self._atoms = tuple((float(x), float(w)) for x, w in mu.atoms)
        self._cells = _CellTree(mu.segments) if mu.segments else None

    def vd_scalar(self, z):
        """(G, G') at one point as Python complex numbers.

        The hot path of every contour solve: atoms are summed in a plain
        loop, then the cell tree adds the density.  An exact hit on an
        atom gives NaN.
        """
        z = complex(z)
        g = gp = 0j
        try:
            for a, w in self._atoms:
                inv = 1.0 / (z - a)
                g += w * inv
                gp -= w * inv * inv
        except ZeroDivisionError:
            return complex("nan"), complex("nan")
        if self._cells is not None:
            cg, cgp = self._cells(z)
            g += cg
            gp += cgp
        return g, gp

    # The array path calls this name, so that wrapping ``vd_scalar`` (to
    # count kernel calls) sees each array call once, not once per point.
    _point = vd_scalar

    def value_and_derivative(self, z):
        """(G, G') at each point of ``z``, one point at a time through the
        body of ``vd_scalar``; a scalar ``z`` gives Python complex numbers.
        """
        z_arr = np.asarray(z, dtype=complex)
        if z_arr.ndim == 0:
            return self._point(complex(z_arr))
        pairs = [self._point(v) for v in z_arr.ravel().tolist()]
        g, gp = np.array(pairs, dtype=complex).reshape(-1, 2).T
        return g.reshape(z_arr.shape), gp.reshape(z_arr.shape)


# -- public transforms --------------------------------------------------------


def _off_support_resolvent(mu: SpectralMeasure, z) -> MeasureResolvent:
    """Evaluator for ``mu`` after checking that no real z lies on the
    closed support; shared domain rule of the public transforms."""
    ev = MeasureResolvent(mu)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    lo, hi = ev.support
    on_axis = z_arr.imag == 0
    if np.any(on_axis):
        x = z_arr.real[on_axis]
        if np.any((x >= lo) & (x <= hi)):
            raise DomainError(
                "z lies on the support; use principal_value_transform for "
                "boundary values"
            )
    return ev


def cauchy_transform(mu: SpectralMeasure, z):
    """G(z) = sum_i w_i/(z - a_i) + int rho(t) dt / (z - t).

    Real z must lie outside the closed support; on the support use
    principal_value_transform instead.  ``z`` may be an array.
    """
    return _off_support_resolvent(mu, z)(z)


def cauchy_derivative(mu: SpectralMeasure, z):
    """G'(z) under the same domain rules as cauchy_transform."""
    return _off_support_resolvent(mu, z).value_and_derivative(z)[1]


def principal_value_transform(mu: SpectralMeasure, x: float) -> float:
    """Cauchy principal value of the transform at real x.

    The log singularities of adjacent linear pieces cancel analytically, so
    interior grid nodes are safe probe points.  Atom positions are not, and
    neither is a segment endpoint where the density jumps: there the
    principal value diverges like the jump times log|x - endpoint|.
    """
    x = float(x)
    total = 0.0
    for a, w in mu.atoms:
        if x == a:
            raise DomainError("principal value undefined at an atom position")
        total += w / (x - a)
    jump = sum((x == s.grid[0]) * s.density[0]
               - (x == s.grid[-1]) * s.density[-1] for s in mu.segments)
    if jump != 0:
        raise DomainError("principal value undefined where the density jumps")
    for s in mu.segments:
        t0, t1 = s.grid[:-1], s.grid[1:]
        r0, r1 = s.density[:-1], s.density[1:]
        slope = (r1 - r0) / (t1 - t0)
        lead = r0 + slope * (x - t0)
        d0 = np.abs(x - t0)
        d1 = np.abs(x - t1)
        with np.errstate(divide="ignore"):
            l0 = np.where(d0 > 0, np.log(d0), 0.0)
            l1 = np.where(d1 > 0, np.log(d1), 0.0)
        total += float(np.sum(lead * (l0 - l1) - (r1 - r0)))
    return total


def damped_newton(f, x0, target, tol, stall_tol=None, xspace_tol=None):
    """Solve f(x)[0] = target by damped complex Newton; returns (x, f(x)).

    ``f(x)`` returns ``(value, derivative, *extra)``; the extra entries
    come back with the accepted iterate.  Each step tries the full
    Newton correction and halves it up to MAX_HALVINGS times; a trial that
    raises InversionError or does not lower |value - target| is rejected.
    A stall counts as converged when the residual is at most ``stall_tol``
    (default ``tol``), or when the Newton correction it implies is at most
    ``xspace_tol`` relative to the iterate: near a pole the residual floor
    grows with the derivative, so x-space is the right measure there.
    """
    x = x0
    fx = f(x0)
    res = fx[0] - target
    for _ in range(MAX_ITER):
        r = abs(res)
        if r <= tol:
            return x, fx
        deriv = fx[1]
        if deriv == 0 or not cmath.isfinite(deriv):
            break
        step = -res / deriv
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = x + scale * step
            scale *= 0.5
            try:
                f_c = f(cand)
            except InversionError:
                continue
            res_c = f_c[0] - target
            if abs(res_c) < r:
                x, fx, res = cand, f_c, res_c
                break
        else:
            break
    deriv = fx[1]
    if abs(res) <= (tol if stall_tol is None else stall_tol) or (
            xspace_tol is not None and deriv != 0
            and abs(res / deriv) <= xspace_tol * max(1.0, abs(x))):
        return x, fx
    raise InversionError(
        f"damped Newton did not converge (residual {abs(res):.3g})",
        last_iterate=x, residual=abs(res))


def invert_cauchy(ev: ResolventEvaluator, w: complex, seed=None) -> complex:
    """Solve G(lam) = w on the principal sheet by damped Newton.

    Seeded from 1/w (the asymptotic inverse) unless ``seed`` is given; on
    direct failure a short continuation path from small |w| is attempted.
    Residual contract: |G(lam) - w| <= 1e-12 * max(1, |w|).
    """
    w = complex(w)
    if w == 0:
        raise ValidationError("w = 0 is outside the image of the resolvent")
    lam = complex(seed) if seed is not None else 1.0 / w
    try:
        return damped_newton(ev.vd_scalar, lam, w,
                             NEWTON_TOL * max(1.0, abs(w)))[0]
    except InversionError:
        if seed is not None:
            raise
    # Continuation: walk |w| up from deep inside the asymptotic regime.
    start = min(0.01, 0.1 * abs(w))
    mags = np.geomspace(start, abs(w), 12)
    lam = (1.0 / w) * abs(w) / start
    phase = w / abs(w)
    for m in mags:
        target = phase * m
        lam = damped_newton(ev.vd_scalar, lam, target,
                            NEWTON_TOL * max(1.0, abs(target)))[0]
    return lam


# -- extrapolation helpers ----------------------------------------------------


def neville_to_zero(eps: np.ndarray, vals: np.ndarray):
    """Polynomial extrapolation of samples at eps > 0 down to eps = 0.

    ``vals`` may carry extra trailing axes; extrapolation runs on axis 0.
    """
    eps = np.asarray(eps, dtype=float)
    p = [np.asarray(v, dtype=float) for v in vals]
    n = len(p)
    for level in range(1, n):
        p = [
            (eps[j] * p[j + 1] - eps[j + level] * p[j])
            / (eps[j] - eps[j + level])
            for j in range(n - level)
        ]
    return p[0]


def _ladder(top: float, target: float, ratio: float = 2.0) -> np.ndarray:
    """Descending geometric ladder from ``top`` to roughly ``target``."""
    target = min(top, target)
    n = max(1, int(np.ceil(np.log(top / target) / np.log(ratio))) + 1)
    return top * ratio ** (-np.arange(n, dtype=float))


# -- density recovery ---------------------------------------------------------


def _column_densities(lad, cols):
    """Extrapolated density at contour columns from their bottom rungs.

    ``cols`` holds one column per row, one rung per column.  ``lad`` is
    one ladder shared by every column, or one ladder per row.
    """
    lad = np.asarray(lad, dtype=float)
    take = min(3, lad.shape[-1])
    e = lad[..., -take:].T
    v = -np.asarray(cols)[:, -take:].T.imag / np.pi
    rho = neville_to_zero(e, v)
    if take >= 2:
        # overshoot near edges: retry with the short stencil
        rho = np.where(rho < 0, neville_to_zero(e[-2:], v[-2:]), rho)
    # Both extrapolations negative means the boundary signal is pure
    # epsilon-linear leakage, i.e. the density itself vanishes here.
    return np.where(rho < 0, 0.0, rho)


def _detection_indices(lad, spacing):
    """Three ladder rungs with eps nearest to 4x the local grid spacing.

    An array ``spacing`` gives one row of rung indices per entry.
    """
    lad = np.asarray(lad, dtype=float)
    target = 4.0 * np.asarray(spacing, dtype=float)
    j = np.argmin(np.abs(np.log(lad / target[..., None])), axis=-1)
    lo = np.clip(j - 1, 0, max(lad.size - 3, 0))
    return lo[..., None] + np.arange(min(3, lad.size))


class _AtomFit:
    __slots__ = ("position", "weight")

    def __init__(self, position, weight):
        self.position = position
        self.weight = weight


def _refine_atom(ev, a0, top_eps, spacing):
    """Re-center on a pole candidate and weigh it on a deep ladder.

    For a pole w/(z - a) probed at a0 + i*eps the offset a0 - a equals
    eps * Re G / (-Im G) exactly, so each round shrinks the position error
    to the contamination level of the surrounding continuous part.  The
    verification rungs sit at ~1e-4 so any point mass (or sub-resolution
    bump) shows a flat eps*|G| profile there, while integrable edge
    singularities keep decaying and are rejected by the caller.
    """
    a = float(a0)
    scale = max(1.0, abs(a0))
    bottoms = np.geomspace(max(spacing / 4.0, 1e-5 * scale), 1e-6 * scale, 3)
    for bottom in bottoms:
        lad = _ladder(top_eps, float(bottom))
        col = ev.sample_columns([a], [lad])[0]
        g = col[-1]
        if g.imag >= 0:
            break
        e_actual = float(lad[-1])
        shift = e_actual * g.real / (-g.imag)
        a -= float(np.clip(shift, -10 * e_actual, 10 * e_actual))
    lad = _ladder(top_eps, 1e-4 * scale)
    col = ev.sample_columns([a], [lad])[0]
    tail = np.asarray(lad[-3:], dtype=float)
    m = np.abs(tail * col[-3:])
    flatness = float(m[-1] / m[0]) if m[0] > 0 else 0.0
    w = float(neville_to_zero(tail, m))
    return _AtomFit(a, w), flatness


def _detect_atoms(ev, xs, lad, cols):
    """Two-stage pole detection on the pass-1 samples.

    Stage 1 flags nodes whose extrapolated pole mass eps*|G| stays above
    threshold; clusters of flagged nodes become candidates.  Stage 2
    re-centers each candidate on the pole and accepts it only if the deep
    eps*|G| profile is flat, which separates true point masses from
    integrable edge singularities (those decay like a power of eps).
    """
    n = len(xs)
    spacing = np.gradient(xs)
    idx = _detection_indices(lad, spacing)
    e = np.asarray(lad, dtype=float)[idx]
    m = np.abs(e * np.take_along_axis(cols, idx, axis=1))
    # no signal on the top detection rung: not a candidate
    m0 = np.where(m[:, 0] <= 0, 0.0, neville_to_zero(e.T, m.T))
    flags = m0 > ATOM_MASS_THRESHOLD
    atoms = []
    k = 0
    while k < n:
        if not flags[k]:
            k += 1
            continue
        j = k
        while j + 1 < n and flags[j + 1]:
            j += 1
        peak = k + int(np.argmax(m0[k:j + 1]))
        a0 = _parabola_pole_position(xs, cols, lad, peak, spacing[peak])
        fit, flatness = _refine_atom(ev, a0, lad[0], spacing[peak])
        if fit.weight > ATOM_MASS_THRESHOLD and flatness > ATOM_FLATNESS:
            atoms.append(fit)
        k = j + 1
    return atoms


def _parabola_pole_position(xs, cols, lad, peak, spacing):
    """Vertex of the parabola 1/|G|^2 across the peak: the pole position."""
    idx = _detection_indices(lad, spacing)
    j = idx[-1]
    ks = [max(0, peak - 1), peak, min(len(xs) - 1, peak + 1)]
    if ks[0] == ks[1] or ks[1] == ks[2]:
        return xs[peak]
    x = np.array([xs[k] for k in ks])
    q = np.array([1.0 / max(abs(cols[k][j]) ** 2, 1e-300) for k in ks])
    denom = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
    a_coef = (x[2] * (q[1] - q[0]) + x[1] * (q[0] - q[2])
              + x[0] * (q[2] - q[1])) / denom
    b_coef = (x[2] ** 2 * (q[0] - q[1]) + x[1] ** 2 * (q[2] - q[0])
              + x[0] ** 2 * (q[1] - q[2])) / denom
    if a_coef <= 0:
        return xs[peak]
    vertex = -b_coef / (2 * a_coef)
    return float(np.clip(vertex, x[0], x[2]))


def _subtract_poles(xs, lad, cols, atoms):
    z = xs[:, None] + 1j * np.asarray(lad)
    correction = np.zeros_like(z)
    for atom in atoms:
        correction += atom.weight / (z - atom.position)
    return cols - correction


def _power_law_completion(offsets, densities, edge, inner_sign, floor_scale):
    """Fit rho ~ C*d^(-alpha) on the innermost resolved nodes and extend the
    grid toward a hard edge; returns (grid, density) arrays or None."""
    mask = (densities > 0) & (offsets > 0)
    if np.sum(mask) < 4:
        return None
    d = offsets[mask][:6]
    r = densities[mask][:6]
    if len(d) < 4:
        return None
    logs_d = np.log(d)
    logs_r = np.log(r)
    slope, intercept = np.polyfit(logs_d, logs_r, 1)
    alpha = -slope
    if not 0.1 <= alpha <= 0.95:
        return None
    resid = logs_r - (slope * logs_d + intercept)
    if np.max(np.abs(resid)) > 0.15:
        return None
    c_fit = np.exp(intercept)
    d_lo = d[0] * floor_scale
    tail = np.geomspace(d_lo, d[0], 40, endpoint=False)
    grid = edge + inner_sign * tail
    dens = c_fit * tail ** (-alpha)
    order = np.argsort(grid)
    return grid[order], dens[order]


def stieltjes_invert(ev: ResolventEvaluator, contour: ContourSpec,
                     edge_refine: bool = True) -> SpectralMeasure:
    """Recover the measure whose transform the evaluator computes.

    Density at every contour node comes from Neville extrapolation of
    -Im G(x + i eps)/pi over the epsilon ladder; atoms are detected and
    removed first.  When ``edge_refine`` is on, support edges found in the
    first pass are re-sampled on deeper ladders (and, near structurally
    exact hard edges, completed by a fitted power law) so edge-singular
    densities keep their mass.  Output mass must land in [0.99, 1.01] and
    is renormalized.
    """
    xs = np.asarray(contour.real_grid, dtype=float)
    sched = np.asarray(contour.epsilon_schedule, dtype=float)
    cols = np.array(ev.sample_columns(xs, [sched] * len(xs)))
    _herglotz_guard(cols)

    atoms = _detect_atoms(ev, xs, sched, cols)
    if atoms:
        cols = _subtract_poles(xs, sched, cols, atoms)

    dens = _column_densities(sched, cols)
    raw_floor = max(np.max(dens), 0.0)
    floor = max(1e-8, 1e-5 * raw_floor)

    # Support edges from mass quantiles: the extrapolation residue that
    # leaks outside a singular edge is visible in the density but carries
    # almost no mass, so quantiles land on the true edge.
    cum = np.concatenate(
        [[0.0], np.cumsum(np.diff(xs) * (dens[1:] + dens[:-1]) / 2)]
    )
    total = cum[-1]
    grid_parts = [xs]
    dens_parts = [dens]
    keep_mask = np.ones(len(xs), dtype=bool)
    singular_zones = []
    if total > 10 * ATOM_MASS_THRESHOLD and edge_refine:
        def quantile_x(q):
            return xs[int(np.clip(np.searchsorted(cum, q), 0, len(xs) - 1))]

        # Fine quantile pins soft edges; the coarse one is immune to the
        # near-edge extrapolation ghost of singular edges.  A structural
        # hint confirmed by either wins.
        lo_fine, lo_coarse = quantile_x(1e-4 * total), quantile_x(1e-2 * total)
        hi_fine = xs[int(np.clip(np.searchsorted(cum, (1 - 1e-4) * total) - 1,
                                 0, len(xs) - 1))]
        hi_coarse = xs[int(np.clip(np.searchsorted(cum, (1 - 1e-2) * total) - 1,
                                   0, len(xs) - 1))]
        width = max(hi_coarse - lo_coarse, 1e-3 * (xs[-1] - xs[0]))
        spacing = float(np.median(np.diff(xs)))
        for fine, coarse, sign in ((lo_fine, lo_coarse, +1.0),
                                   (hi_fine, hi_coarse, -1.0)):
            anchor, hinted = fine, False
            for h in getattr(ev, "edge_hints", ()):
                if min(abs(h - fine), abs(h - coarse)) <= 3.0 * spacing:
                    anchor, hinted = float(h), True
                    break
            g, r, zone, singular = _refine_edge(ev, sched, anchor, hinted,
                                                sign, width, spacing)
            if g.size:
                grid_parts.append(g)
                dens_parts.append(r)
                # refined columns replace the coarse ones in their zone
                keep_mask &= ~((xs > zone[0]) & (xs < zone[1]))
                if singular:
                    singular_zones.append(zone)
            # ghost residue beyond the edge carries no mass: drop it; a
            # hinted anchor is the exact edge, so nothing lies outside it
            margin = 0.0 if hinted else 2 * spacing
            if sign > 0:
                keep_mask &= ~(xs < anchor - margin)
            else:
                keep_mask &= ~(xs > anchor + margin)
    grid_parts[0] = xs[keep_mask]
    dens_parts[0] = dens[keep_mask]

    grid_all = np.concatenate(grid_parts)
    dens_all = np.concatenate(dens_parts)
    order = np.argsort(grid_all)
    grid_all, dens_all = grid_all[order], dens_all[order]
    grid_all, keep = np.unique(grid_all, return_index=True)
    dens_all = dens_all[keep]

    above = np.nonzero(dens_all > floor)[0]
    segments = ()
    if above.size >= 2:
        lo = max(0, above[0] - 1)
        hi = min(len(grid_all) - 1, above[-1] + 1)
        seg_grid = grid_all[lo:hi + 1]
        seg_dens = np.clip(dens_all[lo:hi + 1], 0.0, None)
        segments = (Segment(seg_grid, seg_dens),)

    atom_pairs = tuple((a.position, a.weight) for a in atoms)
    mass = sum(w for _, w in atom_pairs) + sum(s.mass for s in segments)
    if not MASS_WINDOW[0] <= mass <= MASS_WINDOW[1]:
        raise SupportCoverageError(
            f"recovered mass {mass:.6f} outside {MASS_WINDOW}; widen the "
            "contour grid or deepen the epsilon schedule"
        )
    if segments and singular_zones and abs(mass - 1.0) > 1e-5:
        # The interior density and the low moments are solved to far better
        # accuracy than the sub-resolution singular-edge zones, which is
        # where the piecewise-linear representation over-integrates.  Put
        # the mass correction there (negligible moment impact) instead of
        # rescaling the whole measure.
        adjusted = _absorb_mass_excess(segments[0], singular_zones,
                                       mass - 1.0)
        if adjusted is not None:
            segments = (adjusted,)
            mass = sum(w for _, w in atom_pairs) + segments[0].mass
    scale = 1.0 / mass
    atom_pairs = tuple((p, w * scale) for p, w in atom_pairs)
    segments = tuple(s.scaled(scale) for s in segments)
    return SpectralMeasure(atoms=atom_pairs, segments=segments, renorm=scale)


def _absorb_mass_excess(segment, zones, excess):
    """Rescale the density inside the singular-edge zones so total mass is
    one; trapezoid mass is linear in node values, so the factor is exact."""
    grid, dens = segment.grid, segment.density.copy()
    marked = np.zeros(grid.size, dtype=bool)
    for lo, hi in zones:
        marked |= (grid >= lo) & (grid <= hi)
    if not np.any(marked):
        return None
    zeroed = np.where(marked, 0.0, dens)
    base = float(np.trapezoid(zeroed, grid))
    contribution = float(np.trapezoid(dens, grid)) - base
    if contribution <= 0:
        return None
    target = float(np.trapezoid(dens, grid)) - excess
    scale = (target - base) / contribution
    if not 0.5 <= scale <= 1.5:
        return None
    dens[marked] *= scale
    return Segment(grid, dens)


def _herglotz_guard(g):
    """Raise BranchError where the sampled values ``g`` have Im G > 0."""
    if np.any(g.imag > 1e-8 * (1.0 + np.abs(g))):
        raise BranchError(
            "Im G > 0 in the upper half plane: wrong branch or invalid "
            "evaluator"
        )


def _refine_edge(ev, sched, anchor, hinted, inner_sign, width, spacing):
    """Deep-ladder columns marching into one support edge.

    Offsets reach down to 1e-7 of the width when the edge sits on a
    structurally exact hint (hard edge), else down to the base resolution;
    hard edges with a clean power-law profile are completed analytically.
    Each column's ladder halves from the schedule's top down to a tenth of
    its offset, but only its three bottom rungs are sampled: they are all
    the density extrapolation reads.
    """
    d_min = 1e-9 * width if hinted else max(sched[-1] / 50, 1e-9 * width)
    d_max = 8.0 * spacing
    if d_min >= 2.0 * spacing:
        return np.empty(0), np.empty(0), (anchor, anchor), False
    # geometric march into the edge, then uniform coverage out to the
    # handover at d_max; the march is kept dense because the trapezoid
    # rule over-integrates convex singular densities on coarse cells, and
    # hinted (structurally hard) edges get the finest treatment
    n_march, n_hand = (144, 25) if hinted else (64, 9)
    offsets = np.concatenate([
        np.geomspace(d_min, 2.0 * spacing, n_march, endpoint=False),
        np.linspace(2.0 * spacing, d_max, n_hand),
    ])
    new_xs = anchor + inner_sign * offsets
    order = np.argsort(new_xs)
    new_xs, offsets = new_xs[order], offsets[order]
    # only the bottom rungs are read, so only they are solved
    new_ladders = [
        _ladder(sched[0], float(np.clip(d / 10.0, 3e-11 * width,
                                        sched[-1])))[-3:]
        for d in offsets
    ]
    cols = ev.sample_columns(new_xs, new_ladders)
    _herglotz_guard(np.concatenate(cols))
    new_dens = np.empty(len(cols))
    depth = np.array([len(lad) for lad in new_ladders])
    for k in np.unique(depth):
        # a short ladder (only from a schedule that halves less than once)
        # extrapolates on its own
        rows = np.flatnonzero(depth == k)
        new_dens[rows] = _column_densities(
            [new_ladders[i] for i in rows], [cols[i] for i in rows])
    grid, dens = new_xs, np.clip(new_dens, 0.0, None)
    singular = False
    if hinted:
        off_sorted = np.abs(grid - anchor)
        inner_first = np.argsort(off_sorted)
        comp = _power_law_completion(
            off_sorted[inner_first], dens[inner_first], anchor, inner_sign,
            floor_scale=1e-5,
        )
        if comp is not None:
            singular = True
            grid = np.concatenate([grid, comp[0]])
            dens = np.concatenate([dens, comp[1]])
    zone = (min(anchor, anchor + inner_sign * d_max),
            max(anchor, anchor + inner_sign * d_max))
    return grid, dens, zone, singular
