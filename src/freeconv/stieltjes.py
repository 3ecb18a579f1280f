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
from .measures import CONTOUR_LIMIT, Segment, SpectralMeasure, _readonly

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
        if not np.all(np.abs(self.real_grid) <= CONTOUR_LIMIT):
            raise ValidationError(
                f"contour nodes must be finite and within ±{CONTOUR_LIMIT:g}")
        if np.any(np.diff(self.real_grid) <= 0):
            raise ValidationError("contour real grid must be strictly increasing")
        eps = self.epsilon_schedule
        if (eps.size < 2 or not np.all((eps > 0) & (eps <= CONTOUR_LIMIT))
                or not np.all(np.diff(eps) < 0)):
            raise ValidationError(
                f"epsilon schedule must be positive, at most {CONTOUR_LIMIT:g}"
                " and strictly decreasing"
            )


def default_contour(lo: float, hi: float, points: int = 2000) -> ContourSpec:
    """Uniform contour covering [lo, hi] with a margin of a tenth of the
    width (at least 0.1) each side."""
    width = max(hi - lo, 1.0)
    grid = np.linspace(lo - 0.1 * width, hi + 0.1 * width, points)
    return ContourSpec(grid)


# -- evaluators ---------------------------------------------------------------


class ResolventEvaluator:
    """Deterministic contract z -> G(z) for z off the real support.

    Subclasses provide ``value_and_derivative`` returning (G, G'), report a
    ``support`` interval (the naive one that default contours span),
    structurally exact ``edge_hints`` and a ``hull()``: an interval outside
    which the measure has no mass, which ``stieltjes_invert`` solves only
    near.  The base class declares the whole real line, so an evaluator
    that knows no tighter hull loses no contour column.  Evaluation is
    reentrant: ``sample_columns`` carries any warm-start state locally, so
    concurrent use needs no coordination.
    """

    support: tuple[float, float] = (-1.0, 1.0)
    edge_hints: tuple = ()

    def hull(self) -> tuple[float, float]:
        return -np.inf, np.inf

    def value_and_derivative(self, z):
        raise NotImplementedError

    def vd_scalar(self, z):
        return self.value_and_derivative(complex(z))

    def __call__(self, z):
        return self.value_and_derivative(z)[0]

    def sample_columns(self, xs, eps):
        """G at x_k + i*eps[k, j] as one complex array, from one array
        call.  Row k of the float array ``eps`` is column k's descending
        ladder; a shorter one is padded with NaN at the bottom, and G is
        NaN there."""
        z = np.asarray(xs, dtype=float)[:, None] + 1j * np.asarray(eps)
        g = np.full(z.shape, complex("nan"))
        g[~np.isnan(z)] = self(z[~np.isnan(z)])
        return g


# Treecode constants for the cell sum.  A block of cells with centre c and
# half-width r is far from z when |z - c| >= r / _FAR_THETA.  There the
# block's measure rho(t) dt is replaced by its n-point Gauss rule: exact
# for polynomials of degree 2n - 1, with positive weights that sum to the
# block's mass m and nodes inside the block.  So, with y = (t - c)/r and
# z' = (z - c)/r, it errs on 1/(z - t) by at most 2m/r times the tail of
# the Chebyshev series of 1/(z' - y) past degree 2n - 1, which is
# 2 rho^(-2n) / (|s| (1 - 1/rho)) with s = sqrt(z'^2 - 1) and rho =
# |z' + s| the Bernstein ellipse through z'.  Over |z'| >= 1/theta this is
# largest at z' = 1/theta on the axis, rho = 3 + sqrt(8), and n = _NODES
# keeps it under 1e-15 of m/|z - c|.
_FAR_THETA = 1 / 3
_RHO = (1 + np.sqrt(1 - _FAR_THETA ** 2)) / _FAR_THETA
_NODES = int(np.ceil(np.log(1e-15 * np.sqrt(1 - _FAR_THETA ** 2)
                            * (1 - 1 / _RHO) / 4) / (-2 * np.log(_RHO))))
_MIN_BLOCK = 16
# Entries of each row block of points x atoms or points x far nodes, and
# of each group of near slices, in ``MeasureResolvent.value_and_derivative``,
# and of each chunk of blocks x Gauss-Legendre points in ``_block_rules``.
_ROW_ENTRIES = 1 << 13


def _block_rules(t0, t1, r0, r1, bounds):
    """The centres c and half-widths r of the blocks of cells between
    ``bounds``, and the _NODES-point Gauss rule of the measure rho(t) dt of
    each block, as (blocks, _NODES) arrays of nodes and weights.

    Each cell's Gauss-Legendre rule turns rho dy, y = (t - c)/r, into a
    discrete measure of positive weights with the moments of rho dy up to
    degree 2 _NODES - 1, and so with its Gauss rule.  Lanczos on that
    measure gives the recurrence coefficients alpha_k, beta_k from
    positive weights alone (Gautschi, Orthogonal Polynomials, 2004,
    section 2.2), however unevenly the mass spreads over the block; beta_0
    is the block's mass.  Without reorthogonalisation Lanczos loses
    orthogonality once a node converges, but its rule stays the Gauss
    rule of a measure within rounding of this one (Golub and Strakos,
    Numer. Algorithms 8, 1994), which is all the far sum asks of it.  The
    blocks run in chunks of at most _ROW_ENTRIES points (or one block).
    """
    # The (_NODES + 1)-point Gauss-Legendre rule on [-1, 1] by Golub-Welsch,
    # exact on a cell for rho(t) dt times polynomials of degree 2 _NODES - 1
    # (rho is linear there); built per tree, not at import, so a process
    # without a tree keeps none of the memory LAPACK's eigh leaves resident.
    k = np.arange(1.0, _NODES + 1)
    gl_x, vec = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    gl_w = 2 * vec[0] ** 2
    starts, stops = bounds[:-1], bounds[1:]
    cen = 0.5 * (t0[starts] + t1[stops - 1])
    rad = 0.5 * (t1[stops - 1] - t0[starts])
    span = np.arange(np.diff(bounds).max())
    alpha, beta = np.zeros((2, starts.size, _NODES))
    step = max(1, _ROW_ENTRIES // (span.size * gl_x.size))
    for b in range(0, starts.size, step):
        blk = slice(b, b + step)
        idx = starts[blk, None] + span
        pad = idx >= stops[blk, None]  # a shorter block's zero cells
        idx = np.minimum(idx, stops[blk, None] - 1)
        # half-widths from the cells' own ends, not from y: a narrow cell
        # of a wide block would lose its digits to the rounding of y
        h = np.where(pad, 0.0, t1[idx] - t0[idx]) / (2 * rad[blk, None])
        m = (0.5 * (t0[idx] + t1[idx]) - cen[blk, None]) / rad[blk, None]
        rc, rd = (r0[idx] + r1[idx]) / 2, (r1[idx] - r0[idx]) / 2
        y = (m[..., None] + h[..., None] * gl_x).reshape(len(idx), -1)
        w = (h[..., None] * gl_w * (rc[..., None] + rd[..., None] * gl_x)
             ).reshape(len(idx), -1)
        beta[blk, 0] = mass = w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            q, prev, off = np.sqrt(w / mass[:, None]), 0.0, 0.0
            for k in range(_NODES):
                v = y * q
                alpha[blk, k] = a = np.sum(v * q, axis=1)
                if k + 1 == _NODES:
                    break
                v -= a[:, None] * q + off * prev
                beta[blk, k + 1] = b = np.sum(v * v, axis=1)
                off = np.sqrt(b)[:, None]
                q, prev = v / off, q
    # The Jacobi matrix ends before a block's first beta <= 0: a block of
    # zero mass gets zero weights, and a breakdown at beta_k a k-point rule.
    ok = np.logical_and.accumulate((beta > 0) & np.isfinite(alpha), axis=1)
    alpha, beta = np.where(ok, alpha, 0.0), np.where(ok, beta, 0.0)
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix and
    # the weights the mass times the squared first components of its
    # eigenvectors.
    i = np.arange(_NODES)
    jac = np.zeros((starts.size, _NODES, _NODES))
    jac[:, i, i], jac[:, i[1:], i[:-1]] = alpha, np.sqrt(beta[:, 1:])
    y, vec = np.linalg.eigh(jac)  # reads the lower triangle only
    y = np.clip(y, -1.0, 1.0)  # rounding can push a node of a tiny block out
    return (cen, rad, cen[:, None] + rad[:, None] * y,
            (beta[:, 0] * rad)[:, None] * vec[:, 0] ** 2)


def _row_dots(a, b):
    """sum_k a[p, k] b[p, k] for each row p.  A stack of row-times-column
    products runs the BLAS dot that ``np.dot`` runs on one row, so each sum
    has that call's bits; einsum and a matrix-vector product do not."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _CellTree:
    """One-level treecode for the cells of a piecewise-linear density.

    The cells of each segment are grouped into contiguous blocks of about
    sqrt(2 cells) cells, and each block keeps the _NODES-point Gauss rule
    of its measure rho(t) dt (``_block_rules``).  At z, the blocks near z
    span one contiguous slice of cells, which is summed exactly; every
    block outside the slice is far and adds sum_j w_j/(z - t_j) over its
    rule.  ``__call__`` sums one point and ``batch`` an array of points,
    with the same bits.  The tree holds arrays and tuples only, never a
    resolvent or its measure.  ``of`` keeps one tree per measure for
    every resolvent of it, so the arrays are read-only and a call only
    reads them.
    """

    @classmethod
    def of(cls, mu: SpectralMeasure):
        """The tree of ``mu``'s cells, None for an atom-only measure.

        Frozen data derived from the frozen measure: built on the first
        call and kept in the measure's ``__dict__``, outside its fields
        (its repr and equality do not see it), so it is freed with the
        measure.  An equal measure built apart builds its own.
        """
        kept = vars(mu)
        if "_cell_tree" not in kept:
            # two threads may both build one; every caller gets the first
            kept.setdefault("_cell_tree",
                            cls(mu.segments) if mu.segments else None)
        return kept["_cell_tree"]

    def __init__(self, segments):
        t0 = np.concatenate([s.grid[:-1] for s in segments])
        t1 = np.concatenate([s.grid[1:] for s in segments])
        r0 = np.concatenate([s.density[:-1] for s in segments])
        r1 = np.concatenate([s.density[1:] for s in segments])
        size = max(_MIN_BLOCK, int(np.sqrt(2 * t0.size)))
        bounds = [0]
        cuts = []  # the first cell of each segment
        for s in segments:
            cuts.append(bounds[-1])
            n = s.grid.size - 1
            k = -(-n // size)
            bounds.extend(bounds[-1] + (n * np.arange(1, k + 1)) // k)
        bounds = np.array(bounds)
        starts, stops = bounds[:-1], bounds[1:]
        cen, rad, nodes, weights = _block_rules(t0, t1, r0, r1, bounds)
        self.starts = tuple(starts.tolist())
        self.stops = tuple(stops.tolist())
        self.bounds = bounds
        self.cen = cen.astype(complex)
        self.reach = rad / _FAR_THETA
        # Held as complex (imaginary part +0), the arrays spare numpy a
        # cast on every call.
        self.nodes = nodes.ravel().astype(complex)
        self.weights = weights.ravel().astype(complex)
        # The exact near sum works on cell midpoints and half-widths, and
        # on the stored ends of the cells next to Re z.
        self.mid = (0.5 * (t0 + t1)).astype(complex)
        self.half = (0.5 * (t1 - t0)).astype(complex)
        self.rc = (0.5 * (r0 + r1)).astype(complex)
        self.slope = ((r1 - r0) / (t1 - t0)).astype(complex)
        self.t0, self.t1, self.r0, self.r1 = t0, t1, r0, r1
        # (t, rho(t)) where each block starts and ends, and the blocks
        # that start a later segment: the boundary terms of the near sum.
        self.heads = tuple(zip(t0[starts].tolist(), r0[starts].tolist()))
        self.tails = tuple(zip(t1[stops - 1].tolist(),
                               r1[stops - 1].tolist()))
        self.splits = tuple(np.searchsorted(starts, cuts[1:]).tolist())
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def __call__(self, z):
        """(G, G') of the cells at one point, as Python complex numbers.

        A near cell [t0, t1] with midpoint m and half-width h adds
        (rc + s w) L - 2 s h and s L + (rc + s w) L', with w = z - m,
        L = log((z - t0)/(z - t1)) and L' = -2h/((w - h)(w + h)).  L is
        taken as 2 atanh(h/w), which keeps full relative accuracy where
        h/w is small, except on the cells next to Re z with |h/w| > 1/2:
        there a grid node can lie closer to z than the rounding of m + h
        or m - h, so L comes from the stored ends, and so does rho(z) =
        rc + s w, as rho(t) + s (z - t) at the nearer end t: from the
        midpoint it rounds by about eps |s h|, which a steep cell ending
        next to z multiplies by its large L.  The second terms, -2 s h =
        rho(t0) - rho(t1) of G and rho(t0)/(z - t0) - rho(t1)/(z - t1) of
        G', telescope along a segment, so the near sum adds them only at
        the ends of the segments it spans: summed cell by cell those large
        terms cancel, and swamp G' next to the real axis and G next to a
        spike.  A real z on a grid node gives NaN.
        """
        zc = z - self.cen
        near = (np.abs(zc) < self.reach).nonzero()[0]
        d = z - self.nodes
        g = gp = 0j
        if near.size:
            jlo, jhi = int(near[0]), int(near[-1]) + 1
            lo, hi = self.starts[jlo], self.stops[jhi - 1]
            w = z - self.mid[lo:hi]
            h = self.half[lo:hi]
            s = self.slope[lo:hi]
            q = h / w
            # the cells around the first cell that starts at or past Re z;
            # their q goes to 0, as the fix-up overwrites their atanh and
            # q = +-1 (a real z on a grid node) would warn
            nxt = int(self.t0.searchsorted(z.real))
            fix = []
            for i in range(max(lo, nxt - 2), min(hi, nxt + 1)):
                if abs(q[i - lo]) > 0.5:
                    q[i - lo] = 0.0
                    fix.append(i)
            at = np.arctanh(q)
            (ta, ra), (tb, rb) = self.heads[jlo], self.tails[jhi - 1]
            rho = self.rc[lo:hi] + s * w
            try:
                for i in fix:
                    d0, d1 = z - float(self.t0[i]), z - float(self.t1[i])
                    at[i - lo] = 0.5 * cmath.log(d0 / d1)
                    rho[i - lo] = (self.r0[i] + s[i - lo] * d0
                                   if abs(d0) < abs(d1)
                                   else self.r1[i] + s[i - lo] * d1)
                g = 2 * complex(np.dot(rho, at)) + (ra - rb)
                gp = 2 * complex(np.dot(s, at)) + ra / (z - ta) - rb / (z - tb)
                for k in self.splits:
                    if jlo < k < jhi:
                        (ta, ra), (tb, rb) = self.heads[k], self.tails[k - 1]
                        g += ra - rb
                        gp += ra / (z - ta) - rb / (z - tb)
            except (ZeroDivisionError, ValueError):
                return complex("nan"), complex("nan")
            if hi - lo == self.mid.size:  # no block is far
                return g, gp
            # a near block drops out of the far sum as 1/inf = 0
            d[jlo * _NODES:jhi * _NODES] = np.inf
        inv = np.reciprocal(d)
        return (g + complex(np.dot(self.weights, inv)),
                gp - complex(np.dot(self.weights * inv, inv)))

    def batch(self, z):
        """(G, G') of the cells at each point of the 1-d array ``z``, bit
        for bit what ``__call__`` gives point by point.

        The far sums go in row blocks (``_far``).  The points are then
        grouped by the width of their near slice, so that each group's
        near sum is one (points x cells) array (``_near``).
        """
        n = z.size
        far_g, far_gp = np.empty((2, n), dtype=complex)
        jlo, jhi = np.empty((2, n), dtype=np.intp)
        rows = max(1, _ROW_ENTRIES // self.nodes.size)
        for i in range(0, n, rows):
            part = slice(i, i + rows)
            far_g[part], far_gp[part], jlo[part], jhi[part] = self._far(
                z[part])
        lo = self.bounds[jlo]
        width = self.bounds[jhi] - lo
        g, gp = np.zeros((2, n), dtype=complex)
        bad = np.zeros(n, dtype=bool)
        # a point with no near block has width 0 and a near sum of 0
        for cells in np.unique(width[width > 0]).tolist():
            group = (width == cells).nonzero()[0]
            step = max(1, _ROW_ENTRIES // cells)
            for k in range(0, group.size, step):
                p = group[k:k + step]
                g[p], gp[p], bad[p] = self._near(z[p], lo[p], jlo[p], jhi[p],
                                                 cells)
        far = width != self.mid.size  # else __call__ adds no far sum
        g[far] += far_g[far]
        gp[far] -= far_gp[far]
        g[bad] = gp[bad] = complex("nan")
        return g, gp

    def _far(self, z):
        """The far sums at the points ``z`` and the block range [jlo, jhi)
        of each point's near blocks, empty where none is near.  As in
        ``__call__``, each point's near blocks add 1/inf = 0."""
        blocks = self.cen.size
        near = np.abs(z[:, None] - self.cen) < self.reach
        jlo = near.argmax(axis=1)
        jhi = np.where(near.any(axis=1),
                       blocks - near[:, ::-1].argmax(axis=1), jlo)
        span = np.arange(blocks)
        d = z[:, None] - self.nodes
        d.reshape(z.size, blocks, _NODES)[
            (span >= jlo[:, None]) & (span < jhi[:, None])] = np.inf
        inv = np.reciprocal(d, out=d)
        g = np.matmul(self.weights, inv[:, :, None])[:, 0]
        return g, _row_dots(self.weights * inv, inv), jlo, jhi

    def _near(self, z, lo, jlo, jhi, cells):
        """The near sums (G, G') at the points ``z``, whose near slices
        start at cells ``lo`` and all span ``cells`` cells, and a mask of
        the points where ``__call__`` gives NaN.  Array by array this is
        the arithmetic of ``__call__``; the fix-ups of the cells next to
        Re z and the boundary terms of G' go point by point, in its Python
        complex arithmetic, which numpy's division and log do not match.
        """
        idx = lo[:, None] + np.arange(cells)
        w = self.mid[idx]
        np.subtract(z[:, None], w, out=w)
        s = self.slope[idx]
        q = self.half[idx]
        q /= w
        rho = s * w
        rho += self.rc[idx]
        # the cells around the first cell that starts at or past Re z
        col = (self.t0.searchsorted(z.real) - lo)[:, None] + (-2, -1, 0)
        row, off = ((col >= 0) & (col < cells)).nonzero()
        col = col[row, off]
        fix = np.abs(q[row, col]) > 0.5
        row, col = row[fix], col[fix]
        q[row, col] = 0.0  # overwritten below; q = +-1 would warn
        at = np.arctanh(q, out=q)
        zs = z.tolist()
        bad = np.zeros(z.size, dtype=bool)
        for r, c, i in zip(row.tolist(), col.tolist(),
                           (lo[row] + col).tolist()):
            d0, d1 = zs[r] - float(self.t0[i]), zs[r] - float(self.t1[i])
            try:
                at[r, c] = 0.5 * cmath.log(d0 / d1)
            except (ZeroDivisionError, ValueError):
                bad[r] = True
                continue
            rho[r, c] = (self.r0[i] + s[r, c] * d0 if abs(d0) < abs(d1)
                         else self.r1[i] + s[r, c] * d1)
        heads, tails = self.heads, self.tails
        g, gp = [], []
        for r, (v, dg, dgp, j0, j1) in enumerate(zip(
                zs, _row_dots(rho, at).tolist(), _row_dots(s, at).tolist(),
                jlo.tolist(), jhi.tolist())):
            (ta, ra), (tb, rb) = heads[j0], tails[j1 - 1]
            dg = 2 * dg + (ra - rb)
            try:
                dgp = 2 * dgp + ra / (v - ta) - rb / (v - tb)
                for k in self.splits:
                    if j0 < k < j1:
                        (ta, ra), (tb, rb) = heads[k], tails[k - 1]
                        dg += ra - rb
                        dgp += ra / (v - ta) - rb / (v - tb)
            except ZeroDivisionError:
                bad[r] = True
            g.append(dg)
            gp.append(dgp)
        return g, gp, bad


class MeasureResolvent(ResolventEvaluator):
    """Exact transform of a stored measure.

    Each atom adds w/(z - a).  Each linear density cell integrates against
    1/(z - t) to a closed-form log term; the cells are summed by a
    one-level treecode (``_CellTree``), built once per measure, on the
    first resolvent of it, and shared by every later one: blocks far from z
    add the sum of their Gauss rule, and the cells of the near blocks are
    summed exactly.  ``vd_scalar`` sums the atoms of one point in a loop
    and its cells through ``_CellTree.__call__``; ``value_and_derivative``
    sums the atoms of many points as one array expression and their cells
    through ``_CellTree.batch``, which gives the bits of ``__call__``.
    """

    def __init__(self, mu: SpectralMeasure):
        self.measure = mu
        self.support = mu.support()
        self.edge_hints = tuple(np.unique([e for s in mu.segments
                                           for e in (s.grid[0], s.grid[-1])]))
        self._atoms = tuple((float(x), float(w)) for x, w in mu.atoms)
        self._atom_x, self._atom_w = np.array(self._atoms).reshape(-1, 2).T
        self._cells = _CellTree.of(mu)

    def hull(self):
        return self.support

    def vd_scalar(self, z):
        """(G, G') at one point as Python complex numbers.

        The hot path of every serial contour solve: atoms are summed in a
        plain loop, then the cell tree adds the density.  An exact hit on
        an atom gives NaN.
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

    # A 0-d array takes this name, so that wrapping ``vd_scalar`` (to count
    # kernel calls) sees each call once.
    _point = vd_scalar

    def value_and_derivative(self, z):
        """(G, G') at each point of ``z``; a scalar ``z`` gives Python
        complex numbers.  The atoms add one (points x atoms) reciprocal and
        two contractions, in row blocks of at most ``_ROW_ENTRIES``
        entries; an exact hit on an atom gives NaN, as in ``vd_scalar``.
        """
        z_arr = np.asarray(z, dtype=complex)
        if z_arr.ndim == 0:
            return self._point(complex(z_arr))
        zf = z_arr.ravel()
        g = np.zeros(zf.shape, dtype=complex)
        gp = np.zeros(zf.shape, dtype=complex)
        if self._atoms:
            rows = max(1, _ROW_ENTRIES // self._atom_x.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                for i in range(0, zf.size, rows):
                    inv = 1.0 / (zf[i:i + rows, None] - self._atom_x)
                    # einsum, not BLAS: a threaded BLAS takes milliseconds
                    # over a few atoms on a busy machine
                    g[i:i + rows] = np.einsum("pk,k->p", inv, self._atom_w)
                    gp[i:i + rows] = -np.einsum("pk,k->p", inv * inv,
                                                self._atom_w)
            hit = ~np.isfinite(g)
            g[hit] = gp[hit] = complex("nan")
        if self._cells is not None:
            cg, cgp = self._cells.batch(zf)
            g += cg
            gp += cgp
        return g.reshape(z_arr.shape), gp.reshape(z_arr.shape)


# -- public transforms --------------------------------------------------------


def cauchy_transform(mu: SpectralMeasure, z):
    """G(z) = sum_i w_i/(z - a_i) + int rho(t) dt / (z - t).

    Real z must lie outside the closed support; on the support use
    principal_value_transform instead.  ``z`` may be an array.
    """
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
    return ev(z)


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


def damped_newton(f, x0, target, tol, stall_tol=None):
    """Solve f(x)[0] = target by damped complex Newton; returns (x, f(x)).

    ``f(x)`` returns ``(value, derivative, *extra)``; the extra entries
    come back with the accepted iterate.  Each step tries the full
    Newton correction and halves it up to MAX_HALVINGS times; a trial that
    raises InversionError or does not lower |value - target| is rejected.
    A stall counts as converged when the residual is at most ``stall_tol``
    (default ``tol``).
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
    if abs(res) <= (tol if stall_tol is None else stall_tol):
        return x, fx
    raise InversionError(
        f"damped Newton did not converge (residual {abs(res):.3g})",
        last_iterate=x, residual=abs(res))


def invert_cauchy(ev: ResolventEvaluator, w: complex) -> complex:
    """Solve G(lam) = w on the principal sheet by damped Newton.

    Seeded from 1/w (the asymptotic inverse); on direct failure a short
    continuation path from small |w| is attempted.
    Residual contract: |G(lam) - w| <= 1e-12 * max(1, |w|).
    """
    w = complex(w)
    if w == 0:
        raise ValidationError("w = 0 is outside the image of the resolvent")
    try:
        return damped_newton(ev.vd_scalar, 1.0 / w, w,
                             NEWTON_TOL * max(1.0, abs(w)))[0]
    except InversionError:
        pass
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


def _ladder(top: float, target: float) -> np.ndarray:
    """Descending ladder of halvings from ``top`` to roughly ``target``."""
    target = min(top, target)
    n = max(1, int(np.ceil(np.log(top / target) / np.log(2.0))) + 1)
    return top * 2.0 ** (-np.arange(n, dtype=float))


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


def _refine_atom(ev, a0, top_eps, spacing):
    """Re-center on a pole candidate and weigh it on a deep ladder.

    For a pole w/(z - a) probed at a0 + i*eps the offset a0 - a equals
    eps * Re G / (-Im G) exactly, so each round shrinks the position error
    to the contamination level of the surrounding continuous part.  The
    verification rungs sit at ~1e-4 so any point mass (or sub-resolution
    bump) shows a flat eps*|G| profile there, while integrable edge
    singularities keep decaying and are rejected by the caller.  Returns
    ((position, weight), flatness).
    """
    a = float(a0)
    scale = max(1.0, abs(a0))
    bottoms = np.geomspace(max(spacing / 4.0, 1e-5 * scale), 1e-6 * scale, 3)
    for bottom in bottoms:
        lad = _ladder(top_eps, float(bottom))
        g = ev.sample_columns([a], lad[None])[0, -1]
        if g.imag >= 0:
            break
        e_actual = float(lad[-1])
        shift = e_actual * g.real / (-g.imag)
        a -= float(np.clip(shift, -10 * e_actual, 10 * e_actual))
    lad = _ladder(top_eps, 1e-4 * scale)
    col = ev.sample_columns([a], lad[None])[0]
    tail = np.asarray(lad[-3:], dtype=float)
    m = np.abs(tail * col[-3:])
    flatness = float(m[-1] / m[0]) if m[0] > 0 else 0.0
    w = float(neville_to_zero(tail, m))
    return (a, w), flatness


def _detect_atoms(ev, xs, lad, cols):
    """Two-stage pole detection on the pass-1 samples.

    Stage 1 flags nodes whose extrapolated pole mass eps*|G| stays above
    threshold; clusters of flagged nodes become candidates.  Stage 2
    re-centers each candidate on the pole and accepts it only if the deep
    eps*|G| profile is flat, which separates true point masses from
    integrable edge singularities (those decay like a power of eps).
    """
    spacing = np.gradient(xs)
    idx = _detection_indices(lad, spacing)
    e = np.asarray(lad, dtype=float)[idx]
    m = np.abs(e * np.take_along_axis(cols, idx, axis=1))
    # no signal on the top detection rung: not a candidate
    m0 = np.where(m[:, 0] <= 0, 0.0, neville_to_zero(e.T, m.T))
    # each run of flagged nodes is one candidate, [start, stop)
    runs = np.diff(m0 > ATOM_MASS_THRESHOLD, prepend=False, append=False)
    atoms = []
    for k, j in np.flatnonzero(runs).reshape(-1, 2).tolist():
        peak = k + int(np.argmax(m0[k:j]))
        fit, flatness = _refine_atom(ev, xs[peak], lad[0], spacing[peak])
        if fit[1] > ATOM_MASS_THRESHOLD and flatness > ATOM_FLATNESS:
            atoms.append(fit)
    return atoms


def _subtract_poles(xs, lad, cols, atoms):
    z = xs[:, None] + 1j * np.asarray(lad)
    correction = np.zeros_like(z)
    for position, weight in atoms:
        correction += weight / (z - position)
    return cols - correction


def _power_law_completion(offsets, densities, edge, inner_sign):
    """Fit rho ~ C*d^(-alpha) on the innermost resolved nodes and extend the
    grid toward a hard edge, down to 1e-5 of the innermost offset;
    returns (grid, density) arrays or None."""
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
    tail = np.geomspace(d[0] * 1e-5, d[0], 40, endpoint=False)
    grid = edge + inner_sign * tail
    dens = c_fit * tail ** (-alpha)
    order = np.argsort(grid)
    return grid[order], dens[order]


def stieltjes_invert(ev: ResolventEvaluator,
                     contour: ContourSpec) -> SpectralMeasure:
    """Recover the measure whose transform the evaluator computes.

    Only the contour nodes within 4 eps_0 + 2 median spacings of the
    evaluator's ``hull()`` are solved and recovered (eps_0 the ladder's top
    rung): that margin keeps the top rung's leakage, the residue that the
    edge cuts below trim, and the node that closes the output segment.  A
    contour that keeps fewer than two nodes raises SupportCoverageError.
    Density at every kept node comes from Neville extrapolation of
    -Im G(x + i eps)/pi over the epsilon ladder; atoms are detected and
    removed first.  Support edges are found by mass quantiles.  An edge
    that matches one of the evaluator's exact ``edge_hints`` is re-sampled
    on deep ladders (and completed by a fitted power law where singular)
    so edge-singular densities keep their mass; any other edge keeps its
    contour columns.  Every cut between grids lies half a spacing off the
    contour nodes.  Output mass must land in [0.99, 1.01] and is
    renormalized.
    """
    xs = np.asarray(contour.real_grid, dtype=float)
    sched = np.asarray(contour.epsilon_schedule, dtype=float)
    lo, hi = ev.hull()
    margin = 4.0 * sched[0] + 2.0 * float(np.median(np.diff(xs)))
    xs = xs[(xs >= lo - margin) & (xs <= hi + margin)]
    if xs.size < 2:
        raise SupportCoverageError(
            f"the contour keeps {xs.size} column(s) within {margin:.3g} of "
            f"the support hull [{lo:.6g}, {hi:.6g}]; move the contour grid "
            "onto it"
        )
    cols = ev.sample_columns(xs, np.broadcast_to(sched, (xs.size, sched.size)))
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
    if total > 10 * ATOM_MASS_THRESHOLD:
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
            for h in ev.edge_hints:
                if min(abs(h - fine), abs(h - coarse)) <= 3.0 * spacing:
                    anchor, hinted = float(h), True
                    break
            if hinted:
                g, r, zone, singular = _refine_edge(ev, sched, anchor, sign,
                                                    width, spacing)
                grid_parts.append(g)
                dens_parts.append(r)
                # refined columns replace the coarse ones in their zone and
                # half a spacing beyond, so no cut lands on a node
                keep_mask &= ~((xs > zone[0] - spacing / 2)
                               & (xs < zone[1] + spacing / 2))
                if singular:
                    singular_zones.append(zone)
            # ghost residue beyond the edge carries no mass: drop it; a
            # hinted anchor is the exact edge, so nothing lies outside it,
            # and a quantile anchor is a node, so its margin ends between two
            margin = 0.0 if hinted else 2.5 * spacing
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

    atom_pairs = tuple(atoms)
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


def _refine_edge(ev, sched, anchor, inner_sign, width, spacing):
    """Deep-ladder columns marching into one structurally exact edge.

    Offsets from the anchor reach down to 1e-9 of the width; an edge with
    a clean power-law profile is completed analytically.  Each column's
    ladder halves from the schedule's top down to a tenth of its offset,
    but only its three bottom rungs are sampled: they are all the density
    extrapolation reads.
    """
    d_min = 1e-9 * width
    d_max = 8.0 * spacing
    if d_min >= 2.0 * spacing:
        return np.empty(0), np.empty(0), (anchor, anchor), False
    # geometric march into the edge, then uniform coverage out to the
    # handover at d_max; the march is kept dense because the trapezoid
    # rule over-integrates convex singular densities on coarse cells
    offsets = np.concatenate([
        np.geomspace(d_min, 2.0 * spacing, 144, endpoint=False),
        np.linspace(2.0 * spacing, d_max, 25),
    ])
    new_xs = anchor + inner_sign * offsets
    order = np.argsort(new_xs)
    new_xs, offsets = new_xs[order], offsets[order]
    # only the bottom rungs are read, so only they are solved: the last
    # min(n, 3) of each column's n-rung ``_ladder``, NaN-padded
    target = np.clip(offsets / 10.0, 3e-11 * width, sched[-1])
    n = np.maximum(1, np.ceil(np.log(sched[0] / target) / np.log(2.0)) + 1)
    depth = np.minimum(n, 3).astype(int)
    rung = (n - depth)[:, None] + np.arange(3.0)
    eps = np.where(rung < n[:, None], sched[0] * 2.0 ** -rung, np.nan)
    cols = ev.sample_columns(new_xs, eps)
    _herglotz_guard(cols)
    new_dens = np.empty(new_xs.size)
    for k in np.unique(depth).tolist():
        # a short ladder (only from a schedule that halves less than once)
        # extrapolates on its own
        rows = depth == k
        new_dens[rows] = _column_densities(eps[rows, :k], cols[rows, :k])
    grid, dens = new_xs, np.clip(new_dens, 0.0, None)
    off_sorted = np.abs(grid - anchor)
    inner_first = np.argsort(off_sorted)
    comp = _power_law_completion(
        off_sorted[inner_first], dens[inner_first], anchor, inner_sign)
    singular = comp is not None
    if singular:
        grid = np.concatenate([grid, comp[0]])
        dens = np.concatenate([dens, comp[1]])
    zone = (min(anchor, anchor + inner_sign * d_max),
            max(anchor, anchor + inner_sign * d_max))
    return grid, dens, zone, singular
