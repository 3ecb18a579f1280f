"""Free convolution of spectral measures.

The outputs satisfy the laws of the inverse transforms: the centered
inverse R(w) = G^{-1}(w) - 1/w adds under free convolution, so the sum's
transform has R1(G) + R2(G) + 1/G = z, and the inverse lambda(h) of
h(lambda) = lambda*G(lambda) multiplies as lambda_out(h) = lambda_1(h) *
lambda_2(h) * (h-1)/h.  These are identities that the series oracle and
the tests check, not what the code composes.
Deterministic-plus-Gaussian addition is the sum with a semicircle, and
the Gaussian external-field shift sigma^2 * a generalizes the addition law
beyond the free case.

The sum, the product and Pastur's sum are solved for their subordination
function omega_1 (G(z) = G_1(omega_1(z)) for a sum, omega_1 G_1(omega_1) /
z for a product), the fixed point of a map built from the operands'
resolvents G_i and G_i', so no operand is inverted; the semicircle's map
is in closed form, so Pastur's fixed point is omega_1 = z - sigma^2
G(omega_1).  Each is one solve on one loop, stieltjes.damped_newton.
The same map T(z, w) bounds each output's support hull on the real axis:
each bound is the least x on the far branch of T(x, y) = y, with x' = (1 -
T_w)/T_z, so no pipeline inverts an operand there either.
Contour solves take two levels.  The serial level is one path, the top
point of each anchor column, left to right, solved as a predictor-corrector
continuation: each solve starts from the septic Hermite interpolant of the
path's last four solutions and their z-derivatives, at complex abscissae,
which every solve's state already holds, so Newton needs about one
correction per point.  The stored solutions are taken one Newton step past
each accepted iterate, from the residual and derivative the state holds, so
the extrapolation does not amplify the solver's tolerance.  The step to the
next anchor, two columns or more, follows the predictor's error at the last
one.  Every other point, the anchors' lower rungs and the columns between,
is then seeded by the Hermite interpolant through the path around its
column at its own z and corrected all at once by Newton on arrays, with a
serial solve down its column as the fallback of any point whose seed is
not close or that does not converge there.
"""

from __future__ import annotations

import cmath
import operator

import numpy as np

from .errors import InversionError, PipelineError, ValidationError
from .measures import CONTOUR_LIMIT, MASS_TOL, SpectralMeasure, moment
from .stieltjes import (
    ContourSpec,
    MeasureResolvent,
    ResolventEvaluator,
    damped_newton,
    default_contour,
    invert_cauchy,
    principal_value_transform,
    stieltjes_invert,
)

OUTER_TOL = 1e-12


# -- transform evaluators on measures -----------------------------------------


class RTransform:
    """Centered inverse resolvent R(w) = G^{-1}(w) - 1/w of one measure."""

    def __init__(self, mu: SpectralMeasure):
        self.resolvent = MeasureResolvent(mu)
        self.mean = moment(mu, 1)

    def __call__(self, w: complex) -> complex:
        w = complex(w)
        if w == 0:
            raise ValidationError("R is evaluated at nonzero w only")
        inv_w = 1.0 / w
        vd = self.resolvent.vd_scalar
        # Newton in the centered unknown rho = lambda - 1/w, which stays
        # O(1) as w -> 0 while lambda itself blows up; subtracting 1/w from
        # a converged lambda would lose all digits there.
        try:
            return damped_newton(
                lambda rho: vd(inv_w + rho), complex(self.mean), w,
                tol=4e-16 * (1.0 + abs(w)),
                stall_tol=1e-12 * max(1.0, abs(w)),
            )[0]
        except InversionError:
            lam = invert_cauchy(self.resolvent, w)
            return lam - inv_w


# -- pipeline evaluators -------------------------------------------------------


def _hermite(past, x):
    """The Hermite interpolant through ``past``, a tuple of (x_i, w_i,
    w'_i) triples at distinct abscissae, real or complex, evaluated at x:
    of degree 2n - 1 for n triples, sum_i L_i^2 (w_i + (x - x_i)(w'_i -
    2 c_i w_i)) with L_i the Lagrange basis on the x_i and c_i = L_i'(x_i)
    = sum_{j != i} 1/(x_i - x_j).  One triple gives w + w' (x - x_i)."""
    p = 0j
    for xi, wi, di in past:
        lag, c = 1.0, 0.0
        for xj, _, _ in past:
            if xj != xi:
                r = 1.0 / (xi - xj)
                lag *= (x - xj) * r
                c += r
        p += lag * lag * (wi + (x - xi) * (di - 2.0 * c * wi))
    return p


def _hermite_rows(nodes, w, d, x, row):
    """The interpolant of ``_hermite`` on arrays: through the values ``w``
    and slopes ``d`` at the distinct abscissae ``nodes``, (stencils, n)
    arrays, evaluated at each point of ``x`` on stencil ``row``.  L_i(x)
    is the product of all x - x_j over (x - x_i) prod_{j != i} (x_i -
    x_j), and each stencil's denominators and c_i are formed once; a point
    on a node gives NaN."""
    off = ~np.eye(nodes.shape[1], dtype=bool)
    gap = np.where(off, nodes[:, :, None] - nodes[:, None, :], 1.0)
    denom = np.prod(gap, axis=2)
    b = d - 2.0 * np.sum(np.where(off, 1.0 / gap, 0.0), axis=2) * w
    dx = x[:, None] - nodes[row]
    lag = np.prod(dx, axis=1, keepdims=True) / (dx * denom[row])
    return np.sum((w[row] + dx * b[row]) * (lag * lag), axis=1)


def _refined(state):
    """The unknown one Newton step past a solve's accepted state, with no
    kernel call: the state's f(x) holds the residual and its derivative."""
    x, fx = state
    return x - fx[0] / fx[1] if fx[1] else x


# Newton evaluations per point in the array pass before a point is handed
# to the serial solve, and the columns filled at once, which bounds the
# pass's arrays.
_ARRAY_PASSES = 6
_BLOCK = 512

# The array pass corrects a seed and does not search for a root: a point
# whose first residual is over this multiple of its tolerance is handed to
# the serial solve.
_SEED_GATE = 1e6

# The anchors whose top points seed every other point of a column.
_STENCIL = 6

# The step control's target for an anchor's relative predictor error, and
# its largest step in columns.  Mid-gap, the septic interpolant errs by
# about 1/1800 of the extrapolation across the same spacing ((3/2 * 1/2)^4
# against (1 * 2 * 3 * 4)^2), so this leaves the seeds between anchors at
# about the Newton tolerance.
_STEP_TOL = 1e3 * OUTER_TOL
_MAX_STEP = 64


# -- support hulls from the fixed-point map ----------------------------------
#
# Each bound is the least x on the far branch of T(x, y) = y, with x' = (1 -
# T_w)/T_z, and no pipeline inverts an operand.  Right of its support an
# operand's G is real, positive and decreasing, and so is a pipeline's.
# Right of the output's right edge e the subordination function omega_1 is
# real and increasing, so the x with omega_1(x) = y, at a real y right of
# operand 1's support, is the root in x of the pipeline's own fixed-point
# equation, and implicit differentiation gives x'.  x rises on the whole
# branch (omega_1(e), infinity) that reaches y -> infinity, so e is at most
# the least x on that branch.  A point where x' > 0, reached from the far
# side through points where x falls and x' > 0 too, lies on that branch
# unless x turns twice between two of those points, and its x bounds e
# from above.  Any other point, one with x' <= 0 or a value that breaks
# the fall, gives no bound: left of omega_1(e) nothing keeps x above e
# unless x is quasi-convex, which is proved for Pastur's sum alone (there
# G_1 is convex).  A left edge is the right edge of the reflected measures.

# The geometric scan of the distance d = y_1 - edge: its ratio, the
# bracket width in log d at which a search stops, and the closest point to
# the edge, relative to the scale of the supports.
_SCAN_RATIO = 2.0
_SCAN_TOL = 1e-3
_SCAN_NEAR = 1e-10


def _least_value(f, scale, edge):
    """The least x found on the far branch of f, or None if it gives none.

    f(d) is (x, dx/dd) at y = edge + d, or None past the end of its
    domain.  d falls geometrically from 4*scale while x' > 0 and x falls;
    a fall by under 1e-7 of the scale, or d past _SCAN_NEAR of the scale,
    ends the search there.  The first point that breaks the fall (x' <= 0,
    no value, or no lower value) and the last one before it bracket the end
    of the branch, and bisection in log d narrows the bracket to _SCAN_TOL,
    taking a midpoint as the new last point where it continues the fall.
    A scale of 0 (two point masses) gives no bound."""
    scale = max(scale, 1e-9 * abs(edge))
    if not scale:
        return None
    t, t_near = np.log(4.0 * scale), np.log(_SCAN_NEAR * (scale + abs(edge)))
    best = t_best = None

    def falls(r):
        return r is not None and r[1] > 0.0 and (best is None or r[0] < best)

    while t >= t_near:
        r = f(np.exp(t))
        if not falls(r):
            break
        if best is not None and best - r[0] <= 1e-7 * scale:
            return r[0]
        best, t_best = r[0], t
        t -= np.log(_SCAN_RATIO)
    else:
        return best
    while best is not None and t_best - t > _SCAN_TOL:
        m = 0.5 * (t + t_best)
        r = f(np.exp(m))
        if falls(r):
            best, t_best = r[0], m
        else:
            t = m
    return best


def _paired_atoms(atoms1, atoms2, op):
    """The atoms at op(a, b) of weight mu({a}) + nu({b}) - 1, over the
    pairs of ``atoms1`` and ``atoms2`` where that weight exceeds MASS_TOL,
    as a dict from position to weight.  A measure holds unit mass only to
    MASS_TOL, so a pair whose weights sum to 1 within it gives no atom:
    the weights of a renormalized atom list can sum to 1 by rounding only
    (1.1/4.1 + 3.0/4.1 = 1 + 2.2e-16).  Positions that round to one float
    share it, with the sum of their weights."""
    found = {}
    for a, v in atoms1:
        for b, w in atoms2:
            if v + w - 1.0 > MASS_TOL:
                x = op(a, b)
                found[x] = found.get(x, 0.0) + (v + w - 1.0)
    return found


def _same_measure(mu1: SpectralMeasure, mu2: SpectralMeasure) -> bool:
    # value equality that ignores ``renorm``, the metadata of how a measure
    # reached unit mass
    return mu1 is mu2 or (mu1.atoms == mu2.atoms
                          and mu1.segments == mu2.segments)


class _SweepResolvent(ResolventEvaluator):
    """Two operands joined through the subordination function omega_1,
    solved along a contour by a two-level predictor-corrector sweep.

    Operand i is the ``MeasureResolvent`` of its measure, and gives a map
    t_i(z, w) from one kernel call at w (one ``vd_scalar`` call, or one
    ``value_and_derivative`` call for an array of w), and omega_1(z) is
    the fixed point of T = t_2 o t_1.  It is unique in the upper half
    plane (Belinschi and Bercovici 2007), so any root reached there is the
    physical one.  A self-convolution has omega_1 = omega_2 and solves
    w = t_1(w).  The state per point is what ``damped_newton`` returns:
    (w, (T - w, T_w - 1, f_1, T_z)), with f_1 = (G_1, G_1') at w.
    Subclasses give ``_t(z, w, g, g') -> (t, t_w, t_z)``, plain arithmetic
    that broadcasts, and the seed ``_seed(z)``; G = G_1(omega_1) unless
    they override ``_g_of`` and ``_gprime_of``, which read G and G' from a
    state, one point's or an array's.  All state is local to one
    ``sample_columns`` call.

    The serial level solves one path: the top point x + i*eps[0] of each
    anchor column, column 0, then each one step ahead of the last, and the
    last column.  omega_1 is analytic in z off the real axis, so the path
    keeps the unknown and its z-derivative (read from the solve's state,
    with no kernel call) at its last four points, and the septic Hermite
    interpolant through them, at their complex abscissae, seeds the next
    one; a shorter path interpolates through the points it has, and a
    repeated point restarts it.  The step, in columns, is controlled on
    the relative gap e between an anchor's accepted iterate and its
    prediction (infinite with none): it is scaled by 0.9 (_STEP_TOL /
    e)^(1/8), doubled when e = 0, and kept within 2 and _MAX_STEP.  The
    stored unknown, like the warm seed, is the accepted iterate refined by
    one Newton step from the residual and derivative in its state, since
    extrapolation amplifies the Newton tolerance; the returned G is that
    of the accepted iterate.  A non-finite or failed prediction retries
    from the previous top point, then from a cold start that descends
    vertically from far above the support.

    Every other point, the anchors' lower rungs and every rung of the
    columns between, is seeded by the Hermite interpolant through the top
    points of the _STENCIL anchors around its column, evaluated at its own
    z, and all of them take full Newton steps at once on arrays
    (``_correct``), _BLOCK columns at a time.  That pass corrects seeds
    and never searches: it drops a point whose first residual is over
    _SEED_GATE times its tolerance, whose trial leaves the physical sheet,
    whose residual does not fall or is not finite, or that runs out of
    passes, and accepts one at OUTER_TOL relative to the iterate it
    returns.  A dropped point is solved serially down its own column, warm
    from the solved point above it (for the top of a column between, the
    top point of the anchor on its left), then cold; never from the seed
    that was dropped.
    """

    def __init__(self, mu1, mu2):
        # a self-convolution builds one operand, ``op2 is op1``
        self.op1 = MeasureResolvent(mu1)
        self.op2 = (self.op1 if _same_measure(mu1, mu2)
                    else MeasureResolvent(mu2))

    def hull(self):
        """The naive support, cut on each side s to the bound that
        ``_edge(s)`` gives of the right edge of the output pushed by t ->
        s*t, where it gives one."""
        (lo, hi), left, right = self.support, self._edge(-1), self._edge(1)
        return (lo if left is None else max(lo, -left),
                hi if right is None else min(hi, right))

    def _edge(self, s):
        """The least s*x that ``_least_value`` finds, on the scale of the
        naive output width, where omega_1(x) = y at real y beyond operand
        1's support on side s.  Per y, G_1(y) is read once and x solves
        T(x, y) = y by ``damped_newton`` to OUTER_TOL relative to |y| +
        operand 1's width, from the last x found or else from ``_seed_x``;
        a trial whose omega_2 falls inside operand 2's support is
        rejected.  For a self-convolution and for Pastur T is linear in x,
        so Newton lands in one step."""
        (lo1, hi1), (lo2, hi2) = self.op1.support, self.op2.support
        e1, e2 = (hi1, hi2) if s > 0 else (-lo1, -lo2)
        vd1, vd2, t = self.op1.vd_scalar, self.op2.vd_scalar, self._t
        same = self.op2 is self.op1
        last = [None]

        def x_of(d):
            y = s * (e1 + d)
            g, gp = vd1(complex(y))
            g, gp = g.real, gp.real

            def fixed(x):
                tw, dw, dz = t(x, y, g, gp)
                if not same:
                    if not s * tw > e2:
                        raise InversionError("omega_2 is inside the support")
                    g2, gp2 = vd2(complex(tw))
                    t2, d2, z2 = t(x, tw, g2.real, gp2.real)
                    tw, dw, dz = t2, d2 * dw, d2 * dz + z2
                return tw, dz, dw

            x = self._seed_x(y) if last[0] is None else last[0]
            tol = OUTER_TOL * (abs(y) + hi1 - lo1)
            try:
                x, (_, dz, dw) = damped_newton(fixed, x, y, tol)
            except InversionError:
                return None
            last[0] = x
            return s * x, (1.0 - dw) / dz

        lo, hi = self.support
        return _least_value(x_of, hi - lo, e1)

    def _seed_x(self, y):
        """A cold seed of the x with omega_1(x) = y: the inverse of
        ``_seed``."""
        return y

    def _map(self, z, array):
        """The fixed-point map at z, w -> (T - w, T_w - 1, f_1, T_z), one
        formula for one w and for an array of them; off the physical sheet
        it raises InversionError on one point and gives a NaN residual on
        an array."""
        t, same = self._t, self.op2 is self.op1
        if array:
            vd1 = self.op1.value_and_derivative
            vd2 = self.op2.value_and_derivative
        else:
            vd1, vd2 = self.op1.vd_scalar, self.op2.vd_scalar

        def fixed(w):
            inside = w.imag > 0
            if not (array or inside):
                raise InversionError("trial left the upper half plane")
            # arguments go by position, not by unpacking: the map runs
            # once per Newton trial
            f1 = g, gp = vd1(w)
            tw, dw, dz = t(z, w, g, gp)
            if not same:
                g, gp = vd2(tw)
                t2, d2, z2 = t(z, tw, g, gp)
                tw, dw, dz = t2, d2 * dw, d2 * dz + z2
            res = tw - w
            if array:
                res = np.where(inside, res, np.nan)
            return res, dw - 1.0, f1, dz

        return fixed

    def _solve(self, z, seed):
        """``damped_newton`` on ``_map`` from ``seed`` (None for a cold
        seed), at a tolerance relative to |w|; returns (w, f(w))."""
        w = self._seed(z) if seed is None else seed
        scale = max(1.0, abs(w))
        # arguments go by position: keyword passing costs measurably on
        # the hot path of the sweep
        state = damped_newton(self._map(z, False), w, 0.0, OUTER_TOL * scale,
                              1e-9 * scale)
        # those bounds scale with the seed, so a far seed loosens them:
        # the residual is checked again at the iterate reached
        r = abs(state[1][0])
        if r > 1e-9 * max(1.0, abs(state[0])):
            raise InversionError(
                f"residual {r:.3g} is not small at the iterate reached",
                last_iterate=state[0], residual=r)
        return state

    @staticmethod
    def _omega_prime(state):
        # implicit differentiation of T(w, z) = w: w' = T_z / (1 - T_w)
        return -state[1][3] / state[1][1]

    @staticmethod
    def _g_of(z, state):
        return state[1][2][0]

    def _gprime_of(self, z, state):
        return state[1][2][1] * self._omega_prime(state)

    def _cold_states(self, x, eps):
        """The states at x + i*eps for each of the offsets ``eps``, from
        one cold vertical descent: from far above the support down through
        every offset, each solve seeded by the refined unknown of the one
        above it, and an offset above the start solved from the cold
        seed."""
        lo, hi = self.support
        height = 2.0 * max(1.0, abs(lo), abs(hi))
        floor = max(min(eps), 1e-12)
        n = max(2, int(np.ceil(np.log2(height / floor))) + 1)
        path = height * (floor / height) ** (np.arange(n - 1) / (n - 1))
        states, seed = {}, None
        for e in sorted(set(path.tolist()).union(eps), reverse=True):
            state = self._solve(complex(x, e), None if e >= height else seed)
            seed = _refined(state)
            states[e] = state
        return [states[e] for e in eps]

    def _solve_from(self, z, predicted, warm):
        """Solve at z from the first seed that converges, else cold."""
        for seed in (predicted, warm):
            if seed is not None:
                try:
                    return self._solve(z, seed)
                except InversionError:
                    pass
        try:
            return self._cold_states(z.real, [z.imag])[0]
        except InversionError as err:
            raise PipelineError(
                f"{type(self).__name__}: contour solve failed at "
                f"z = {z!r}: {err}",
                point=z,
            ) from err

    def sample_columns(self, xs, eps):
        xs = np.asarray(xs, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if eps.ndim != 2 or not eps.shape[1] or not np.all(eps > 0):
            raise ValidationError(
                "every column needs a ladder of positive offsets")
        anchors, path = self._sweep(xs, eps[:, 0])
        g = np.empty(eps.shape, dtype=complex)
        for lo in range(0, xs.size, _BLOCK):
            cols = np.arange(lo, min(lo + _BLOCK, xs.size))
            g[cols] = self._fill(xs, eps, anchors, path, cols)
        return g

    def _sweep(self, xs, top):
        """Solve the top point x + i*top of each anchor column serially,
        choosing each next anchor by the step control; returns the anchors
        and, as arrays over them, the top points z, G there, the refined
        unknowns and their z-derivatives."""
        solve, g_of, slope = self._solve_from, self._g_of, self._omega_prime
        xs, top = xs.tolist(), top.tolist()
        n = len(xs)
        anchors, path = [], []
        c, step = 0, 2
        past = ()  # the path's last four (z, w, w') triples, oldest first
        warm = None  # the refined unknown at the path's last point
        while c < n:
            z = complex(xs[c], top[c])
            predicted = None
            if any(z == q[0] for q in past):
                # a repeated point would zero a Lagrange denominator
                past = ()
            elif past:
                predicted = _hermite(past, z)
                if not cmath.isfinite(predicted):
                    predicted = None
            state = solve(z, predicted, warm)
            w = state[0]
            err = np.inf if predicted is None else (
                abs(w - predicted) / max(1.0, abs(w)))
            warm, d = _refined(state), slope(state)
            anchors.append(c)
            path.append((z, g_of(z, state), warm, d))
            past = past[-3:] + ((z, warm, d),)
            if c == n - 1:
                break
            # step-length control on the predictor error, of order 8
            grow = 2.0 if err == 0 else 0.9 * (_STEP_TOL / err) ** 0.125
            step = min(max(round(step * grow), 2), _MAX_STEP)
            c = min(c + step, n - 1)
        return np.array(anchors, dtype=int), tuple(
            np.array(path, dtype=complex).T)

    def _fill(self, xs, eps, anchors, path, cols):
        """G on the columns ``cols``: the anchors' top points from
        ``path``, every other point seeded by the Hermite interpolant
        through the top points of the anchors around its column, corrected
        on arrays, and solved serially down its column where that pass
        drops it."""
        tops, g_top, w_top, d_top = path
        z = xs[cols, None] + 1j * eps[cols]
        # anchor k, the last one at or left of a column, sits third in the
        # stencil, which shifts to stay inside the anchors
        k = np.searchsorted(anchors, cols, side="right") - 1
        width = min(_STENCIL, anchors.size)
        lo = np.clip(k - (width - 1) // 2, 0, anchors.size - width)
        g, warm = np.empty((2,) + z.shape, dtype=complex)
        on_path = anchors[k] == cols
        g[on_path, 0], warm[on_path, 0] = g_top[k[on_path]], w_top[k[on_path]]
        rest = np.ones(z.shape, dtype=bool)
        rest[on_path, 0] = False
        row, rung = rest.nonzero()
        zr = z[row, rung]
        # the stencils of this block's columns, from its first one on
        at = np.arange(lo[0], lo[-1] + 1)[:, None] + np.arange(width)
        with np.errstate(all="ignore"):
            seed = _hermite_rows(tops[at], w_top[at], d_top[at], zr,
                                 lo[row] - lo[0])
        g[row, rung], warm[row, rung] = self._correct(zr, seed)
        for r, j in zip(*(rest & ~np.isfinite(warm)).nonzero()):
            # the serial fallback, down each column: warm from the point
            # above, or from the top point of the anchor on the left
            above = warm[r, j - 1] if j else w_top[k[r]]
            state = self._solve_from(complex(z[r, j]), None, complex(above))
            g[r, j] = self._g_of(complex(z[r, j]), state)
            warm[r, j] = _refined(state)
        return g

    def _correct(self, z, seed):
        """Full Newton steps on every point of ``z`` at once, from
        ``seed``; returns G and the refined unknown, both NaN where a point
        was not accepted."""
        g = np.full(z.shape, np.nan, dtype=complex)
        refined = g.copy()
        batch = np.flatnonzero(np.isfinite(seed))
        if not batch.size:
            return g, refined
        with np.errstate(all="ignore"):
            zb, w = z[batch], seed[batch]
            fx = self._map(zb, True)(w)
            r = np.abs(fx[0])
            # a seed far from its root is not searched from here
            fell = r <= _SEED_GATE * OUTER_TOL * np.maximum(1.0, np.abs(w))
            for n in range(_ARRAY_PASSES):
                nxt = w - fx[0] / fx[1]
                done = fell & (r <= OUTER_TOL * np.maximum(1.0, np.abs(w)))
                g[batch[done]] = self._g_of(zb, (w, fx))[done]
                refined[batch[done]] = nxt[done]
                # a NaN residual (a trial off the physical sheet) or one
                # that did not fall drops the point
                keep = fell & ~done & np.isfinite(r)
                if n == _ARRAY_PASSES - 1 or not keep.any():
                    break
                batch, zb, w = batch[keep], zb[keep], nxt[keep]
                fx = self._map(zb, True)(w)
                r, last = np.abs(fx[0]), r[keep]
                fell = r < last
        return g, refined

    def value_and_derivative(self, z):
        """G and G' at each z of the closed upper half plane, solved cold:
        the points of one abscissa share one vertical descent, and none is
        seeded from another abscissa."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(z_arr.imag < 0):
            raise ValidationError(
                "pipeline evaluators are defined on the closed upper "
                "half plane"
            )
        g = np.empty(z_arr.shape, dtype=complex)
        gp = np.empty(z_arr.shape, dtype=complex)
        xs, which = np.unique(z_arr.real, return_inverse=True)
        for i, x in enumerate(xs.tolist()):
            at = np.flatnonzero(which == i)
            eps = z_arr.imag[at].tolist()
            for p, e, state in zip(at, eps, self._cold_states(x, eps)):
                zp = complex(x, e)
                g[p], gp[p] = self._g_of(zp, state), self._gprime_of(zp, state)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(g[0]), complex(gp[0])
        return g, gp


class FreeSumResolvent(_SweepResolvent):
    """Transform of the free additive convolution of two measures.

    With F_i = 1/G_i, t_i(z, w) = z + F_i(w) - w, and G(z) = G_1(omega_1).
    The sum has an atom at a + b of weight mu1({a}) + mu2({b}) - 1 wherever
    that is positive, and no other (Bercovici and Voiculescu 1998).
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        super().__init__(mu1, mu2)
        self.known_atoms = tuple(sorted(
            _paired_atoms(mu1.atoms, mu2.atoms, operator.add).items()))
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 + lo2, hi1 + hi2)
        self.edge_hints = (lo1 + lo2, hi1 + hi2)
        self.m2 = moment(mu2, 1)

    def _seed(self, z):
        return complex(z - self.m2)

    def _seed_x(self, y):
        return y + self.m2

    @staticmethod
    def _t(z, w, g, gp):
        return z + 1.0 / g - w, -gp / (g * g) - 1.0, 1.0


class PasturResolvent(_SweepResolvent):
    """Transform of measure-plus-Gaussian: the free sum with the semicircle
    of variance sigma^2, whose map has a closed form.  omega_1 solves
    omega_1 = z - sigma^2 G(omega_1) with Im omega_1 > 0 (Biane 1997), so
    t_1(z, w) = z - sigma^2 G(w) alone gives T, on the path of a
    self-convolution, and G(z) = G(omega_1).  The law has no atom, but an
    operand with atoms keeps pole detection: at small sigma each atom
    becomes a cluster narrower than the contour spacing, which detection
    returns as the point mass it nearly is."""

    def __init__(self, mu: SpectralMeasure, sigma: float):
        if not 0 < sigma <= CONTOUR_LIMIT:  # NaN fails too
            raise ValidationError(
                f"sigma must be positive and at most {CONTOUR_LIMIT:g}")
        super().__init__(mu, mu)
        self.known_atoms = self.op1.known_atoms
        self.sigma2 = sigma * sigma
        lo, hi = mu.support()
        self.support = (lo - 2 * sigma, hi + 2 * sigma)

    def _seed(self, z):
        return z - self.sigma2 / z

    def _t(self, z, w, g, gp):
        s = self.sigma2
        return z - s * g, -s * gp, 1.0


class FreeProductResolvent(_SweepResolvent):
    """Transform of the free multiplicative convolution of two measures.

    With h_i(w) = w * G_i(w) and k_i(w) = h_i(w) / ((h_i(w) - 1) w),
    t_i(z, w) = z * k_i(w): the product rule with omega_i = lambda_i(h(z))
    gives omega_1 * omega_2 = z * h / (h - 1).  Then G(z) = h_1(omega_1)/z
    = omega_1 G_1(omega_1) / z.  The product has an atom of weight
    max(mu1({0}), mu2({0})) at 0, and one at ab of weight mu1({a}) +
    mu2({b}) - 1 for a, b > 0 wherever that is positive, and no other
    (Belinschi, IEOT 2003); an atom at or below 0, as the 1e-12 slack of
    the support check lets through, counts as one at 0.
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        for mu in (mu1, mu2):
            if mu.support()[0] < -1e-12:
                raise ValidationError(
                    "free multiplication requires supports in [0, inf)"
                )
            if sum(wt for pos, wt in mu.atoms if pos == 0.0) > 1.0 - 1e-6:
                raise ValidationError(
                    "each factor must put mass away from zero (a point mass "
                    "at 0 times any law is that point mass)"
                )
        super().__init__(mu1, mu2)
        found = _paired_atoms([p for p in mu1.atoms if p[0] > 0],
                              [p for p in mu2.atoms if p[0] > 0],
                              operator.mul)
        zero = max(sum(w for a, w in mu.atoms if a <= 0) for mu in (mu1, mu2))
        if zero > 0:
            found[0.0] = found.get(0.0, 0.0) + zero
        self.known_atoms = tuple(sorted(found.items()))
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 * lo2, hi1 * hi2)
        self.edge_hints = (lo1 * lo2, hi1 * hi2)
        self.m2 = moment(mu2, 1)

    def _edge(self, s):
        # the left edge keeps the naive bound lo_1 lo_2
        return super()._edge(s) if s > 0 else None

    def _seed(self, z):
        return complex(z / self.m2)

    def _seed_x(self, y):
        return y * self.m2

    @staticmethod
    def _t(z, w, g, gp):
        h, hp = w * g, g + w * gp
        d = (h - 1.0) * w
        k = h / d
        return z * k, -z * (hp * w + h * (h - 1.0)) / (d * d), k

    @staticmethod
    def _g_of(z, state):
        return state[0] * state[1][2][0] / z

    def _gprime_of(self, z, state):
        w, (g, gp) = state[0], state[1][2]
        hp = g + w * gp
        return (hp * self._omega_prime(state) * z - w * g) / (z * z)


# -- public operations ---------------------------------------------------------


def free_add(mu1: SpectralMeasure, mu2: SpectralMeasure,
             contour: ContourSpec | None = None) -> SpectralMeasure:
    """Free additive convolution of two compactly supported measures."""
    ev = FreeSumResolvent(mu1, mu2)
    if contour is None:
        contour = default_contour(*ev.support)
    return stieltjes_invert(ev, contour)


def pastur_add_gaussian(mu: SpectralMeasure, sigma: float,
                        contour: ContourSpec | None = None) -> SpectralMeasure:
    """Spectral law of a deterministic part plus an independent invariant
    Gaussian of scale ``sigma``."""
    ev = PasturResolvent(mu, sigma)
    if contour is None:
        contour = default_contour(*ev.support)
    return stieltjes_invert(ev, contour)


def free_multiply(mu1: SpectralMeasure, mu2: SpectralMeasure,
                  contour: ContourSpec | None = None) -> SpectralMeasure:
    """Free multiplicative convolution of two nonnegative measures."""
    ev = FreeProductResolvent(mu1, mu2)
    if contour is None:
        lo, hi = ev.support
        contour = default_contour(lo, hi)
    out = stieltjes_invert(ev, contour)
    m1_expected = moment(mu1, 1) * moment(mu2, 1)
    m1_got = moment(out, 1)
    if abs(m1_got - m1_expected) > 1e-3 * max(1e-12, abs(m1_expected)):
        raise PipelineError(
            f"product mean {m1_got!r} deviates from {m1_expected!r} beyond "
            "1e-3 relative"
        )
    return out


# -- Gaussian external field ----------------------------------------------------


def external_field_lambda_gaussian(sigma: float, field: SpectralMeasure,
                                   a: float) -> float:
    """Inverse-resolvent value lambda(a) for the invariant Gaussian of scale
    ``sigma`` in the presence of the external field: the fixed source
    coupled to the random matrix, given as the spectral measure ``field``
    of its eigenvalues.

    Completing the square in the coupled Gaussian measure shifts each
    diagonal average to sigma^2 * a, so lambda(a) = sigma^2 * a + pv(a)
    where pv is the principal-value transform of the field's measure.
    """
    if not 0 <= sigma <= CONTOUR_LIMIT:  # NaN fails too
        raise ValidationError(
            f"sigma must be nonnegative and at most {CONTOUR_LIMIT:g}")
    return sigma * sigma * a + principal_value_transform(field, a)
