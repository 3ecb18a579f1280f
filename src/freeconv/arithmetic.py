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

import numpy as np

from .errors import InversionError, PipelineError, ValidationError
from .measures import SpectralMeasure, moment
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


# -- support hulls from the inverse transforms ----------------------------------
#
# Right of its support an operand's G is real, positive and decreasing, and
# so is a pipeline's; the laws of the module docstring then hold on the real
# axis too.  The output's right edge e lies where x(y_1) = y_1 +
# K_2(G_1(y_1)) - 1/G_1(y_1) (a sum), y_1 + sigma^2 G_1(y_1) (Pastur) or
# y_1 lambda_2(h)(h - 1)/h with h = y_1 G_1(y_1) (a product) is least on
# the branch that reaches y_1 -> infinity: right of e the subordination
# function omega_1 is real and increasing, x is its inverse, and so x rises
# on the whole of (omega_1(e), infinity).  A point where x' > 0, reached
# from the far side through points where x falls and x' > 0 too, lies on
# that branch unless x turns twice between two of those points, and its x
# bounds e from above.  Any other point, one with
# x' <= 0 or a value that breaks the fall, gives no bound: left of
# omega_1(e) nothing keeps x above e unless x is quasi-convex, which is
# proved for Pastur's sum alone (there G_1 is convex).  A left edge is the
# right edge of the reflected measures.

# The geometric scan of the distance d = y_1 - edge: its ratio, the
# bracket width in log d at which a search stops, and the closest point to
# the edge, relative to the scale of the supports.
_SCAN_RATIO = 2.0
_SCAN_TOL = 1e-3
_SCAN_NEAR = 1e-10


def _side(op, s):
    """The right edge and width of the support of the measure t -> s*t
    pushed from ``op``'s, and that measure's (G, G') as floats at real y
    right of the edge: s*G(s*y) and G'(s*y)."""
    lo, hi = op.support
    vd = op.vd_scalar

    def gd(y):
        g, gp = vd(complex(s * y))
        return s * g.real, gp.real

    return (hi if s > 0 else -lo), hi - lo, gd


def _inverter(edge, width, gd, mass):
    """g -> (y, G'(y)) at the y > edge with G(y) = g, for G, read by
    ``gd``, the transform of a positive measure of mass ``mass`` whose
    support of width ``width`` ends at ``edge``; None where no such y lies
    right of a hair past the edge, or where ``damped_newton`` does not
    settle.

    Newton runs on 1/G, which increases, in u = log(y - edge), where an
    atom, a jump and a square-root edge all leave it close to linear, to
    |1/G - 1/g| <= 1e-11/g, or to the change in 1/G over one ulp of y,
    read from G', where that is larger: next to an atom edge the rounding
    of y keeps 1/G from resolving 1e-11/g, so within that change 1/G is
    read as 1/g.  The root lies in (the hair, edge + 2 mass/g], since G(y)
    <= mass/(y - edge); each solve starts from the last root found, moved
    into that interval, the first from its right end.  A trial outside it,
    or where G is not positive and decreasing, raises InversionError,
    which Newton rejects.  The hair is 1e-12 of width + |edge|; a point
    mass at 0 has no length to take one from, and gives no inverse."""
    d_top = 1e-12 * (width + abs(edge))
    if not d_top:
        return lambda g: None
    u_top, g_top = np.log(d_top), gd(edge + d_top)[0]
    last = [None]

    def inverse(g):
        if not 0.0 < g < g_top:
            return None
        u_far = np.log(2.0 * mass / g)

        def f(u):
            if not u_top <= u <= u_far:
                raise InversionError("outside (the hair, edge + 2 mass/g]")
            d = np.exp(u)
            y = edge + d
            gy, gpy = gd(y)
            if not gy > 0.0 > gpy:
                raise InversionError("G is not positive and decreasing here")
            inv = 1.0 / gy
            # 1/G resolves no finer than its change over one ulp of y
            if abs(inv - 1.0 / g) <= -gpy / (gy * gy) * abs(np.spacing(y)):
                inv = 1.0 / g
            return inv, -gpy * d / (gy * gy), gpy

        u = u_far if last[0] is None else \
            min(max(np.log(last[0] - edge), u_top), u_far)
        try:
            u, (_, _, gp) = damped_newton(f, u, 1.0 / g, 1e-11 / g)
        except InversionError:
            return None
        last[0] = edge + np.exp(u)
        return last[0], gp

    return inverse


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


def _pastur_edge(op, sigma2, s):
    """A bound of the right edge of Pastur's sum for the measure t -> s*t
    pushed from ``op``'s: the least y + sigma^2 G(y), which is convex."""
    e, w, gd = _side(op, s)

    def x_of(d):
        g, gp = gd(e + d)
        return e + d + sigma2 * g, 1.0 + sigma2 * gp

    return _least_value(x_of, w + np.sqrt(sigma2), e)


def _sum_edge(op1, op2, s):
    """A bound of the right edge of the sum of the measures t -> s*t pushed
    from the operands'.  x' = 1 + G_1'/G_2'(y_2) + G_1'/G_1^2, as K_2' =
    1/G_2'; a self-sum has y_2 = y_1 and inverts nothing."""
    e1, w1, gd1 = _side(op1, s)
    e2, w2, gd2 = _side(op2, s)
    k2 = None if op2 is op1 else _inverter(e2, w2, gd2, 1.0)

    def x_of(d):
        y = e1 + d
        g, gp = gd1(y)
        root = (y, gp) if k2 is None else k2(g)
        if root is None or not g > 0.0:
            return None
        y2, gp2 = root
        return y + y2 - 1.0 / g, 1.0 + gp / gp2 + gp / (g * g)

    return _least_value(x_of, w1 + w2, e1)


def _product_edge(op1, op2, m2):
    """A bound of the right edge of the product of the operands' measures,
    on [0, inf) with ``m2`` the mean of operand 2.  lambda_2 inverts
    psi_2(y) = y G_2(y) - 1, the transform of t dmu_2(t), a measure of
    mass m2; with h' = G_1 + y G_1' and lambda_2' = 1/psi_2', x = y
    lambda_2 (h - 1)/h has x' = lambda_2 (h - 1)/h + y h' (lambda_2' (h -
    1)/h + lambda_2/h^2).  A self-product has psi_2 = h - 1, so lambda_2 =
    y and inverts nothing."""
    e1, _, gd1 = _side(op1, 1)
    lo2, e2 = op2.support
    gd2 = _side(op2, 1)[2]

    def psi(y):
        g, gp = gd2(y)
        return y * g - 1.0, g + y * gp

    lambda2 = None if op2 is op1 else _inverter(e2, e2 - lo2, psi, m2)

    def x_of(d):
        y = e1 + d
        g, gp = gd1(y)
        h, hp = y * g, g + y * gp
        root = (y, hp) if lambda2 is None else lambda2(h - 1.0)
        if root is None or not h > 1.0:
            return None
        y2, psi_p = root
        return (y * y2 * (h - 1.0) / h,
                y2 * (h - 1.0) / h + y * hp * ((h - 1.0) / (h * psi_p)
                                               + y2 / (h * h)))

    return _least_value(x_of, e1 + e2, e1)


def _same_measure(mu1: SpectralMeasure, mu2: SpectralMeasure) -> bool:
    if mu1 is mu2:
        return True
    if mu1.atoms != mu2.atoms or len(mu1.segments) != len(mu2.segments):
        return False
    return all(
        np.array_equal(a.grid, b.grid) and np.array_equal(a.density, b.density)
        for a, b in zip(mu1.segments, mu2.segments)
    )


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
        self._same = _same_measure(mu1, mu2)
        self.op1 = MeasureResolvent(mu1)
        self.op2 = self.op1 if self._same else MeasureResolvent(mu2)

    def hull(self):
        """The naive support, cut on each side s to the bound that
        ``_edge(s)`` gives of the right edge of the output pushed by t ->
        s*t, where it gives one."""
        (lo, hi), left, right = self.support, self._edge(-1), self._edge(1)
        return (lo if left is None else max(lo, -left),
                hi if right is None else min(hi, right))

    def _map(self, z, array):
        """The fixed-point map at z, w -> (T - w, T_w - 1, f_1, T_z), one
        formula for one w and for an array of them; off the physical sheet
        it raises InversionError on one point and gives a NaN residual on
        an array."""
        t, same = self._t, self._same
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

    def _herglotz(self, z, g):
        """Raise PipelineError at the first z whose G has Im G > 0."""
        bad = np.flatnonzero(np.imag(g) > 1e-9 * (1.0 + np.abs(g)))
        if bad.size:
            z = complex(np.ravel(z)[bad[0]])
            raise PipelineError(
                f"{type(self).__name__}: non-Herglotz solution at "
                f"z = {z!r}", point=z
            )

    def sample_columns(self, xs, eps):
        xs = np.asarray(xs, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if eps.ndim != 2 or not eps.shape[1] or np.isnan(eps[:, 0]).any():
            raise ValidationError("every column needs at least one offset")
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
            g = g_of(z, state)
            if g.imag > 1e-9 * (1.0 + abs(g)):
                self._herglotz(z, g)
            warm, d = _refined(state), slope(state)
            anchors.append(c)
            path.append((z, g, warm, d))
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
        """G on the columns ``cols``, NaN at their padding: the anchors'
        top points from ``path``, every other point seeded by the Hermite
        interpolant through the top points of the anchors around its
        column, corrected on arrays, and solved serially down its column
        where that pass drops it."""
        tops, g_top, w_top, d_top = path
        z = xs[cols, None] + 1j * eps[cols]
        # anchor k, the last one at or left of a column, sits third in the
        # stencil, which shifts to stay inside the anchors
        k = np.searchsorted(anchors, cols, side="right") - 1
        width = min(_STENCIL, anchors.size)
        lo = np.clip(k - (width - 1) // 2, 0, anchors.size - width)
        g = np.full(z.shape, complex("nan"))
        warm = g.copy()
        on_path = anchors[k] == cols
        g[on_path, 0], warm[on_path, 0] = g_top[k[on_path]], w_top[k[on_path]]
        rest = ~np.isnan(z)
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
        self._herglotz(z, g)
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
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        super().__init__(mu1, mu2)
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 + lo2, hi1 + hi2)
        self.edge_hints = (lo1 + lo2, hi1 + hi2)
        self.m2 = moment(mu2, 1)

    def _edge(self, s):
        return _sum_edge(self.op1, self.op2, s)

    def _seed(self, z):
        return complex(z - self.m2)

    @staticmethod
    def _t(z, w, g, gp):
        return z + 1.0 / g - w, -gp / (g * g) - 1.0, 1.0


class PasturResolvent(_SweepResolvent):
    """Transform of measure-plus-Gaussian: the free sum with the semicircle
    of variance sigma^2, whose map has a closed form.  omega_1 solves
    omega_1 = z - sigma^2 G(omega_1) with Im omega_1 > 0 (Biane 1997), so
    t_1(z, w) = z - sigma^2 G(w) alone gives T, on the path of a
    self-convolution, and G(z) = G(omega_1)."""

    def __init__(self, mu: SpectralMeasure, sigma: float):
        if sigma <= 0:
            raise ValidationError("sigma must be positive")
        super().__init__(mu, mu)
        self.sigma2 = sigma * sigma
        lo, hi = mu.support()
        self.support = (lo - 2 * sigma, hi + 2 * sigma)

    def _edge(self, s):
        return _pastur_edge(self.op1, self.sigma2, s)

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
    = omega_1 G_1(omega_1) / z.
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
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 * lo2, hi1 * hi2)
        self.edge_hints = (lo1 * lo2, hi1 * hi2)
        self.m2 = moment(mu2, 1)

    def _edge(self, s):
        # the left edge keeps the naive bound lo_1 lo_2
        return _product_edge(self.op1, self.op2, self.m2) if s > 0 else None

    def _seed(self, z):
        return complex(z / self.m2)

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
    if sigma < 0:
        raise ValidationError("sigma must be nonnegative")
    return sigma * sigma * a + principal_value_transform(field, a)
