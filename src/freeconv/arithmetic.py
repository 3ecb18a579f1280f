"""Free convolution of spectral measures.

Addition composes inverse resolvents: the centered inverse R(w) =
G^{-1}(w) - 1/w adds under free convolution, so the sum's transform solves
R1(G) + R2(G) + 1/G = z.  Multiplication composes inverses of h(lambda) =
lambda*G(lambda): lambda_out(h) = lambda_1(h) * lambda_2(h) * (h-1)/h.
Deterministic-plus-Gaussian addition closes into the self-consistent
equation omega = G(z - sigma^2 * omega), and the Gaussian external-field
shift sigma^2 * a generalizes the addition law beyond the free case.

The sum and the product are solved for their subordination function
omega_1 (G(z) = G_1(omega_1(z)) for the sum), the fixed point of a map
built from the operands' forward transforms, so no operand is inverted.
That fixed point and Pastur's equation are single solves on one loop,
stieltjes.damped_newton.  Contour solves take two levels.  Every other
column is solved serially, left to right at each imaginary offset, as a
predictor-corrector continuation: each solve starts from the septic
Hermite interpolant of its offset's last four solutions and their
z-derivatives, which every solve's state already holds, so Newton needs
about one correction per point.  The stored solutions are taken one
Newton step past each accepted iterate, from the residual and derivative
the state holds, so the extrapolation does not amplify the solver's
tolerance.  The columns between are then seeded by Hermite interpolation
through the solved columns around them and corrected all at once by
Newton on arrays, with the serial solve as the fallback of any point that
does not converge there.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

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
        self.measure = mu
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


class HTransform:
    """h(lambda) = lambda * G(lambda) and its functional inverse."""

    def __init__(self, mu: SpectralMeasure):
        self.measure = mu
        self.resolvent = MeasureResolvent(mu)
        self.mean = moment(mu, 1)

    def __call__(self, lam: complex) -> complex:
        return lam * self.resolvent(lam)

    def vd_scalar(self, lam: complex):
        """(h, h') at one point."""
        g, gp = self.resolvent.vd_scalar(lam)
        return lam * g, g + lam * gp

    def value_and_derivative(self, lam):
        """(h, h') at each point of an array."""
        g, gp = self.resolvent.value_and_derivative(lam)
        return lam * g, g + lam * gp

    def inverse(self, h: complex, seed=None) -> complex:
        if h == 1:
            raise ValidationError(
                "h = 1 is the value of h at infinity, not at a finite point"
            )
        lam = complex(seed if seed is not None else self.mean / (h - 1.0))
        return damped_newton(self.vd_scalar, lam, h,
                             OUTER_TOL * max(1.0, abs(h)))[0]


# -- pipeline evaluators -------------------------------------------------------


def _hermite_weights(past, x):
    """Weights (H_i(x), K_i(x)) of the Hermite interpolant through distinct
    abscissae: p(x) = sum H_i w_i + K_i w'_i, of degree 2n - 1 for n
    abscissae.  With L_i the Lagrange basis on ``past``, H_i = (1 - 2
    L_i'(x_i)(x - x_i)) L_i^2 and K_i = (x - x_i) L_i^2; one abscissa gives
    w + w' (x - x_i).  ``past`` is a tuple of abscissae, or of arrays of
    them with ``x`` an array: one stencil per point."""
    weights = []
    for i, xi in enumerate(past):
        lag, d_lag = 1.0, 0.0
        for xj in past[:i] + past[i + 1:]:
            lag *= (x - xj) / (xi - xj)
            d_lag += 1.0 / (xi - xj)
        sq = lag * lag
        weights.append(((1.0 - 2.0 * d_lag * (x - xi)) * sq, (x - xi) * sq))
    return weights


def _refined(state):
    """The unknown one Newton step past a solve's accepted state, with no
    kernel call: the state's f(x) holds the residual and its derivative."""
    x, fx = state
    return x - fx[0] / fx[1] if fx[1] else x


def _rung(offsets, eps):
    """The index of each of ``eps`` in ``offsets``, sorted with a NaN last;
    an offset not there gets the NaN's."""
    at = np.searchsorted(offsets, eps)
    at[offsets[at] != eps] = offsets.size - 1
    return at


# Newton evaluations per point in the array pass before a point is handed
# to the serial solve, and the columns between anchors corrected at once,
# which bounds the pass's arrays.
_ARRAY_PASSES = 6
_BLOCK = 512


class _SweepResolvent(ResolventEvaluator):
    """Shared two-level predictor-corrector sweep for contour-solved
    transforms.

    The anchors, columns 0, 2, 4, ... and the last, are solved serially,
    left to right, each ladder top down.  Along one rung (a fixed offset
    eps) the unknown is analytic in x, so each rung keeps the unknown and
    its z-derivative (read from the solve's state, with no kernel call) at
    the last four anchors, and the septic Hermite interpolant through them
    seeds the next anchor; a rung seen on fewer anchors interpolates
    through those.  The stored unknown, like the warm seeds, is the
    accepted iterate refined by one Newton step from the residual and
    derivative in its state, since extrapolation amplifies the Newton
    tolerance; the returned G is that of the accepted iterate.  Rungs are
    keyed by the value of eps and keep their history only while
    consecutive anchors carry it; the weights use the actual abscissae.
    A non-finite or failed prediction retries from the warm seed (the
    previous column's top rung for the top rung, else the rung above),
    then from a cold start that descends vertically from far above the
    support.

    Each point between two anchors is then seeded by the Hermite
    interpolant through those of the two nearest anchors on each side
    that carry its eps, and all of them take full Newton steps at once on
    arrays (``_correct``), _BLOCK columns at a time, each accepted at the
    tolerance of its serial solve.  The serial solve, from that seed, then
    warm, then cold, takes the points whose bracketing anchors do not both
    carry their eps or whose seed is not finite, and those whose trial
    leaves the physical sheet, whose residual does not fall or is not
    finite, or that run out of passes.

    Subclasses give ``_map(z, array)``: the fixed-point map at z, w ->
    (residual, derivative, *extra), one formula for one w and for an
    array of them; off the physical sheet it raises InversionError on one
    point and gives a NaN residual on an array.  Also ``_scale(z, w)``,
    which the Newton tolerance is relative to, and ``_solve(z, seed)``,
    ``damped_newton`` on ``_map`` from ``seed`` (None for a cold seed),
    which returns (unknown, f(unknown)).  ``_omega_prime(state)`` is the
    unknown's z-derivative, and ``_g_of`` and ``_gprime_of`` read G and
    G' from a state, one point's or an array's.  All state is local to
    one ``sample_columns`` call.
    """

    def _cold_state(self, z):
        lo, hi = self.support
        height = 2.0 * max(1.0, abs(lo), abs(hi))
        if z.imag >= height:
            return self._solve(z, None)
        n = max(2, int(np.ceil(np.log2(height / max(z.imag, 1e-12)))) + 1)
        path = height * (max(z.imag, 1e-12) / height) ** (
            np.arange(n) / (n - 1)
        )
        seed = None
        for eps in path[:-1]:
            seed = _refined(self._solve(complex(z.real, float(eps)), seed))
        return self._solve(z, seed)

    def _solve_from(self, z, predicted, warm):
        """Solve at z from the first seed that converges, else cold."""
        for seed in (predicted, warm):
            if seed is not None:
                try:
                    return self._solve(z, seed)
                except InversionError:
                    pass
        try:
            return self._cold_state(z)
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

    def sample_columns(self, xs, ladders):
        xs = np.asarray(xs, dtype=float)
        lads = [np.asarray(lad, dtype=float) for lad in ladders]
        n = len(lads)
        anchors = list(range(0, n, 2))
        if n % 2 == 0 and n:
            anchors.append(n - 1)
        out = [None] * n
        known = self._sweep(xs, lads, anchors, out)
        for lo in range(1, n - 1, 2 * _BLOCK):
            self._between(xs, lads, anchors, known, out,
                          range(lo, min(lo + 2 * _BLOCK, n - 1), 2))
        return out

    def _sweep(self, xs, lads, anchors, out):
        """Solve the anchor columns serially into ``out``; returns the
        offsets they carry, sorted and then a NaN, and the refined unknowns
        and their z-derivatives as (anchors + 1, offsets) arrays, NaN where
        an anchor does not carry an offset and in the last row and column.
        """
        solve, g_of, slope = self._solve_from, self._g_of, self._omega_prime
        # the weights through each run of four anchors at the next one
        xa = xs[anchors]
        runs = max(0, xa.size - 4)
        with np.errstate(all="ignore"):
            stencils = np.array(_hermite_weights(
                tuple(xa[i:i + runs] for i in range(4)), xa[4:])).reshape(
                    8, runs).T
        held = [lads[c].size for c in anchors]
        ws, ds = np.empty((2, sum(held)), dtype=complex)
        p = 0
        past = ()   # abscissae of the last four anchors, oldest first
        hist = {}   # eps -> (refined unknown, z-derivative) at those anchors
        top = None  # the refined unknown at the previous anchor's top rung
        for i, c in enumerate(anchors):
            x, lad = float(xs[c]), lads[c].tolist()
            if x in past:
                # a repeated abscissa would zero a weight's denominator
                past = ()
                hist = {}
            short = {}  # history length -> weights through its anchors
            if len(past) == 4:
                # past holds the four anchors before this one
                a0, b0, a1, b1, a2, b2, a3, b3 = stencils[i - 4].tolist()
            col = np.empty(len(lad), dtype=complex)
            carried = {}
            warm = top
            for j, eps in enumerate(lad):
                z = complex(x, eps)
                h = hist.get(eps, ())
                predicted = None
                if len(h) == 4:
                    (w0, d0), (w1, d1), (w2, d2), (w3, d3) = h
                    predicted = (a0 * w0 + b0 * d0 + a1 * w1 + b1 * d1
                                 + a2 * w2 + b2 * d2 + a3 * w3 + b3 * d3)
                elif h:
                    # a rung seen on fewer anchors interpolates through them
                    n = len(h)
                    if n not in short:
                        short[n] = _hermite_weights(past[-n:], x)
                    predicted = sum(a * w + b * d
                                    for (a, b), (w, d) in zip(short[n], h))
                if predicted is not None and not cmath.isfinite(predicted):
                    predicted = None
                state = solve(z, predicted, warm)
                g = g_of(z, state)
                if g.imag > 1e-9 * (1.0 + abs(g)):
                    self._herglotz(z, g)
                col[j] = g
                warm = _refined(state)
                d = slope(state)
                ws[p], ds[p] = warm, d
                p += 1
                carried[eps] = h[-3:] + ((warm, d),)
                if j == 0:
                    top = warm
            hist = carried
            past = past[-3:] + (x,)
            out[c] = col
        carried = np.concatenate([lads[c] for c in anchors] or [[]])
        offsets = np.append(np.unique(carried), np.nan)
        vals = np.full((len(anchors) + 1, offsets.size), np.nan,
                       dtype=complex)
        slopes = vals.copy()
        at = np.repeat(np.arange(len(anchors)), held), _rung(offsets, carried)
        vals[at], slopes[at] = ws, ds
        return offsets, vals, slopes

    def _between(self, xs, lads, anchors, known, out, inner):
        """Solve the columns ``inner``, each between two anchors, into
        ``out``: interpolated seeds, one array Newton pass, the serial
        solve as its fallback."""
        offsets, vals, slopes = known
        m = len(anchors)
        sizes = [lads[c].size for c in inner]
        eps = np.concatenate([lads[c] for c in inner])
        col = np.repeat(inner, sizes)
        x = xs[col]
        z = x + 1j * eps
        # anchor k, the left neighbour of column c = 2k + 1, brackets it
        # with anchor k + 1; the stencil is anchors k - 1 .. k + 2, and a
        # slot past either end, or an offset no anchor carries, reads NaN
        k = (col - 1) // 2
        slots = k[:, None] + np.arange(-1, 3)
        slots[(slots < 0) | (slots >= m)] = m
        e = _rung(offsets, eps)[:, None]
        ax = np.append(xs[anchors], np.nan)[slots]
        # the stencil runs one way, with x strictly inside its brackets
        run = ax[:, 2] - ax[:, 1]
        present = (np.isfinite(vals[slots, e])
                   & ((x - ax[:, 1]) * (ax[:, 2] - x) > 0)[:, None])
        present[:, 0] &= (ax[:, 1] - ax[:, 0]) * run > 0
        present[:, 3] &= (ax[:, 3] - ax[:, 2]) * run > 0
        seed = np.full(x.size, np.nan, dtype=complex)
        code = present @ (1 << np.arange(4))
        with np.errstate(all="ignore"):
            for pattern in np.unique(code[code > 0]):
                rows = np.flatnonzero(code == pattern)
                use = np.flatnonzero(present[rows[0]])
                weights = _hermite_weights(
                    tuple(ax[rows, i] for i in use), x[rows])
                at = slots[rows][:, use], e[rows]
                seed[rows] = sum(h * w + kd * d for (h, kd), w, d in zip(
                    weights, vals[at].T, slopes[at].T))
        batch = np.flatnonzero(present[:, 1] & present[:, 2]
                               & np.isfinite(seed))
        g, warm = self._correct(z, seed, batch)
        first = np.cumsum([0] + sizes).tolist()
        heads = set(first)
        for p in np.flatnonzero(~np.isfinite(warm)).tolist():
            # the serial fallback, in column order: the warm seed is the
            # rung above, or the left anchor's top rung
            if p in heads:
                above = vals[k[p], _rung(offsets, lads[col[p] - 1][:1])[0]]
            else:
                above = warm[p - 1]
            state = self._solve_from(
                complex(z[p]),
                complex(seed[p]) if cmath.isfinite(seed[p]) else None,
                complex(above))
            g[p] = self._g_of(complex(z[p]), state)
            warm[p] = _refined(state)
        self._herglotz(z, g)
        for c, lo, hi in zip(inner, first[:-1], first[1:]):
            out[c] = g[lo:hi]

    def _correct(self, z, seed, batch):
        """Full Newton steps on the points ``batch`` of ``z``, from ``seed``,
        all at once; returns G and the refined unknown at every point, the
        latter not finite where a point was not accepted."""
        g = np.full(z.shape, np.nan, dtype=complex)
        refined = g.copy()
        with np.errstate(all="ignore"):
            zb, w = z[batch], seed[batch]
            tol = OUTER_TOL * np.maximum(1.0, self._scale(zb, w))
            fx = self._map(zb, True)(w)
            r = np.abs(fx[0])
            fell = np.ones(batch.size, dtype=bool)
            for n in range(_ARRAY_PASSES):
                nxt = w - fx[0] / fx[1]
                done = fell & (r <= tol)
                g[batch[done]] = self._g_of(zb, (w, fx))[done]
                refined[batch[done]] = nxt[done]
                # a NaN residual (a trial off the physical sheet) or one
                # that did not fall drops the point
                keep = fell & ~done & np.isfinite(r)
                if n == _ARRAY_PASSES - 1 or not keep.any():
                    break
                batch, zb, w, tol = batch[keep], zb[keep], nxt[keep], tol[keep]
                fx = self._map(zb, True)(w)
                r, last = np.abs(fx[0]), r[keep]
                fell = r < last
        return g, refined

    def value_and_derivative(self, z):
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        g = np.empty(z_arr.shape, dtype=complex)
        gp = np.empty(z_arr.shape, dtype=complex)
        for i, zi in enumerate(z_arr):
            zi = complex(zi)
            if zi.imag < 0:
                raise ValidationError(
                    "pipeline evaluators are defined on the closed upper "
                    "half plane"
                )
            state = self._cold_state(zi)
            g[i], gp[i] = self._g_of(zi, state), self._gprime_of(zi, state)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(g[0]), complex(gp[0])
        return g, gp


def _same_measure(mu1: SpectralMeasure, mu2: SpectralMeasure) -> bool:
    if mu1 is mu2:
        return True
    if mu1.atoms != mu2.atoms or len(mu1.segments) != len(mu2.segments):
        return False
    return all(
        np.array_equal(a.grid, b.grid) and np.array_equal(a.density, b.density)
        for a, b in zip(mu1.segments, mu2.segments)
    )


class _PairResolvent(_SweepResolvent):
    """Two operands joined through the subordination function omega_1.

    Operand i gives a map t_i(z, w) from one kernel call at w (one
    ``vd_scalar`` call, or one ``value_and_derivative`` call for an array
    of w), and omega_1(z) is the fixed point of T = t_2 o t_1.  It is
    unique in the upper half plane (Belinschi and Bercovici 2007), so any
    root reached there is the physical one.  A self-convolution has
    omega_1 = omega_2 and solves w = t_1(w).  The state per point is what
    ``damped_newton`` returns: (w, (T - w, T_w - 1, f_1, T_z)), with f_1
    the first operand's (value, derivative) at w.

    Subclasses give ``_t(z, w, f, f') -> (t, t_w, t_z)``, plain arithmetic
    that broadcasts, the seed ``_seed(z)``, ``_g_of`` and ``_gprime_of``.
    """

    def __init__(self, operand, mu1, mu2):
        # a self-convolution builds one operand, ``op2 is op1``
        self._same = _same_measure(mu1, mu2)
        self.op1 = operand(mu1)
        self.op2 = self.op1 if self._same else operand(mu2)

    def _map(self, z, array):
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
            f1 = vd1(w)
            tw, dw, dz = t(z, w, *f1)
            if not same:
                t2, d2, z2 = t(z, tw, *vd2(tw))
                tw, dw, dz = t2, d2 * dw, d2 * dz + z2
            res = tw - w
            if array:
                res = np.where(inside, res, np.nan)
            return res, dw - 1.0, f1, dz

        return fixed

    @staticmethod
    def _scale(z, w):
        return abs(w)

    def _solve(self, z, seed):
        w = self._seed(z) if seed is None else seed
        scale = max(1.0, self._scale(z, w))
        # arguments go by position: keyword passing costs measurably on
        # the hot path of the sweep
        return damped_newton(self._map(z, False), w, 0.0, OUTER_TOL * scale,
                             1e-9 * scale)

    @staticmethod
    def _omega_prime(state):
        # implicit differentiation of T(w, z) = w: w' = T_z / (1 - T_w)
        return -state[1][3] / state[1][1]


class FreeSumResolvent(_PairResolvent):
    """Transform of the free additive convolution of two measures.

    With F_i = 1/G_i, t_i(z, w) = z + F_i(w) - w, and G(z) = G_1(omega_1).
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        super().__init__(MeasureResolvent, mu1, mu2)
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 + lo2, hi1 + hi2)
        self.edge_hints = (lo1 + lo2, hi1 + hi2)
        self.m2 = moment(mu2, 1)

    def _seed(self, z):
        return complex(z - self.m2)

    @staticmethod
    def _t(z, w, g, gp):
        return z + 1.0 / g - w, -gp / (g * g) - 1.0, 1.0

    @staticmethod
    def _g_of(z, state):
        return state[1][2][0]

    def _gprime_of(self, z, state):
        return state[1][2][1] * self._omega_prime(state)


class PasturResolvent(_SweepResolvent):
    """Transform of measure-plus-Gaussian via the self-consistent equation
    omega(z) = G(z - sigma^2 * omega(z))."""

    def __init__(self, mu: SpectralMeasure, sigma: float):
        if sigma <= 0:
            raise ValidationError("sigma must be positive")
        self.r = MeasureResolvent(mu)
        self.sigma2 = sigma * sigma
        lo, hi = mu.support()
        self.support = (lo - 2 * sigma, hi + 2 * sigma)
        self.edge_hints = ()

    def _map(self, z, array):
        vd = self.r.value_and_derivative if array else self.r.vd_scalar
        sigma2 = self.sigma2

        def fixed(om):
            # The physical root is the one fixed point with z - sigma^2
            # omega in the upper half plane (Biane 1997).
            arg = z - sigma2 * om
            inside = arg.imag > 0
            if not (array or inside):
                raise InversionError("trial left the upper half plane")
            g, gp = vd(arg)
            res = om - g
            if array:
                res = np.where(inside, res, np.nan)
            return res, 1.0 + sigma2 * gp, gp

        return fixed

    @staticmethod
    def _scale(z, om):
        return abs(z)

    def _solve(self, z, seed):
        omega = 1.0 / z if seed is None else seed
        return damped_newton(self._map(z, False), omega, 0.0,
                             OUTER_TOL * max(1.0, self._scale(z, omega)),
                             None, 1e-10)

    @staticmethod
    def _omega_prime(state):
        # omega = G(z - sigma^2 omega) gives omega' = G'/d with d = 1 +
        # sigma^2 G', the Newton derivative; G' comes with the state, so
        # this is (d - 1)/(sigma^2 d) without the cancellation in d - 1
        return state[1][2] / state[1][1]

    @staticmethod
    def _g_of(z, state):
        return state[0]

    def _gprime_of(self, z, state):
        return self._omega_prime(state)


class FreeProductResolvent(_PairResolvent):
    """Transform of the free multiplicative convolution of two measures.

    With h_i(w) = w * G_i(w) and k_i(w) = h_i(w) / ((h_i(w) - 1) w),
    t_i(z, w) = z * k_i(w): the product rule with omega_i = lambda_i(h(z))
    gives omega_1 * omega_2 = z * h / (h - 1).  Then G(z) = h_1(omega_1)/z.
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
        super().__init__(HTransform, mu1, mu2)
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 * lo2, hi1 * hi2)
        self.edge_hints = (lo1 * lo2, hi1 * hi2)

    def _seed(self, z):
        return complex(z / self.op2.mean)

    @staticmethod
    def _t(z, w, h, hp):
        d = (h - 1.0) * w
        k = h / d
        return z * k, -z * (hp * w + h * (h - 1.0)) / (d * d), k

    @staticmethod
    def _g_of(z, state):
        return state[1][2][0] / z

    def _gprime_of(self, z, state):
        h, hp = state[1][2]
        return (hp * self._omega_prime(state) * z - h) / (z * z)


# -- public operations ---------------------------------------------------------


def r_transform(mu: SpectralMeasure, w: complex) -> complex:
    """R(w) = G^{-1}(w) - 1/w; additive under free convolution."""
    return RTransform(mu)(w)


def h_function(mu: SpectralMeasure, lam: complex) -> complex:
    """h(lambda) = lambda * G(lambda); multiplicative building block."""
    return HTransform(mu)(lam)


def invert_h(mu: SpectralMeasure, h: complex, seed=None) -> complex:
    """Functional inverse of h_function near its value 1 at infinity."""
    return HTransform(mu).inverse(h, seed)


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


@dataclass(frozen=True)
class ExternalFieldSpec:
    """Fixed source coupled to the random matrix; described by the limiting
    spectral measure of its eigenvalues."""

    measure: SpectralMeasure

    def eigenvalues(self, n: int) -> np.ndarray:
        from .measures import quantiles

        return quantiles(self.measure, n)


def external_field_lambda_gaussian(sigma: float, field: ExternalFieldSpec,
                                   a: float) -> float:
    """Inverse-resolvent value lambda(a) for the invariant Gaussian of scale
    ``sigma`` in the presence of the external field.

    Completing the square in the coupled Gaussian measure shifts each
    diagonal average to sigma^2 * a, so lambda(a) = sigma^2 * a + pv(a)
    where pv is the principal-value transform of the field's measure.
    """
    if sigma < 0:
        raise ValidationError("sigma must be nonnegative")
    return sigma * sigma * a + principal_value_transform(field.measure, a)
