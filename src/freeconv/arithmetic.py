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
stieltjes.damped_newton.  Contour solves sweep left to right at each
imaginary offset as a predictor-corrector continuation: each solve starts
from the quintic Hermite interpolant of its offset's last three solutions
and their z-derivatives, which every solve's state already holds, so
Newton needs about one correction per point.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass

import numpy as np

from .errors import InversionError, PipelineError, ValidationError
from .measures import SpectralMeasure, moment
from .report import CriterionRecord, ReportDocument
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
    """Weights (H_i(x), K_i(x)) of the quintic Hermite interpolant through
    three distinct abscissae: p(x) = sum H_i w_i + K_i w'_i.  With L_i the
    quadratic Lagrange basis on ``past``, H_i = (1 - 2 L_i'(x_i)(x - x_i))
    L_i^2 and K_i = (x - x_i) L_i^2."""
    weights = []
    for i, xi in enumerate(past):
        a, b = past[:i] + past[i + 1:]
        lag = (x - a) * (x - b) / ((xi - a) * (xi - b))
        sq = lag * lag
        d_lag = 1.0 / (xi - a) + 1.0 / (xi - b)
        weights.append(((1.0 - 2.0 * d_lag * (x - xi)) * sq, (x - xi) * sq))
    return weights


class _SweepResolvent(ResolventEvaluator):
    """Shared predictor-corrector sweep for contour-solved transforms.

    Columns are evaluated left to right; within a column the imaginary
    offset descends its ladder.  Along one rung (a fixed offset eps) the
    solved unknown is analytic in x; eps bounds the reach of that
    analyticity only near support edges and atoms.  Each rung keeps the
    unknown and its z-derivative (read from the solve's state, with no
    kernel call) at the last three columns, and the quintic Hermite
    interpolant through them predicts the next column to O(dx^6); Newton
    corrects it in about one step.  Rungs are keyed by the value of eps,
    so ladders of different depth share the offsets they have in common,
    and a rung keeps its history only while consecutive columns carry its
    eps.  The weights use the actual abscissae, so non-uniform columns
    work.  A non-finite or failed prediction retries from the warm seed
    (the previous column's top rung for the top rung, else the rung
    above), then from a cold start that descends vertically from far
    above the support, where the asymptotic seeds are trustworthy.
    ``_solve(z, seed)`` takes a complex seed or None and returns
    ``damped_newton``'s (unknown, f(unknown)); ``_omega_prime(state)`` is
    the unknown's z-derivative.  All state is local to one
    ``sample_columns`` call.
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
            seed = self._solve(complex(z.real, float(eps)), seed)[0]
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

    def sample_columns(self, xs, ladders):
        solve, g_of, slope = self._solve_from, self._g_of, self._omega_prime
        out = []
        past = ()   # abscissae of the last three columns, oldest first
        hist = {}   # eps -> (unknown, its z-derivative) at those columns
        top = None  # the unknown at the previous column's top rung
        for x, lad in zip(xs, ladders):
            x = float(x)
            if x in past:
                # a repeated abscissa would zero a weight's denominator
                past = ()
                hist = {}
            if len(past) == 3:
                (a0, b0), (a1, b1), (a2, b2) = _hermite_weights(past, x)
            lad = np.asarray(lad, dtype=float).tolist()
            col = np.empty(len(lad), dtype=complex)
            carried = {}
            warm = top
            for j, eps in enumerate(lad):
                z = complex(x, eps)
                h = hist.get(eps, ())
                predicted = None
                if len(h) == 3:
                    (w0, d0), (w1, d1), (w2, d2) = h
                    predicted = (a0 * w0 + b0 * d0 + a1 * w1 + b1 * d1
                                 + a2 * w2 + b2 * d2)
                    if not cmath.isfinite(predicted):
                        predicted = None
                state = solve(z, predicted, warm)
                g = g_of(z, state)
                if g.imag > 1e-9 * (1.0 + abs(g)):
                    raise PipelineError(
                        f"{type(self).__name__}: non-Herglotz solution at "
                        f"z = {z!r}", point=z
                    )
                col[j] = g
                warm = state[0]
                carried[eps] = h[-2:] + ((warm, slope(state)),)
                if j == 0:
                    top = warm
            hist = carried
            past = past[-2:] + (x,)
            out.append(col)
        return out

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

    Operand i gives a map t_i(z, w) from one ``vd_scalar`` call at w, and
    omega_1(z) is the fixed point of T = t_2 o t_1.  It is unique in the
    upper half plane (Belinschi and Bercovici 2007), so any root reached
    there is the physical one.  A self-convolution has omega_1 = omega_2
    and solves w = t_1(w).  The state per point is what ``damped_newton``
    returns: (w, (T - w, T_w - 1, f_1, T_z)), with f_1 the first operand's
    (value, derivative) at w.

    Subclasses give ``_t(z, w, f, f') -> (t, t_w, t_z)``, the seed
    ``_seed(z)``, ``_g_of`` and ``_gprime_of``.
    """

    def __init__(self, op1, op2, same):
        self.op1 = op1
        self.op2 = op2
        self._same = same

    def _solve(self, z, seed):
        # The hot path of the sweep: arguments go by position, as keyword
        # passing costs measurably at about 1 us per atom-only kernel call.
        t, same = self._t, self._same
        vd1, vd2 = self.op1.vd_scalar, self.op2.vd_scalar

        def fun(w):
            if not w.imag > 0:
                raise InversionError("trial left the upper half plane")
            f1 = vd1(w)
            w2, d1, z1 = t(z, w, *f1)
            if same:
                return w2 - w, d1 - 1.0, f1, z1
            w1, d2, z2 = t(z, w2, *vd2(w2))
            return w1 - w, d2 * d1 - 1.0, f1, d2 * z1 + z2

        w = self._seed(z) if seed is None else seed
        scale = max(1.0, abs(w))
        return damped_newton(fun, w, 0.0, OUTER_TOL * scale, 1e-9 * scale)

    @staticmethod
    def _omega_prime(state):
        # implicit differentiation of T(w, z) = w: w' = T_z / (1 - T_w)
        return -state[1][3] / state[1][1]


class FreeSumResolvent(_PairResolvent):
    """Transform of the free additive convolution of two measures.

    With F_i = 1/G_i, t_i(z, w) = z + F_i(w) - w, and G(z) = G_1(omega_1).
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        super().__init__(MeasureResolvent(mu1), MeasureResolvent(mu2),
                         _same_measure(mu1, mu2))
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 + lo2, hi1 + hi2)
        self.edge_hints = (lo1 + lo2, hi1 + hi2)
        self.m2 = moment(mu2, 1)
        self.mean = moment(mu1, 1) + self.m2

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
        self.mean = moment(mu, 1)

    def _solve(self, z, seed):
        omega = seed if seed is not None else 1.0 / z
        vd, sigma2 = self.r.vd_scalar, self.sigma2

        def fun(om):
            # The physical root is the one fixed point with z - sigma^2
            # omega in the upper half plane (Biane 1997).
            arg = z - sigma2 * om
            if not arg.imag > 0:
                raise InversionError("trial left the upper half plane")
            g, gp = vd(arg)
            return om - g, 1.0 + sigma2 * gp, gp

        return damped_newton(fun, omega, 0.0, OUTER_TOL * max(1.0, abs(z)),
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
        super().__init__(HTransform(mu1), HTransform(mu2),
                         _same_measure(mu1, mu2))
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 * lo2, hi1 * hi2)
        self.edge_hints = (lo1 * lo2, hi1 * hi2)
        self.mean = self.op1.mean * self.op2.mean

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


def verify_generalized_addition_gaussian(sigma1: float, sigma2: float,
                                         field: ExternalFieldSpec,
                                         probes) -> ReportDocument:
    """Check additivity of lambda(a) - pv(a) for two Gaussians in a common
    external field: lambda_1 + lambda_2 must equal lambda_sum + pv."""
    t0 = time.perf_counter()
    probes = np.asarray(probes, dtype=float)
    sigma_sum = float(np.hypot(sigma1, sigma2))
    residuals = []
    for a in probes:
        l1 = external_field_lambda_gaussian(sigma1, field, a)
        l2 = external_field_lambda_gaussian(sigma2, field, a)
        l12 = external_field_lambda_gaussian(sigma_sum, field, a)
        pv = principal_value_transform(field.measure, a)
        residuals.append(l1 + l2 - l12 - pv)
    worst = float(np.max(np.abs(residuals))) if len(residuals) else 0.0
    crit = CriterionRecord(
        name="external_field_additivity",
        value=worst,
        tolerance=1e-12,
        comparator="<=",
    )
    return ReportDocument(
        experiment_id="generalized_addition_gaussian",
        inputs={
            "sigma1": sigma1,
            "sigma2": sigma2,
            "probes": probes.tolist(),
        },
        metrics={"max_residual": worst,
                 "residuals": [float(r) for r in residuals]},
        criteria=(crit,),
        wall_time_s=time.perf_counter() - t0,
        seed=None,
    )
