"""Free convolution of spectral measures through functional inverses.

Addition composes inverse resolvents: the centered inverse R(w) =
G^{-1}(w) - 1/w adds under free convolution, so the sum's transform solves
R1(G) + R2(G) + 1/G = z.  Multiplication composes inverses of h(lambda) =
lambda*G(lambda): lambda_out(h) = lambda_1(h) * lambda_2(h) * (h-1)/h.
Deterministic-plus-Gaussian addition closes into the self-consistent
equation omega = G(z - sigma^2 * omega), and the Gaussian external-field
shift sigma^2 * a generalizes the addition law beyond the free case.

All three are inverse-function solves on one loop, stieltjes.damped_newton.
The sum and the product share one two-operand solve: each outer Newton
trial inverts both operands at the trial value, warm-started from the
last accepted iterate.  Pastur's equation is a single solve.  Contour
solves sweep left to right at each imaginary offset with warm starts,
which keeps every Newton iteration on the physical branch through
multi-cut supports.
"""

from __future__ import annotations

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

INNER_TOL = 1e-13
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

    value_and_derivative = vd_scalar

    def inverse(self, h: complex, seed=None) -> complex:
        if h == 1:
            raise ValidationError(
                "h = 1 is the value of h at infinity, not at a finite point"
            )
        lam = complex(seed if seed is not None else self.mean / (h - 1.0))
        return damped_newton(self.vd_scalar, lam, h,
                             OUTER_TOL * max(1.0, abs(h)))[0]


# -- pipeline evaluators -------------------------------------------------------


class _SweepResolvent(ResolventEvaluator):
    """Shared warm-sweep driver for contour-solved transforms.

    Columns are evaluated left to right; within a column the imaginary
    offset descends its ladder.  The state solved at the top rung of a
    column seeds the next column, so the solver tracks the physical branch
    continuously.  Cold starts descend vertically from far above the
    support, where the asymptotic seeds are trustworthy.  All state is
    local to one ``sample_columns`` call.
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
        state = None
        for eps in path[:-1]:
            state = self._solve(complex(z.real, float(eps)), state)
        return self._solve(z, state)

    def sample_columns(self, xs, ladders):
        out = []
        top_state = None
        for x, lad in zip(xs, ladders):
            col = np.empty(len(lad), dtype=complex)
            state = top_state
            for j, eps in enumerate(np.asarray(lad, dtype=float)):
                z = complex(x, eps)
                try:
                    state = (self._solve(z, state) if state is not None
                             else self._cold_state(z))
                except InversionError:
                    try:
                        state = self._cold_state(z)
                    except InversionError as err:
                        raise PipelineError(
                            f"{type(self).__name__}: contour solve failed "
                            f"at z = {z!r}: {err}",
                            point=z,
                        ) from err
                g = self._g_of(z, state)
                if g.imag > 1e-9 * (1.0 + abs(g)):
                    raise PipelineError(
                        f"{type(self).__name__}: non-Herglotz solution at "
                        f"z = {z!r}", point=z
                    )
                col[j] = g
                if j == 0:
                    top_state = state
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
    """Two operands joined by a composition law in one shared unknown x.

    Each operand is inverted at x: u_i solves f_i(u_i) = x, with f_i the
    operand's ``vd_scalar``.  The law lam(x, u_1, u_2) must equal z.  The
    state per point is what ``damped_newton`` returns for the outer solve,
    (x, (lam, lam', s_1, s_2)), where s_i = (u_i, (f_i(u_i), f_i'(u_i)))
    is what it returns for the inner one.  A self-convolution detects its
    identical operands and solves each inner inversion once.

    Subclasses give the cold seed ``_cold_seed(z) -> (x, u_1, u_2)``, the
    admissibility rule ``_admissible(z, x)`` for trial steps, the law and
    its x-derivative ``_law(x, s_1, s_2) -> (lam, lam')``, and ``_g_of``.
    """

    def __init__(self, op1, op2, same):
        self.op1 = op1
        self.op2 = op2
        self._same = same

    def _law_eval(self, x, s1, s2):
        # The hot path of the sweep: arguments go by position, as keyword
        # passing costs measurably at about 1 us per atom-only kernel call.
        tol = INNER_TOL * max(1.0, abs(x))
        s1 = damped_newton(self.op1.vd_scalar, s1[0], x, tol, None, 1e-12,
                           s1[1])
        s2 = s1 if self._same else damped_newton(
            self.op2.vd_scalar, s2[0], x, tol, None, 1e-12, s2[1])
        value, deriv = self._law(x, s1, s2)
        return value, deriv, s1, s2

    def _solve(self, z, state):
        if state is None:
            x, u1, u2 = self._cold_seed(z)
            s1, s2 = (u1, None), (u2, None)
        else:
            x, (_, _, s1, s2) = state
        try:
            fx = self._law_eval(x, s1, s2)
        except InversionError:
            if state is None:
                raise
            return self._solve(z, None)

        admissible, law_eval = self._admissible, self._law_eval

        def trial(x, s1, s2):
            if not admissible(z, x):
                raise InversionError("trial step left the physical branch")
            return law_eval(x, s1, s2)

        scale = max(1.0, abs(z))
        return damped_newton(trial, x, z, OUTER_TOL * scale, 1e-9 * scale,
                             None, fx)


class FreeSumResolvent(_PairResolvent):
    """Transform of the free additive convolution of two measures.

    The shared unknown is w = G(z): the operands invert their resolvents
    at w and the law is u1 + u2 - 1/w = z.
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        super().__init__(MeasureResolvent(mu1), MeasureResolvent(mu2),
                         _same_measure(mu1, mu2))
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 + lo2, hi1 + hi2)
        self.edge_hints = (lo1 + lo2, hi1 + hi2)
        self.m1 = moment(mu1, 1)
        self.m2 = moment(mu2, 1)
        self.mean = self.m1 + self.m2

    def _cold_seed(self, z):
        return (1.0 / z, complex(z + self.m1 - self.mean / 2),
                complex(z + self.m2 - self.mean / 2))

    @staticmethod
    def _admissible(z, w):
        # the physical branch keeps G in the lower half plane
        return w != 0 and not (z.imag > 0 and w.imag >= 0)

    @staticmethod
    def _law(w, s1, s2):
        return (s1[0] + s2[0] - 1.0 / w,
                1.0 / s1[1][1] + 1.0 / s2[1][1] + 1.0 / (w * w))

    @staticmethod
    def _g_of(z, state):
        return state[0]

    @staticmethod
    def _gprime_of(z, state):
        return 1.0 / state[1][1]


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

    def _solve(self, z, state):
        omega = state if state is not None else 1.0 / z
        vd, sigma2 = self.r.vd_scalar, self.sigma2

        def fun(om):
            g, gp = vd(z - sigma2 * om)
            return om - g, 1.0 + sigma2 * gp

        return damped_newton(fun, omega, 0.0, OUTER_TOL * max(1.0, abs(z)),
                             None, 1e-10)[0]

    @staticmethod
    def _g_of(z, state):
        return state

    def _gprime_of(self, z, state):
        g, gp = self.r.vd_scalar(z - self.sigma2 * state)
        return gp / (1.0 + self.sigma2 * gp)


class FreeProductResolvent(_PairResolvent):
    """Transform of the free multiplicative convolution of two measures.

    The shared unknown is h = z * G(z): the operands invert their h
    functions at h and the law is l1 * l2 * (h-1)/h = z; then G(z) = h/z.
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        for mu in (mu1, mu2):
            if mu.support()[0] < -1e-12:
                raise ValidationError(
                    "free multiplication requires supports in [0, inf)"
                )
        zero_w = []
        for mu in (mu1, mu2):
            w = sum(wt for pos, wt in mu.atoms if pos == 0.0)
            zero_w.append(w)
        if min(zero_w) > 1.0 - 1e-6:
            raise ValidationError(
                "at least one factor must put mass away from zero"
            )
        super().__init__(HTransform(mu1), HTransform(mu2),
                         _same_measure(mu1, mu2))
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 * lo2, hi1 * hi2)
        self.edge_hints = (lo1 * lo2, hi1 * hi2)
        self.mean = self.op1.mean * self.op2.mean

    def _cold_seed(self, z):
        h = 1.0 + self.mean / z
        return (h, complex(self.op1.mean / (h - 1.0)),
                complex(self.op2.mean / (h - 1.0)))

    @staticmethod
    def _admissible(z, h):
        return h != 0 and h != 1.0

    @staticmethod
    def _law(h, s1, s2):
        l1, l2 = s1[0], s2[0]
        return (l1 * l2 * (h - 1.0) / h,
                (l2 / s1[1][1] + l1 / s2[1][1]) * (h - 1.0) / h
                + l1 * l2 / (h * h))

    @staticmethod
    def _g_of(z, state):
        return state[0] / z

    @staticmethod
    def _gprime_of(z, state):
        h = state[0]
        dh_dz = 1.0 / state[1][1]
        return (dh_dz * z - h) / (z * z)


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
