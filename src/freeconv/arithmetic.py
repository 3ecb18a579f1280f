"""Free convolution of spectral measures through functional inverses.

Addition composes inverse resolvents: the centered inverse R(w) =
G^{-1}(w) - 1/w adds under free convolution, so the sum's transform solves
R1(G) + R2(G) + 1/G = z.  Multiplication composes inverses of h(lambda) =
lambda*G(lambda): lambda_out(h) = lambda_1(h) * lambda_2(h) * (h-1)/h.
Deterministic-plus-Gaussian addition closes into the self-consistent
equation omega = G(z - sigma^2 * omega), and the Gaussian external-field
shift sigma^2 * a generalizes the addition law beyond the free case.

Contour solves sweep left to right at each imaginary offset with warm
starts, which keeps every Newton iteration on the physical branch through
multi-cut supports.
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
    default_contour,
    invert_cauchy,
    principal_value_transform,
    stieltjes_invert,
)

INNER_TOL = 1e-13
OUTER_TOL = 1e-12
MAX_ITER = 100
MAX_HALVINGS = 20


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

        # Newton in the centered unknown rho = lambda - 1/w, which stays
        # O(1) as w -> 0 while lambda itself blows up; subtracting 1/w from
        # a converged lambda would lose all digits there.
        def fun(rho):
            g, gp = self.resolvent.vd_scalar(inv_w + rho)
            return g - w, gp

        try:
            rho, _ = _newton_scalar(
                fun, complex(self.mean),
                tol=4e-16 * (1.0 + abs(w)),
                stall_tol=1e-12 * max(1.0, abs(w)),
            )
            return rho
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
        lam = complex(seed) if seed is not None else self.mean / (h - 1.0)
        lam, _ = _newton_scalar(
            lambda x: _shifted(self.vd_scalar(x), h), lam,
            tol=OUTER_TOL * max(1.0, abs(h)),
        )
        return lam


def _shifted(value_and_deriv, target):
    v, d = value_and_deriv
    return v - target, d


def _newton_scalar(fun, x0, tol, stall_tol=None, xspace_tol=None):
    """Damped Newton for a scalar complex equation f(x) = 0.

    ``fun`` returns (residual, derivative).  Returns (root, residual).
    A stall at the floating-point noise floor counts as converged when the
    residual is below ``stall_tol``, or when the Newton correction it
    implies is below ``xspace_tol`` relative to the iterate (the right
    measure when the derivative is huge near poles).
    """
    if stall_tol is None:
        stall_tol = tol
    x = complex(x0)
    res, deriv = fun(x)

    def settled():
        if abs(res) <= stall_tol:
            return True
        return (xspace_tol is not None and deriv != 0
                and abs(res / deriv) <= xspace_tol * max(1.0, abs(x)))

    for _ in range(MAX_ITER):
        if abs(res) <= tol:
            return x, abs(res)
        if deriv == 0 or not cmath.isfinite(deriv):
            raise InversionError("vanishing derivative", last_iterate=x,
                                 residual=abs(res))
        step = -res / deriv
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = x + scale * step
            res_c, deriv_c = fun(cand)
            if abs(res_c) < abs(res):
                x, res, deriv = cand, res_c, deriv_c
                break
            scale *= 0.5
        else:
            if settled():
                return x, abs(res)
            raise InversionError("damping stalled", last_iterate=x,
                                 residual=abs(res))
    if settled():
        return x, abs(res)
    raise InversionError("Newton iteration limit", last_iterate=x,
                         residual=abs(res))


def _invert_warm(resolvent, w, seed, seed_val=None, seed_deriv=None):
    """Solve G(u) = w from a warm seed; returns (u, G(u), G'(u)).

    When the caller already knows (G, G') at the seed from a previous
    solve it passes them along, saving one kernel evaluation per call.
    """
    u = complex(seed)
    if seed_val is None:
        g, gp = resolvent.vd_scalar(u)
    else:
        g, gp = complex(seed_val), complex(seed_deriv)
    res = g - w
    tol = INNER_TOL * max(1.0, abs(w))

    def settled():
        # near a pole the G-space residual floor grows like |G|^2, so
        # judge a stalled iterate by the error it implies in u-space
        return gp != 0 and abs(res / gp) <= 1e-12 * max(1.0, abs(u))

    for _ in range(MAX_ITER):
        if abs(res) <= tol:
            return u, g, gp
        if gp == 0 or not cmath.isfinite(gp):
            raise InversionError("vanishing derivative in inner inversion",
                                 last_iterate=u, residual=abs(res))
        step = -res / gp
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = u + scale * step
            g_c, gp_c = resolvent.vd_scalar(cand)
            if abs(g_c - w) < abs(res):
                u, g, gp, res = cand, g_c, gp_c, g_c - w
                break
            scale *= 0.5
        else:
            if settled():
                return u, g, gp
            raise InversionError("inner damping stalled", last_iterate=u,
                                 residual=abs(res))
    if settled():
        return u, g, gp
    raise InversionError("inner Newton iteration limit", last_iterate=u,
                         residual=abs(res))


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
                            f"contour solve failed at z = {z!r}: {err}",
                            point=z,
                        ) from err
                g = self._g_of(z, state)
                if g.imag > 1e-9 * (1.0 + abs(g)):
                    raise PipelineError(
                        f"non-Herglotz solution at z = {z!r}", point=z
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


class FreeSumResolvent(_SweepResolvent):
    """Transform of the free additive convolution of two measures.

    State per point: (w, (u_i, G_i(u_i), G_i'(u_i))) with G_i(u_i) = w and
    the defining equation u1 + u2 - 1/w = z.  A self-convolution detects
    its identical operands and solves each inner inversion once.
    """

    def __init__(self, mu1: SpectralMeasure, mu2: SpectralMeasure):
        self.r1 = MeasureResolvent(mu1)
        self.r2 = MeasureResolvent(mu2)
        self._same = _same_measure(mu1, mu2)
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 + lo2, hi1 + hi2)
        self.edge_hints = (lo1 + lo2, hi1 + hi2)
        self.m1 = moment(mu1, 1)
        self.m2 = moment(mu2, 1)
        self.mean = self.m1 + self.m2

    def _k_eval(self, z, w, s1, s2):
        s1 = _invert_warm(self.r1, w, *s1)
        s2 = s1 if self._same else _invert_warm(self.r2, w, *s2)
        res = s1[0] + s2[0] - 1.0 / w - z
        deriv = 1.0 / s1[2] + 1.0 / s2[2] + 1.0 / (w * w)
        return res, deriv, s1, s2

    def _solve(self, z, state):
        if state is None:
            w = 1.0 / z
            s1 = (z + self.m1 - self.mean / 2, None, None)
            s2 = (z + self.m2 - self.mean / 2, None, None)
        else:
            w, s1, s2 = state
        tol = OUTER_TOL * max(1.0, abs(z))
        stall_tol = 1e-9 * max(1.0, abs(z))
        try:
            res, deriv, s1, s2 = self._k_eval(z, w, s1, s2)
        except InversionError:
            if state is None:
                raise
            return self._solve(z, None)
        for _ in range(MAX_ITER):
            if abs(res) <= tol:
                return w, s1, s2
            step = -res / deriv
            scale = 1.0
            for _ in range(MAX_HALVINGS):
                w_c = w + scale * step
                scale *= 0.5
                # the physical branch keeps G in the lower half plane
                if w_c == 0 or (z.imag > 0 and w_c.imag >= 0):
                    continue
                try:
                    res_c, deriv_c, s1_c, s2_c = self._k_eval(z, w_c, s1, s2)
                except InversionError:
                    continue  # trial left the image region: shorten the step
                if abs(res_c) < abs(res):
                    w, res, deriv, s1, s2 = w_c, res_c, deriv_c, s1_c, s2_c
                    break
            else:
                if abs(res) <= stall_tol:
                    return w, s1, s2
                raise InversionError("sum solve stalled", last_iterate=w,
                                     residual=abs(res))
        if abs(res) <= stall_tol:
            return w, s1, s2
        raise InversionError("sum solve iteration limit", last_iterate=w,
                             residual=abs(res))

    @staticmethod
    def _g_of(z, state):
        return state[0]

    def _gprime_of(self, z, state):
        w, s1, s2 = state
        kp = 1.0 / s1[2] + 1.0 / s2[2] + 1.0 / (w * w)
        return 1.0 / kp


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
        tol = OUTER_TOL * max(1.0, abs(z))

        def fun(om):
            g, gp = self.r.vd_scalar(z - self.sigma2 * om)
            return om - g, 1.0 + self.sigma2 * gp

        omega, _ = _newton_scalar(fun, omega, tol, xspace_tol=1e-10)
        return omega

    @staticmethod
    def _g_of(z, state):
        return state

    def _gprime_of(self, z, state):
        g, gp = self.r.vd_scalar(z - self.sigma2 * state)
        return gp / (1.0 + self.sigma2 * gp)


class FreeProductResolvent(_SweepResolvent):
    """Transform of the free multiplicative convolution of two measures.

    State per point: (h, l1, l2) with h_i(l_i) = h and the product law
    l1 * l2 * (h-1)/h = z; then G(z) = h/z.
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
        self.h1 = HTransform(mu1)
        self.h2 = HTransform(mu2)
        self._same = _same_measure(mu1, mu2)
        lo1, hi1 = mu1.support()
        lo2, hi2 = mu2.support()
        self.support = (lo1 * lo2, hi1 * hi2)
        self.edge_hints = (lo1 * lo2, hi1 * hi2)
        self.mean = self.h1.mean * self.h2.mean

    def _law_eval(self, z, h_val, s1, s2):
        s1 = _invert_warm_h(self.h1, h_val, *s1)
        s2 = s1 if self._same else _invert_warm_h(self.h2, h_val, *s2)
        a1, a2 = s1[0], s2[0]
        res = a1 * a2 * (h_val - 1.0) / h_val - z
        deriv = ((a2 / s1[2] + a1 / s2[2]) * (h_val - 1.0) / h_val
                 + a1 * a2 / (h_val * h_val))
        return res, deriv, s1, s2

    def _solve(self, z, state):
        if state is None:
            h = 1.0 + self.mean / z
            s1 = (self.h1.mean / (h - 1.0), None, None)
            s2 = (self.h2.mean / (h - 1.0), None, None)
        else:
            h, s1, s2 = state
        tol = OUTER_TOL * max(1.0, abs(z))
        stall_tol = 1e-9 * max(1.0, abs(z))
        try:
            res, deriv, s1, s2 = self._law_eval(z, h, s1, s2)
        except InversionError:
            if state is None:
                raise
            return self._solve(z, None)
        for _ in range(MAX_ITER):
            if abs(res) <= tol:
                return h, s1, s2
            step = -res / deriv
            scale = 1.0
            for _ in range(MAX_HALVINGS):
                h_c = h + scale * step
                scale *= 0.5
                if h_c == 0 or h_c == 1.0:
                    continue
                try:
                    res_c, deriv_c, s1_c, s2_c = self._law_eval(z, h_c, s1, s2)
                except InversionError:
                    continue  # trial left the inverse-h domain
                if abs(res_c) < abs(res):
                    h, res, deriv, s1, s2 = h_c, res_c, deriv_c, s1_c, s2_c
                    break
            else:
                if abs(res) <= stall_tol:
                    return h, s1, s2
                raise InversionError("product solve stalled", last_iterate=h,
                                     residual=abs(res))
        if abs(res) <= stall_tol:
            return h, s1, s2
        raise InversionError("product solve iteration limit",
                             last_iterate=h, residual=abs(res))

    @staticmethod
    def _g_of(z, state):
        return state[0] / z

    def _gprime_of(self, z, state):
        h, s1, s2 = state
        l1, l2 = s1[0], s2[0]
        lam_prime = ((l2 / s1[2] + l1 / s2[2]) * (h - 1.0) / h
                     + l1 * l2 / (h * h))
        dh_dz = 1.0 / lam_prime
        return (dh_dz * z - h) / (z * z)


def _invert_warm_h(ht: HTransform, h, seed, seed_val=None, seed_deriv=None):
    """Solve h(lam) = h from a warm seed; returns (lam, h(lam), h'(lam))."""
    lam = complex(seed)
    if seed_val is None:
        val, deriv = ht.vd_scalar(lam)
    else:
        val, deriv = complex(seed_val), complex(seed_deriv)
    res = val - h
    tol = INNER_TOL * max(1.0, abs(h))

    def settled():
        return deriv != 0 and abs(res / deriv) <= 1e-12 * max(1.0, abs(lam))

    for _ in range(MAX_ITER):
        if abs(res) <= tol:
            return lam, val, deriv
        if deriv == 0 or not cmath.isfinite(deriv):
            raise InversionError("vanishing h-derivative", last_iterate=lam,
                                 residual=abs(res))
        step = -res / deriv
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = lam + scale * step
            val_c, deriv_c = ht.vd_scalar(cand)
            if abs(val_c - h) < abs(res):
                lam, val, deriv, res = cand, val_c, deriv_c, val_c - h
                break
            scale *= 0.5
        else:
            if settled():
                return lam, val, deriv
            raise InversionError("h inversion stalled", last_iterate=lam,
                                 residual=abs(res))
    if settled():
        return lam, val, deriv
    raise InversionError("h inversion iteration limit", last_iterate=lam,
                         residual=abs(res))


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
