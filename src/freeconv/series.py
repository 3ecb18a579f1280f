"""Truncated formal power series and the free moment/cumulant calculus.

This module is the package's independent arithmetic route: free addition as
cumulant addition, free multiplication both through the subordination
composition in the h variable and through S-series multiplicativity.  The
transform pipelines are cross-checked against it, never the other way
around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import MomentVector, _readonly


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_K of a power series truncated at order K."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(self.coeffs))
        if self.coeffs.ndim != 1 or self.coeffs.size < 1:
            raise ValidationError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return int(self.coeffs.size - 1)

    def truncated(self, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1)
        k = min(order, self.order) + 1
        c[:k] = self.coeffs[:k]
        return TruncatedSeries(c)


def series_multiply(s: TruncatedSeries, t: TruncatedSeries,
                    order: int | None = None) -> TruncatedSeries:
    if order is None:
        order = min(s.order, t.order)
    full = np.convolve(s.coeffs, t.coeffs)
    out = np.zeros(order + 1)
    k = min(order + 1, full.size)
    out[:k] = full[:k]
    return TruncatedSeries(out)


def series_compose(s: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """s(inner(x)) truncated at min(order); ``inner`` must have zero constant."""
    if inner.coeffs[0] != 0.0:
        raise ValidationError("composition requires inner constant term 0")
    order = min(s.order, inner.order)
    inner = inner.truncated(order)
    acc = np.zeros(order + 1)
    for ck in s.coeffs[order::-1]:  # Horner in the inner series
        acc = np.convolve(acc, inner.coeffs)[:order + 1]
        acc[0] += ck
    return TruncatedSeries(acc)


def series_revert(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse g with s(g(x)) = x + O(x^{K+1}).

    Requires c_0 = 0 and c_1 != 0.  Built order by order: the order-n error
    of the partial inverse is cancelled through the linear coefficient.
    """
    if s.coeffs[0] != 0.0:
        raise ValidationError("reversion requires constant term 0")
    if s.coeffs[1] == 0.0:
        raise ValidationError("reversion requires nonzero linear term")
    K = s.order
    g = np.zeros(K + 1)
    g[1] = 1.0 / s.coeffs[1]
    for n in range(2, K + 1):
        err = series_compose(s.truncated(n), TruncatedSeries(g[:n + 1])).coeffs[n]
        g[n] = -err / s.coeffs[1]
    return TruncatedSeries(g)


# -- free cumulants ----------------------------------------------------------


@dataclass(frozen=True)
class FreeCumulantVector:
    """Free cumulants kappa_1..kappa_K (coefficients of the R series)."""

    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa", _readonly(self.kappa))
        if self.kappa.ndim != 1 or self.kappa.size < 1:
            raise ValidationError("cumulant vector needs order K >= 1")

    @property
    def order(self) -> int:
        return int(self.kappa.size)


def _moment_power_coeff(m_full: np.ndarray, s: int, deg: int) -> float:
    """Coefficient of x^deg in (sum_j m_j x^j)^s, with m_full[0] = 1."""
    acc = np.zeros(deg + 1)
    acc[0] = 1.0
    base = m_full[:deg + 1]
    for _ in range(s):
        acc = np.convolve(acc, base)[:deg + 1]
    return float(acc[deg])


def free_cumulants_to_moments(k: FreeCumulantVector) -> MomentVector:
    """Moments from free cumulants via m_n = sum_s kappa_s [x^{n-s}] M(x)^s."""
    K = k.order
    m_full = np.zeros(K + 1)
    m_full[0] = 1.0
    for n in range(1, K + 1):
        m_full[n] = sum(
            k.kappa[s - 1] * _moment_power_coeff(m_full, s, n - s)
            for s in range(1, n + 1)
        )
    return MomentVector(m_full[1:])


def moments_to_free_cumulants(m: MomentVector) -> FreeCumulantVector:
    """Free cumulants from moments; exact inverse of the recursion above."""
    K = m.order
    m_full = np.concatenate([[1.0], m.m])
    kappa = np.zeros(K)
    for n in range(1, K + 1):
        acc = m_full[n]
        for s in range(1, n):
            acc -= kappa[s - 1] * _moment_power_coeff(m_full, s, n - s)
        kappa[n - 1] = acc
    return FreeCumulantVector(kappa)


def free_add_series(m1: MomentVector, m2: MomentVector) -> MomentVector:
    """Moments of the free additive convolution: cumulant vectors add."""
    if m1.order != m2.order:
        raise ValidationError("moment vectors must have equal order")
    k1 = moments_to_free_cumulants(m1)
    k2 = moments_to_free_cumulants(m2)
    return free_cumulants_to_moments(FreeCumulantVector(k1.kappa + k2.kappa))


# -- S transform and free multiplication -------------------------------------


def _psi_series(m: MomentVector) -> TruncatedSeries:
    return TruncatedSeries(np.concatenate([[0.0], m.m]))


def s_transform_series(m: MomentVector) -> TruncatedSeries:
    """S(z) = chi(z) (1+z)/z with chi the reversion of psi(u) = sum m_n u^n."""
    if m.m[0] == 0.0:
        raise ValidationError("S transform requires a nonzero first moment")
    chi = series_revert(_psi_series(m))
    over_z = TruncatedSeries(chi.coeffs[1:])  # chi(z)/z, order K-1
    one_plus_z = TruncatedSeries(np.array([1.0, 1.0]))
    return series_multiply(over_z, one_plus_z, over_z.order)


def free_multiply_series(m1: MomentVector, m2: MomentVector) -> MomentVector:
    """Moments of the free multiplicative convolution via S = S1*S2."""
    if m1.order != m2.order:
        raise ValidationError("moment vectors must have equal order")
    K = m1.order
    s_out = series_multiply(s_transform_series(m1), s_transform_series(m2),
                            K - 1)
    # chi(z) = z*S(z)/(1+z): divide by (1+z) with the alternating geometric
    # series, then shift up one degree.
    geom = TruncatedSeries((-1.0) ** np.arange(K))
    d = series_multiply(s_out, geom, K - 1)
    chi = TruncatedSeries(np.concatenate([[0.0], d.coeffs]))
    psi = series_revert(chi)
    return MomentVector(psi.coeffs[1:])


def free_multiply_series_h_route(m1: MomentVector,
                                 m2: MomentVector) -> MomentVector:
    """Moments of the product via the inverse-h composition.

    With h(lambda) = lambda*G(lambda) = 1 + psi(1/lambda) and lambda_i(h) =
    1/chi_i(h-1), the product rule lambda(h) = lambda_1(h) lambda_2(h)
    (h-1)/h becomes chi_out(v) = chi_1(v) chi_2(v) (1+v)/v in v = h-1.
    """
    if m1.order != m2.order:
        raise ValidationError("moment vectors must have equal order")
    if m1.m[0] == 0.0 or m2.m[0] == 0.0:
        raise ValidationError("inverse-h route requires nonzero first moments")
    K = m1.order
    chi1 = series_revert(_psi_series(m1))
    chi2 = series_revert(_psi_series(m2))
    prod = series_multiply(chi1, chi2, K + 1)
    if prod.coeffs[0] != 0.0 or prod.coeffs[1] != 0.0:
        raise ValidationError("chi product lost its double zero at the origin")
    over_v = TruncatedSeries(prod.coeffs[1:])  # divide by v
    one_plus_v = TruncatedSeries(np.array([1.0, 1.0]))
    chi_out = series_multiply(over_v, one_plus_v, K)
    psi = series_revert(chi_out)
    return MomentVector(psi.coeffs[1:])
