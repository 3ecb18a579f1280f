"""Brute-force oracles used only by the test suite.

Everything here is deliberately slow and structure-free: explicit set
partition enumeration and dense quadrature, so the production recursions
are checked against genuinely independent computations.
"""

import numpy as np


def set_partitions(n):
    """All set partitions of {0..n-1} as lists of sorted blocks."""
    if n == 0:
        yield []
        return
    for part in set_partitions(n - 1):
        last = n - 1
        for i in range(len(part)):
            yield part[:i] + [part[i] + [last]] + part[i + 1:]
        yield part + [[last]]


def is_non_crossing(part):
    """True when no two blocks cross, i.e. interleave as a < b < c < d."""
    for i, bi in enumerate(part):
        for bj in part[i + 1:]:
            for a in bi:
                for c in bi:
                    if a >= c:
                        continue
                    for b in bj:
                        for d in bj:
                            if b >= d:
                                continue
                            if a < b < c < d or b < a < d < c:
                                return False
    return True


def nc_moment_from_cumulants(kappa, n):
    """m_n = sum over non-crossing partitions of prod kappa_{|block|}."""
    assert n <= 10, "enumeration oracle capped at n = 10"
    total = 0.0
    for part in set_partitions(n):
        if is_non_crossing(part):
            prod = 1.0
            for block in part:
                prod *= kappa[len(block) - 1]
            total += prod
    return total


def nc_cumulant_count(n):
    """Number of non-crossing partitions of [n] (Catalan check)."""
    return sum(1 for p in set_partitions(n) if is_non_crossing(p))


def quadrature_moment(density, lo, hi, n, points=200001):
    """Dense-trapezoid moment of an analytic density on [lo, hi]."""
    x = np.linspace(lo, hi, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = density(x)
    y = np.where(np.isfinite(y), y, 0.0)
    return float(np.trapezoid(x**n * y, x))


def brute_compose(outer, inner, order):
    """Coefficients of outer(inner(x)) by direct polynomial powers."""
    acc = np.zeros(order + 1)
    power = np.zeros(order + 1)
    power[0] = 1.0
    for c in outer:
        acc[:order + 1] += c * power[:order + 1]
        power = np.convolve(power, inner)[:order + 1]
    return acc


def semicircle_g(z, sigma=1.0):
    """Closed-form Cauchy transform of the semicircle law of radius
    2 * sigma, on the branch that decays like 1/z at infinity."""
    root = np.sqrt(z * z - 4 * sigma**2)
    if (z.imag > 0 and root.imag < 0) or (z.imag < 0 and root.imag > 0):
        root = -root
    if z.imag == 0 and z.real * root.real < 0:
        root = -root
    return (z - root) / (2 * sigma**2)
