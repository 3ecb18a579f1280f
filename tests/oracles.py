"""Brute-force oracles used only by the test suite.

Everything here is deliberately slow and structure-free: explicit set
partition enumeration and dense quadrature, so the production recursions
are checked against genuinely independent computations.
"""

import numpy as np

from freeconv.measures import Segment, _segment_power_integral, moment


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


def cauchy_reference(mu, z, dps=40):
    """G(z) and G'(z) of ``mu`` as a ``dps``-digit sum over its atoms and
    exact linear cells, each cell integrated in closed form.

    Returns (g, gp, g_abs, gp_abs): the last two sum the magnitudes of the
    terms, the scale against which a floating-point sum rounds.
    """
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.mpc(complex(z))
        g = gp = mpmath.mpc(0)
        g_abs = gp_abs = mpmath.mpf(0)
        for a, w in mu.atoms:
            inv = 1 / (z - mpmath.mpf(float(a)))
            term, dterm = w * inv, -w * inv * inv
            g, gp = g + term, gp + dterm
            g_abs, gp_abs = g_abs + abs(term), gp_abs + abs(dterm)
        for s in mu.segments:
            t = [mpmath.mpf(float(v)) for v in s.grid]
            r = [mpmath.mpf(float(v)) for v in s.density]
            for t0, t1, r0, r1 in zip(t[:-1], t[1:], r[:-1], r[1:]):
                h = (t1 - t0) / 2
                w = z - (t0 + t1) / 2
                slope = (r1 - r0) / (t1 - t0)
                lead = (r0 + r1) / 2 + slope * w
                log = mpmath.log((w + h) / (w - h))
                term = lead * log - 2 * slope * h
                dterm = slope * log - lead * 2 * h / ((w - h) * (w + h))
                g, gp = g + term, gp + dterm
                g_abs, gp_abs = g_abs + abs(term), gp_abs + abs(dterm)
        return complex(g), complex(gp), float(g_abs), float(gp_abs)


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker's split)."""
    def split(v):
        c = 134217729.0 * v
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def affine_image_defect(mu, scale, shift, w):
    """How far G and G' of ``affine_map(mu, scale, shift)`` at w lie from
    those of the exact image of ``mu`` (scale > 0), to first order in the
    roundings of its nodes, fl(fl(scale*t) + shift), and of its densities,
    fl(r/scale).

    Each rounding is recovered exactly by an error-free transform, and the
    closed form of ``cauchy_reference`` on each cell is differentiated
    along them; the second-order terms are below 1e-16 of the first.
    """
    dg = dgp = 0j
    for t, wt in mu.atoms:
        p, e = _two_product(np.float64(scale), np.float64(t))
        y = p + shift
        f = (p - (y - (y - p))) + (shift - (y - p))
        inv = 1.0 / (w - y)
        dg, dgp = dg - (f + e) * wt * inv**2, dgp + 2.0 * (f + e) * wt * inv**3
    for s in mu.segments:
        p, e = _two_product(scale, s.grid)
        t = p + shift
        bb = t - p
        dt = -(((p - (t - bb)) + (shift - bb)) + e)
        r = s.density / scale
        pr, er = _two_product(scale, r)
        dr = ((pr - s.density) + er) / scale
        t0, t1, r0, r1 = t[:-1], t[1:], r[:-1], r[1:]
        d0, d1, e0, e1 = dt[:-1], dt[1:], dr[:-1], dr[1:]
        h, dh = (t1 - t0) / 2, (d1 - d0) / 2
        c, dc = w - (t0 + t1) / 2, -(d0 + d1) / 2
        slope = (r1 - r0) / (t1 - t0)
        dslope = ((e1 - e0) - slope * (d1 - d0)) / (t1 - t0)
        lead = (r0 + r1) / 2 + slope * c
        dlead = (e0 + e1) / 2 + dslope * c + slope * dc
        log = np.log((c + h) / (c - h))
        dlog = (dc + dh) / (c + h) - (dc - dh) / (c - h)
        q = (c - h) * (c + h)
        dq = (dc - dh) * (c + h) + (c - h) * (dc + dh)
        dg += np.sum(dlead * log + lead * dlog - 2 * (dslope * h + slope * dh))
        dgp += np.sum(dslope * log + slope * dlog
                      - 2 * (dlead * h + lead * dh) / q
                      + 2 * lead * h * dq / (q * q))
    return complex(dg), complex(dgp)


def block_moments(t0, t1, r0, r1, c, r, count):
    """int rho(t) ((t - c)/r)^k dt, k < count, over linear cells [t0, t1]
    with end densities r0, r1 (arrays), by the two hat functions of each
    cell.

    With y = (t - c)/r, a cell adds dt (r1 A_k + r0 B_k) / ((k+1)(k+2)),
    where A_k = sum_j (j+1) y1^j y0^(k-j) and B_k is A_k with y0 and y1
    swapped.  Where y0 and y1 share a sign every term does too, so the
    moments carry no cancellation.
    """
    y0, y1 = (t0 - c) / r, (t1 - c) / r
    dt = t1 - t0
    mom = np.empty(count)
    p0 = p1 = a = b = np.ones_like(dt)
    for k in range(count):
        if k:
            p0, p1 = p0 * y0, p1 * y1
            a = y0 * a + (k + 1) * p1
            b = y1 * b + (k + 1) * p0
        mom[k] = np.sum((r1 * a + r0 * b) * dt) / ((k + 1) * (k + 2))
    return mom


def absolute_moment(mu, n):
    """Moment of |x|^n; cells straddling zero are split so it stays exact."""
    total = sum(w * abs(x) ** n for x, w in mu.atoms)
    for s in mu.segments:
        grid, dens = s.grid, s.density
        if grid[0] < 0.0 < grid[-1] and 0.0 not in grid:
            k = int(np.searchsorted(grid, 0.0))
            v0 = float(np.interp(0.0, grid, dens))
            grid = np.concatenate([grid[:k], [0.0], grid[k:]])
            dens = np.concatenate([dens[:k], [v0], dens[k:]])
        neg = grid <= 0
        pos = grid >= 0
        if np.sum(neg) >= 2:
            total += (-1) ** n * _segment_power_integral(
                Segment(grid[neg], dens[neg]), n
            )
        if np.sum(pos) >= 2:
            total += _segment_power_integral(Segment(grid[pos], dens[pos]), n)
    return float(total)


def total_mass(mu):
    """Total mass: the atom weights plus the trapezoid mass of each segment."""
    return sum(w for _, w in mu.atoms) + sum(s.mass for s in mu.segments)


def variance(mu):
    m1 = moment(mu, 1)
    return moment(mu, 2) - m1 * m1
