"""Correctness checks and output digests, run outside the timed region.

Pipeline outputs are compared with the power-series oracle on moments up
to order 8, with criterion 9's tolerances (1e-3 relative, 1e-2 when an
operand has atoms or a singular edge) and criterion 9's moment scales, so
the benchmark and the acceptance suite share one moment-error metric.
Monte Carlo outputs are compared on pooled moments 1-4 at the acceptance
suite's Monte Carlo tolerance (5 %, criterion 4).
"""

from __future__ import annotations

import hashlib
from math import comb

import numpy as np

import freeconv.series as series
from freeconv.acceptance import _moment_scales
from freeconv.measures import MomentVector, SpectralMeasure

ORDER = 8
MC_ORDER = 4
MC_TOL = 0.05


def _tolerance(singular):
    return 1e-2 if singular else 1e-3


def _scaled_error(got, expected):
    return float(np.max(np.abs(got - expected) / _moment_scales(expected)))


def _pipeline_error(out, expected, singular):
    got = MomentVector.from_measure(out, ORDER).m
    return _scaled_error(got, expected.m) / _tolerance(singular)


def measure_moments(mu, order=ORDER):
    return MomentVector.from_measure(mu, order)


def semicircle_moments(sigma, order=ORDER):
    """Exact moments of the radius-2*sigma semicircle (Catalan numbers)."""
    m = [0.0 if n % 2 else comb(n, n // 2) / (n // 2 + 1) * sigma ** n
         for n in range(1, order + 1)]
    return MomentVector(np.array(m))


def mp_moments(ratio, order=ORDER):
    """Exact Marchenko-Pastur moments (Narayana polynomials)."""
    m = [sum(comb(n, k) * comb(n, k - 1) / n * ratio ** (k - 1)
             for k in range(1, n + 1)) for n in range(1, order + 1)]
    return MomentVector(np.array(m))


def add_error(out, mu1, mu2, singular):
    expected = series.free_add_series(measure_moments(mu1),
                                      measure_moments(mu2))
    return _pipeline_error(out, expected, singular)


def mul_error(out, mu1, mu2, singular):
    expected = series.free_multiply_series(measure_moments(mu1),
                                           measure_moments(mu2))
    return _pipeline_error(out, expected, singular)


def pastur_error(out, mu, sigma, singular):
    expected = series.free_add_series(measure_moments(mu),
                                      semicircle_moments(sigma))
    return _pipeline_error(out, expected, singular)


def _pooled_error(values, expected):
    values = np.asarray(values, dtype=float).ravel()
    got = np.array([np.mean(values ** n) for n in range(1, MC_ORDER + 1)])
    return _scaled_error(got, expected.m[:MC_ORDER]) / MC_TOL


def _truncate(m):
    return MomentVector(m.m[:MC_ORDER])


def mc_add_error(es, m1, m2):
    expected = series.free_add_series(_truncate(m1), _truncate(m2))
    return _pooled_error(es.eigenvalues, expected)


def mc_mul_error(es, m1, m2):
    expected = series.free_multiply_series(_truncate(m1), _truncate(m2))
    return _pooled_error(es.eigenvalues, expected)


def mc_spectrum_error(eigenvalues, m):
    return _pooled_error(eigenvalues, _truncate(m))


def digest(out):
    """SHA-256 of an op's output: atoms plus segment arrays for a measure,
    the eigenvalue rows for a spectrum."""
    h = hashlib.sha256()
    if isinstance(out, SpectralMeasure):
        h.update(np.asarray(out.atoms, dtype=float).tobytes())
        for seg in out.segments:
            h.update(seg.grid.tobytes())
            h.update(seg.density.tobytes())
    else:
        eig = getattr(out, "eigenvalues", out)
        h.update(np.ascontiguousarray(eig, dtype=float).tobytes())
    return h.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()
