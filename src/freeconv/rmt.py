"""Monte Carlo lab: random matrix ensembles and spectral experiments.

Sampling is reproducible and parallel-safe: every random draw comes from a
counter-based Philox generator keyed by (base_seed, purpose, trial), so a
trial's matrices are bit-identical no matter where or in what order trials
execute.  Which streams an experiment draws is part of the package version:
the bits are reproducible per version, not across versions.

The two-operand experiments put their operands in free position with at
most one Haar rotation per trial, and none when either ensemble is
unitarily invariant (GUE, Wishart); a standalone ``fixed_spectrum`` draw
from ``sample_ensemble`` is still Haar-rotated.  Spectra come from
``eigen.hermitian_eigenvalues`` (LAPACK behind a Hermiticity check).

Conventions.  The invariant Gaussian ensemble of scale sigma has real
diagonal entries of variance sigma^2/N and complex off-diagonal entries
with variance sigma^2/(2N) per component, so its spectrum converges to the
radius-2*sigma semicircle.  The sample-covariance ensemble of ratio c is
(1/n) X X^dagger with X of shape (N, n), n = round(N/c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import hermitian_eigenvalues
from .errors import NumericalError, ValidationError
from .measures import (
    Segment,
    SpectralMeasure,
    quantiles,
)

# purpose identifiers for derived random streams
P_ENTRIES_A = 0
P_ROTATE_A = 1
P_ENTRIES_B = 2
P_ROTATE_B = 3
P_MIX = 4

# Ensembles whose law is invariant under every unitary conjugation.
INVARIANT_KINDS = ("gue", "wishart")


def stream(base_seed: int, purpose: int, trial: int) -> np.random.Generator:
    """Philox generator for one (seed, purpose, trial) triple."""
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=(int(purpose), int(trial)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one random-matrix ensemble at fixed dimension.

    ``measure`` is the spectrum of a ``fixed_spectrum`` ensemble and the
    external field of a ``shifted_gue`` one."""

    kind: str
    dimension: int
    base_seed: int
    sigma: float = 1.0
    ratio: float = 1.0
    measure: SpectralMeasure | None = None

    KINDS = ("gue", "fixed_spectrum", "wishart", "shifted_gue")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if self.dimension < 2:
            raise ValidationError("dimension must be at least 2")
        if self.kind in ("gue", "shifted_gue") and self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if self.kind == "wishart" and self.ratio <= 0:
            raise ValidationError("ratio must be positive")

    @classmethod
    def gue(cls, sigma, dimension, base_seed):
        return cls("gue", dimension, base_seed, sigma=float(sigma))

    @classmethod
    def fixed_spectrum(cls, measure, dimension, base_seed):
        return cls("fixed_spectrum", dimension, base_seed, measure=measure)

    @classmethod
    def wishart(cls, ratio, dimension, base_seed):
        return cls("wishart", dimension, base_seed, ratio=float(ratio))

    @classmethod
    def shifted_gue(cls, sigma, field, dimension, base_seed):
        return cls("shifted_gue", dimension, base_seed, sigma=float(sigma),
                   measure=field)


def _gue_matrix(n, sigma, rng):
    diag = rng.standard_normal(n) * (sigma / np.sqrt(n))
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    off = (re + 1j * im) * (sigma / np.sqrt(2.0 * n))
    m = np.triu(off, 1)
    m += m.conj().T
    m[np.diag_indices(n)] = diag
    return m


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase convention that the
    triangular factor has positive real diagonal (raw QR is not Haar)."""
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    a = (rng.standard_normal((n, n))
         + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def _wishart_factor(spec, rng):
    n_cols = int(round(spec.dimension / spec.ratio))
    if n_cols < 1:
        raise ValidationError("ratio too large for this dimension")
    x = (rng.standard_normal((spec.dimension, n_cols))
         + 1j * rng.standard_normal((spec.dimension, n_cols))) / np.sqrt(2.0)
    return x / np.sqrt(n_cols)


def sample_ensemble(spec: EnsembleSpec, trial: int, slot: int = 0) -> np.ndarray:
    """Draw the trial-th matrix of the ensemble; deterministic in
    (base_seed, purpose-derived-from-slot, trial)."""
    p_entries = P_ENTRIES_A if slot == 0 else P_ENTRIES_B
    p_rotate = P_ROTATE_A if slot == 0 else P_ROTATE_B
    n = spec.dimension
    if spec.kind == "gue":
        return _gue_matrix(n, spec.sigma, stream(spec.base_seed, p_entries,
                                                 trial))
    if spec.kind == "shifted_gue":
        m = _gue_matrix(n, spec.sigma, stream(spec.base_seed, p_entries,
                                              trial))
        shifts = spec.sigma ** 2 * quantiles(spec.measure, n)
        m[np.diag_indices(n)] += shifts
        return m
    if spec.kind == "fixed_spectrum":
        t = quantiles(spec.measure, n)
        u = haar_unitary(n, stream(spec.base_seed, p_rotate, trial))
        m = (u * t) @ u.conj().T
        return 0.5 * (m + m.conj().T)
    if spec.kind == "wishart":
        x = _wishart_factor(spec, stream(spec.base_seed, p_entries, trial))
        m = x @ x.conj().T
        return 0.5 * (m + m.conj().T)
    raise ValidationError(f"unknown ensemble kind {spec.kind!r}")


def _mixing_unitary(spec1: EnsembleSpec, spec2: EnsembleSpec,
                    trial: int) -> np.ndarray | None:
    """The one Haar unitary that puts a trial's two operands in free
    position, or None when either ensemble is unitarily invariant.

    Independent draws are free as they stand when one law is invariant
    under every unitary conjugation, and a fixed spectrum may then stay
    diagonal: diag(T) + G has the law of U T U^dagger + Omega G
    Omega^dagger.  Otherwise one rotation of one operand is enough.
    """
    if spec1.kind in INVARIANT_KINDS or spec2.kind in INVARIANT_KINDS:
        return None
    return haar_unitary(spec1.dimension,
                        stream(spec1.base_seed, P_MIX, trial))


def _operand(spec: EnsembleSpec, trial: int, slot: int,
             u: np.ndarray | None) -> np.ndarray:
    """The trial's draw of one operand, conjugated by u unless u is None.

    A fixed spectrum is not Haar-rotated here: u is its only rotation.
    The result is Hermitian up to rounding.
    """
    if spec.kind == "fixed_spectrum":
        t = quantiles(spec.measure, spec.dimension)
        return np.diag(t) if u is None else (u * t) @ u.conj().T
    m = sample_ensemble(spec, trial, slot)
    return m if u is None else u @ m @ u.conj().T


def _psd_factor(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """A factor C with C C^dagger distributed as the (PSD) ensemble up to
    unitary conjugation; diagonal for a fixed spectrum."""
    if spec.kind == "wishart":
        return _wishart_factor(spec, stream(spec.base_seed, P_ENTRIES_A,
                                            trial))
    if spec.kind == "fixed_spectrum":
        t = quantiles(spec.measure, spec.dimension)
        if np.any(t < -1e-12):
            raise ValidationError("factor spectrum must be nonnegative")
        return np.diag(np.sqrt(np.clip(t, 0.0, None)))
    raise ValidationError(
        "left factor must be a positive semidefinite family "
        "(wishart or nonnegative fixed_spectrum)"
    )


# -- empirical spectra ---------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Per-trial sorted eigenvalue arrays, shape (trials, N)."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValidationError("need at least one trial of eigenvalues")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("eigenvalues must be finite")
        if np.any(np.diff(arr, axis=1) < 0):
            raise ValidationError("eigenvalue rows must be sorted ascending")
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def trials(self) -> int:
        return int(self.eigenvalues.shape[0])

    def pooled(self) -> np.ndarray:
        return np.sort(self.eigenvalues.ravel())

    def pooled_moment(self, n: int) -> float:
        return float(np.mean(self.pooled() ** n))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("trial,rank,eigenvalue\n")
            for t, row in enumerate(self.eigenvalues):
                for r, v in enumerate(row):
                    fh.write(f"{t},{r},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "EmpiricalSpectrum":
        rows = {}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "trial,rank,eigenvalue":
                raise ValidationError(f"unexpected spectrum header {header!r}")
            for line in fh:
                t, r, v = line.strip().split(",")
                rows.setdefault(int(t), {})[int(r)] = float(v)
        trials = sorted(rows)
        data = [[rows[t][r] for r in sorted(rows[t])] for t in trials]
        return cls(np.asarray(data))


def mc_free_add_experiment(spec1: EnsembleSpec, spec2: EnsembleSpec,
                           trials: int) -> EmpiricalSpectrum:
    """Spectra of M1 + M2 over independent trials, with the operands put
    in free position by at most one Haar rotation per trial (see
    ``_mixing_unitary``)."""
    if spec1.dimension != spec2.dimension:
        raise ValidationError("operand dimensions differ")
    out = np.empty((trials, spec1.dimension))
    for t in range(trials):
        u = _mixing_unitary(spec1, spec2, t)
        total = _operand(spec1, t, 0, None) + _operand(spec2, t, 1, u)
        out[t] = hermitian_eigenvalues(0.5 * (total + total.conj().T))
    return EmpiricalSpectrum(out)


def mc_free_mul_experiment(spec1: EnsembleSpec, spec2: EnsembleSpec,
                           trials: int) -> EmpiricalSpectrum:
    """Spectra of A^(1/2) U B U^dagger A^(1/2) over independent trials.

    Realized as eig(C^dagger (U B U^dagger) C) for a factor A = C C^dagger,
    which is Hermitian without forming A^(1/2).  U is the identity when
    either ensemble is unitarily invariant and one Haar draw otherwise
    (see ``_mixing_unitary``).  Rank differences against N are padded with
    (or checked as) exact zeros.
    """
    if spec1.dimension != spec2.dimension:
        raise ValidationError("operand dimensions differ")
    n = spec1.dimension
    out = np.empty((trials, n))
    for t in range(trials):
        c = _psd_factor(spec1, t)
        b = _operand(spec2, t, 1, _mixing_unitary(spec1, spec2, t))
        prod = c.conj().T @ b @ c
        lam = hermitian_eigenvalues(0.5 * (prod + prod.conj().T))
        m = lam.size
        if m < n:
            lam = np.sort(np.concatenate([lam, np.zeros(n - m)]))
        elif m > n:
            scale = float(np.max(np.abs(lam))) or 1.0
            drop = np.argsort(np.abs(lam))[:m - n]
            if np.any(np.abs(lam[drop]) > 1e-10 * scale):
                raise NumericalError(
                    "expected structural zeros when trimming the product "
                    "spectrum"
                )
            lam = np.sort(np.delete(lam, drop))
        out[t] = lam
    return EmpiricalSpectrum(out)


def empirical_measure(es: EmpiricalSpectrum, bins: int) -> SpectralMeasure:
    """Pooled histogram as a piecewise-linear density at bin centers.

    Values repeated across trials (structural eigenvalues such as exact
    zeros) become atoms instead of being smeared into a bin.
    """
    if bins < 8:
        raise ValidationError("need at least 8 bins")
    pooled = es.pooled()
    total = pooled.size
    scale = max(1.0, float(np.max(np.abs(pooled))))
    values, counts = np.unique(pooled, return_counts=True)
    atom_cut = max(2 * es.trials, int(0.001 * total) + 1)
    atom_mask = counts >= atom_cut
    atoms = tuple(
        (float(v), c / total) for v, c in zip(values[atom_mask],
                                              counts[atom_mask])
    )
    rest = pooled[~np.isin(pooled, values[atom_mask])]
    if rest.size == 0:
        return SpectralMeasure(atoms=atoms)
    lo, hi = float(rest.min()), float(rest.max())
    if hi - lo < 1e-12 * scale:
        merged = dict(atoms)
        merged[lo] = merged.get(lo, 0.0) + rest.size / total
        return SpectralMeasure(atoms=tuple(merged.items()))
    counts_h, edges = np.histogram(rest, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = counts_h / total / np.diff(edges)
    raw = np.trapezoid(dens, centers)
    target = rest.size / total
    seg = Segment(centers, dens * (target / raw))
    return SpectralMeasure(atoms=atoms, segments=(seg,),
                           renorm=target / raw)
