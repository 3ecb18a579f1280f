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

A sum adds an unrotated fixed spectrum onto the other operand's diagonal.
Unrotated operands are exactly Hermitian, and so is their sum; only a sum
with a rotated operand is symmetrized.  A product takes its spectrum from
a Gram matrix when both operands have a factor (a Wishart draw X, or the
square root of a nonnegative fixed spectrum, kept as a vector): the
product with A = C C^dagger and B = F F^dagger has the nonzero spectrum
of Y^dagger Y for Y = F^dagger U^dagger C, which is formed on Y's smaller
side.  A right operand with no factor, such as a GUE, gives C^dagger
(U B U^dagger) C.

Reduced forms.  When both operands are unitarily invariant, the first is
drawn in its reduced form (Dumitriu and Edelman, "Matrix models for beta
ensembles", J. Math. Phys. 43 (2002)) and the second stays dense.  A
Wishart draw is X = U B V^dagger with B real upper bidiagonal, of
diagonal chi_{2(N-i)}/sqrt(2n) and superdiagonal chi_{2(n-1-i)}/sqrt(2n)
for i = 0, 1, ..., all independent; a GUE draw is H = Q T Q^dagger with
T real symmetric tridiagonal, of diagonal N(0, sigma^2/N) and
off-diagonal sigma chi_{2(N-1-i)}/sqrt(2N).  U and Q can be taken Haar
and independent of B and T.  The other operand M is invariant and
independent, so it absorbs them, and the experiments are exact in law:
spec(C^dagger M C) has the law of spec(B^T M B), and spec(H + M) that of
spec(T + M).  A product then forms F^dagger B in O(N n) time, and a sum
adds T (for a Wishart, B B^T) onto M's three central diagonals, where
the sum stays exactly Hermitian.  With it the bytes of the spectra of
every invariant pair changed.

Conventions.  The invariant Gaussian ensemble of scale sigma has real
diagonal entries of variance sigma^2/N and complex off-diagonal entries
with variance sigma^2/(2N) per component, so its spectrum converges to the
radius-2*sigma semicircle.  One N x N real normal draw r gives the whole
matrix: H_ij = (r_ij + i r_ji) sigma/sqrt(2N) for i < j and H_ii = r_ii
sigma/sqrt(N).  The construction before it drew 2N^2 + N normals, so with
it the bytes of ``gue`` and ``shifted_gue`` samples, and of the spectra
sampled from them, changed.  The sample-covariance ensemble of ratio c is
(1/n) X X^dagger with X of shape (N, n), n = round(N/c).  A ``wishart``
sample forms X X^dagger exactly Hermitian, from a real rank-k update and
one real product; before, it symmetrized a complex product, so the bytes
of ``wishart`` samples, and of the sums that hold one, changed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .eigen import hermitian_eigenvalues
from .errors import NumericalError, ValidationError
from .measures import CONTOUR_LIMIT, SpectralMeasure, quantiles

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


def _integer(value, name, least, most=None):
    """``value`` as an int if it is an integer (not a bool) of at least
    ``least`` and, given ``most``, at most ``most``, else a
    ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        upto = "" if most is None else f" and at most {most}"
        raise ValidationError(f"{name} must be an integer of at least "
                              f"{least}{upto}, not {value!r}")
    return int(value)


def _finite_real(value, name):
    """``value`` as a float if it is a real within ±CONTOUR_LIMIT (not a
    bool), else a ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= CONTOUR_LIMIT):
        raise ValidationError(f"{name} must be a finite number within "
                              f"±{CONTOUR_LIMIT:g}, not {value!r}")
    return float(value)


def _positive_real(value, name):
    """``value`` as a float if it is a finite positive real (not a bool),
    else a ValidationError."""
    if _finite_real(value, name) <= 0:
        raise ValidationError(f"{name} must be positive, not {value!r}")
    return float(value)


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
        for name, least in (("dimension", 2), ("base_seed", 0)):
            object.__setattr__(self, name,
                               _integer(getattr(self, name), name, least))
        for name in ("sigma", "ratio"):
            object.__setattr__(self, name,
                               _positive_real(getattr(self, name), name))

    @classmethod
    def gue(cls, sigma, dimension, base_seed):
        return cls("gue", dimension, base_seed, sigma=sigma)

    @classmethod
    def fixed_spectrum(cls, measure, dimension, base_seed):
        return cls("fixed_spectrum", dimension, base_seed, measure=measure)

    @classmethod
    def wishart(cls, ratio, dimension, base_seed):
        return cls("wishart", dimension, base_seed, ratio=ratio)

    @classmethod
    def shifted_gue(cls, sigma, field, dimension, base_seed):
        return cls("shifted_gue", dimension, base_seed, sigma=sigma,
                   measure=field)


def _gue_matrix(n, sigma, rng):
    """The one-draw GUE of the module docstring; the lower triangle is the
    conjugate of the upper, so the matrix is exactly Hermitian."""
    r = rng.standard_normal((n, n))
    diag = np.diagonal(r) * (sigma / np.sqrt(n))
    r *= sigma / np.sqrt(2.0 * n)
    lower = np.tri(n, k=-1, dtype=bool)
    m = np.empty((n, n), dtype=complex)
    np.copyto(m.real, r)
    np.copyto(m.real, r.T, where=lower)
    np.copyto(m.imag, r.T)
    np.negative(r, out=m.imag, where=lower)
    np.fill_diagonal(m, diag)
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


def _entries(spec: EnsembleSpec, trial: int, slot: int) -> np.random.Generator:
    """The stream of the entries of the ensemble's draw in this slot."""
    return stream(spec.base_seed, P_ENTRIES_A if slot == 0 else P_ENTRIES_B,
                  trial)


def sample_ensemble(spec: EnsembleSpec, trial: int, slot: int = 0) -> np.ndarray:
    """Draw the trial-th matrix of the ensemble; deterministic in
    (base_seed, purpose-derived-from-slot, trial)."""
    n = spec.dimension
    if spec.kind == "gue":
        return _gue_matrix(n, spec.sigma, _entries(spec, trial, slot))
    if spec.kind == "shifted_gue":
        m = _gue_matrix(n, spec.sigma, _entries(spec, trial, slot))
        shifts = spec.sigma ** 2 * quantiles(spec.measure, n)
        m[np.diag_indices(n)] += shifts
        return m
    if spec.kind == "fixed_spectrum":
        t = quantiles(spec.measure, n)
        u = haar_unitary(n, stream(spec.base_seed,
                                   P_ROTATE_A if slot == 0 else P_ROTATE_B,
                                   trial))
        m = (u * t) @ u.conj().T
        return 0.5 * (m + m.conj().T)
    if spec.kind == "wishart":
        # X X^dagger is Z^dagger Z for Z = X^dagger
        return _gram_of(_factor(spec, trial, slot).conj().T)
    raise ValidationError(f"unknown ensemble kind {spec.kind!r}")


def _both_invariant(spec1: EnsembleSpec, spec2: EnsembleSpec) -> bool:
    """Whether the first operand may be drawn in its reduced form."""
    return spec1.kind in INVARIANT_KINDS and spec2.kind in INVARIANT_KINDS


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

    A fixed spectrum is not Haar-rotated here: u is its only rotation, and
    unrotated it is the 1-D array of its diagonal.  Without u the result
    is exactly Hermitian; with u, Hermitian up to rounding.
    """
    if spec.kind == "fixed_spectrum":
        t = quantiles(spec.measure, spec.dimension)
        return t if u is None else (u * t) @ u.conj().T
    m = sample_ensemble(spec, trial, slot)
    return m if u is None else u @ m @ u.conj().T


def _factor(spec: EnsembleSpec, trial: int, slot: int,
            reduced: bool = False):
    """A factor F with F F^dagger distributed as the ensemble up to unitary
    conjugation: the N x n draw of a Wishart ensemble (the stream
    ``sample_ensemble`` uses in this slot), or, ``reduced``, the pair of its
    bidiagonal form from the same stream (see ``_bidiagonal``); or the 1-D
    array of the diagonal factor of a nonnegative fixed spectrum.  None for
    an ensemble with no such factor."""
    if spec.kind == "wishart":
        n_cols = int(round(spec.dimension / spec.ratio))
        if n_cols < 1:
            raise ValidationError("ratio too large for this dimension")
        rng = _entries(spec, trial, slot)
        if reduced:
            return _bidiagonal(spec.dimension, n_cols, rng)
        # filled in place: the bits of (re + i im) / sqrt(2) / sqrt(n_cols)
        # without complex temporaries
        shape = (spec.dimension, n_cols)
        x = np.empty(shape, dtype=complex)
        scale = 1.0 / np.sqrt(2.0)
        np.multiply(rng.standard_normal(shape), scale, out=x.real)
        np.multiply(rng.standard_normal(shape), scale, out=x.imag)
        x *= 1.0 / np.sqrt(n_cols)
        return x
    if spec.kind == "fixed_spectrum":
        t = quantiles(spec.measure, spec.dimension)
        if np.all(t >= -1e-12):
            return np.sqrt(np.clip(t, 0.0, None))
    return None


def _bidiagonal(n: int, n_cols: int, rng: np.random.Generator):
    """The pair (d, e) of the real upper-bidiagonal B with X = U B V^dagger
    for the N x n Wishart factor X of the module docstring: d_i =
    chi_{2(N-i)}/sqrt(2n) for i < min(N, n) and e_i = chi_{2(n-1-i)}/sqrt(2n)
    for i < min(N, n-1).  B has len(d) rows, and len(d) + 1 columns when e
    is as long as d; a chi_{2m}/sqrt(2) variate is the square root of a
    Gamma(m) one."""
    rows = min(n, n_cols)
    d = np.sqrt(rng.standard_gamma(np.arange(n, n - rows, -1)) / n_cols)
    sup = min(n, n_cols - 1)
    e = np.sqrt(rng.standard_gamma(np.arange(n_cols - 1, n_cols - 1 - sup,
                                             -1)) / n_cols)
    return d, e


def _tridiagonal(spec: EnsembleSpec, trial: int, slot: int):
    """The (diagonal, off-diagonal) pair of the real symmetric tridiagonal
    reduced form of an invariant ensemble, from its entries' stream: T for
    a GUE, B B^T for a Wishart (see the module docstring).  It has fewer
    than N rows when a Wishart has rank below N; the rest is zero."""
    if spec.kind == "gue":
        n = spec.dimension
        rng = _entries(spec, trial, slot)
        scale = spec.sigma / np.sqrt(n)
        diag = rng.standard_normal(n) * scale
        off = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1))) * scale
        return diag, off
    d, e = _factor(spec, trial, slot, reduced=True)
    diag = d * d
    diag[:e.size] += e * e
    return diag, e[:d.size - 1] * d[1:]


def _add_onto(m: np.ndarray, band) -> None:
    """m += band in place, where band is a 1-D diagonal or a (diagonal,
    off-diagonal) tridiagonal pair over m's leading rows.  Real entries
    added to both triangles keep an exactly Hermitian m exactly
    Hermitian."""
    diag, off = band if isinstance(band, tuple) else (band, None)
    i = np.arange(diag.size)
    m[i, i] += diag
    if off is not None:
        j = i[:off.size]
        m[j, j + 1] += off
        m[j + 1, j] += off


def _is_matrix(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 2


def _adjoint_times(a, b) -> np.ndarray:
    """a^dagger b, where a 1-D array stands for the real diagonal matrix of
    its entries and a bidiagonal pair (d, e) for the N-row matrix whose
    leading rows are the B of ``_bidiagonal``, the rest zero; at most one
    of a and b is not a dense matrix."""
    if isinstance(a, tuple):
        d, e = a
        k = d.size
        out = np.zeros((k + (e.size == k), b.shape[1]), dtype=complex)
        out[:k] = d[:, None] * b[:k]
        out[1:e.size + 1] += e[:, None] * b[:e.size]
        return out
    if isinstance(b, tuple):
        return _adjoint_times(b, a).conj().T
    if a.ndim == 1:
        return a[:, None] * b
    if b.ndim == 1:
        return a.conj().T * b
    return a.conj().T @ b


def _gram(y: np.ndarray) -> np.ndarray:
    """An exactly Hermitian matrix with the nonzero spectrum of Y^dagger Y,
    on Y's smaller side: ``_gram_of`` the taller of Y and Y^T (for Y^T,
    the conjugate of Y Y^dagger)."""
    return _gram_of(y if y.shape[1] <= y.shape[0] else y.T)


def _gram_of(z: np.ndarray) -> np.ndarray:
    """Z^dagger Z, exactly Hermitian.

    With Z = A + iB it is A^T A + B^T B + i (A^T B - B^T A).  numpy forms
    the real part, a matrix times its own transpose, as one symmetric
    rank-k update of the stacked [A; B]; with the one real product A^T B
    that is half the work of a complex matrix product.
    """
    k = z.shape[0]
    ab = np.concatenate([z.real, z.imag])
    g = np.empty((z.shape[1], z.shape[1]), dtype=complex)
    g.real = ab.T @ ab
    cross = ab[:k].T @ ab[k:]
    g.imag = cross - cross.T
    return g


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
    ``_mixing_unitary``).

    An unrotated fixed spectrum is added onto the other operand's
    diagonal, and when both ensembles are invariant, M1's tridiagonal
    reduced form onto M2's three central diagonals (see the module
    docstring).  Unrotated operands are exactly Hermitian and so is their
    sum; only a rotated sum is symmetrized before the eigensolve.
    """
    if spec1.dimension != spec2.dimension:
        raise ValidationError("operand dimensions differ")
    trials = _integer(trials, "trials", 1)
    reduced = _both_invariant(spec1, spec2)
    out = np.empty((trials, spec1.dimension))
    for t in range(trials):
        u = _mixing_unitary(spec1, spec2, t)
        total = (_tridiagonal(spec1, t, 0) if reduced
                 else _operand(spec1, t, 0, None))
        other = _operand(spec2, t, 1, u)
        if not _is_matrix(total):
            total, other = other, total
        if _is_matrix(other):
            total += other
        else:
            _add_onto(total, other)
        if u is not None:
            total = 0.5 * (total + total.conj().T)
        out[t] = hermitian_eigenvalues(total)
    return EmpiricalSpectrum(out)


def mc_free_mul_experiment(spec1: EnsembleSpec, spec2: EnsembleSpec,
                           trials: int) -> EmpiricalSpectrum:
    """Spectra of A^(1/2) U B U^dagger A^(1/2) over independent trials.

    Realized from the left operand's factor A = C C^dagger, as the module
    docstring says: from the Gram matrix of F^dagger U^dagger C when
    B = F F^dagger has a factor too, else from C^dagger (U B U^dagger) C.
    When both ensembles are invariant, C is the bidiagonal reduced form of
    the left Wishart draw.  U is the identity when either ensemble is
    unitarily invariant and one Haar draw otherwise (see
    ``_mixing_unitary``).  Rank differences against N are padded with (or
    checked as) exact zeros.
    """
    if spec1.dimension != spec2.dimension:
        raise ValidationError("operand dimensions differ")
    trials = _integer(trials, "trials", 1)
    reduced = _both_invariant(spec1, spec2)
    n = spec1.dimension
    out = np.empty((trials, n))
    for t in range(trials):
        c = _factor(spec1, t, 0, reduced)
        if c is None:
            raise ValidationError(
                "left factor must be a positive semidefinite family "
                "(wishart or nonnegative fixed_spectrum)"
            )
        u = _mixing_unitary(spec1, spec2, t)
        f = _factor(spec2, t, 1)
        if f is not None:
            prod = _gram(_adjoint_times(
                f, c if u is None else _adjoint_times(u, c)))
        else:
            # B is Hermitian, so B^dagger C is B C
            b = _operand(spec2, t, 1, u)
            prod = _adjoint_times(c, _adjoint_times(b, c))
            prod = 0.5 * (prod + prod.conj().T)
        lam = hermitian_eigenvalues(prod)
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
