"""Hermitian eigenvalues.

``hermitian_eigenvalues`` is the solver the Monte Carlo lab uses: a
Hermiticity and finiteness check, then LAPACK through
``np.linalg.eigvalsh``.  LAPACK reads one triangle only, so the check is
the only thing that rejects a matrix that is not Hermitian.

``householder_tridiagonalize`` and ``tridiagonal_eigenvalues`` form an
independent reference solver that the tests check LAPACK against.
Eigenvalues only; no eigenvectors are accumulated.  A complex Hermitian
matrix reduces to a real symmetric tridiagonal one (the complex
off-diagonal phases are removed by a diagonal unitary similarity), and the
tridiagonal spectrum comes from implicitly shifted QL sweeps with
machine-epsilon deflation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError

HERMITICITY_TOL = 1e-12
CHECK_BLOCK_ROWS = 64
MAX_QL_SWEEPS = 50


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` if it is square, finite and Hermitian to within
    ``HERMITICITY_TOL`` of its largest entry (at least 1), else a
    ValidationError.

    The check runs over blocks of ``CHECK_BLOCK_ROWS`` rows, each against
    the conjugate of the matching column block, so its temporaries are
    a block in size, not the size of the matrix.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    starts = range(0, m.shape[0], CHECK_BLOCK_ROWS)
    largest = float(np.max([np.max(np.abs(m[i:i + CHECK_BLOCK_ROWS]))
                            for i in starts], initial=0.0))
    if not math.isfinite(largest):
        raise ValidationError("matrix has non-finite entries")
    limit = HERMITICITY_TOL * max(1.0, largest)
    for i in starts:
        rows = m[i:i + CHECK_BLOCK_ROWS]
        cols = m[:, i:i + CHECK_BLOCK_ROWS]
        if float(np.max(np.abs(rows - cols.conj().T))) > limit:
            raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def householder_tridiagonalize(m: np.ndarray):
    """Reduce a Hermitian matrix to real tridiagonal form (d, e).

    Returns the diagonal ``d`` and the nonnegative subdiagonal ``e``
    (length n-1) of a unitarily similar real symmetric tridiagonal matrix.
    """
    a = np.array(m, dtype=complex, copy=True)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.empty(0)
    for k in range(n - 2):
        x = a[k + 1:, k]
        norm_x = math.sqrt(float(np.vdot(x, x).real))
        if norm_x == 0.0:
            continue
        x0 = x[0]
        phase = x0 / abs(x0) if x0 != 0 else 1.0
        alpha = -phase * norm_x
        v = x.copy()
        v[0] -= alpha
        vnorm = math.sqrt(float(np.vdot(v, v).real))
        if vnorm < 1e-300:
            continue
        v /= vnorm
        sub = a[k + 1:, k + 1:]
        w = sub @ v
        kappa = float(np.vdot(v, w).real)
        u = w - kappa * v
        # rank-2 update v u^H + u v^H as one GEMM: much faster than outer()
        left = np.column_stack((v, u))
        right = np.vstack((u.conj(), v.conj()))
        sub -= 2.0 * (left @ right)
        a[k + 1, k] = alpha
        a[k + 2:, k] = 0.0
    d = np.real(np.diagonal(a)).copy()
    e = np.abs(np.diagonal(a, -1)).astype(float)
    return d, e


def tridiagonal_eigenvalues(d, e):
    """Eigenvalues of a real symmetric tridiagonal matrix, ascending.

    Implicit QL with Wilkinson-style shifts; a row deflates when its
    coupling is at the machine-epsilon scale of the whole matrix, as in
    EISPACK's tql1.  A test against the two neighboring diagonal entries
    alone never passes in a block of rounding-level entries, such as the
    null space of a rank-deficient matrix.  More than 50 sweeps for one
    eigenvalue raises a numeric error.
    """
    n = len(d)
    dv = [float(x) for x in d]
    ev = [float(x) for x in e] + [0.0]
    eps = np.finfo(float).eps
    tol = eps * max((abs(a) + abs(b) for a, b in zip(dv, ev)), default=0.0)
    for l in range(n):
        sweeps = 0
        while True:
            for m in range(l, n - 1):
                if abs(ev[m]) <= tol:
                    break
            else:
                m = n - 1
            if m == l:
                break
            sweeps += 1
            if sweeps > MAX_QL_SWEEPS:
                raise NumericalError(
                    f"QL failed to converge for eigenvalue {l} after "
                    f"{MAX_QL_SWEEPS} sweeps"
                )
            g = (dv[l + 1] - dv[l]) / (2.0 * ev[l])
            r = math.hypot(g, 1.0)
            g = dv[m] - dv[l] + ev[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * ev[i]
                b = c * ev[i]
                r = math.hypot(f, g)
                ev[i + 1] = r
                if r == 0.0:
                    dv[i + 1] -= p
                    ev[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = dv[i + 1] - p
                r = (dv[i] - g) * s + 2.0 * c * b
                p = s * r
                dv[i + 1] = g + p
                g = c * r - b
            if not underflow:
                dv[l] -= p
                ev[l] = g
                ev[m] = 0.0
    return np.sort(np.asarray(dv))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Full spectrum of a Hermitian matrix, sorted ascending.

    Raises ``ValidationError`` for a matrix that is not square, not
    Hermitian or not finite, and ``NumericalError`` when LAPACK does not
    converge.
    """
    m = check_hermitian(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigvalsh failed: {exc}") from exc
