import numpy as np
import pytest
from hypothesis import given, strategies as st

from freeconv.eigen import (
    CHECK_BLOCK_ROWS,
    HERMITICITY_TOL,
    check_hermitian,
    hermitian_eigenvalues,
    householder_tridiagonalize,
    tridiagonal_eigenvalues,
)
from freeconv.errors import NumericalError, ValidationError
from freeconv.rmt import haar_unitary

RNG = np.random.default_rng(64128256)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_diagonal_matrix():
    m = np.diag([3.0, 1.0, 2.0]).astype(complex)
    assert np.allclose(hermitian_eigenvalues(m), [1.0, 2.0, 3.0])


def test_two_by_two_swap():
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(m), [-1.0, 1.0])


def test_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(m)
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_rejects_non_finite(bad):
    # LAPACK would return [1, nan, nan, 1] for the NaN case without raising
    m = np.eye(4, dtype=complex)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(m)


@pytest.mark.parametrize("excess", [1.01, 0.99])
def test_lone_asymmetry_in_the_last_partial_block(excess):
    # the blockwise check compares each row block with the conjugate of its
    # column block; an entry whose transpose sits in the last, partial
    # block is judged at the same tolerance as anywhere else
    n = 2 * CHECK_BLOCK_ROWS + 5
    m = 0.5 * random_hermitian(n, np.random.default_rng(7)) / n
    m[n - 1, n - 3] += excess * HERMITICITY_TOL
    assert np.max(np.abs(m)) < 1.0
    if excess > 1.0:
        with pytest.raises(ValidationError, match="not Hermitian"):
            check_hermitian(m)
    else:
        assert check_hermitian(m) is m


@pytest.mark.parametrize("shape", [(3, 2), (CHECK_BLOCK_ROWS + 1,
                                            CHECK_BLOCK_ROWS), (4,)])
def test_blockwise_check_rejects_non_square(shape):
    with pytest.raises(ValidationError, match="square"):
        check_hermitian(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_blockwise_check_rejects_non_finite_in_a_later_block(bad):
    # a non-finite entry outranks an asymmetric one in an earlier block
    n = 2 * CHECK_BLOCK_ROWS + 5
    m = np.eye(n, dtype=complex)
    m[0, 1] = 1.0
    m[n - 1, n - 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        check_hermitian(m)


def test_lapack_failure_is_numerical_error(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError):
        hermitian_eigenvalues(np.eye(3))


@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_matches_lapack_oracle(n):
    # the reference solver against LAPACK on fixed draws
    m = random_hermitian(n, RNG)
    got = tridiagonal_eigenvalues(*householder_tridiagonalize(m))
    expect = np.linalg.eigvalsh(m)
    scale = max(1.0, np.max(np.abs(expect)))
    assert np.max(np.abs(got - expect)) <= 1e-10 * scale


def test_real_symmetric_input():
    a = RNG.standard_normal((32, 32))
    m = (a + a.T) / 2
    got = hermitian_eigenvalues(m)
    expect = np.linalg.eigvalsh(m)
    assert np.allclose(got, expect, atol=1e-10)


def test_trace_and_frobenius_preserved():
    m = random_hermitian(48, RNG)
    lam = hermitian_eigenvalues(m)
    assert np.sum(lam) == pytest.approx(float(np.trace(m).real),
                                        abs=1e-8 * 48 * np.max(np.abs(m)))
    assert np.sum(lam**2) == pytest.approx(float(np.sum(np.abs(m) ** 2)),
                                           rel=1e-10)


def test_conjugation_invariance():
    from freeconv.rmt import haar_unitary, stream

    m = random_hermitian(64, RNG)
    u = haar_unitary(64, stream(7, 3, 0))
    rotated = u @ m @ u.conj().T
    a = hermitian_eigenvalues(m)
    b = hermitian_eigenvalues(0.5 * (rotated + rotated.conj().T))
    assert np.max(np.abs(a - b)) <= 1e-8


def test_eigenvector_residual_via_inverse_iteration():
    m = random_hermitian(24, RNG)
    lam = hermitian_eigenvalues(m)
    norm_m = np.linalg.norm(m)
    for k in (0, 11, 23):
        shifted = m - (lam[k] + 1e-9) * np.eye(24)
        v = np.linalg.solve(shifted, RNG.standard_normal(24)
                            + 1j * RNG.standard_normal(24))
        v /= np.linalg.norm(v)
        assert np.linalg.norm(m @ v - lam[k] * v) <= 1e-8 * norm_m


def test_tridiagonal_path_agrees():
    m = random_hermitian(20, RNG)
    d, e = householder_tridiagonalize(m)
    got = tridiagonal_eigenvalues(d, e)
    assert np.allclose(got, np.linalg.eigvalsh(m), atol=1e-10)


def test_reference_solver_rank_deficient():
    # the null space is a block of rounding-level entries; QL must deflate
    # it against the matrix norm, not against its own tiny diagonal
    rng = np.random.default_rng(2)
    x = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    m = x @ x.conj().T
    got = tridiagonal_eigenvalues(*householder_tridiagonalize(m))
    expect = np.linalg.eigvalsh(m)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(expect)
    assert np.sum(np.abs(got) <= 1e-12 * np.max(expect)) == 56


def test_repeated_eigenvalues():
    m = np.diag([2.0, 2.0, 2.0, -1.0]).astype(complex)
    u = np.linalg.qr(random_hermitian(4, RNG))[0]
    rotated = u @ m @ u.conj().T
    got = hermitian_eigenvalues(0.5 * (rotated + rotated.conj().T))
    assert np.allclose(got, [-1.0, 2.0, 2.0, 2.0], atol=1e-10)


# -- LAPACK against the Householder + QL reference -----------------------------


@st.composite
def hermitian_cases(draw):
    """Hermitian matrices with n in 1..64: GUE draws, spectra with repeated
    values, tight clusters, and rank-deficient Wishart products."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["gue", "repeated", "clustered", "wishart"]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gue":
        return scale * random_hermitian(n, rng)
    if kind == "wishart":
        rank = draw(st.integers(0, n))
        x = (rng.standard_normal((n, rank))
             + 1j * rng.standard_normal((n, rank)))
        m = scale * (x @ x.conj().T)
        return 0.5 * (m + m.conj().T)
    if kind == "repeated":
        values = rng.choice([-2.0, 0.0, 1.0, 3.0], size=n)
    else:
        values = np.repeat(rng.standard_normal(3), -(-n // 3))[:n]
        values = values + 1e-9 * rng.standard_normal(n)
    u = haar_unitary(n, rng)
    m = (u * (scale * values)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


@given(hermitian_cases())
def test_lapack_matches_reference_solver(m):
    got = hermitian_eigenvalues(m)
    ref = tridiagonal_eigenvalues(*householder_tridiagonalize(m))
    scale = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
