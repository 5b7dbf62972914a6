import warnings

import numpy as np
import pytest

from helpers import random_density, random_hermitian, random_unitary, vec
from qdeg.channels import BlochParams, choi_from_bloch, rank_and_cp
from qdeg.errors import InvalidDimension, NotHermitian
from qdeg.linalg import _eigh, _eigvalsh, _partial_trace, _partial_transpose, require_hermitian

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)

# Choi matrix of the depolarizing channel at p = 1/3, written out directly
DEP_THIRD = np.array(
    [
        [5 / 6, 0, 0, 2 / 3],
        [0, 1 / 6, 0, 0],
        [0, 0, 1 / 6, 0],
        [2 / 3, 0, 0, 5 / 6],
    ],
    dtype=complex,
)


class TestVec:
    def test_column_stacking(self):
        assert np.array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])

    def test_identity(self):
        assert np.array_equal(vec(I2), [1, 0, 0, 1])

    def test_product_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            u = random_hermitian(rng, 2)
            k = random_hermitian(rng, 2)
            v = random_hermitian(rng, 2)
            lhs = vec(u @ k @ v)
            rhs = np.kron(v.T, u) @ vec(k)
            assert np.linalg.norm(lhs - rhs) <= 1e-12


class TestPartialTrace:
    def test_product_case(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert np.allclose(_partial_trace(np.kron(a, b), 2, 2, 1), np.trace(b) * a, atol=1e-13)
        assert np.allclose(_partial_trace(np.kron(a, b), 2, 2, 0), np.trace(a) * b, atol=1e-13)

    def test_maximally_entangled_marginal(self):
        m = np.outer(vec(I2), vec(I2).conj())
        assert np.allclose(_partial_trace(m, 2, 2, 0), I2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        assert np.isclose(np.trace(_partial_trace(m, 2, 3, 0)), np.trace(m))
        assert np.isclose(np.trace(_partial_trace(m, 2, 3, 1)), np.trace(m))

    def test_unitary_covariance(self):
        # tr_X((V^T (x) U) M (V^T (x) U)^dag) = U tr_X(M) U^dag
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = random_unitary(rng)
            v = random_unitary(rng)
            m = random_hermitian(rng, 4)
            w = np.kron(v.T, u)
            lhs = _partial_trace(w @ m @ w.conj().T, 2, 2, 0)
            rhs = u @ _partial_trace(m, 2, 2, 0) @ u.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-11

    def test_traced_factor_checked(self):
        with pytest.raises(InvalidDimension):
            _partial_trace(np.eye(4), 2, 2, 3)


class TestPartialTranspose:
    def test_product_case(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert np.array_equal(_partial_transpose(np.kron(a, b), 2, 2, 1), np.kron(a, b.T))
        assert np.array_equal(_partial_transpose(np.kron(a, b), 2, 2, 0), np.kron(a.T, b))

    def test_swap_spectrum(self):
        m = np.outer(vec(I2), vec(I2).conj())
        eigs = _eigvalsh(_partial_transpose(m, 2, 2, 1))
        assert np.allclose(eigs, [-1, 1, 1, 1], atol=1e-13)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 4)
        pt = _partial_transpose(m, 2, 2, 0)
        assert np.linalg.norm(pt - pt.conj().T) == 0.0

    def test_involution_exact(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 4)
        for factor in (0, 1):
            twice = _partial_transpose(_partial_transpose(m, 2, 2, factor), 2, 2, factor)
            assert np.array_equal(twice, m)


class TestHermitianEigen:
    def test_diagonal(self):
        assert np.allclose(_eigvalsh(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_spectrum(self):
        assert np.allclose(_eigvalsh(SX), [-1, 1], atol=1e-14)

    def test_depolarizing_third_spectrum(self):
        eigs = _eigvalsh(DEP_THIRD)
        assert np.allclose(eigs, [1 / 6, 1 / 6, 1 / 6, 3 / 2], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4, 8):
            for _ in range(25):
                m = random_hermitian(rng, n)
                ed = _eigh(m)
                rebuilt = ed.eigenvectors @ np.diag(ed.eigenvalues) @ ed.eigenvectors.conj().T
                assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(np.linalg.norm(m), 1.0)
                gram = ed.eigenvectors.conj().T @ ed.eigenvectors
                assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
                assert np.all(np.diff(ed.eigenvalues) >= -1e-14)
                for lam, v in zip(ed.eigenvalues, ed.eigenvectors.T):
                    assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * max(
                        np.linalg.norm(m), 1.0
                    )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_overflowing_norms_fail(self):
        # above about 1e154 both norms overflowed to inf, and inf > inf is
        # false, so this matrix passed as Hermitian; alone and in a stack
        m = np.array([[1, 1e160, 0, 1], [-1e160, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match=r"^Choi matrix is not Hermitian: \|\|m - m\^dag\|\|_F = "
                                                   r"2\.828e\+160 exceeds 1\.414e\+150$"):
                require_hermitian(m, "Choi matrix")
            with pytest.raises(NotHermitian, match=r"^matrix \(row 1\) is not Hermitian"):
                require_hermitian(np.stack([np.eye(4, dtype=complex), m]))
            # the largest finite entries: the residual itself overflows
            with pytest.raises(NotHermitian, match=r"= inf exceeds 1\.273e\+298$"):
                require_hermitian(m * 9e147)
            # a Hermitian matrix passes at any scale, with its value kept
            big = (m + m.conj().T) * 1e140
            assert np.array_equal(require_hermitian(big), big)

    def test_hermitian_part_of_the_largest_entries_is_finite(self):
        # (m + m^dag) / 2 overflowed to inf (and to nan in the imaginary part)
        # for entries above about 9e307
        huge = np.diag([1e308, 0.0, 0.0, 1.0]).astype(complex)
        huge[0, 1], huge[1, 0] = 1.7e308 + 1e308j, 1.7e308 - 1e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(require_hermitian(huge), huge)
            # the other rows of a stack keep the exact part: halving 5e-324
            # first would round it to 0
            tiny = np.full((4, 4), 5e-324, dtype=complex)
            part = require_hermitian(np.stack([tiny, huge]))
        assert np.array_equal(part, np.stack([tiny, huge]))


def psd_check(m) -> bool:
    """The CP gate of rank_and_cp, the PSD test of every channel entry point."""
    return bool(rank_and_cp(np.linalg.eigvalsh(m))[1])


class TestPsdCheck:
    def test_identity(self):
        assert psd_check(I2) is True

    def test_indefinite(self):
        assert psd_check(np.diag([1.0, -0.5])) is False

    def test_bloch_outside_tetrahedron(self):
        c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 1, -1]))
        assert psd_check(c.matrix) is False

    def test_overflowing_norm_fails(self):
        # a trace-2 PSD spectrum has 2-norm at most 2; one whose norm
        # overflows is not PSD, in a stack as well as alone
        spectra = np.array([[-5e199, -5e199, 5e199, 5e199], [0.5, 0.5, 0.5, 0.5]])
        assert not rank_and_cp(spectra[0])[1]
        assert rank_and_cp(spectra)[1].tolist() == [False, True]

    def test_density_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            assert psd_check(random_density(rng, 4)) is True
