"""Tests for the DFT/circulant primitives and the geometry residual."""

import numpy as np
import pytest

from pnofdm.spectral import (
    build_V,
    circulant_apply,
    circulant_eigenvalues,
    circulant_from_column,
    dft_matrix,
    geometry_residual,
    hermitian_split,
    permutation_matrix,
    shift_form_table,
)
from pnofdm.phasenoise import spectral_vector


class TestDftMatrix:
    def test_n1_identity(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_n2_exact(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2), expected, atol=1e-15)

    def test_gram_is_identity(self):
        F = dft_matrix(8)
        assert np.max(np.abs(F.conj().T @ F - np.eye(8))) < 1e-13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestPermutationMatrix:
    def test_l0_identity(self):
        assert np.array_equal(permutation_matrix(4, 0), np.eye(4, dtype=complex))

    def test_first_column_shift(self):
        P = permutation_matrix(3, 1)
        assert np.array_equal(P[:, 0], np.array([0, 1, 0], dtype=complex))
        # remaining columns are circular shifts of the first
        assert np.array_equal(P[:, 1], np.array([0, 0, 1], dtype=complex))
        assert np.array_equal(P[:, 2], np.array([1, 0, 0], dtype=complex))

    def test_eigenvalues_n5_l2(self):
        eigs = np.sort_complex(np.linalg.eigvals(permutation_matrix(5, 2)))
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(5) * 2 / 5))
        assert np.max(np.abs(eigs - expected)) < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 12))
            l, m = rng.integers(0, n, 2)
            lhs = permutation_matrix(n, l) @ permutation_matrix(n, m)
            assert np.allclose(lhs, permutation_matrix(n, (l + m) % n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            permutation_matrix(4, 4)
        with pytest.raises(ValueError):
            permutation_matrix(4, -1)


class TestHermitianSplit:
    def test_identity(self):
        PR, PI = hermitian_split(np.eye(3))
        assert np.allclose(PR, np.eye(3))
        assert np.allclose(PI, 0)

    def test_shift_eigenvalues_n5(self):
        # Shared DFT eigenvectors carry (cos, sin) eigenvalue pairs.
        PR, PI = hermitian_split(permutation_matrix(5, 1))
        F = dft_matrix(5)
        for k in range(5):
            f = F[:, k]
            assert np.allclose(PR @ f, np.cos(2 * np.pi * k / 5) * f, atol=1e-12)
            assert np.allclose(PI @ f, np.sin(2 * np.pi * k / 5) * f, atol=1e-12)

    def test_hermitian_input_gives_zero_imag_part(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = (A + A.conj().T) / 2
        PR, PI = hermitian_split(H)
        assert np.allclose(PR, H)
        assert np.max(np.abs(PI)) < 1e-15

    def test_quadratic_form_contract(self):
        rng = np.random.default_rng(2)
        P = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        PR, PI = hermitian_split(P)
        assert np.allclose(PR + 1j * PI, P)
        for _ in range(5):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            q = v.conj() @ P @ v
            assert abs(q.real - (v.conj() @ PR @ v).real) < 1e-12 * (1 + abs(q))
            assert abs(q.imag - (v.conj() @ PI @ v).real) < 1e-12 * (1 + abs(q))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            hermitian_split(np.zeros((2, 3)))


class TestShiftFormTable:
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_rows_diagonalize_the_dense_split_shifts(self, n):
        # Reference forms in table order: norm, real parts l = 1..n//2, then
        # imaginary parts l = 1..(n-1)//2 (for even n the l = n/2 shift is
        # Hermitian, so it has a real part only).
        splits = [hermitian_split(permutation_matrix(n, l)) for l in range(1, n // 2 + 1)]
        forms = [np.eye(n)] + [PR for PR, _ in splits] + [PI for _, PI in splits[: (n - 1) // 2]]
        F = dft_matrix(n)
        table = shift_form_table(n)
        assert table.shape == (n, n) and len(forms) == n
        for row, W in zip(table, forms):
            D = F.conj().T @ W @ F
            assert np.max(np.abs(D - np.diag(row))) < 1e-13

    def test_rows_orthogonal(self):
        table = shift_form_table(8)
        gram = table @ table.T
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-12
        assert np.linalg.matrix_rank(table) == 8


class TestGeometryResidual:
    def test_unit_vector(self):
        res = geometry_residual(np.eye(5)[:, 0])
        assert res.max_abs < 1e-15

    def test_spectral_vector_on_geometry(self):
        rng = np.random.default_rng(3)
        v = spectral_vector(rng.uniform(-np.pi, np.pi, 16)).values
        assert geometry_residual(v).max_abs < 1e-12

    def test_scaled_unit_vector(self):
        res = geometry_residual(2 * np.eye(4)[:, 0])
        assert abs(res.residuals[0] - 3.0) < 1e-14
        assert np.max(np.abs(res.residuals[1:])) < 1e-14

    def test_matches_dense_definition(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        res = geometry_residual(v).residuals
        dense = np.array([v.conj() @ permutation_matrix(16, l) @ v for l in range(16)])
        dense[0] -= 1.0
        assert np.max(np.abs(res - dense)) < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        r = geometry_residual(v).residuals
        for l in range(1, 9):
            assert abs(r[9 - l] - np.conj(r[l])) < 1e-12


class TestCirculant:
    def test_unit_column_identity(self):
        assert np.allclose(circulant_from_column(np.eye(4)[:, 0]), np.eye(4))

    def test_shift_column(self):
        assert np.allclose(circulant_from_column(np.eye(3)[:, 1]), permutation_matrix(3, 1))

    def test_dft_diagonalizes(self):
        rng = np.random.default_rng(6)
        for n in (5, 8, 64):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            C = circulant_from_column(c)
            F = dft_matrix(n)
            D = F.conj().T @ C @ F
            off = D - np.diag(np.diag(D))
            assert np.max(np.abs(off)) < 1e-12 * n
            assert np.max(np.abs(np.diag(D) - circulant_eigenvalues(c))) < 1e-12 * n

    def test_eigenvalue_multiset_is_dft_of_column(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        eigs = np.sort_complex(np.linalg.eigvals(circulant_from_column(c)))
        assert np.max(np.abs(eigs - np.sort_complex(np.fft.fft(c)))) < 1e-12

    def test_fast_apply_matches_dense(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(circulant_apply(c, x), circulant_from_column(c) @ x, atol=1e-12)


class TestBuildV:
    def test_no_rotation(self):
        assert np.allclose(build_V(np.eye(6)[:, 0]), np.eye(6))

    def test_constant_phase(self):
        # theta = phi gives delta = exp(-1j*phi) e_0 and V = exp(+1j*phi) I.
        phi = 0.7
        delta = np.exp(-1j * phi) * np.eye(5)[:, 0]
        V = build_V(delta)
        assert np.allclose(V, np.exp(1j * phi) * np.eye(5), atol=1e-14)

    def test_first_row_is_conjugate(self):
        rng = np.random.default_rng(9)
        d = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        assert np.allclose(build_V(d)[0], d.conj())

    def test_matches_diagonal_form_and_unitary(self):
        rng = np.random.default_rng(10)
        theta = rng.uniform(-np.pi, np.pi, 32)
        V = build_V(spectral_vector(theta).values)
        F = dft_matrix(32)
        V2 = F @ np.diag(np.exp(1j * theta)) @ F.conj().T
        assert np.max(np.abs(V - V2)) < 1e-12
        assert np.max(np.abs(V.conj().T @ V - np.eye(32))) < 1e-10
