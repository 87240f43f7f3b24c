"""Tests for the reduction models and geometry preservation."""

import numpy as np
import pytest

from pnofdm.dimred import lft, pc_ppt, validate_ppt
from pnofdm.spectral import dft_matrix, geometry_residual, spectral_vector


def feasible_gamma(n, seed):
    return spectral_vector(np.random.default_rng(seed).uniform(-np.pi, np.pi, n))


def lift_matrix(core):
    """Lift matrix ``F @ core @ F_n^H`` of a time-domain core."""
    n_c, n = core.shape
    return dft_matrix(n_c) @ core @ dft_matrix(n).conj().T


class TestLft:
    def test_single_column(self):
        assert np.array_equal(lft(4, 1), np.eye(4, dtype=complex)[:, :1])

    def test_block_structure(self):
        T = lft(8, 5)  # 3 top bins, 2 bottom
        assert np.allclose(T[:3, :3], np.eye(3))
        assert np.allclose(T[6:, 3:], np.eye(2))
        assert np.max(np.abs(T[3:6])) == 0

    def test_orthonormal_columns(self):
        T = lft(16, 9)
        assert np.max(np.abs(T.conj().T @ T - np.eye(9))) == 0

    def test_default_split(self):
        T = lft(128, 8)
        # ceil((n+1)/2) top bins, the rest at the bottom
        assert np.allclose(T[:5, :5], np.eye(5))
        assert np.allclose(T[125:, 5:], np.eye(3))

    def test_dimension_overflow(self):
        with pytest.raises(ValueError):
            lft(4, 5)


class TestPcPpt:
    def test_full_dimension_is_identity(self):
        T = pc_ppt(8, 8)
        assert np.max(np.abs(T - np.eye(8))) < 1e-12
        assert validate_ppt(T).passed

    def test_core_blocks(self):
        # Orthonormal columns force block scaling sqrt(n/n_c).
        Tt = dft_matrix(8).conj().T @ pc_ppt(8, 4) @ dft_matrix(4)
        expected = np.zeros((8, 4))
        for i in range(4):
            expected[2 * i:2 * i + 2, i] = 1 / np.sqrt(2)
        assert np.allclose(Tt, expected)

    def test_validates(self):
        rep = validate_ppt(pc_ppt(64, 8))
        assert rep.passed
        assert max(rep.unitarity, rep.off_diagonal, rep.trace_sum) < 1e-12

    def test_orthonormal_lift_matrix(self):
        T = pc_ppt(64, 8)
        assert np.max(np.abs(T.conj().T @ T - np.eye(8))) < 1e-12

    def test_odd_repetition_factor(self):
        # Only divisibility is required; odd n_c/n works too.
        assert validate_ppt(pc_ppt(12, 4)).passed

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            pc_ppt(10, 4)


class TestValidatePpt:
    def test_identity_core_passes(self):
        rep = validate_ppt(lift_matrix(np.eye(6, dtype=complex)))
        assert rep.passed  # trace of every nontrivial shift is zero

    def test_lft_time_analogue_fails_trace_condition(self):
        bad = np.zeros((8, 4), dtype=complex)
        bad[:4, :4] = np.eye(4)
        rep = validate_ppt(lift_matrix(bad))
        assert not rep.passed
        assert rep.unitarity < 1e-12
        assert rep.trace_sum > 0.1


class TestLift:
    # A model is its lift matrix: a reduced spectrum lifts as T @ gamma.
    def test_ppt_preserves_geometry(self):
        T = pc_ppt(64, 8)
        for seed in range(25):
            assert geometry_residual(T @ feasible_gamma(8, seed)) < 1e-10

    def test_ppt_unit_vector(self):
        T = pc_ppt(16, 4)
        out = T @ np.eye(4)[:, 0]
        assert np.array_equal(out, T[:, 0])
        assert geometry_residual(out) < 1e-10

    def test_lft_unit_vector_coincidence(self):
        assert np.array_equal(lft(8, 4) @ np.eye(4)[:, 0], np.eye(8)[:, 0])

    def test_lft_breaks_geometry(self):
        T = lft(8, 4)
        violations = [geometry_residual(T @ feasible_gamma(4, 100 + s)) for s in range(10)]
        assert np.median(violations) > 0.01

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for T in (pc_ppt(64, 8), lft(64, 8)):
            assert abs(np.linalg.norm(T @ g) - np.linalg.norm(g)) < 1e-12

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (lft, (4, 0), "need n >= 1"),
            (pc_ppt, (8, 0), "dimensions must be positive"),
            (pc_ppt, (0, 4), "dimensions must be positive"),
            (validate_ppt, (np.ones(4),), "T must be a matrix"),
        ],
    )
    def test_bad_dimensions_rejected(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    def test_dimension_mismatch(self):
        for T in (pc_ppt(16, 4), lft(16, 4)):
            with pytest.raises(ValueError):
                T @ np.ones(5)
