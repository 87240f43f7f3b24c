"""Tests for the reduction models and geometry preservation."""

import numpy as np
import pytest

from pnofdm.dimred import lft, pc_ppt, validate_ppt
from pnofdm.link import make_model
from pnofdm.spectral import geometry_residual
from test_link import dft


def feasible_x(n, seed):
    """Reduced time samples of constant modulus ``1/sqrt(n)``."""
    return np.exp(-1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, n)) / np.sqrt(n)


def lift_matrix(core):
    """Lift matrix ``F @ core`` of a time-domain core."""
    return dft(core.shape[0]) @ core


def selection(n_c, n):
    """The 0/1 selection ``S`` of ``lft(n_c, n) = S @ F_n``: the top ``(n + 2) // 2`` and the bottom rest."""
    m = (n + 2) // 2
    S = np.zeros((n_c, n))
    S[:m, :m] = np.eye(m)
    S[n_c - (n - m):, m:] = np.eye(n - m)
    return S


def exact_dft(n):
    """Unitary DFT from its definition, the exponent ``k m`` reduced mod ``n``
    so that every entry is correct to rounding at any ``n``."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n) / np.sqrt(n)


def ppt_core(n_c, n):
    """The time-domain core of ``pc_ppt(n_c, n)``: blocks ``sqrt(n/n_c) * ones(n_c/n)`` down the diagonal."""
    return np.repeat(np.sqrt(n / n_c) * np.eye(n), n_c // n, axis=0)


class TestLft:
    def test_single_column(self):
        assert np.array_equal(lft(4, 1), np.eye(4, dtype=complex)[:, :1])

    def test_block_structure(self):
        T, F = lft(8, 5), dft(5)  # 3 top bins, 2 bottom
        assert np.array_equal(T[:3], F[:3])
        assert np.array_equal(T[6:], F[3:])
        assert np.max(np.abs(T[3:6])) == 0

    def test_orthonormal_columns(self):
        # The columns are the selected rows of the unitary F_n: the selection is
        # exact, and their orthonormality is F_n's.
        T = lft(16, 9)
        assert np.array_equal(T, selection(16, 9) @ dft(9))
        assert np.max(np.abs(T.conj().T @ T - np.eye(9))) < 1e-15

    def test_default_split(self):
        T, F = lft(128, 8), dft(8)
        # ceil((n+1)/2) top bins, the rest at the bottom
        assert np.array_equal(T[:5], F[:5])
        assert np.array_equal(T[125:], F[5:])

    def test_dimension_overflow(self):
        with pytest.raises(ValueError):
            lft(4, 5)


class TestPcPpt:
    def test_full_dimension_is_identity(self):
        # The full-dimension core is the identity, so the lift is F itself.
        T = pc_ppt(8, 8)
        assert np.array_equal(T, dft(8))
        assert validate_ppt(T).passed

    def test_core_blocks(self):
        # Orthonormal columns force block scaling sqrt(n/n_c).
        Tt = dft(8).conj().T @ pc_ppt(8, 4)
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


class TestExactLifts:
    # The lift matrices are exact to rounding: their error does not grow with n_c.
    @pytest.mark.parametrize(
        "t_kind, n_c, n",
        [("ppt", 128, 8), ("ppt", 128, 2), ("ppt", 512, 16), ("lft", 128, 8), ("lft", 16, 9)],
    )
    def test_entries_match_exact_dft(self, t_kind, n_c, n):
        if t_kind == "ppt":
            exact = exact_dft(n_c) @ ppt_core(n_c, n)
        else:
            exact = selection(n_c, n) @ exact_dft(n)
        assert np.max(np.abs(make_model(t_kind, n_c, n) - exact)) < 2e-15

    def test_large_ppt_validates_to_rounding(self):
        rep = validate_ppt(make_model("ppt", 2048, 8))
        assert max(rep.unitarity, rep.off_diagonal, rep.trace_sum) < 1e-14


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
    # A model is its lift matrix: reduced time samples lift as T @ x.
    def test_ppt_preserves_geometry(self):
        T = pc_ppt(64, 8)
        for seed in range(25):
            assert geometry_residual(T @ feasible_x(8, seed)) < 1e-10

    def test_ppt_unit_vector(self):
        # Constant samples are the unit spectrum's, and lift to the full one.
        T = pc_ppt(16, 4)
        out = T @ np.full(4, 0.5)
        assert np.max(np.abs(out - np.eye(16)[:, 0])) < 1e-14
        assert geometry_residual(out) < 1e-10

    def test_lft_unit_vector_coincidence(self):
        # The constant samples lift to the unit spectrum under lft too.
        assert np.max(np.abs(lft(8, 4) @ np.full(4, 0.5) - np.eye(8)[:, 0])) < 1e-15

    def test_lft_breaks_geometry(self):
        T = lft(8, 4)
        violations = [geometry_residual(T @ feasible_x(4, 100 + s)) for s in range(10)]
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
