"""Tests for the unitary DFT, the geometry residual and the spectral vectors
of phase trajectories."""

import numpy as np
import pytest

from pnofdm.dimred import lft, pc_ppt
from pnofdm.spectral import (
    GEOMETRY_TOL,
    geometry_residual,
    phase_trajectory,
    spectral_vector,
)
from test_link import thetas


def _shift(n, l):
    """Dense cyclic shift ``P_l`` with ``(P_l x)[i] = x[(i - l) % n]``."""
    P = np.zeros((n, n), dtype=complex)
    P[(np.arange(n) + l) % n, np.arange(n)] = 1.0
    return P


class TestDftMatrix:
    # The unitary DFT convention, read off the package's transforms: at full
    # dimension both lift matrices are F itself.
    def test_n1_identity(self):
        for T in (pc_ppt(1, 1), lft(1, 1)):
            assert np.allclose(T, [[1.0]])

    def test_n2_exact(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for T in (pc_ppt(2, 2), lft(2, 2)):
            assert np.allclose(T, expected, atol=1e-15)

    def test_gram_is_identity(self):
        for F in (pc_ppt(8, 8), lft(8, 8)):
            assert np.max(np.abs(F.conj().T @ F - np.eye(8))) < 1e-13


class TestGeometryResidual:
    def test_unit_vector(self):
        assert geometry_residual(np.eye(5)[:, 0]) < 1e-15

    def test_spectral_vector_on_geometry(self):
        rng = np.random.default_rng(3)
        v = spectral_vector(rng.uniform(-np.pi, np.pi, 16))
        assert geometry_residual(v) < 1e-12

    @pytest.mark.parametrize(
        "v, message",
        [(np.zeros(0), "non-empty 1-D"), (np.eye(2), "non-empty 1-D"), (np.array([1.0, np.nan]), "finite entries")],
    )
    def test_rejects_bad_vectors(self, v, message):
        with pytest.raises(ValueError, match=message):
            geometry_residual(v)

    def test_scaled_unit_vector(self):
        # The shifts vanish on e_0; only the unit-norm defect 4 - 1 remains.
        assert abs(geometry_residual(2 * np.eye(4)[:, 0]) - 3.0) < 1e-14

    def test_unit_norm_vector_off_geometry(self):
        # (e_0 + e_1)/sqrt(2) has unit norm but v^H P_1 v = 1/2.
        v = (np.eye(4)[:, 0] + np.eye(4)[:, 1]) / np.sqrt(2)
        assert abs(geometry_residual(v) - 0.5) < 1e-14

    def test_matches_dense_definition(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        dense = np.array([v.conj() @ _shift(16, l) @ v for l in range(16)])
        dense[0] -= 1.0
        assert abs(geometry_residual(v) - np.max(np.abs(dense))) < 1e-12


class TestSpectralVector:
    def test_zero_phase(self):
        sv = spectral_vector(np.zeros(8))
        assert np.allclose(sv, np.eye(8)[:, 0], atol=1e-15)
        assert geometry_residual(sv) < GEOMETRY_TOL

    def test_constant_phase(self):
        phi = 1.1
        sv = spectral_vector(np.full(8, phi))
        expected = np.exp(-1j * phi) * np.eye(8)[:, 0]
        assert np.allclose(sv, expected, atol=1e-14)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        sv = spectral_vector(rng.uniform(-np.pi, np.pi, 64))
        assert abs(np.linalg.norm(sv) - 1.0) < 1e-13

    def test_geometry_for_any_theta(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sv = spectral_vector(rng.uniform(-10, 10, 32))
            assert geometry_residual(sv) < 1e-12

    @pytest.mark.parametrize("theta", [np.zeros(0), np.zeros((2, 2))])
    def test_rejects_non_vector(self, theta):
        with pytest.raises(ValueError, match="theta must be a non-empty 1-D vector"):
            spectral_vector(theta)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(-np.pi, np.pi, 48)
        sv = spectral_vector(theta)
        assert np.max(np.abs(np.fft.ifft(sv) - np.exp(-1j * theta) / 48)) < 1e-12
        wrapped = np.angle(np.exp(1j * (phase_trajectory(sv) - theta)))
        assert np.max(np.abs(wrapped)) < 1e-12


class TestCpe:
    # The common phase error is the zeroth component of the spectral vector.
    def test_zero_phase(self):
        assert spectral_vector(np.zeros(4))[0] == pytest.approx(1.0)

    def test_constant_phase(self):
        phi = 0.4
        assert spectral_vector(np.full(4, phi))[0] == pytest.approx(np.exp(-1j * phi))

    def test_slow_noise_small_angle(self):
        # In the slow limit the common phase approaches the mean of -theta.
        (theta,) = thetas(1e-6, [7])
        c = spectral_vector(theta)[0]
        err = np.angle(c * np.exp(1j * np.mean(theta)))
        assert abs(err) < 1e-2
