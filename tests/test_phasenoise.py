"""Tests for the phase-noise model: the rule on ``rho``, the Wiener paths the
link draws, and the spectral vectors of phase trajectories."""

import numpy as np
import pytest

from pnofdm.link import LinkConfig, make_frame_pair
from pnofdm.spectral import GEOMETRY_TOL, geometry_residual, phase_trajectory, spectral_vector


def thetas(rho, seeds):
    """The phase path of each seed's first symbol, one row per seed."""
    return np.array([f0.theta for f0, _ in make_frame_pair(LinkConfig(rho=rho), seeds, next_symbol=False)])


class TestWienerRealization:
    def test_zero_rho_constant(self):
        for f0, f1 in make_frame_pair(LinkConfig(rho=0.0), range(50)):
            for frame in (f0, f1):
                assert np.all(frame.theta == frame.theta[0])

    def test_deterministic(self):
        assert np.array_equal(thetas(0.05, [99]), thetas(0.05, [99]))

    def test_programmed_diffusion(self):
        # Sample variance of theta[-1] - theta[0] over many frames matches the
        # configured band: 4*pi*rho * (n_c-1)/n_c.
        rho, n_c = 0.02, LinkConfig().n_c
        drifts = thetas(rho, range(10_000, 20_000))
        var = np.var(drifts[:, -1] - drifts[:, 0])
        target = 4 * np.pi * rho * (n_c - 1) / n_c
        assert abs(var - target) / target < 0.05

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            LinkConfig(rho=-0.1).validate()

    # At 1e308 the variance 4*pi*rho overflows; the draws would hold inf and nan.
    @pytest.mark.parametrize("rho", [np.nan, np.inf, 1e308])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            LinkConfig(rho=rho).validate()


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
