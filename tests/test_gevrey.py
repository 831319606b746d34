"""Tests for Gevrey multiplier, fractional operators, Riesz velocity,
X_T norms and radius estimation."""

import math

import numpy as np
import pytest

from sqgev.dyadic import BesovParams, build_system
from sqgev.gevrey import (
    GevreyOverflowError,
    GevreyParams,
    XTNormSample,
    analyticity_radius_estimate,
    fractional_laplacian,
    gevrey_multiply,
    heat_semigroup,
    max_admissible_gamma,
    riesz_transform,
    riesz_velocity,
    spectral_decay_fit,
    xt_norm,
)
from sqgev.solver import InitialData, SolverConfig, initial_field
from sqgev.spectral import (
    ConfigError,
    Grid,
    RealField,
    SpectralField,
    forward_transform,
    hermitian_symmetrize,
    inverse_transform,
    random_band_limited,
)


def decay_fit_loop(theta, alpha):
    """Per-ring loop form of spectral_decay_fit: a full-grid mask and mean per
    ring, kept as the reference for the ring-index implementation."""
    grid = theta.grid
    m2 = np.rint((grid.k_mag / grid.k_min) ** 2).astype(np.int64)
    nyq2 = (grid.n // 2) ** 2
    mags = np.abs(theta.coeffs)
    populated = (mags > 0) & (m2 > 0) & (m2 <= nyq2)
    if not populated.any():
        return 0.0, 0.0, 0.0, 0, True
    top2 = int(m2[populated].max())
    fit_zone = (m2 > top2 // 4) & (m2 <= top2)
    radii, means = [], []
    for ring in np.unique(m2[fit_zone]):
        radii.append(grid.k_min * math.sqrt(ring))
        means.append(float(mags[m2 == ring].mean()))
    radii, means = np.asarray(radii), np.asarray(means)
    keep = means > 0
    if keep.sum() < 3:
        return 0.0, 0.0, 0.0, int(keep.sum()), True
    x = radii[keep] ** alpha
    y = -np.log(means[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared, int(keep.sum()), False


def plane_wave(grid, axis=0, mode=1, kind="cos"):
    x1, x2 = grid.meshgrid()
    x = x1 if axis == 0 else x2
    fn = np.cos if kind == "cos" else np.sin
    return forward_transform(RealField(grid, fn(mode * x)))


class TestGevreyMultiplier:
    def test_zero_gamma_is_identity(self):
        grid = Grid(32)
        F = random_band_limited(grid, 2, seed=0)
        out = gevrey_multiply(F, 0.0, 0.5)
        np.testing.assert_array_equal(out.coeffs, F.coeffs)

    def test_single_mode_scaling(self):
        grid = Grid(32)
        F = plane_wave(grid)  # |k| = 1
        out = inverse_transform(gevrey_multiply(F, 1.0, 0.5))
        x1, _ = grid.meshgrid()
        np.testing.assert_allclose(out.values, math.e * np.cos(x1), atol=1e-12)

    def test_inverse_composition(self):
        grid = Grid(64)
        F = random_band_limited(grid, 3, seed=1)
        gamma = 0.05
        back = gevrey_multiply(gevrey_multiply(F, gamma, 0.5), -gamma, 0.5)
        scale = np.max(np.abs(F.coeffs))
        assert np.max(np.abs(back.coeffs - F.coeffs)) <= 1e-12 * scale

    def test_overflow_guard_reports_cap(self):
        grid = Grid(64)
        F = random_band_limited(grid, 3, seed=2)
        cap = max_admissible_gamma(grid, 0.5)
        with pytest.raises(GevreyOverflowError) as err:
            gevrey_multiply(F, cap * 1.01, 0.5)
        assert err.value.max_gamma == pytest.approx(cap)

    def test_negative_gamma_never_guarded(self):
        grid = Grid(64)
        F = random_band_limited(grid, 3, seed=3)
        out = gevrey_multiply(F, -1e6, 0.5)  # extreme damping is fine
        assert np.all(np.isfinite(out.coeffs))

    def test_rejects_bad_alpha(self):
        grid = Grid(32)
        F = random_band_limited(grid, 2, seed=4)
        with pytest.raises(ConfigError):
            gevrey_multiply(F, 0.1, 1.5)


class TestFractionalLaplacian:
    def test_unit_mode_fixed_point(self):
        grid = Grid(32)
        F = plane_wave(grid)
        for s in (-1.0, 0.5, 2.0):
            out = inverse_transform(fractional_laplacian(F, s))
            x1, _ = grid.meshgrid()
            np.testing.assert_allclose(out.values, np.cos(x1), atol=1e-12)

    def test_s2_matches_finite_differences(self):
        grid = Grid(128)
        x1, x2 = grid.meshgrid()
        f = np.sin(2 * x1) * np.cos(3 * x2) + 0.3 * np.cos(5 * x2)
        F = forward_transform(RealField(grid, f))
        lap = inverse_transform(fractional_laplacian(F, 2.0)).values
        h = grid.spacing
        fd = -(
            (np.roll(f, -1, 0) - 2 * f + np.roll(f, 1, 0))
            + (np.roll(f, -1, 1) - 2 * f + np.roll(f, 1, 1))
        ) / h**2
        scale = np.max(np.abs(lap))
        # second-order finite differences: O(h^2) agreement
        assert np.max(np.abs(lap - fd)) <= 5.0 * h**2 * scale

    def test_inverse_removes_mean_only(self):
        grid = Grid(64)
        rng = np.random.default_rng(5)
        f = RealField(grid, rng.standard_normal((64, 64)))
        F = forward_transform(f)
        round_trip = fractional_laplacian(fractional_laplacian(F, 0.7), -0.7)
        expected = F.coeffs.copy()
        expected[0, 0] = 0.0
        assert np.max(np.abs(round_trip.coeffs - expected)) <= 1e-12


class TestHeatSemigroup:
    def test_t_zero_identity(self):
        grid = Grid(32)
        F = random_band_limited(grid, 2, seed=6)
        out = heat_semigroup(F, 0.0, 0.5)
        np.testing.assert_array_equal(out.coeffs, F.coeffs)

    def test_single_mode_decay(self):
        grid = Grid(32)
        F = plane_wave(grid)
        out = inverse_transform(heat_semigroup(F, 1.0, 0.5))
        x1, _ = grid.meshgrid()
        np.testing.assert_allclose(out.values, math.exp(-1.0) * np.cos(x1), atol=1e-13)

    def test_semigroup_property(self):
        grid = Grid(64)
        F = random_band_limited(grid, 3, seed=7)
        both = heat_semigroup(heat_semigroup(F, 0.3, 0.8), 0.5, 0.8)
        once = heat_semigroup(F, 0.8, 0.8)
        scale = np.max(np.abs(once.coeffs))
        assert np.max(np.abs(both.coeffs - once.coeffs)) <= 1e-13 * scale

    def test_negative_time_rejected(self):
        grid = Grid(32)
        F = random_band_limited(grid, 2, seed=8)
        with pytest.raises(ValueError):
            heat_semigroup(F, -0.1, 0.5)


class TestRieszVelocity:
    def test_hand_computed_single_mode(self):
        # theta = sin(x1): R1 theta = -cos(x1), so u = (0, -cos(x1))
        grid = Grid(32)
        theta = plane_wave(grid, kind="sin")
        u1, u2 = riesz_velocity(theta)
        x1, _ = grid.meshgrid()
        np.testing.assert_allclose(inverse_transform(u1).values, 0.0, atol=1e-14)
        np.testing.assert_allclose(
            inverse_transform(u2).values, -np.cos(x1), atol=1e-13
        )

    def test_divergence_free(self):
        grid = Grid(64)
        rng = np.random.default_rng(9)
        theta = forward_transform(RealField(grid, rng.standard_normal((64, 64))))
        u1, u2 = riesz_velocity(theta)
        div = 1j * grid.kx * u1.coeffs + 1j * grid.ky * u2.coeffs
        scale = max(np.max(np.abs(u1.coeffs)), np.max(np.abs(u2.coeffs)))
        assert np.max(np.abs(div)) <= 1e-13 * scale

    def test_riesz_is_an_l2_contraction(self):
        grid = Grid(64)
        rng = np.random.default_rng(10)
        theta = forward_transform(RealField(grid, rng.standard_normal((64, 64))))
        for axis in (1, 2):
            assert riesz_transform(theta, axis).l2_norm() <= theta.l2_norm() + 1e-12


class TestGevreyParams:
    def test_valid(self):
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.5, beta=0.3)
        assert gp.radius_at(4.0) == pytest.approx(0.5 * 4.0 ** (0.4 / 0.8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.9, kappa=0.8),  # alpha >= kappa
            dict(alpha=0.4, kappa=1.2),  # kappa > 1
            dict(alpha=0.4, kappa=0.8, beta=0.5),  # beta >= kappa/2
            dict(alpha=0.4, kappa=0.8, lam=-1.0),
            dict(alpha=0.4, kappa=0.8, gamma=-0.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GevreyParams(**kwargs)


class TestXTNorm:
    def test_degenerate_sample_is_plain_besov(self):
        grid = Grid(64)
        system = build_system(grid)
        F = random_band_limited(grid, 2, seed=11)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.0, beta=0.0)
        bp = BesovParams(0.5, 2.0, 2.0)
        sup, samples = xt_norm([(0.7, F)], gp, bp, system)
        assert sup == pytest.approx(system.besov_norm(F, bp), rel=1e-12)
        assert len(samples) == 1
        assert samples[0].gamma == 0.0

    def test_heat_flow_sup_is_finite_and_attained(self):
        grid = Grid(64)
        system = build_system(grid)
        F0 = random_band_limited(grid, 3, seed=12)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.1, beta=0.3)
        bp = BesovParams(0.5, 2.0, 2.0)
        times = np.linspace(0.05, 2.0, 20)
        traj = [(t, heat_semigroup(F0, t, gp.kappa)) for t in times]
        sup, samples = xt_norm(traj, gp, bp, system)
        weights = [s.weighted for s in samples]
        assert math.isfinite(sup) and sup > 0
        assert sup == max(weights)

    def test_empty_trajectory_rejected(self):
        grid = Grid(64)
        system = build_system(grid)
        gp = GevreyParams(alpha=0.4, kappa=0.8)
        with pytest.raises(ValueError):
            xt_norm([], gp, BesovParams(0.5), system)

    def test_overflow_carries_time(self):
        grid = Grid(64)
        system = build_system(grid)
        F = random_band_limited(grid, 2, seed=13)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=1e4, beta=0.0)
        with pytest.raises(GevreyOverflowError) as err:
            xt_norm([(5.0, F)], gp, BesovParams(0.5), system)
        assert err.value.time == 5.0

    def test_sample_validation(self):
        with pytest.raises(ConfigError):
            XTNormSample(t=0.0, gamma=0.0, besov=1.0, weighted=1.0)


class TestRadiusEstimate:
    def test_exact_log_linear_spectrum(self):
        grid = Grid(64)
        alpha = 0.5
        coeffs = np.exp(-2.0 * grid.k_mag**alpha)
        theta = SpectralField(grid, coeffs)
        assert analyticity_radius_estimate(theta, alpha) == pytest.approx(2.0, abs=1e-6)

    def test_white_spectrum_gives_zero(self):
        grid = Grid(64)
        rng = np.random.default_rng(14)
        signs = np.sign(hermitian_symmetrize(grid, rng.standard_normal((64, 64)) + 0j).real)
        signs[signs == 0] = 1.0
        theta = SpectralField(grid, signs.astype(complex))
        assert analyticity_radius_estimate(theta, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_heat_flow_of_flat_data_recovers_time(self):
        grid = Grid(128)
        kappa = 0.6
        flat = SpectralField(grid, np.ones((128, 128), dtype=complex))
        for t in (0.5, 1.5):
            decayed = heat_semigroup(flat, t, kappa)
            est = analyticity_radius_estimate(decayed, kappa)
            assert abs(est - t) / t <= 0.02

    def test_zero_field_warns_and_returns_zero(self):
        grid = Grid(64)
        theta = SpectralField(grid, np.zeros((64, 64), dtype=complex))
        with pytest.warns(UserWarning):
            assert analyticity_radius_estimate(theta, 0.5) == 0.0

    def test_fit_reports_low_signal(self):
        grid = Grid(64)
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = coeffs[-1, 0] = 0.5  # all energy below the fit range
        *_, low_signal = spectral_decay_fit(SpectralField(grid, coeffs), 0.5)
        assert low_signal

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("profile", ["random-band", "gaussian-pair", "single-ring"])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_fit_matches_per_ring_loop(self, n, profile, smoothing):
        grid = Grid(n)
        config = SolverConfig(
            grid=grid, initial_data=InitialData(profile, amplitude=0.3, seed=5, ring_j=2)
        )
        theta = heat_semigroup(initial_field(config), smoothing, 0.8)
        alpha = 0.4
        got = spectral_decay_fit(theta, alpha)
        want = decay_fit_loop(theta, alpha)
        assert got[:3] == pytest.approx(want[:3], rel=1e-12, abs=0.0)
        assert got[3:] == want[3:]
        assert not got[4]
