"""Tests for Gevrey multiplier, fractional operators, the Riesz velocity,
X_T norms and radius estimation."""

import math
import re

import numpy as np
import pytest

from sqgev.dyadic import (
    BesovParams,
    HomogeneityWarning,
    besov_norm,
    block_lp_norms,
    build_system,
)
from sqgev import gevrey
from sqgev.gevrey import (
    GevreyOverflowError,
    GevreyParams,
    XTNormSample,
    XTSink,
    fit_line,
    fit_radius,
    fractional_laplacian,
    gevrey_multiply,
    heat_semigroup,
    max_admissible_gamma,
    spectral_decay_fit,
    xt_norm,
)
from sqgev.solver import InitialData, SolverConfig, initial_field
from sqgev.spectral import (
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    box_mask,
    forward_transform,
    hermitian_noise,
    hermitian_symmetrize,
    inverse_transform,
    random_band_limited,
)

from reference import riesz_transform


def riesz_velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """SQG velocity u = (-R_2 theta, R_1 theta); divergence-free by symbol algebra."""
    return -riesz_transform(theta, 2), riesz_transform(theta, 1)


def decay_fit_loop(theta, alpha):
    """Per-ring loop form of spectral_decay_fit: a full-grid mask and mean per
    ring, kept as the reference for the ring-index implementation."""
    grid = theta.grid
    m2 = np.rint(grid.k_mag**2).astype(np.int64)
    nyq2 = (grid.n // 2) ** 2
    mags = np.abs(theta.coeffs)
    populated = (mags > 0) & (m2 > 0) & (m2 <= nyq2)
    if not populated.any():
        return 0.0, 0.0, 0.0, 0, True
    top2 = int(m2[populated].max())
    fit_zone = (m2 > top2 // 4) & (m2 <= top2)
    radii, means = [], []
    for ring in np.unique(m2[fit_zone]):
        radii.append(math.sqrt(ring))
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


def xt_norm_loop(t, field, gp, bp):
    """xt_norm as it was before the p = 2 path read the ring spectrum: the
    weighted field is formed on the full grid, then normed.  Kept as the
    reference of the ring-weight path."""
    gamma_t = gp.radius_at(t)
    besov = besov_norm(gevrey_multiply(field, gamma_t, gp.alpha), bp)
    return XTNormSample(t, gamma_t, besov, t ** (gp.beta / gp.kappa) * besov)


def one_mode_pair(grid, amplitude, defect):
    """c(k0) = amplitude and c(-k0) = amplitude + defect at k0 = (4, 0), on
    the plateau phi_2(4) = 1 of one block; every other mode is zero."""
    c = np.zeros((grid.n, grid.n), dtype=complex)
    c[4, 0] = amplitude
    c[-4, 0] = amplitude + defect
    return SpectralField(grid, c)


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
        with pytest.raises(GevreyOverflowError, match=re.escape(f"on this grid is {cap:g}")):
            gevrey_multiply(F, cap * 1.01, 0.5)

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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_gamma(self, gamma):
        # before a weight is built: exp(nan) or inf * |0|^alpha would be NaN
        F = random_band_limited(Grid(32), 2, seed=4)
        with pytest.raises(ConfigError, match="finite"):
            gevrey_multiply(F, gamma, 0.5)


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

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_order(self, s):
        F = random_band_limited(Grid(32), 2, seed=5)
        with pytest.raises(ConfigError, match="finite order"):
            fractional_laplacian(F, s)


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

    @pytest.mark.parametrize("t, kappa", [(np.nan, 0.5), (np.inf, 0.5), (0.1, np.nan), (0.1, np.inf)])
    def test_nonfinite_time_or_order_is_a_config_error(self, t, kappa):
        F = random_band_limited(Grid(32), 2, seed=8)
        with pytest.raises(ConfigError, match="finite t >= 0"):
            heat_semigroup(F, t, kappa)


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
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GevreyParams(**kwargs)


class TestXTNorm:
    def test_degenerate_sample_is_plain_besov(self):
        grid = Grid(64)
        F = random_band_limited(grid, 2, seed=11)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.0, beta=0.0)
        bp = BesovParams(0.5, 2.0, 2.0)
        sample = xt_norm(0.7, F, gp, bp)
        assert sample.weighted == pytest.approx(besov_norm(F, bp), rel=1e-12)
        assert sample.gamma == 0.0

    def test_heat_flow_sup_is_finite_and_attained(self):
        grid = Grid(64)
        F0 = random_band_limited(grid, 3, seed=12)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.1, beta=0.3)
        bp = BesovParams(0.5, 2.0, 2.0)
        times = np.linspace(0.05, 2.0, 20)
        samples = [xt_norm(t, heat_semigroup(F0, t, gp.kappa), gp, bp) for t in times]
        sup = max(s.weighted for s in samples)
        assert math.isfinite(sup) and sup > 0

    def test_sample_at_time_zero_rejected(self):
        F = random_band_limited(Grid(16), 1, seed=11)
        gp = GevreyParams(alpha=0.4, kappa=0.8)
        for t in (0.0, math.nan):
            with pytest.raises(ConfigError, match="t > 0"):
                xt_norm(t, F, gp, BesovParams(0.5))

    def test_overflow_carries_time(self):
        grid = Grid(64)
        F = random_band_limited(grid, 2, seed=13)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=1e4, beta=0.0)
        with pytest.raises(GevreyOverflowError, match=r"at t=5 \("):
            xt_norm(5.0, F, gp, BesovParams(0.5))

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_overflow_names_the_first_sample_past_the_guard(self, p):
        grid = Grid(64)
        F = random_band_limited(grid, 2, seed=13)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=100.0, beta=0.0)
        cap = max_admissible_gamma(grid, 0.4)
        times = [0.1, 5.0, 8.0]
        assert gp.radius_at(0.1) < cap < gp.radius_at(5.0)
        sink = XTSink(1, gp, BesovParams(0.5, p))
        for t in times:
            sink(0, t, F, None)
        assert [s.t for s in sink.samples[0]] == [0.1]
        with pytest.raises(GevreyOverflowError, match=rf"at t=5 .* is {re.escape(f'{cap:g}')}$"):
            sink.raise_overflow()

    def test_weighted_norm_overflow_inside_the_guard_raises(self):
        # gamma(2) = 100 * 2^0.5 = 141.4 is under the guard's 152.3 on
        # n = 64, but |G v|^4 overflows in the L^4 quadrature; p = 2 stays
        # finite
        grid = Grid(64)
        F = random_band_limited(grid, 2, seed=13)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=100.0)
        assert gp.radius_at(2.0) < max_admissible_gamma(grid, 0.4)
        assert math.isfinite(xt_norm(2.0, F, gp, BesovParams(0.5, 2.0)).weighted)
        with pytest.raises(GevreyOverflowError, match=r"at t=2 \("):
            xt_norm(2.0, F, gp, BesovParams(0.5, 4.0))

    def test_weighted_coefficient_overflow_inside_the_guard_raises(self):
        # a broadband field: G v itself is not finite at the top modes
        grid = Grid(64)
        F = 1e30 * hermitian_noise(grid, box_mask(grid, 31), np.random.default_rng(0))
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=100.0)
        with pytest.raises(GevreyOverflowError, match=r"at t=2 \("):
            xt_norm(2.0, F, gp, BesovParams(0.5, 4.0))

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("profile", ["random-band", "gaussian-pair", "single-ring"])
    def test_ring_weight_matches_weighted_field(self, n, profile):
        grid = Grid(n)
        config = SolverConfig(
            grid=grid, initial_data=InitialData(profile, amplitude=0.3, seed=5, ring_j=2)
        )
        theta0 = initial_field(config)
        traj = [(t, heat_semigroup(theta0, t, 0.8)) for t in (0.01, 0.1, 0.5, 2.0, 6.0)]
        for gp in (GevreyParams(alpha=0.4, kappa=0.8, lam=0.5, beta=0.3),
                   GevreyParams(alpha=0.7, kappa=0.8, lam=2.0, beta=0.1)):
            for bp in (BesovParams(0.5, 2.0, 2.0), BesovParams(-0.2, 2.0, 1.0),
                       BesovParams(1.0, 2.0, np.inf)):
                samples = [xt_norm(t, f, gp, bp) for t, f in traj]
                want = [xt_norm_loop(t, f, gp, bp) for t, f in traj]
                assert max(s.weighted for s in samples) == pytest.approx(
                    max(s.weighted for s in want), rel=1e-14, abs=0.0)
                for got, ref in zip(samples, want):
                    assert (got.t, got.gamma) == (ref.t, ref.gamma)
                    assert got.besov == pytest.approx(ref.besov, rel=1e-14, abs=0.0)
                    assert got.weighted == pytest.approx(ref.weighted, rel=1e-14, abs=0.0)

    def test_weighted_block_defect_raises(self):
        # the defect passes the absolute floor unweighted, and the weight
        # 100 on the ring of k0 lifts it past the floor
        grid = Grid(32)
        f = one_mode_pair(grid, 1e-6, 5e-14)
        gp = GevreyParams(alpha=0.5, kappa=1.0, lam=math.log(100.0) / 2.0, beta=0.0)
        bp = BesovParams(0.5)
        besov_norm(f, bp)
        for norm in (xt_norm, xt_norm_loop):
            with pytest.raises(HermitianSymmetryError):
                norm(1.0, f, gp, bp)

    def test_weighted_block_defect_below_the_floor_passes(self):
        # weight 100 keeps the defect under the floor; weight 100^2 would not
        grid = Grid(32)
        f = one_mode_pair(grid, 1e-9, 5e-16)
        gp = GevreyParams(alpha=0.5, kappa=1.0, lam=math.log(100.0) / 2.0, beta=0.0)
        bp = BesovParams(0.5)
        got = xt_norm(1.0, f, gp, bp).weighted
        assert got == pytest.approx(xt_norm_loop(1.0, f, gp, bp).weighted, rel=1e-14)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("grid", [Grid(16), Grid(64)])
    def test_norm_reads_the_band_range_of_the_field_grid(self, p, grid):
        # each field is normed over its own grid's resolved bands, which
        # differ from those of Grid(32) on both grids here
        system = build_system(grid)
        other = build_system(Grid(32))
        assert (system.j_min, system.j_max) != (other.j_min, other.j_max)
        F = random_band_limited(grid, 2, seed=13)
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.5, beta=0.3)
        sample = xt_norm(0.5, F, gp, BesovParams(0.5, p))
        blocks = block_lp_norms(gevrey_multiply(F, sample.gamma, gp.alpha), p)
        terms = 2.0 ** (0.5 * np.arange(system.j_min, system.j_max + 1)) * blocks
        assert sample.besov == pytest.approx(np.sqrt(np.sum(terms**2)), rel=1e-13)

    @pytest.mark.parametrize("bp", [BesovParams(0.5, 4.0), BesovParams(-0.2, 4.0, 1.0),
                                    BesovParams(1.0, 3.0, np.inf)])
    def test_p_other_than_2_is_the_lattice_weighted_norm(self, bp):
        # away from p = 2 the weight multiplies the lattice: bit for bit
        # gevrey_multiply followed by besov_norm
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.5, beta=0.3)
        F0 = random_band_limited(Grid(64), 3, seed=12)
        traj = [(t, heat_semigroup(F0, t, gp.kappa)) for t in (0.05, 0.5, 2.0)]
        for t, f in traj:
            sample = xt_norm(t, f, gp, bp)
            besov = besov_norm(gevrey_multiply(f, sample.gamma, gp.alpha), bp)
            assert sample.besov == besov
            assert sample.weighted == t ** (gp.beta / gp.kappa) * besov

    def test_weighted_nonzero_mean_warns(self):
        grid = Grid(64)
        c = random_band_limited(grid, 2, seed=14).coeffs.copy()
        c[0, 0] = 1.0
        gp = GevreyParams(alpha=0.4, kappa=0.8, lam=0.5, beta=0.3)
        with pytest.warns(HomogeneityWarning):
            xt_norm(0.5, SpectralField(grid, c), gp, BesovParams(0.5))


class TestRadiusEstimate:
    def test_exact_log_linear_spectrum(self):
        grid = Grid(64)
        alpha = 0.5
        coeffs = np.exp(-2.0 * grid.k_mag**alpha)
        theta = SpectralField(grid, coeffs)
        assert fit_radius(spectral_decay_fit(theta, alpha)) == pytest.approx(2.0, abs=1e-6)

    def test_white_spectrum_gives_zero(self):
        grid = Grid(64)
        rng = np.random.default_rng(14)
        signs = np.sign(hermitian_symmetrize(grid, rng.standard_normal((64, 64)) + 0j).real)
        signs[signs == 0] = 1.0
        theta = SpectralField(grid, signs.astype(complex))
        assert fit_radius(spectral_decay_fit(theta, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_heat_flow_of_flat_data_recovers_time(self):
        grid = Grid(128)
        kappa = 0.6
        flat = SpectralField(grid, np.ones((128, 128), dtype=complex))
        for t in (0.5, 1.5):
            decayed = heat_semigroup(flat, t, kappa)
            est = fit_radius(spectral_decay_fit(decayed, kappa))
            assert abs(est - t) / t <= 0.02

    def test_zero_field_returns_zero(self):
        grid = Grid(64)
        theta = SpectralField(grid, np.zeros((64, 64), dtype=complex))
        fit = spectral_decay_fit(theta, 0.5)
        assert fit[-1]  # low signal
        assert fit_radius(fit) == 0.0

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

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("profile", ["random-band", "gaussian-pair"])
    def test_line_fit_matches_polyfit_on_the_ring_means(self, monkeypatch, n, profile):
        pairs = []

        def spy(x, y):
            pairs.append((x, y))
            return fit_line(x, y)

        monkeypatch.setattr(gevrey, "fit_line", spy)
        config = SolverConfig(grid=Grid(n), initial_data=InitialData(profile, seed=5))
        spectral_decay_fit(heat_semigroup(initial_field(config), 0.5, 0.8), 0.4)
        ((x, y),) = pairs
        slope, intercept, _ = fit_line(x, y)
        want_slope, want_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
        assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=0.0)

    def test_decay_fit_calls_no_least_squares_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the line fit must not call a least-squares solver")

        # np.polyfit holds its own reference to lstsq, so refuse both
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        theta = heat_semigroup(SpectralField(Grid(64), np.ones((64, 64), dtype=complex)), 0.5, 0.6)
        gamma_hat, *_, low_signal = spectral_decay_fit(theta, 0.6)
        assert not low_signal
        assert gamma_hat == pytest.approx(0.5, rel=1e-9)
