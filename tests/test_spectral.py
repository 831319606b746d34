"""Tests for grids, transforms, multipliers, quadrature norms and snapshots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgev.spectral import (
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    MultiplierOverflowError,
    RealField,
    SpectralField,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    load_field,
    lp_norm,
    random_band_limited,
    save_field,
)

TWO_PI = 2.0 * math.pi


def random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal((grid.n, grid.n)))


class TestGrid:
    def test_wavenumber_lattice(self):
        grid = Grid(16)
        assert grid.freqs[0] == 0
        assert grid.freqs[1] == 1
        assert grid.freqs[8] == -8  # Nyquist wraps negative
        assert grid.k_nyquist == pytest.approx(8.0)
        assert grid.k_min == pytest.approx(1.0)

    def test_box_length_scales_wavenumbers(self):
        grid = Grid(16, box_length=2 * TWO_PI)
        assert grid.k_min == pytest.approx(0.5)
        assert grid.k_nyquist == pytest.approx(4.0)

    def test_negation_symmetry_except_nyquist(self):
        grid = Grid(16)
        f = grid.freqs
        for m in f:
            if m != -grid.n // 2:
                assert -m in f

    @pytest.mark.parametrize("box_length", [TWO_PI, 3.0])
    def test_ring_index(self, box_length):
        grid = Grid(32, box_length)
        rings = grid.rings
        assert rings.ids.dtype == np.int32 and rings.ids.shape == (32, 32)
        assert not rings.ids.flags.writeable
        m2 = grid.freqs[:, None] ** 2 + grid.freqs[None, :] ** 2
        assert np.array_equal(rings.m2[rings.ids], m2)
        assert np.all(np.diff(rings.m2) > 0)
        assert rings.counts.sum() == 32 * 32
        np.testing.assert_allclose(rings.radii[rings.ids], grid.k_mag, rtol=1e-15)
        ones = np.ones((32, 32))
        assert np.array_equal(rings.sum(ones), rings.counts)
        assert np.array_equal(rings.max(grid.k_mag), np.max(
            [np.where(rings.ids == i, grid.k_mag, 0.0) for i in range(rings.m2.size)], axis=(1, 2)
        ))
        assert Grid(32, box_length).rings is rings

    @pytest.mark.parametrize("n", [7, 12, 4, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ConfigError):
            Grid(n)

    def test_rejects_bad_box(self):
        with pytest.raises(ConfigError):
            Grid(16, box_length=-1.0)


class TestTransforms:
    def test_constant_field(self):
        grid = Grid(16)
        F = forward_transform(RealField(grid, np.ones((16, 16))))
        assert F.coeffs[0, 0] == pytest.approx(1.0)
        rest = F.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_plane_wave_has_two_half_coefficients(self):
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(x1)))
        assert F.coeffs[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert F.coeffs[-1, 0] == pytest.approx(0.5, abs=1e-14)
        assert abs(F.coeffs).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [16, 64])
    def test_round_trip(self, n):
        grid = Grid(n)
        f = random_real_field(grid, seed=n)
        back = inverse_transform(forward_transform(f))
        rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
        assert rel <= 1e-12

    def test_spectral_round_trip(self):
        grid = Grid(16)
        F = forward_transform(random_real_field(grid, seed=3))
        again = forward_transform(inverse_transform(F))
        assert np.max(np.abs(again.coeffs - F.coeffs)) <= 1e-12

    def test_inverse_rejects_non_hermitian(self):
        grid = Grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[1, 0] = 1.0  # missing conjugate partner
        with pytest.raises(HermitianSymmetryError):
            inverse_transform(SpectralField(grid, c))

    def test_rejects_nonfinite_real_field(self):
        grid = Grid(16)
        v = np.zeros((16, 16))
        v[3, 3] = np.nan
        with pytest.raises(ConfigError):
            RealField(grid, v)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_linearity(self, a, b, seed):
        grid = Grid(16)
        f = random_real_field(grid, seed)
        g = random_real_field(grid, seed + 1)
        lhs = forward_transform(RealField(grid, a * f.values + b * g.values))
        rhs = a * forward_transform(f) + b * forward_transform(g)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-30)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * scale


class TestApplyMultiplier:
    def test_identity_symbol(self):
        grid = Grid(16)
        F = forward_transform(random_real_field(grid, 0))
        out = apply_multiplier(F, lambda kx, ky: np.ones_like(kx))
        np.testing.assert_array_equal(out.coeffs, F.coeffs)

    def test_laplacian_symbol_on_plane_wave(self):
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(x1)))
        out = apply_multiplier(F, lambda kx, ky: kx**2 + ky**2)
        back = inverse_transform(out)
        np.testing.assert_allclose(back.values, np.cos(x1), atol=1e-13)

    def test_annulus_indicator_support(self):
        grid = Grid(64)
        F = forward_transform(random_real_field(grid, 1))
        out = apply_multiplier(
            F, lambda kx, ky: ((np.hypot(kx, ky) >= 4) & (np.hypot(kx, ky) <= 8)) * 1.0
        )
        kmag = grid.k_mag
        inside = (kmag >= 4) & (kmag <= 8)
        assert np.all(out.coeffs[~inside] == 0)
        assert np.any(out.coeffs[inside] != 0)

    def test_composition_matches_product_symbol(self):
        grid = Grid(32)
        F = forward_transform(random_real_field(grid, 2))
        a = lambda kx, ky: np.exp(-0.1 * np.hypot(kx, ky))
        b = lambda kx, ky: 1.0 + kx**2
        chained = apply_multiplier(apply_multiplier(F, a), b)
        fused = apply_multiplier(F, lambda kx, ky: a(kx, ky) * b(kx, ky))
        scale = np.max(np.abs(fused.coeffs))
        # one extra rounding per mode is the only allowed difference
        assert np.max(np.abs(chained.coeffs - fused.coeffs)) <= 1e-14 * scale

    def test_nonfinite_symbol_on_occupied_mode_raises(self):
        grid = Grid(16)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(x1)))

        def bad(kx, ky):
            kmag = np.hypot(kx, ky)
            with np.errstate(divide="ignore"):
                return 1.0 / (kmag - 1.0)  # infinite exactly on |k| = 1

        with pytest.raises(MultiplierOverflowError) as err:
            apply_multiplier(F, bad)
        assert err.value.wavenumber is not None

    def test_nonfinite_symbol_on_empty_mode_is_zeroed(self):
        grid = Grid(16)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(2 * x1)))

        def spiky(kx, ky):
            kmag = np.hypot(kx, ky)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(kmag == 1.0, np.inf, 1.0)

        out = apply_multiplier(F, spiky)
        assert np.max(np.abs(out.coeffs - F.coeffs)) < 1e-15


class TestLpNorm:
    @pytest.mark.parametrize("p", [1, 2, 4, np.inf])
    def test_constant_field(self, p):
        grid = Grid(16, box_length=TWO_PI)
        f = RealField(grid, -3.0 * np.ones((16, 16)))
        expected = 3.0 if math.isinf(p) else 3.0 * TWO_PI ** (2.0 / p)
        assert lp_norm(f, p) == pytest.approx(expected, rel=1e-13)

    def test_parseval(self):
        grid = Grid(64)
        f = random_real_field(grid, 5)
        F = forward_transform(f)
        quad = lp_norm(f, 2)
        spectral = F.l2_norm()
        assert abs(quad - spectral) / spectral <= 1e-12

    def test_cos_fourth_power(self):
        # integral of cos^4 over one period is (3/8) * 2*pi, times 2*pi in x2
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        f = RealField(grid, np.cos(x1))
        expected = ((3.0 / 8.0) * TWO_PI**2) ** 0.25
        assert lp_norm(f, 4) == pytest.approx(expected, rel=1e-13)

    def test_rejects_p_below_one(self):
        grid = Grid(16)
        f = RealField(grid, np.ones((16, 16)))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)


class TestRandomBandLimited:
    def test_unresolvable_band_raises(self):
        grid = Grid(16)  # smallest |k| is 1, annulus of j=-3 tops out at 1/4
        with pytest.raises(BandRangeError):
            random_band_limited(grid, -3, seed=0)

    def test_spectrum_confined_to_annulus(self):
        grid = Grid(64)
        F = random_band_limited(grid, 3, seed=7)
        kmag = grid.k_mag
        occupied = np.abs(F.coeffs) > 0
        assert np.all(kmag[occupied] >= 4.0)
        assert np.all(kmag[occupied] <= 16.0)
        assert occupied.any()

    def test_hermitian_and_deterministic(self):
        grid = Grid(64)
        F1 = random_band_limited(grid, 3, seed=11)
        F2 = random_band_limited(grid, 3, seed=11)
        np.testing.assert_array_equal(F1.coeffs, F2.coeffs)
        assert F1.is_hermitian(1e-12)

    def test_seed_sensitivity(self):
        grid = Grid(64)
        F1 = random_band_limited(grid, 3, seed=1)
        F2 = random_band_limited(grid, 3, seed=2)
        assert np.max(np.abs(F1.coeffs - F2.coeffs)) > 0


class TestSnapshotFiles:
    def test_real_round_trip(self, tmp_path):
        grid = Grid(16, box_length=3.5)
        f = random_real_field(grid, 9)
        path = tmp_path / "f.snap"
        save_field(path, f, time=1.25, extra={"note": "test"})
        loaded, header = load_field(path)
        assert isinstance(loaded, RealField)
        np.testing.assert_array_equal(loaded.values, f.values)
        assert header["time"] == 1.25
        assert loaded.grid.box_length == pytest.approx(3.5)
        assert header["note"] == "test"

    def test_spectral_round_trip(self, tmp_path):
        grid = Grid(16)
        F = forward_transform(random_real_field(grid, 10))
        path = tmp_path / "F.snap"
        save_field(path, F, time=0.5)
        loaded, header = load_field(path)
        assert isinstance(loaded, SpectralField)
        np.testing.assert_array_equal(loaded.coeffs, F.coeffs)
        assert header["kind"] == "spectral"

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"n=16\nno separator here")
        with pytest.raises(ConfigError):
            load_field(path)
