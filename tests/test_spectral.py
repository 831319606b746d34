"""Tests for grids, transforms, multipliers, quadrature norms and snapshots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgev.spectral import (
    TWO_PI,
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    apply_multiplier,
    band_mask,
    forward_transform,
    hermitian_symmetrize,
    inverse_transform,
    load_field,
    lp_norm,
    negated_modes,
    random_band_limited,
    random_phases,
    save_field,
)


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

    def test_negation_symmetry_except_nyquist(self):
        grid = Grid(16)
        f = grid.freqs
        for m in f:
            if m != -grid.n // 2:
                assert -m in f

    def test_ring_index(self):
        grid = Grid(32)
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
        assert Grid(32).rings is rings

    def test_wavenumbers_come_from_the_frequency_axis(self):
        grid = Grid(32)
        k = grid.freqs.astype(float)
        assert np.array_equal(grid.k_axis, k)
        assert np.array_equal(grid.kx, np.broadcast_to(k[:, None], (32, 32)))
        assert np.array_equal(grid.ky, np.broadcast_to(k[None, :], (32, 32)))
        assert np.array_equal(grid.k_mag, np.hypot(grid.kx, grid.ky))
        assert np.array_equal(grid.half_k_mag(17), grid.k_mag[:, :17])
        assert grid.rings.radii[-1] == np.max(grid.k_mag)

    @pytest.mark.parametrize("n", [7, 12, 4, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ConfigError):
            Grid(n)


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

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_inverse_equals_the_scaled_ifft2_bit_for_bit(self, n):
        # n^2 is a power of two, so scaling the input by it is exact
        grid = Grid(n)
        F = forward_transform(random_real_field(grid, seed=n))
        want = np.fft.ifft2(F.coeffs * (n * n)).real
        assert np.array_equal(inverse_transform(F).values, want)

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

    @pytest.mark.parametrize("kind", [RealField, SpectralField])
    @pytest.mark.parametrize("shape", [(8, 16), (16,), (16, 16, 1)])
    def test_rejects_wrong_shape(self, kind, shape):
        with pytest.raises(ConfigError, match="does not match grid"):
            kind(Grid(16), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_spectral_field(self, bad):
        c = np.zeros((8, 8), dtype=complex)
        c[1, 2] = bad
        for coeffs in (c, np.full((8, 8), complex(0.0, bad))):
            with pytest.raises(ConfigError):
                SpectralField(Grid(8), coeffs)

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


class TestNegatedModes:
    @pytest.mark.parametrize("n", [8, 16, 128])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_the_gathered_index(self, n, kind):
        rng = np.random.default_rng(n)
        c = rng.standard_normal((n, n))
        if kind == "complex":
            c = c + 1j * rng.standard_normal((n, n))
        idx = (-np.arange(n)) % n
        assert np.array_equal(negated_modes(c), c[np.ix_(idx, idx)])


class TestApplyMultiplier:
    def test_identity_symbol(self):
        grid = Grid(16)
        F = forward_transform(random_real_field(grid, 0))
        out = apply_multiplier(F, np.ones((16, 16)))
        np.testing.assert_array_equal(out.coeffs, F.coeffs)

    def test_laplacian_symbol_on_plane_wave(self):
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(x1)))
        out = apply_multiplier(F, grid.kx**2 + grid.ky**2)
        back = inverse_transform(out)
        np.testing.assert_allclose(back.values, np.cos(x1), atol=1e-13)

    def test_annulus_indicator_support(self):
        grid = Grid(64)
        F = forward_transform(random_real_field(grid, 1))
        kmag = grid.k_mag
        inside = (kmag >= 4) & (kmag <= 8)
        out = apply_multiplier(F, inside * 1.0)
        assert np.all(out.coeffs[~inside] == 0)
        assert np.any(out.coeffs[inside] != 0)

    def test_composition_matches_product_symbol(self):
        grid = Grid(32)
        F = forward_transform(random_real_field(grid, 2))
        a = np.exp(-0.1 * grid.k_mag)
        b = 1.0 + grid.kx**2
        chained = apply_multiplier(apply_multiplier(F, a), b)
        fused = apply_multiplier(F, a * b)
        scale = np.max(np.abs(fused.coeffs))
        # one extra rounding per mode is the only allowed difference
        assert np.max(np.abs(chained.coeffs - fused.coeffs)) <= 1e-14 * scale

    def test_broadcast_symbol_matches_the_full_array(self):
        grid = Grid(16)
        F = forward_transform(random_real_field(grid, 3))
        row = 1j * grid.ky[:1, :]
        np.testing.assert_array_equal(
            apply_multiplier(F, row).coeffs, apply_multiplier(F, 1j * grid.ky).coeffs
        )
        with pytest.raises(ConfigError):
            apply_multiplier(F, np.ones((8, 8)))

    def test_nonfinite_symbol_on_occupied_mode_raises(self):
        # a pole on |k| = 1 under cos(x1), and an infinity on |k| = 2 under
        # cos(2 x1): the product fails the field's finiteness check
        grid = Grid(16)
        x1, _ = grid.meshgrid()
        with np.errstate(divide="ignore"):
            pole = 1.0 / (grid.k_mag - 1.0)  # infinite exactly on |k| = 1
        for mode, bad in ((1, pole), (2, np.where(grid.k_mag == 2.0, np.inf, 1.0))):
            F = forward_transform(RealField(grid, np.cos(mode * x1)))
            with pytest.raises(ConfigError, match="non-finite"):
                apply_multiplier(F, bad)

    def test_overflow_names_the_physical_wavenumber(self):
        # fft index (14, 0) of n = 16 is the mode k = (-2, 0) of cos(2 x1)
        grid = Grid(16)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(2 * x1)))
        spike = np.where((grid.kx == -2.0) & (grid.ky == 0.0), np.inf, 1.0)
        with pytest.raises(ConfigError, match=r"first at k = \(-2, 0\)"):
            apply_multiplier(F, spike)

    def test_nonfinite_symbol_on_empty_mode_raises(self):
        # inf times an empty mode's 0 is NaN: no mode is exempt
        grid = Grid(16)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(2 * x1)))
        spiky = np.where(grid.k_mag == 1.0, np.inf, 1.0)
        with pytest.raises(ConfigError, match="non-finite"):
            apply_multiplier(F, spiky)


class TestLpNorm:
    @pytest.mark.parametrize("p", [1, 2, 4, np.inf])
    def test_constant_field(self, p):
        grid = Grid(16)
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
        for p in (0.5, -np.inf, np.nan):  # NaN is not >= 1 either
            with pytest.raises(ConfigError, match="p >= 1"):
                lp_norm(f, p)


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
        assert F1.hermitian_defect() <= 1e-12 * np.max(np.abs(F1.coeffs))

    def test_seed_sensitivity(self):
        grid = Grid(64)
        F1 = random_band_limited(grid, 3, seed=1)
        F2 = random_band_limited(grid, 3, seed=2)
        assert np.max(np.abs(F1.coeffs - F2.coeffs)) > 0

    def test_draw_order(self):
        # real parts, then imaginary parts, of one full n-by-n draw
        grid = Grid(32)
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        mask = band_mask(grid, 2.0, 8.0)
        expected = hermitian_symmetrize(grid, raw * mask) * mask
        assert np.array_equal(random_band_limited(grid, 2, seed=5).coeffs, expected)

    def test_random_phases_draw_order(self):
        grid = Grid(32)
        raw = np.random.default_rng(5).uniform(-math.pi, math.pi, (32, 32))
        idx = (-np.arange(32)) % 32
        expected = np.exp(1j * 0.5 * (raw - raw[np.ix_(idx, idx)]))
        phases = random_phases(grid, np.random.default_rng(5))
        assert np.array_equal(phases, expected)
        assert SpectralField(grid, phases).hermitian_defect() == 0.0


def ring_spectrum_loop(f):
    """Per-ring loop form of SpectralField.ring_spectrum: a full-grid mask per
    ring and the full-grid Hermitian defect, kept as its reference."""
    grid = f.grid
    idx = (-np.arange(grid.n)) % grid.n
    mags = np.abs(f.coeffs)
    defects = np.abs(f.coeffs - np.conj(f.coeffs[np.ix_(idx, idx)]))
    m2 = grid.freqs[:, None] ** 2 + grid.freqs[None, :] ** 2
    rows = []
    for ring in np.unique(m2):
        on = m2 == ring
        rows.append((np.sum(mags[on] ** 2), np.sum(mags[on]), mags[on].max(), defects[on].max()))
    return [np.array(column) for column in zip(*rows)]


class TestRingSpectrum:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_per_ring_loop(self, n, hermitian):
        grid = Grid(n)
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = hermitian_symmetrize(grid, raw) if hermitian else raw
        empty = rng.random((n, n)) < 0.2  # empty modes, and some empty rings
        c[empty | negated_modes(empty)] = 0.0
        f = SpectralField(grid, c)
        spec = f.ring_spectrum
        energy, amplitude, peak, defect = ring_spectrum_loop(f)
        np.testing.assert_allclose(spec.energy, energy, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(spec.amplitude, amplitude, rtol=1e-13, atol=0.0)
        assert np.array_equal(spec.peak, peak)
        assert np.array_equal(spec.defect, defect)
        assert (f.hermitian_defect() == 0.0) == hermitian
        assert f.hermitian_defect() == defect.max()

    def test_computed_once_and_read_only(self):
        f = random_band_limited(Grid(32), 2, seed=3)
        spec = f.ring_spectrum
        assert f.ring_spectrum is spec
        for arr in (spec.energy, spec.amplitude, spec.peak, spec.defect):
            assert not arr.flags.writeable
            assert arr.shape == f.grid.rings.m2.shape
        # the field holds a frozen copy, so its spectrum cannot go stale
        with pytest.raises(ValueError):
            f.coeffs[1, 1] = 1.0


class TestSnapshotFiles:
    def test_real_round_trip(self, tmp_path):
        grid = Grid(16)
        f = random_real_field(grid, 9)
        path = tmp_path / "f.snap"
        save_field(path, f, time=1.25, extra={"note": "test"})
        loaded, header = load_field(path)
        assert isinstance(loaded, RealField)
        np.testing.assert_array_equal(loaded.values, f.values)
        assert header["time"] == 1.25
        assert loaded.grid == grid
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

    def test_spectral_bytes_are_interleaved_f8(self, tmp_path):
        # the encoding of the (n, n, 2) staging array that save_field used to fill
        grid = Grid(8)
        F = SpectralField(grid, np.arange(64).reshape(8, 8) * (0.25 - 1.5j) + 1.0 / 3.0)
        path = tmp_path / "F.snap"
        save_field(path, F, time=0.75, extra={"level": 2})
        inter = np.empty((8, 8, 2), dtype="<f8")
        inter[..., 0] = F.coeffs.real
        inter[..., 1] = F.coeffs.imag
        header = "n=8\nbox_length=6.283185307179586\nkind=spectral\ntime=0.75\nlevel=2\n\n"
        assert path.read_bytes() == header.encode("ascii") + inter.tobytes()

    def test_data_are_the_little_endian_bytes_of_the_array(self, tmp_path):
        # written through the buffer protocol, the payload is exactly the
        # tobytes() of the '<f8' values or '<c16' coefficients, signed zeros
        # included
        grid = Grid(16)
        f = random_real_field(grid, 11)
        values = f.values.copy()
        values[0, :3] = (-0.0, 0.0, -1e-310)
        c = forward_transform(f).coeffs.copy()
        c[2, 3] = complex(-0.0, 0.0)
        c[3, 2] = complex(0.0, -0.0)
        for field, data in (
            (RealField(grid, values), values.astype("<f8")),
            (SpectralField(grid, c), c.astype("<c16")),
        ):
            path = tmp_path / "f.snap"
            save_field(path, field, time=0.125)
            blob = path.read_bytes()
            assert blob.endswith(b"\n\n" + data.tobytes())
            assert len(blob) == blob.index(b"\n\n") + 2 + data.nbytes

    def test_only_the_two_pi_box_is_read(self, tmp_path):
        # the header keeps its box_length line, which must name the 2*pi box
        data = np.arange(64, dtype="<f8").tobytes()
        path = tmp_path / "f.snap"
        path.write_bytes(b"n=8\nbox_length=6.283185307179586\nkind=real\n\n" + data)
        loaded, header = load_field(path)
        assert loaded.grid == Grid(8) and header["box_length"] == repr(TWO_PI)
        np.testing.assert_array_equal(loaded.values.ravel(), np.arange(64))
        path.write_bytes(b"n=8\nbox_length=2.5\nkind=real\n\n" + data)
        with pytest.raises(ConfigError, match="box_length=2.5"):
            load_field(path)

    @pytest.mark.parametrize(
        "header, floats, match",
        [
            ("n=8\nkind real", 64, "malformed header line 'kind real'"),
            ("n=8.0\nkind=real", 64, "bad header"),
            ("n=8\nkind=real", 63, "expected 64 floats, got 63"),
            ("n=8\nkind=spectral", 64, "expected 128 floats, got 64"),
            ("n=8\nkind=complex", 128, "unknown field kind 'complex'"),
        ],
    )
    def test_malformed_file_is_a_config_error(self, tmp_path, header, floats, match):
        path = tmp_path / "bad.snap"
        head = f"box_length={TWO_PI!r}\n{header}\n\n".encode("ascii")
        path.write_bytes(head + np.zeros(floats, dtype="<f8").tobytes())
        with pytest.raises(ConfigError, match=match):
            load_field(path)

    def test_non_hermitian_spectral_payload_is_a_config_error(self, tmp_path):
        # a spectrum with one unpaired mode is not a real field
        grid = Grid(16)
        c = forward_transform(random_real_field(grid, 12)).coeffs.copy()
        c[2, 3] += 0.5
        path = tmp_path / "F.snap"
        save_field(path, SpectralField(grid, c))
        with pytest.raises(ConfigError, match="not Hermitian"):
            load_field(path)

    def test_saving_a_non_field_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="cannot save object"):
            save_field(tmp_path / "f.snap", np.zeros((8, 8)))
        assert not (tmp_path / "f.snap").exists()

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"n=16\nno separator here")
        with pytest.raises(ConfigError):
            load_field(path)

    @pytest.mark.parametrize("name", ["missing.snap", "."])
    def test_unreadable_path_is_a_config_error(self, tmp_path, name):
        # a missing file, and a directory
        with pytest.raises(ConfigError, match="cannot read snapshot"):
            load_field(tmp_path / name)
