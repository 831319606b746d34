"""Tests for the dyadic bump system, block projectors and Besov norms."""


import numpy as np
import pytest

from sqgev.dyadic import (
    BesovParams,
    HomogeneityWarning,
    besov_norm,
    besov_report,
    block_lp_norms,
    build_system,
    delta_j,
    phi0,
    psi0,
)
from sqgev.solver import InitialData, SolverConfig, initial_field
from sqgev.spectral import (
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    forward_transform,
    lp_norm,
    inverse_transform,
    random_band_limited,
    random_field,
)

from reference import transformed_block_norms


def parseval_fields(grid):
    yield random_field(grid, 21, grid.k_mag > 0)
    yield random_band_limited(grid, 2, seed=22)
    for profile in ("random-band", "gaussian-pair", "single-ring"):
        config = SolverConfig(grid=grid, initial_data=InitialData(profile, amplitude=0.3, seed=23))
        yield initial_field(config)


class TestProfiles:
    def test_psi0_plateau_and_support(self):
        assert psi0(0.4) == 1.0
        assert psi0(0.5) == 1.0
        assert psi0(1.0) == 0.0
        assert psi0(1.1) == 0.0
        r = np.linspace(0, 3, 301)
        vals = psi0(r)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) <= 1e-12)  # nonincreasing

    def test_phi0_support(self):
        assert phi0(0.3) == 0.0
        assert phi0(0.5) == 0.0
        assert phi0(1.0) == 1.0  # psi0(1/2) - psi0(1)
        assert phi0(2.0) == 0.0
        assert phi0(3.0) == 0.0
        r = np.linspace(0, 4, 401)
        vals = phi0(r)
        assert np.all(vals >= -1e-15) and np.all(vals <= 1 + 1e-15)


class TestBuildSystem:
    def test_resolved_range_256(self):
        system = build_system(Grid(256))
        assert system.j_min == 0
        assert system.j_max == 6  # 2^(6+1) = 128 = Nyquist

    def test_resolved_range_small(self):
        system = build_system(Grid(8))
        assert system.j_min == 0
        assert system.j_max == 1

    def test_each_annulus_contains_a_mode(self):
        grid = Grid(64)
        system = build_system(grid)
        for j in system.js():
            mask = (grid.k_mag > 2.0 ** (j - 1)) & (grid.k_mag < 2.0 ** (j + 1))
            assert mask.any()

    def test_partition_of_unity_on_resolved_annulus(self):
        # direct summation over the built profiles
        for n in (64, 256):
            system = build_system(Grid(n))
            lo = 2.0**system.j_min
            hi = 2.0 ** (system.j_max - 1)
            radii = np.linspace(lo, hi, 500)
            total = sum(system.phi(j, radii) for j in system.js())
            assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_partition_at_specific_radius(self):
        system = build_system(Grid(256))
        total = sum(float(system.phi(j, 5.37)) for j in system.js())
        assert abs(total - 1.0) <= 1e-10


class TestBlocks:
    def test_delta_j_on_plane_wave_matches_profile(self):
        grid = Grid(64)
        system = build_system(grid)
        x1, _ = grid.meshgrid()
        F = forward_transform(RealField(grid, np.cos(x1)))  # |k| = 1
        for j in system.js():
            expected = float(system.phi(j, 1.0))
            out = inverse_transform(delta_j(F, j))
            np.testing.assert_allclose(out.values, expected * np.cos(x1), atol=1e-13)

    def test_disjoint_blocks_annihilate(self):
        grid = Grid(128)
        F = forward_transform(RealField(grid, np.random.default_rng(0).standard_normal((128, 128))))
        once = delta_j(F, 4)
        twice = delta_j(once, 1)  # |4 - 1| >= 2: disjoint annuli
        assert np.max(np.abs(twice.coeffs)) == 0.0

    def test_blocks_sum_to_identity_on_banded_field(self):
        grid = Grid(128)
        system = build_system(grid)
        F = random_band_limited(grid, 3, seed=5)
        total = delta_j(F, system.j_min)
        for j in range(system.j_min + 1, system.j_max + 1):
            total = total + delta_j(F, j)
        scale = np.max(np.abs(F.coeffs))
        assert np.max(np.abs(total.coeffs - F.coeffs)) <= 1e-10 * scale

    def test_delta_j_out_of_range(self):
        grid = Grid(64)
        system = build_system(grid)
        F = random_band_limited(grid, 2, seed=1)
        with pytest.raises(BandRangeError):
            delta_j(F, system.j_max + 1)


class TestBesovNorm:
    def test_single_ring_collapse_q_independent(self):
        # spectrum exactly on |k| = 2^j0 where phi_j0 = 1 and neighbors vanish
        grid = Grid(64)
        j0, s = 2, 0.7
        x1, _ = grid.meshgrid()
        f = RealField(grid, np.cos((2**j0) * x1))
        F = forward_transform(f)
        expected = 2.0 ** (j0 * s) * lp_norm(f, 4)
        for q in (1.0, 2.0, np.inf):
            got = besov_norm(F, BesovParams(s, 4.0, q))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_l2_equivalence_at_s0_p2_q2(self):
        grid = Grid(128)
        system = build_system(grid)
        mask = (grid.k_mag >= 2.0**system.j_min) & (grid.k_mag <= 2.0**system.j_max)
        F = random_field(grid, 11, mask)
        besov = besov_norm(F, BesovParams(0.0, 2.0, 2.0))
        l2 = F.l2_norm()
        assert abs(besov - l2) / l2 <= 0.02

    def test_scaling_homogeneity(self):
        grid = Grid(64)
        F = random_band_limited(grid, 2, seed=12)
        bp = BesovParams(0.5, 2.0, 1.0)
        one = besov_norm(F, bp)
        scaled = besov_norm(3.0 * F, bp)
        assert scaled == pytest.approx(3.0 * one, rel=1e-13)

    def test_q_monotonicity(self):
        grid = Grid(128)
        F = random_field(grid, 13, grid.k_mag > 0.5)
        bp_inf = BesovParams(0.3, 2.0, np.inf)
        bp_one = BesovParams(0.3, 2.0, 1.0)
        assert besov_norm(F, bp_inf) <= besov_norm(F, bp_one)

    def test_nonzero_mean_warns(self):
        grid = Grid(64)
        F = random_band_limited(grid, 2, seed=14)
        c = F.coeffs.copy()
        c[0, 0] = 1.0
        with pytest.warns(HomogeneityWarning):
            besov_norm(SpectralField(grid, c), BesovParams(0.0))

    def test_report_rows_and_discarded_energy(self):
        grid = Grid(64)
        system = build_system(grid)
        F = random_band_limited(grid, 2, seed=15)
        c = F.coeffs.copy()
        c[0, 0] = 10.0  # mean is invisible to the homogeneous norm
        rows, discarded = besov_report(SpectralField(grid, c), BesovParams(0.0))
        assert len(rows) == len(list(system.js()))
        expected = 100.0 / float(np.sum(np.abs(c) ** 2))
        assert discarded == pytest.approx(expected, rel=1e-12)
        final = rows[-1]["cumulative"]
        with pytest.warns(HomogeneityWarning):
            norm = besov_norm(SpectralField(grid, c), BesovParams(0.0))
        assert final == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_parseval_blocks_match_quadrature(self, n):
        grid = Grid(n)
        system = build_system(grid)

        def gevrey_weight(r):
            return np.exp(0.3 * r**0.5)

        for f in parseval_fields(grid):
            want = transformed_block_norms(f, 2.0)
            # a block at the roundoff floor of the field (the far tail of the
            # gaussian pair) is junk whose imaginary part the quadrature
            # drops, so blocks are held to 1e-12 of the largest one
            floor = 1e-12 * want.max()
            np.testing.assert_allclose(block_lp_norms(f, 2.0), want, rtol=1e-12, atol=floor)
            # a radial weight read on the ring radii against the blocks of
            # the lattice-weighted field
            weighted = transformed_block_norms(f, 2.0, gevrey_weight)
            np.testing.assert_allclose(block_lp_norms(f, 2.0, gevrey_weight), weighted,
                                       rtol=1e-12, atol=1e-12 * weighted.max())
            for bp in (BesovParams(0.7, 2.0, 2.0), BesovParams(-0.3, 2.0, 1.0),
                       BesovParams(1.2, 2.0, np.inf)):
                terms = 2.0 ** (bp.s * np.arange(system.j_min, system.j_max + 1)) * want
                expected = np.max(terms) if np.isinf(bp.q) else np.sum(terms**bp.q) ** (1 / bp.q)
                assert besov_norm(f, bp) == pytest.approx(expected, rel=1e-12, abs=0.0)
                rows, _ = besov_report(f, bp)
                got = [row["weighted_block_norm"] for row in rows]
                np.testing.assert_allclose(got, terms, rtol=1e-12, atol=1e-12 * terms.max())
                assert rows[-1]["cumulative"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0, np.inf])
    @pytest.mark.parametrize("profile", ["random-band", "gaussian-pair", "single-ring"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_half_plane_blocks_match_transformed_blocks(self, n, profile, p):
        # off p = 2 a block is one irfft2 of (c w) phi_j on the k2 >= 0 half
        # plane; the reference transforms the full-plane block of the
        # lattice-weighted field.  The gaussian pair's far tail blocks are
        # round-off junk, so blocks are held to 1e-12 of the largest one
        grid = Grid(n)
        f = initial_field(SolverConfig(grid=grid, initial_data=InitialData(profile, 0.3, seed=23)))
        for weight in (None, lambda r: np.exp(0.3 * r**0.5)):
            want = transformed_block_norms(f, p, weight)
            np.testing.assert_allclose(block_lp_norms(f, p, weight), want,
                                       rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("size", [1e-6, 1e-8, 1e-10, 1e-12, 1e-16])
    @pytest.mark.parametrize("mode", [(3, 1), (9, 2), (0, 20)])
    def test_hermitian_rule_matches_transformed_blocks(self, size, mode):
        # p = 2 and p = 4 raise exactly when inverse_transform would reject
        # some block of the quadrature path
        grid = Grid(64)
        system = build_system(grid)
        f = random_field(grid, 24, grid.k_mag > 0)
        c = f.coeffs.copy()
        c[mode] += size * np.max(np.abs(c)) * (1.0 + 1.0j)
        g = SpectralField(grid, c)
        slow_rejects = any(not delta_j(g, j).is_hermitian() for j in system.js())
        for p in (2.0, 4.0):
            if slow_rejects:
                with pytest.raises(HermitianSymmetryError):
                    besov_norm(g, BesovParams(0.5, p))
            else:
                besov_norm(g, BesovParams(0.5, p))
        assert slow_rejects == (size >= 1e-8)

    def test_non_hermitian_field_raises(self):
        grid = Grid(64)
        c = random_band_limited(grid, 2, seed=25).coeffs.copy()
        c[2, 3] += 0.5
        for p in (2.0, 4.0):
            with pytest.raises(HermitianSymmetryError):
                besov_norm(SpectralField(grid, c), BesovParams(0.5, p))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_raises(self, bad):
        grid = Grid(64)
        c = random_band_limited(grid, 2, seed=26).coeffs.copy()
        c[2, 3] = bad
        for p in (2.0, 4.0):
            with pytest.raises(ConfigError):
                besov_norm(SpectralField(grid, c), BesovParams(0.5, p))

    def test_rejects_bad_indices(self):
        with pytest.raises(ConfigError):
            BesovParams(0.0, p=0.5)

    @pytest.mark.parametrize("s, p, q", [(0.5, 2.0, np.nan), (np.nan, 2.0, 2.0),
                                         (0.5, np.nan, 2.0), (np.inf, 2.0, 2.0)])
    def test_rejects_nonfinite_s_and_nan_indices(self, s, p, q):
        # besov_norm of a field would be NaN at any of these
        with pytest.raises(ConfigError, match="finite s and p, q >= 1"):
            BesovParams(s, p, q)


class TestDefaultSystem:
    """build_system is the one memoized dyadic system of a grid."""

    def test_memoized(self):
        a = build_system(Grid(64))
        assert build_system(Grid(64)) is a
        assert build_system(Grid(32)) is not a
