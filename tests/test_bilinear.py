"""Tests for the bilinear multiplier machinery.

The double sum of reference.py is the verification oracle, so here it is
cross-checked against hand-rolled loops and padded-grid products, and the
package's padded product and Gevrey commutator are checked against it.
"""

import math

import numpy as np
import pytest

import sqgev.bilinear
from sqgev.bilinear import (
    _fd_combine,
    _fd_stencil,
    _multi_indices,
    _norm,
    BilinearSymbol,
    gevrey_commutators,
    make_kgtrj,
    make_ksimj,
    make_mA,
    make_mB,
    padded_product,
)
from sqgev.dyadic import build_system, delta_j, phi0
from sqgev.gevrey import (
    GevreyOverflowError,
    gevrey_multiply,
    max_admissible_gamma,
)
from sqgev.spectral import (
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    box_mask,
    forward_transform,
    inverse_transform,
    random_band_limited,
    random_field,
)

from reference import (
    CostGuardError,
    apply_bilinear,
    bilinear_pairing,
    commutator_values,
    dilate,
    estimate_operator_norm,
    make_riesz_pair,
    riesz_transform,
    rotation_dual,
)


def commutator_symbol(j: int, gamma: float, alpha: float) -> BilinearSymbol:
    """Plain two-argument symbol of [G_gamma Delta_j, .] acting on (f, g):
    G_gamma(xi+eta) phi_j(xi+eta) - G_gamma(eta) phi_j(eta)."""

    def gphi(v):
        r = np.linalg.norm(v, axis=-1)
        return np.exp(gamma * r**alpha) * phi0(r / 2.0**j)

    return BilinearSymbol(
        eval=lambda xi, eta: gphi(xi + eta) - gphi(eta),
        description=f"gevrey-commutator(j={j}, gamma={gamma:g}, alpha={alpha:g})",
    )


# m = 1: T_m(f, g) is the dealiased pointwise product f g
CONSTANT = BilinearSymbol(
    eval=lambda xi, eta: np.ones(np.broadcast_shapes(xi[..., 0].shape, eta[..., 0].shape)),
    description="constant",
)


def box_limited_noise(grid, max_component, seed):
    """Hermitian noise with |integer frequency components| <= max_component."""
    return random_field(grid, seed, box_mask(grid, max_component))


def naive_double_sum(m, f, g):
    """Independent reference: explicit python loops over occupied modes."""
    grid = f.grid
    n, half = grid.n, grid.n // 2
    out = np.zeros((n, n), dtype=complex)
    for i1 in range(n):
        for j1 in range(n):
            c1 = f.coeffs[i1, j1]
            if c1 == 0:
                continue
            m1 = (grid.freqs[i1], grid.freqs[j1])
            for i2 in range(n):
                for j2 in range(n):
                    c2 = g.coeffs[i2, j2]
                    if c2 == 0:
                        continue
                    m2 = (grid.freqs[i2], grid.freqs[j2])
                    s = (m1[0] + m2[0], m1[1] + m2[1])
                    if not (-half < s[0] < half and -half < s[1] < half):
                        continue
                    val = complex(
                        m(
                            np.array([m1], float),
                            np.array([m2], float),
                        )[0]
                    )
                    out[s[0] % n, s[1] % n] += val * c1 * c2
    return out


class TestApplyBilinear:
    def test_matches_naive_loops(self):
        grid = Grid(8)
        f = box_limited_noise(grid, 1, seed=1)
        g = box_limited_noise(grid, 1, seed=2)
        m = BilinearSymbol(
            eval=lambda xi, eta: np.exp(1j * xi[..., 0]) + eta[..., 1] ** 2,
            description="test",
        )
        got = apply_bilinear(m, f, g).coeffs
        want = naive_double_sum(m, f, g)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    def test_constant_symbol_is_pointwise_product(self):
        grid = Grid(32)
        f = box_limited_noise(grid, 7, seed=3)  # components small enough that
        g = box_limited_noise(grid, 7, seed=4)  # the product stays on-lattice
        got = apply_bilinear(CONSTANT, f, g)
        want = padded_product(f, g)
        scale = np.max(np.abs(want.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * scale

    def test_separable_riesz_pair_factorizes(self):
        grid = Grid(32)
        f = box_limited_noise(grid, 7, seed=5)
        g = box_limited_noise(grid, 7, seed=6)
        got = apply_bilinear(make_riesz_pair(), f, g)
        want = padded_product(riesz_transform(f, 1), riesz_transform(g, 1))
        scale = np.max(np.abs(want.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * scale

    def test_zero_operand_gives_zero(self):
        grid = Grid(16)
        f = box_limited_noise(grid, 3, seed=7)
        z = SpectralField(grid, np.zeros((16, 16), dtype=complex))
        assert np.all(apply_bilinear(CONSTANT, f, z).coeffs == 0)
        assert np.all(apply_bilinear(CONSTANT, z, f).coeffs == 0)

    def test_bilinearity(self):
        grid = Grid(16)
        f1 = box_limited_noise(grid, 3, seed=8)
        f2 = box_limited_noise(grid, 3, seed=9)
        g = box_limited_noise(grid, 3, seed=10)
        m = make_riesz_pair()
        combined = apply_bilinear(m, f1 + 2.0 * f2, g)
        split = apply_bilinear(m, f1, g) + 2.0 * apply_bilinear(m, f2, g)
        scale = np.max(np.abs(split.coeffs))
        assert np.max(np.abs(combined.coeffs - split.coeffs)) <= 1e-13 * scale

    def test_cost_guard(self):
        grid = Grid(128)
        full = random_field(grid, 11, True)
        with pytest.raises(CostGuardError):
            apply_bilinear(CONSTANT, full, full)

    def test_grid_mismatch(self):
        f = box_limited_noise(Grid(16), 3, seed=12)
        g = box_limited_noise(Grid(32), 3, seed=12)
        with pytest.raises(ConfigError):
            apply_bilinear(CONSTANT, f, g)

    def test_support_hint_localization(self):
        # with the eta-support enforced by the symbol, pre-filtering g to the
        # annulus changes nothing at all
        grid = Grid(32)
        m = make_kgtrj(gamma=0.1, alpha=0.5, j=0, k=3)
        f = box_limited_noise(grid, 7, seed=13)
        g = box_limited_noise(grid, 15, seed=14)
        lo, hi = m.support_hint
        mask = (grid.k_mag >= lo) & (grid.k_mag <= hi)
        g_filtered = SpectralField(grid, g.coeffs * mask)
        a = apply_bilinear(m, f, g)
        b = apply_bilinear(m, f, g_filtered)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


class TestRotationDual:
    def test_involution(self):
        m = make_kgtrj()
        dd = rotation_dual(rotation_dual(m))
        rng = np.random.default_rng(15)
        xi = rng.uniform(-8, 8, (40, 2))
        eta = rng.uniform(-8, 8, (40, 2))
        np.testing.assert_allclose(dd(xi, eta), m(xi, eta), rtol=0, atol=0)

    def test_constant_is_self_dual(self):
        m = rotation_dual(CONSTANT)
        xi = np.array([[1.0, 2.0], [0.5, -3.0]])
        eta = np.array([[2.0, 0.1], [1.5, 1.0]])
        np.testing.assert_array_equal(m(xi, eta), np.ones(2))

    @pytest.mark.parametrize("factory", [make_riesz_pair, make_kgtrj])
    def test_duality_identity(self, factory):
        grid = Grid(16)
        m = factory()
        dual = rotation_dual(m)
        for seed in range(5):
            f = box_limited_noise(grid, 3, seed=3 * seed)
            g = box_limited_noise(grid, 3, seed=3 * seed + 1)
            h = box_limited_noise(grid, 3, seed=3 * seed + 2)
            lhs = bilinear_pairing(m, f, g, h)
            rhs = bilinear_pairing(dual, h, g, f)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestDilate:
    def test_identity_dilation(self):
        m = make_kgtrj()
        m1 = dilate(m, 1.0)
        xi = np.array([[4.0, 1.0]])
        eta = np.array([[6.0, -2.0]])
        np.testing.assert_array_equal(m1(xi, eta), m(xi, eta))

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            dilate(make_riesz_pair(), 0.0)

    def test_support_hint_rescales(self):
        m = make_kgtrj(k=3)
        lo, hi = m.support_hint
        d = dilate(m, 4.0)
        assert d.support_hint == (lo / 4.0, hi / 4.0)

    def test_weighted_derivative_table_is_dilation_invariant(self):
        # scale-invariant Marcinkiewicz symbols have identical weighted
        # tables at any dilation
        m = make_riesz_pair()
        xi, eta = polar_pairs(range(-4, 5), 4)
        base = weighted_derivatives(m, xi, eta, max_order=2)
        for lam in (0.25, 1.0, 4.0):
            table = weighted_derivatives(dilate(m, lam), xi, eta, max_order=2)
            for key, val in base.items():
                np.testing.assert_allclose(table[key], val, rtol=1e-6, atol=1e-9)


def circle(radius, n_angles):
    """n_angles points on the circle |v| = radius, none on an axis."""
    angles = (np.arange(n_angles) + 0.37) * (2 * math.pi / n_angles)
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def polar_pairs(exponents, n_angles):
    """Every pair (xi, eta) of points on the circles of radius 2^e, e in
    exponents."""
    pts = np.concatenate([circle(2.0**e, n_angles) for e in exponents])
    return np.repeat(pts, len(pts), axis=0), np.tile(pts, (len(pts), 1))


def weighted_derivatives(m, xi, eta, max_order):
    """|d^b1_xi d^b2_eta m| |xi|^|b1| |eta|^|b2| at every probe pair, for
    every multi-index pair (b1, b2) up to max_order: the difference stencil
    of r-derivatives at its relative step 1e-3."""
    table = {}
    for b1, b2 in _multi_indices(max_order):
        xi_pts, eta_pts, tree = _fd_stencil(xi, eta, b1, b2, 1e-3)
        deriv = _fd_combine(m(xi_pts, eta_pts), tree)
        table[b1, b2] = np.abs(deriv) * _norm(xi) ** sum(b1) * _norm(eta) ** sum(b2)
    return table


RIESZ_COMPONENT = BilinearSymbol(
    eval=lambda xi, eta: xi[..., 0] / np.linalg.norm(xi, axis=-1),
    description="xi1/|xi|",
)


class TestMarcinkiewicz:
    def test_constant_symbol_has_zero_derivatives(self):
        xi, eta = polar_pairs(range(-4, 5), 6)
        for (b1, b2), val in weighted_derivatives(CONSTANT, xi, eta, max_order=2).items():
            if sum(b1) + sum(b2) >= 1:
                assert val.max() == pytest.approx(0.0, abs=1e-12)
            else:
                assert val == pytest.approx(1.0)

    def test_multi_index_enumeration(self):
        # the same pairs, in the same order, as the enumeration written out
        # with the zero pair listed separately
        for max_order in range(-1, 5):
            singles = [(a, t - a) for t in range(max_order + 1) for a in range(t + 1)]
            expected = [
                (b1, b2)
                for b1 in singles
                for b2 in singles
                if 0 < sum(b1) + sum(b2) <= max_order or sum(b1) == sum(b2) == 0
            ]
            assert _multi_indices(max_order) == expected

    def test_riesz_component_matches_analytic_gradient(self):
        # m = xi_1/|xi|: d/d xi_1 = 1/|xi| - xi_1^2/|xi|^3
        xi = np.concatenate([circle(2.0**e, 16) for e in range(-4, 5)])
        eta = np.ones_like(xi)
        got = weighted_derivatives(RIESZ_COMPONENT, xi, eta, max_order=1)[(1, 0), (0, 0)]
        r = np.linalg.norm(xi, axis=-1)
        analytic = np.abs(1.0 / r - xi[..., 0] ** 2 / r**3) * r
        np.testing.assert_allclose(got, analytic, rtol=1e-5)

    def test_scale_uniformity_of_riesz_entry(self):
        eta = circle(1.0, 12)
        tables = [weighted_derivatives(RIESZ_COMPONENT, circle(2.0**e, 12), eta, max_order=1)
                  for e in range(-4, 5)]
        per_scale = [table[(1, 0), (0, 0)].max() for table in tables]
        assert max(per_scale) / min(per_scale) <= 1.0 + 1e-6

    def test_commutator_symbol_entries_finite_and_scale_stable(self):
        # eta on the annulus of the high-high symbol, and xi + eta of length
        # 1 in the output band j = 0: the symbol is nonzero at every probe
        m = make_kgtrj(gamma=0.1, alpha=0.5, j=0, k=3)
        eta = np.concatenate([circle(2.0**e, 8) for e in (2.5, 3.0, 3.5)])
        xi = -eta + circle(1.0, len(eta))
        assert np.all(m(xi, eta) != 0)
        for val in weighted_derivatives(m, xi, eta, max_order=2).values():
            assert np.all(np.isfinite(val))


class TestOperatorNormEstimate:
    def test_hoelder_bound_for_constant_symbol(self):
        grid = Grid(32)
        est = estimate_operator_norm(CONSTANT, grid, 2, 2, trials=6, seed=0)
        assert est <= 1.0 + 1e-10
        assert est == pytest.approx(1.0, rel=1e-10)  # aligned pair saturates

    def test_zero_symbol(self):
        grid = Grid(32)
        zero = BilinearSymbol(eval=lambda xi, eta: np.zeros(np.broadcast_shapes(xi[..., 0].shape, eta[..., 0].shape)), description="zero")
        assert estimate_operator_norm(zero, grid, 2, 2, trials=3, seed=1) == 0.0

    def test_invalid_exponents(self):
        grid = Grid(32)
        with pytest.raises(ValueError):
            estimate_operator_norm(CONSTANT, grid, 0.5, 2)
        with pytest.raises(ValueError):
            estimate_operator_norm(CONSTANT, grid, 2, 2, trials=0)

    def test_dilation_invariance_for_scale_free_symbol(self):
        grid = Grid(32)
        m = make_riesz_pair()
        base = estimate_operator_norm(m, grid, 2, 2, trials=6, seed=2)
        for lam in (0.25, 4.0):
            other = estimate_operator_norm(dilate(m, lam), grid, 2, 2, trials=6, seed=2)
            assert abs(other - base) <= 0.10 * base


def padded_product_2x(f, g):
    """Reference product: complex transforms on a 2x-padded grid, the whole
    lattice transformed (no Hermitian assumption)."""
    grid = f.grid
    n, big = grid.n, 2 * grid.n
    half = n // 2
    slot = np.ix_(grid.freqs % big, grid.freqs % big)

    def lift(c):
        wide = np.zeros((big, big), dtype=np.complex128)
        wide[slot] = c
        wide[3 * half, :] *= 0.5
        wide[half, :] = wide[3 * half, :]
        wide[:, 3 * half] *= 0.5
        wide[:, half] = wide[:, 3 * half]
        return np.fft.ifft2(wide * big * big)

    prod = lift(f.coeffs) * lift(g.coeffs)
    out = (np.fft.fft2(prod) / (big * big))[slot]
    out[half, :] = 0.0
    out[:, half] = 0.0
    return out


def white_noise(grid, seed):
    """Transform of grid-point noise: every mode occupied, Nyquist included."""
    values = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    return forward_transform(RealField(grid, values))


class TestPaddedProduct:
    @pytest.mark.parametrize("n", [8, 16, 32, 128])
    @pytest.mark.parametrize("kind", ["band-limited", "white-noise", "riesz"])
    def test_matches_the_2x_complex_product(self, n, kind):
        grid = Grid(n)
        if kind == "white-noise":
            f, g = white_noise(grid, 1), white_noise(grid, 2)
            assert np.any(f.coeffs[n // 2]) and np.any(g.coeffs[:, n // 2])
        else:
            f = box_limited_noise(grid, n // 4, seed=3)
            g = box_limited_noise(grid, n // 4, seed=4)
            if kind == "riesz":
                f, g = riesz_transform(f, 1), riesz_transform(g, 2)
        got = padded_product(f, g)
        want = padded_product_2x(f, g)
        assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))
        assert got.is_hermitian()

    def test_complex_input_raises(self):
        grid = Grid(16)
        rng = np.random.default_rng(5)
        f = box_limited_noise(grid, 4, seed=6)
        z = SpectralField(grid, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        with pytest.raises(HermitianSymmetryError):
            padded_product(z, f)
        with pytest.raises(HermitianSymmetryError):
            padded_product(f, z)

    def test_grid_mismatch(self):
        with pytest.raises(ConfigError):
            padded_product(box_limited_noise(Grid(16), 4, 0), box_limited_noise(Grid(32), 4, 0))


class TestGevreyCommutator:
    def test_constant_f_annihilates(self):
        grid = Grid(32)
        ones = forward_transform(RealField(grid, 2.5 * np.ones((32, 32))))
        g = random_band_limited(grid, 2, seed=20)
        (out,) = gevrey_commutators(ones, g, [(2, 0.1)], alpha=0.5)
        g_scale = np.max(np.abs(inverse_transform(delta_j(g, 2)).values))
        assert np.max(np.abs(out.values)) <= 1e-12 * 2.5 * g_scale

    def test_gamma_zero_reduces_to_block_commutator(self):
        grid = Grid(32)
        f = box_limited_noise(grid, 5, seed=21)
        g = box_limited_noise(grid, 5, seed=22)
        j = 2
        (got,) = gevrey_commutators(f, g, [(j, 0.0)], alpha=0.5)
        want = inverse_transform(
            delta_j(padded_product(f, g), j)
            - padded_product(f, delta_j(g, j))
        )
        scale = np.max(np.abs(want.values)) or 1.0
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale

    def test_two_mode_hand_expansion(self):
        # f = cos(x1) (modes +-e1, coeff 1/2), g = cos(4 x2) (modes +-4 e2):
        # each of the four (xi, eta) pairs lands on its own output mode with
        # weight [G(xi+eta) phi_j(xi+eta) - G(eta) phi_j(eta)] / 4
        grid = Grid(32)
        j, gamma, alpha = 2, 0.2, 0.5
        x1, x2 = grid.meshgrid()
        f = forward_transform(RealField(grid, np.cos(x1)))
        g = forward_transform(RealField(grid, np.cos(4 * x2)))

        def weight(vec_sum, eta):
            def gphi(v):
                r = np.linalg.norm(v)
                return math.exp(gamma * r**alpha) * float(phi0(r / 2.0**j))

            return gphi(np.array(vec_sum)) - gphi(np.array(eta))

        expected = np.zeros((32, 32), dtype=complex)
        for sx in (1, -1):
            for sy in (4, -4):
                expected[sx % 32, sy % 32] += 0.25 * weight((sx, sy), (0, sy))
        got = forward_transform(gevrey_commutators(f, g, [(j, gamma)], alpha)[0])
        assert np.max(np.abs(got.coeffs - expected)) <= 1e-12

    def test_matches_bilinear_symbol_form(self):
        grid = Grid(16)
        f = box_limited_noise(grid, 3, seed=23)
        g = box_limited_noise(grid, 3, seed=24)
        j, gamma, alpha = 1, 0.15, 0.5
        literal = forward_transform(gevrey_commutators(f, g, [(j, gamma)], alpha)[0])
        from_symbol = apply_bilinear(commutator_symbol(j, gamma, alpha), f, g)
        scale = max(np.max(np.abs(from_symbol.coeffs)), 1e-30)
        assert np.max(np.abs(literal.coeffs - from_symbol.coeffs)) <= 1e-10 * scale


def gevrey_commutator_2x(f, g, j, gamma, alpha):
    """Reference commutator, literally from the definition one band at a
    time: block and Gevrey multipliers on the full lattice, products by the
    2x-padded complex transform, and the full Hermitian test of the
    difference before the inverse transform."""
    grid = f.grid

    def smear(field):
        return gevrey_multiply(delta_j(field, j), gamma, alpha)

    term1 = smear(SpectralField(grid, padded_product_2x(f, g)))
    term2 = SpectralField(grid, padded_product_2x(f, smear(g)))
    return commutator_values(term1 - term2)


class TestBatchedCommutator:
    @pytest.mark.parametrize("n", [16, 32, 128])
    @pytest.mark.parametrize("kind", ["white-noise", "riesz"])
    def test_matches_the_one_band_reference(self, n, kind):
        # white noise occupies every mode, the Nyquist row and column
        # included, so the lift's Nyquist split is exercised
        grid = Grid(n)
        if kind == "white-noise":
            f, g = white_noise(grid, 31), white_noise(grid, 32)
        else:
            f = riesz_transform(box_limited_noise(grid, n // 4, seed=33), 1)
            g = riesz_transform(box_limited_noise(grid, n // 4, seed=34), 2)
        bands = [(j, gamma) for j in build_system(grid).js() for gamma in (0.0, 0.05, 1e-4)]
        got = gevrey_commutators(f, g, bands, 0.6)
        assert len(got) == len(bands)
        for (j, gamma), field in zip(bands, got):
            want = gevrey_commutator_2x(f, g, j, gamma, 0.6).values
            scale = np.max(np.abs(want))
            assert np.max(np.abs(field.values - want)) <= 1e-12 * scale, (j, gamma)

    def test_one_band_call_is_the_batched_call(self):
        grid = Grid(32)
        f, g = white_noise(grid, 35), white_noise(grid, 36)
        batched = gevrey_commutators(f, g, [(1, 0.0), (2, 0.05)], 0.5)
        (one_band,) = gevrey_commutators(f, g, [(2, 0.05)], 0.5)
        assert np.array_equal(one_band.values, batched[1].values)

    def test_guards(self, monkeypatch):
        grid = Grid(16)
        f, g = white_noise(grid, 37), white_noise(grid, 38)
        rng = np.random.default_rng(39)
        z = SpectralField(grid, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        system = build_system(grid)
        with pytest.raises(HermitianSymmetryError):
            gevrey_commutators(z, g, [(1, 0.0)], 0.5)
        with pytest.raises(HermitianSymmetryError):
            gevrey_commutators(f, z, [(1, 0.0)], 0.5)
        cap = max_admissible_gamma(grid, 0.5)
        with pytest.raises(GevreyOverflowError):
            gevrey_commutators(f, g, [(1, 0.0), (1, 1.01 * cap)], 0.5)
        with pytest.raises(BandRangeError):
            gevrey_commutators(f, g, [(1, 0.0), (system.j_max + 1, 0.0)], 0.5)
        with pytest.raises(ConfigError):
            gevrey_commutators(f, g, [(1, 0.0)], 1.5)
        with pytest.raises(ConfigError):
            gevrey_commutators(f, white_noise(Grid(32), 40), [(1, 0.0)], 0.5)
        # a defect that the half-plane arithmetic cannot make: an imaginary
        # part on the k2 = 0 column, which band 2 leaves uncancelled at |k| = 1
        truncate = sqgev.bilinear._truncate

        def skewed(grid, values):
            half = truncate(grid, values)
            half[1, 0] += 1e-3j
            return half

        monkeypatch.setattr(sqgev.bilinear, "_truncate", skewed)
        with pytest.raises(HermitianSymmetryError, match="band j=2"):
            gevrey_commutators(f, g, [(2, 0.0)], 0.5)


class TestRegistry:
    """The symbol factories: the four of the commutator estimates and the
    Riesz pair of the oracle."""

    def test_all_entries_constructible_and_evaluable(self):
        xi = np.array([[1.0, 0.5], [8.0, 0.0]])
        eta = np.array([[4.0, 1.0], [6.0, -1.0]])
        for factory in (make_riesz_pair, make_kgtrj, make_ksimj, make_mA, make_mB):
            sym = factory()
            vals = sym(xi, eta)
            assert np.all(np.isfinite(vals))

    def test_parameters_forwarded(self):
        sym = make_kgtrj(gamma=0.3, alpha=0.4, j=1, k=4)
        assert "gamma=0.3" in sym.description
        assert sym.support_hint == (8.0, 32.0)
