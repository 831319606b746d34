"""Tests for the verification harness: single-mode oracles for the measured
quantities, hypothesis gating, verdict logic and report determinism."""

import gc
import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from sqgev import checks
from sqgev.bilinear import (
    _fd_combine,
    _fd_stencil,
    _multi_indices,
    _norm,
    _r_alpha_sigma,
    gevrey_commutators,
    make_mA,
    padded_product,
)
from sqgev.checks import (
    ALL_CHECKS,
    FAIL,
    HYPOTHESES,
    INCONCLUSIVE,
    PASS,
    InequalityReport,
    _clause,
    _contraction_ratios,
    _fold,
    _prescribed_profile_field,
    _signed_power,
    _smooth_noise,
    check_bernstein,
    check_concavity,
    check_heat_kernel,
    check_lin_gevrey,
    check_positivity,
    check_r_derivatives,
    check_defaults,
    run_check,
)
from sqgev.dyadic import build_system, delta_j
from sqgev.gevrey import GevreyOverflowError
from sqgev.gevrey import fit_line as _fit_line
from sqgev.gevrey import fractional_laplacian, gevrey_multiply, heat_semigroup
from sqgev.solver import BlowUpError, InitialData, SolverConfig, solve
from sqgev.spectral import (
    ConfigError,
    Grid,
    RealField,
    SpectralField,
    _lp_quadrature,
    forward_transform,
    inverse_transform,
    lp_norm,
    random_phases,
)

from reference import commutator_values, ignore


def _r_alpha_sigma_fn(alpha, sigma):
    """R_{alpha,sigma} as a function of (xi, eta) alone."""
    return partial(_r_alpha_sigma, alpha=alpha, sigma=sigma)


def _fd_derivative(m, xi, eta, b1, b2, rel_step):
    """Reference nested central differences, one symbol call per point set;
    steps scale with each argument's radius."""
    for comp in range(2):
        if b1[comp] > 0:
            h = rel_step * _norm(xi)
            e = np.zeros_like(xi)
            e[..., comp] = 1.0
            lower = tuple(b1[c] - (c == comp) for c in range(2))
            hi = _fd_derivative(m, xi + h[..., None] * e, eta, lower, b2, rel_step)
            lo = _fd_derivative(m, xi - h[..., None] * e, eta, lower, b2, rel_step)
            return (hi - lo) / (2.0 * h)
    for comp in range(2):
        if b2[comp] > 0:
            h = rel_step * _norm(eta)
            e = np.zeros_like(eta)
            e[..., comp] = 1.0
            lower = tuple(b2[c] - (c == comp) for c in range(2))
            hi = _fd_derivative(m, xi, eta + h[..., None] * e, b1, lower, rel_step)
            lo = _fd_derivative(m, xi, eta - h[..., None] * e, b1, lower, rel_step)
            return (hi - lo) / (2.0 * h)
    return m(xi, eta)


def single_mode(grid, mode):
    x1, _ = grid.meshgrid()
    return forward_transform(RealField(grid, np.cos(mode * x1)))


class TestMeasuredQuantities:
    """The raw quantities each check records, validated on closed forms."""

    def test_bernstein_ratio_single_mode(self):
        # |k| = 2^j exactly: the ratio collapses to (|k|/2^j)^s = 1
        grid = Grid(64)
        j, s, p = 2, 0.5, 4.0
        f = single_mode(grid, 2**j)
        ratio = lp_norm(inverse_transform(fractional_laplacian(f, s)), p) / (
            2.0 ** (j * s) * lp_norm(inverse_transform(f), p)
        )
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_bernstein_ratio_is_one_at_s_zero(self):
        grid = Grid(64)
        f = single_mode(grid, 4)
        for p in (2.0, 4.0):
            ratio = lp_norm(inverse_transform(fractional_laplacian(f, 0.0)), p) / lp_norm(
                inverse_transform(f), p
            )
            assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_heat_rate_single_mode_exact(self):
        grid = Grid(64)
        kappa, t = 0.6, 0.37
        for mode in (2, 8):
            f = single_mode(grid, mode)
            base = lp_norm(inverse_transform(f), 4)
            decayed = lp_norm(inverse_transform(heat_semigroup(f, t, kappa)), 4)
            rate = -math.log(decayed / base) / t
            assert rate == pytest.approx(mode**kappa, rel=1e-12)

    def test_heat_ratio_tends_to_one(self):
        grid = Grid(64)
        f = single_mode(grid, 4)
        base = lp_norm(inverse_transform(f), 2)
        for t in (1e-3, 1e-5):
            ratio = lp_norm(inverse_transform(heat_semigroup(f, t, 0.8)), 2) / base
            assert abs(ratio - 1.0) <= 5 * t

    def test_lin_gevrey_sides_closed_form_single_mode(self):
        # on one mode every operator is a scalar; the measured ratio must
        # match the hand-computed value exactly
        grid = Grid(64)
        alpha, kappa, gamma, p = 0.3, 0.8, 0.2, 2.0
        mode = 4.0
        f = single_mode(grid, int(mode))
        lam_a = fractional_laplacian(f, alpha)
        left = lp_norm(inverse_transform(gevrey_multiply(lam_a, gamma, alpha)), p)
        right = lp_norm(inverse_transform(lam_a), p) + gamma ** (
            (kappa - alpha) / alpha
        ) * lp_norm(
            inverse_transform(
                gevrey_multiply(fractional_laplacian(f, kappa), gamma, alpha)
            ),
            p,
        )
        base = lp_norm(inverse_transform(f), p)
        g_fact = math.exp(gamma * mode**alpha)
        expected_left = g_fact * mode**alpha * base
        expected_right = mode**alpha * base + gamma ** ((kappa - alpha) / alpha) * g_fact * mode**kappa * base
        assert left == pytest.approx(expected_left, rel=1e-12)
        assert right == pytest.approx(expected_right, rel=1e-12)

    def test_r_alpha_sigma_trivial_zeros(self):
        fn = _r_alpha_sigma_fn(0.7, 1.0)
        xi = np.array([[3.0, 4.0]])
        eta = np.zeros((1, 2))
        assert fn(xi, eta)[0] == pytest.approx(0.0, abs=1e-14)
        # alpha = 1, aligned same-direction vectors: triangle equality
        fn1 = _r_alpha_sigma_fn(1.0, 1.0)
        assert fn1(np.array([[2.0, 0.0]]), np.array([[5.0, 0.0]]))[0] == pytest.approx(
            0.0, abs=1e-14
        )

    def test_signed_power_matches_identity_at_p2(self):
        v = np.array([-2.0, 0.5, 0.0, 3.0])
        np.testing.assert_array_equal(_signed_power(v, 1.0), v)
        np.testing.assert_allclose(_signed_power(v, 2.0), np.abs(v) * v)

    def test_prescribed_profile_blocks(self):
        grid = Grid(64)
        system = build_system(grid)
        s, p = 1.1, 2.0
        f = _prescribed_profile_field(grid, s, p, seed=5)
        ratios = [
            lp_norm(inverse_transform(delta_j(f, j)), p) * 2.0 ** (s * j)
            for j in system.js()
        ]
        assert max(ratios) / min(ratios) <= 1.2


class TestFitLine:
    def test_exact_line(self):
        slope, intercept, r2 = _fit_line([0, 1, 2, 3], [1.0, 0.5, 0.0, -0.5])
        assert slope == pytest.approx(-0.5)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_noisy_line_r2_below_one(self):
        rng = np.random.default_rng(0)
        x = np.arange(20)
        y = -0.3 * x + rng.standard_normal(20)
        slope, _, r2 = _fit_line(x, y)
        assert r2 < 1.0
        assert -0.5 < slope < -0.1

    @pytest.mark.parametrize("x", [[], [2.0], [2.0, 2.0, 2.0]])
    def test_fewer_than_two_distinct_x_is_rejected(self, x):
        with pytest.raises(ConfigError, match="two distinct x"):
            _fit_line(x, np.arange(len(x), dtype=float))

    def test_commutator_decay_fits_match_polyfit(self, monkeypatch):
        # the (j, mean log2 norm) pairs of every fit, against a LAPACK fit
        pairs = []

        def spy(x, y):
            pairs.append((np.asarray(x, float), np.asarray(y, float)))
            return _fit_line(x, y)

        monkeypatch.setattr(checks, "fit_line", spy)
        run_check("commutator-decay", n=64, trials=2, j_lo=1, j_hi=4, seed=3)
        assert len(pairs) == 4
        for x, y in pairs:
            slope, intercept, _ = _fit_line(x, y)
            want_slope, want_intercept = np.polyfit(x, y, 1)
            assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
            assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=0.0)

    def test_commutator_decay_needs_two_bands(self):
        with pytest.raises(ConfigError, match="at least two bands"):
            run_check("commutator-decay", n=64, trials=2, j_lo=2, j_hi=2)


class TestSmallScaleVerdicts:
    """Each check passes at reduced desk scale (the acceptance suite runs
    them at the full configuration)."""

    def test_bernstein(self):
        rep = run_check("bernstein", n=64, trials=30, j_lo=1, j_hi=4)
        assert rep.verdict == "pass"

    def test_positivity(self):
        rep = run_check("positivity", n=32, trials=20)
        assert rep.verdict == "pass"
        assert all(
            row["diff"] >= -1e-10 * max(abs(row["lhs"]), abs(row["rhs"]))
            for row in rep.trials
        )

    def test_positivity_equality_at_p2(self):
        rep = run_check("positivity", n=32, trials=10, p_set=(2.0,), s_set=(0.5,))
        for row in rep.trials:
            scale = max(abs(row["lhs"]), abs(row["rhs"]))
            assert abs(row["diff"]) <= 1e-12 * scale

    def test_heat_kernel(self):
        rep = run_check("heat-kernel", n=64, trials=20, j_lo=1, j_hi=4)
        assert rep.verdict == "pass"
        for kappa in (0.5, 0.8):
            assert rep.fits[f"spread_kappa{kappa:g}"] <= 2.0**kappa * 1.1

    def test_lin_gevrey(self):
        rep = run_check("lin-gevrey", n=64, trials=15, j_lo=0, j_hi=3)
        assert rep.verdict == "pass"
        assert rep.fits["max_ratio"] <= 50.0

    def test_concavity_fits(self):
        rep = run_check("concavity")
        assert rep.verdict == "pass"
        assert rep.fits["g1_at_half"] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        # the scan minimum should sit near the 1D endpoint value
        row = next(r for r in rep.trials if r["alpha"] == 0.5 and r["c"] == 1.0)
        assert row["epsilon_2d"] == pytest.approx(2.0 - math.sqrt(2.0), rel=0.02)
        assert row["epsilon_1d"] == pytest.approx(row["g_endpoint_min"], rel=1e-6)

    def test_r_derivatives(self):
        rep = run_check("r-derivatives", gap_set=(3, 5), sigma_set=(0.0, 1.0))
        assert rep.verdict == "pass"
        assert rep.fits["max_ratio"] <= 50.0

    def test_commutator_decay(self):
        rep = run_check("commutator-decay", n=64, trials=4, j_lo=1, j_hi=4)
        assert rep.verdict == "pass"
        assert any("boundary case" in note for note in rep.notes)

    def test_wellposedness(self):
        rep = run_check(
            "wellposedness", n=64, dt=0.02, t_end=0.5, record_every=5, picard_depth=4
        )
        assert rep.verdict == "pass"
        assert rep.fits["max_contraction_ratio"] < 1.0
        assert rep.fits["heat_xt_last"] < rep.fits["heat_xt_first"]

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_wellposedness_in_critical_lp_spaces(self, p):
        # the critical L^p-based Besov spaces off p = 2, at its other defaults
        rep = run_check("wellposedness", n=64, p=p)
        assert rep.verdict == "pass"


class TestHypothesisGate:
    def test_violated_items_named(self):
        base = dict(n=64, trials=2, j_lo=1, j_hi=3)
        with pytest.raises(ConfigError, match=r"\(i\)"):
            run_check("commutator-decay", st_sets=((0.4, 0.3, 2.0),), **base)
        with pytest.raises(ConfigError, match=r"\(ii\)"):
            run_check("commutator-decay", st_sets=((1.2, 1.5, 2.0),), **base)
        with pytest.raises(ConfigError, match=r"\(iii\)"):
            run_check("commutator-decay", st_sets=((1.05, -0.1, 2.0),), **base)

    def test_boundary_equality_tolerated_with_note(self):
        rep = run_check(
            "commutator-decay", n=64, trials=2, j_lo=1, j_hi=3,
            st_sets=((1.3, 0.5, 4.0),),
        )
        assert any("boundary" in n for n in rep.notes)

    def test_unknown_check_id(self):
        with pytest.raises(ConfigError):
            run_check("nonsense")

    def test_the_table_is_well_formed(self):
        # a row whose key its check does not take would never be tested, and
        # a default outside a hypothesis would make the default run exit 2
        assert set(HYPOTHESES) - {"*"} <= set(ALL_CHECKS)
        for keys, _, _ in HYPOTHESES["*"]:
            assert any(set(keys) <= set(check_defaults(cid)) for cid in ALL_CHECKS), keys
        for cid in ALL_CHECKS:
            defaults = check_defaults(cid)
            for keys, _, _ in HYPOTHESES.get(cid, []):
                assert set(keys) <= set(defaults), (cid, keys)
            for keys, holds, statement in HYPOTHESES["*"] + HYPOTHESES.get(cid, []):
                if set(keys) <= set(defaults):
                    assert holds(*(defaults[key] for key in keys)), (cid, statement)


class TestParameters:
    def test_positivity_runs_the_given_exponents(self):
        rep = run_check("positivity", n=16, trials=1, p_set=(2.0, 4.0))
        assert {row["p"] for row in rep.trials} == {2.0, 4.0}
        assert rep.config["p_set"] == (2.0, 4.0)

    @pytest.mark.parametrize(
        "check_id, p_set",
        [("bernstein", (2.0, math.inf)), ("bernstein", (0.5, 2.0)),
         ("positivity", (2.0, math.inf)), ("positivity", (1.0, 2.0))],
    )
    def test_exponents_outside_the_lemma_are_rejected(self, check_id, p_set, monkeypatch):
        # bernstein's bounds hold for 1 <= p < inf, positivity's for
        # 2 <= p < inf; the check refuses before it draws a field
        def no_field(*args):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(checks, "_shaped_band_field", no_field)
        monkeypatch.setattr(checks, "_smooth_noise", no_field)
        with pytest.raises(ConfigError, match=rf"^{check_id} .*p_set"):
            run_check(check_id, trials=1, p_set=p_set)

    def test_r_derivatives_rejects_alpha_outside_the_bound(self):
        with pytest.raises(ConfigError, match="alpha"):
            run_check("r-derivatives", alpha_set=(1.5,))

    @pytest.mark.parametrize("check_id, params, match", [
        ("heat-kernel", {"t_grid": (0.1, 0.0)}, "every t finite and > 0"),
        ("heat-kernel", {"t_grid": (math.nan,)}, "every t finite and > 0"),
        ("lin-gevrey", {"gamma_set": (0.1, -1.0)}, "every gamma finite and >= 0"),
        ("lin-gevrey", {"gamma_set": (math.inf,)}, "every gamma finite and >= 0"),
        ("concavity", {"alpha_set": (1.0,)}, r"alpha in \(0, 1\)"),
        ("concavity", {"alpha_set": (-1.0,)}, r"alpha in \(0, 1\)"),
        ("concavity", {"c_set": (0.0,)}, "finite c > 0"),
        ("concavity", {"c_set": (math.inf,)}, "finite c > 0"),
        ("r-derivatives", {"sigma_set": (math.nan,)}, "0 <= sigma <= 1"),
        ("r-derivatives", {"sigma_set": (-1.0,)}, "0 <= sigma <= 1"),
        ("wellposedness", {"amplitudes": (0.1, math.inf)}, "finite amplitudes > 0"),
        ("heat-kernel", {"kappa_set": (0.5, 0.0)}, "every kappa finite and > 0"),
        ("heat-kernel", {"kappa_set": (-1.0,)}, "every kappa finite and > 0"),
        ("positivity", {"s_set": (-1.0,)}, "0 <= s <= 2"),
        ("positivity", {"s_set": (0.5, 3.0)}, "0 <= s <= 2"),
        ("commutator-decay", {"st_sets": ((1.2, 0.3, 2.0), (1.2, 0.3, 0.0))}, "p >= 1"),
        # |xi| >= 2|eta| on the probe shells of l and l + gap from gap 2 on;
        # at gap 1 they touch at radius 2^(l + 1/2)
        ("r-derivatives", {"gap_set": (3, 1)}, r"gap >= 2 .*, got gap_set=\(3, 1\)"),
        ("r-derivatives", {"gap_set": (0,)}, "gap >= 2"),
        ("r-derivatives", {"gap_set": (-1,)}, "gap >= 2"),
        # the Picard run takes the second amplitude, the sweep compares the first two
        ("wellposedness", {"amplitudes": (0.5,)}, "at least two amplitudes"),
    ])
    def test_values_outside_the_hypotheses_are_rejected(self, check_id, params, match):
        # each check states the hypotheses of its estimate before it measures
        with pytest.raises(ConfigError, match=match):
            run_check(check_id, **params)

    def test_r_derivatives_bounds_the_order_before_any_stencil(self, monkeypatch):
        # the cost grows about 3.5-fold per order, so the bound comes first;
        # a large order is never run, here or anywhere
        def no_stencil(*args):
            raise AssertionError("a stencil was built")

        monkeypatch.setattr(checks, "_multi_indices", no_stencil)
        monkeypatch.setattr(checks, "_fd_stencil", no_stencil)
        with pytest.raises(ConfigError, match="1 <= max_order <= 4"):
            run_check("r-derivatives", max_order=5)

    def test_key_the_check_does_not_take(self):
        with pytest.raises(ConfigError, match="dt"):
            run_check("concavity", dt=99.0)


def r_derivative_rows_loop(alpha_set, sigma_set, gap_set, max_order):
    """Reference rows of check_r_derivatives: one probe family at a time."""
    rows = []
    angles = (np.arange(6) + 0.29) * 2.0 * math.pi / 6
    for alpha in alpha_set:
        for sigma in sigma_set:
            fn = _r_alpha_sigma_fn(alpha, sigma)
            for l in (0, 1):
                for gap in gap_set:
                    k = l + gap
                    xi_pts = np.array(
                        [[r * math.cos(a), r * math.sin(a)]
                         for r in (2.0 ** (k - 0.5), 2.0**k, 2.0 ** (k + 0.5)) for a in angles]
                    )
                    eta_pts = np.array(
                        [[r * math.cos(a), r * math.sin(a)]
                         for r in (2.0 ** (l - 0.5), 2.0**l, 2.0 ** (l + 0.5)) for a in angles]
                    )
                    xi = np.repeat(xi_pts, eta_pts.shape[0], axis=0)
                    eta = np.tile(eta_pts, (xi_pts.shape[0], 1))
                    xm = np.linalg.norm(xi, axis=-1)
                    em = np.linalg.norm(eta, axis=-1)
                    for b1, b2 in _multi_indices(max_order):
                        deriv = _fd_derivative(fn, xi, eta, b1, b2, 1e-3)
                        weighted = (
                            np.abs(deriv) * xm ** sum(b1) * em ** sum(b2) / 2.0 ** (l * alpha)
                        )
                        rows.append(
                            {"alpha": alpha, "sigma": sigma, "l": l, "k": k, "b1": list(b1),
                             "b2": list(b2), "weighted_max": float(np.max(weighted))}
                        )
    return rows


def concavity_eps_2d_loop(alpha, c):
    """Reference 2-D minimum of the concavity check on the full meshgrid."""
    radii = np.geomspace(c, c * 2.0**10, 400)
    angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    R, A = np.meshgrid(radii, angles, indexing="ij")
    shifted = np.hypot(R * np.cos(A) + 1.0, R * np.sin(A))
    return float((R**alpha + 1.0 - shifted**alpha).min())


class TestVectorizedScans:
    """The stacked scans against their one-family-at-a-time forms, bit for bit."""

    @pytest.mark.parametrize(
        "params",
        [{}, {"alpha_set": (0.2,), "gap_set": (3,), "max_order": 3}],
    )
    def test_r_derivative_rows(self, params):
        args = {**dict(alpha_set=(0.3, 0.5, 0.9), sigma_set=(0.0, 0.5, 1.0),
                       gap_set=(3, 4, 5, 6, 7), max_order=2), **params}
        rows, fits, _, _ = check_r_derivatives(**params)
        want = r_derivative_rows_loop(**args)
        assert rows == want
        assert fits["max_ratio"] == max(row["weighted_max"] for row in want)

    @pytest.mark.parametrize("params", [{}, {"alpha_set": (0.2,), "c_set": (3.0,)}])
    def test_concavity_minimum(self, params):
        rows = check_concavity(**params)[0]
        assert rows
        for row in rows:
            assert row["epsilon_2d"] == concavity_eps_2d_loop(row["alpha"], row["c"])

    def test_concavity_scans_in_blocks(self):
        # a full 400 x 720 lattice is 2.3 MB per float64 temporary; the
        # blocked scan holds a few 288 KB blocks at a time
        check_concavity()  # first call: imports and numpy's lazy setup
        tracemalloc.start()
        try:
            check_concavity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_norm_is_bit_identical_to_linalg_norm(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((4000, 2)) * 10.0 ** rng.uniform(-8, 8, (4000, 2))
        assert np.array_equal(_norm(v), np.linalg.norm(v, axis=-1))
        v3 = v.reshape(20, 200, 2)
        assert np.array_equal(_norm(v3), np.linalg.norm(v3, axis=-1))


# Reference forms of the transform-bound checks as first written: every L^p
# norm from its own inverse transform and every signed power transformed once
# per (s, p).  The checks must give the same rows, fits and notes, and the
# fold of their clauses must be the verdict that the loops decide themselves.


def _lp_of(field, p):
    return lp_norm(inverse_transform(field), p)


def bernstein_loop(
    *, n=128, j_lo=1, j_hi=5,
    trials=500, seed=0, s_set=(0.25, 0.5, 1.0), p_set=(2.0, 4.0, 8.0),
):
    """Two-sided block norm equivalences: the fractional-derivative sandwich
    ratio and its |f|^(p/2) variant must be j-uniform within 2^(2|s|)*1.1."""
    grid = Grid(n)
    system = build_system(grid)
    if j_hi > system.j_max:
        raise ConfigError(
            f"dyadic range up to {j_hi} not resolved on n={n} "
            f"(max {system.j_max})"
        )
    js = list(range(j_lo, j_hi + 1))
    rows = []
    for trial in range(trials):
        j = js[trial % len(js)]
        f = checks._shaped_band_field(grid, j, seed + trial)
        phys = inverse_transform(f)
        for s in s_set:
            lam_s = fractional_laplacian(f, s)
            for p in p_set:
                base = lp_norm(phys, p)
                if base == 0.0:
                    continue
                ratio = _lp_of(lam_s, p) / (2.0 ** (j * s) * base)
                # generalized variant through the signed p/2 power
                v = _signed_power(phys.values, p / 2.0)
                v_hat = forward_transform(RealField(grid, v))
                gen = (
                    fractional_laplacian(v_hat, s).l2_norm() ** (2.0 / p)
                    / (2.0 ** (2.0 * s * j / p) * base)
                )
                rows.append({"j": j, "s": s, "p": p, "ratio": ratio, "gen_ratio": gen})

    fits = {}
    verdict = PASS
    worst_spread = 0.0
    for s in s_set:
        cap = 2.0 ** (2.0 * abs(s)) * 1.1
        for p in p_set:
            for key in ("ratio", "gen_ratio"):
                vals = [r[key] for r in rows if r["s"] == s and r["p"] == p]
                spread = max(vals) / min(vals)
                fits[f"{key}_spread_s{s:g}_p{p:g}"] = spread
                worst_spread = max(worst_spread, spread / cap)
                if spread > cap:
                    verdict = FAIL
    fits["spread"] = worst_spread  # worst spread as a fraction of its cap
    return rows, fits, verdict, []


def positivity_loop(
    *, n=64, trials=200, seed=0,
    s_set=(0.25, 0.5, 0.9), p_set=(2.0, 4.0, 6.0),
):
    """int Lambda^s f |f|^(p-2) f dx >= (2/p) || Lambda^(s/2) f^(p/2) ||_2^2
    with the signed power; exact equality at p = 2."""
    grid = Grid(n)
    rows = []
    verdict = PASS
    worst = math.inf
    for trial in range(trials):
        f = _smooth_noise(grid, seed + trial)
        phys = inverse_transform(f)
        for s in s_set:
            lam_f = inverse_transform(fractional_laplacian(f, s))
            for p in p_set:
                lhs = float(
                    np.sum(lam_f.values * np.abs(phys.values) ** (p - 2) * phys.values)
                    * grid.cell_area
                )
                v_hat = forward_transform(RealField(grid, _signed_power(phys.values, p / 2.0)))
                rhs = (2.0 / p) * fractional_laplacian(v_hat, s / 2.0).l2_norm() ** 2
                diff = lhs - rhs
                scale = max(abs(lhs), abs(rhs), 1e-30)
                rows.append(
                    {"trial": trial, "s": s, "p": p, "lhs": lhs, "rhs": rhs, "diff": diff}
                )
                worst = min(worst, diff / scale)
                if diff < -1e-10 * scale:
                    verdict = FAIL
                if p == 2.0 and abs(diff) > 1e-12 * scale:
                    verdict = FAIL
    fits = {"max_ratio": worst}  # most negative normalized difference
    return rows, fits, verdict, []


def heat_kernel_loop(
    *, n=128, j_lo=1, j_hi=5,
    trials=100, seed=0, kappa_set=(0.5, 0.8), p_set=(2.0, 4.0),
    t_grid=tuple(float(t) for t in np.logspace(-2, 0, 5)),
):
    """Measured block decay rates r = -log(norm ratio)/t must straddle
    2^(kappa j) with a j,t,p-uniform spread at most 2^kappa * 1.1."""
    grid = Grid(n)
    js = list(range(j_lo, j_hi + 1))
    rows = []
    skipped = 0
    fits = {}
    verdict = PASS
    for kappa in kappa_set:
        scaled = []
        for trial in range(trials):
            j = js[trial % len(js)]
            f = checks._shaped_band_field(grid, j, seed + trial)
            for p in p_set:
                base = _lp_of(f, p)
                if base == 0.0:
                    skipped += 1
                    continue
                for t in t_grid:
                    decayed = heat_semigroup(f, t, kappa)
                    rate = -math.log(_lp_of(decayed, p) / base) / t
                    value = rate / 2.0 ** (kappa * j)
                    scaled.append(value)
                    rows.append(
                        {"kappa": kappa, "j": j, "p": p, "t": t, "rate_over_2kj": value}
                    )
        c1, c2 = max(scaled), min(scaled)
        fits[f"c1_kappa{kappa:g}"] = c1
        fits[f"c2_kappa{kappa:g}"] = c2
        fits[f"spread_kappa{kappa:g}"] = c1 / c2
        if not (c2 > 0 and math.isfinite(c1) and c1 / c2 <= 2.0**kappa * 1.1):
            verdict = FAIL
    fits["spread"] = max(fits[f"spread_kappa{k:g}"] for k in kappa_set)
    notes = [f"{skipped} zero-norm trials skipped"] if skipped else []
    return rows, fits, verdict, notes


def lin_gevrey_loop(
    *, n=128, j_lo=0, j_hi=4,
    trials=60, seed=0, alpha=0.3, kappa=0.8, gamma_set=(0.01, 0.1, 0.5),
    p_set=(2.0, 4.0), constant_cap=50.0,
):
    """||G Lambda^alpha block|| over its two-term majorant, uniformly capped
    over the (j, gamma) sweep; prefactor gamma^((kappa-alpha)/alpha)."""
    if not 0 < alpha < kappa:
        raise ConfigError(f"need 0 < alpha < kappa, got {alpha}, {kappa}")
    grid = Grid(n)
    js = list(range(j_lo, j_hi + 1))
    exponent = (kappa - alpha) / alpha
    rows = []
    skipped = 0
    for trial in range(trials):
        j = js[trial % len(js)]
        f = checks._shaped_band_field(grid, j, seed + trial)
        lam_a = fractional_laplacian(f, alpha)
        lam_k = fractional_laplacian(f, kappa)
        for gamma in gamma_set:
            try:
                left_f = gevrey_multiply(lam_a, gamma, alpha)
                right_f = gevrey_multiply(lam_k, gamma, alpha)
            except GevreyOverflowError:
                skipped += 1
                continue
            for p in p_set:
                denom = _lp_of(lam_a, p) + gamma**exponent * _lp_of(right_f, p)
                if denom == 0.0:
                    skipped += 1
                    continue
                ratio = _lp_of(left_f, p) / denom
                rows.append({"j": j, "gamma": gamma, "p": p, "ratio": ratio})
    ratios = [r["ratio"] for r in rows]
    per_gamma = {
        f"max_ratio_gamma{g:g}": max(r["ratio"] for r in rows if r["gamma"] == g)
        for g in gamma_set
        if any(r["gamma"] == g for r in rows)
    }
    fits = {"max_ratio": max(ratios), "prefactor_exponent": exponent, **per_gamma}
    verdict = PASS if max(ratios) <= constant_cap else FAIL
    notes = [f"{skipped} overflow/degenerate trials skipped"] if skipped else []
    return rows, fits, verdict, notes


@pytest.fixture
def degenerate_blocks(monkeypatch):
    """Every third block zero, and every third one scaled to 1e-60 so that
    its L^8 norm underflows to zero while its L^2 norm does not: the
    zero-norm skips of the checks, whole and per exponent."""
    shaped = checks._shaped_band_field

    def blocks(grid, j, seed):
        f = shaped(grid, j, seed)
        return (f * 0.0, f * 1e-60, f)[seed % 3]

    monkeypatch.setattr(checks, "_shaped_band_field", blocks)


HOISTED = [
    (check_bernstein, bernstein_loop, dict(n=32, j_lo=1, j_hi=3, trials=4, seed=1)),
    (check_bernstein, bernstein_loop,
     dict(n=64, j_lo=0, j_hi=4, trials=6, seed=2, s_set=(0.0, 0.75), p_set=(1.0, 3.0, 8.0))),
    (check_positivity, positivity_loop, dict(n=32, trials=3)),
    (check_positivity, positivity_loop,
     dict(n=16, trials=4, seed=5, s_set=(0.1, 1.0), p_set=(2.0, 3.0, 5.0))),
    (check_heat_kernel, heat_kernel_loop, dict(n=32, j_hi=3, trials=4)),
    (check_heat_kernel, heat_kernel_loop,
     dict(n=64, j_lo=0, j_hi=4, trials=6, seed=2, kappa_set=(0.3, 0.8), p_set=(2.0, 8.0),
          t_grid=(0.05, 0.3))),
    (check_lin_gevrey, lin_gevrey_loop, dict(n=32, j_hi=3, trials=4)),
    (check_lin_gevrey, lin_gevrey_loop,
     dict(n=64, j_hi=3, trials=6, seed=2, gamma_set=(0.0, 0.2, 1e4), p_set=(2.0, 8.0))),
]


def folded(result):
    """A check's (rows, fits, clauses, notes) as the loops' (rows, fits,
    verdict, notes)."""
    rows, fits, clauses, notes = result
    return rows, fits, _fold(clauses), notes


class TestHoistedTransforms:
    """Each transformed field made once and read at every exponent gives
    exactly the per-exponent loops' numbers."""

    @pytest.mark.parametrize("check, loop, params", HOISTED)
    def test_equals_the_per_exponent_loop(self, check, loop, params):
        assert folded(check(**params)) == loop(**params)

    # the checks that draw Littlewood-Paley blocks, at exponent sets
    # reaching p = 8
    @pytest.mark.parametrize("check, loop, params", [HOISTED[i] for i in (1, 5, 7)])
    def test_zero_norm_skips_equal_the_per_exponent_loop(self, check, loop, params,
                                                         degenerate_blocks):
        got = check(**params)
        assert folded(got) == loop(**params)
        # the zero block's rows and the tiny block's L^8 rows are skipped
        per_p = [sum(row["p"] == p for row in got[0]) for p in params["p_set"]]
        assert 0 < per_p[-1] < per_p[0]

    def test_skip_notes(self, degenerate_blocks):
        _, _, _, notes = check_heat_kernel(**HOISTED[5][2])
        # of six blocks, two are zero at both p and two tiny at p = 8, at
        # each of two kappas
        assert notes == [f"{2 * (2 * 2 + 2)} zero-norm trials skipped"]
        _, _, _, notes = check_lin_gevrey(**HOISTED[7][2])
        # six overflows at gamma = 1e4; at the two other gammas, two zero
        # blocks at both p and two tiny blocks at p = 8
        assert notes == [f"{6 + 2 * (2 * 2 + 2)} overflow/degenerate trials skipped"]


def stencil_probes(count=45, seed=0):
    """count random probe pairs (xi, eta) with |xi| in [0.6, 1.9] and |eta|
    in [4.5, 15], most of them in the bands of make_mA at its defaults:
    1/2 < |xi| < 2 and 4 < |eta|, |xi/2 + eta| < 16."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform((0.6, 4.5), (1.9, 15.0), (count, 2))
    angles = rng.uniform(0.0, 2 * math.pi, (count, 2))
    points = radii[..., None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return points[:, 0], points[:, 1]


class TestDifferenceStencil:
    @pytest.mark.parametrize("max_order", [1, 3])
    def test_equals_the_recursive_differences(self, max_order):
        # signed, complex values: a derivative of any order, its sign included
        m = make_mA(i=2)
        xi, eta = stencil_probes()
        assert np.count_nonzero(m(xi, eta)) > len(xi) // 2
        for b1, b2 in _multi_indices(max_order):
            xi_pts, eta_pts, tree = _fd_stencil(xi, eta, b1, b2, 1e-3)
            assert xi_pts.shape == eta_pts.shape == (2 ** (sum(b1) + sum(b2)), *xi.shape)
            got = _fd_combine(m(xi_pts, eta_pts), tree)
            assert np.array_equal(got, _fd_derivative(m, xi, eta, b1, b2, 1e-3))

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep each stencil's point sets alive until the cyclic
        # collector runs, so a scan over many multi-indices would hold them all
        xi, eta = stencil_probes()
        gc.collect()
        gc.disable()
        try:
            _fd_stencil(xi, eta, (1, 0), (0, 1), 1e-3)
            assert gc.collect() == 0
        finally:
            gc.enable()


def prescribed_profile_field_complex(grid, exponent, p, seed, extra_damping=0.0, alpha=0.6):
    """Reference test field: each band norm from the full complex inverse
    transform of the band."""
    phase = random_phases(grid, np.random.default_rng(seed))
    kmag = grid.k_mag
    j_top = int(math.floor(math.log2(grid.k_nyquist)))
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    for j in range(0, j_top + 1):
        mask = (kmag > 2.0 ** (j - 0.5)) & (kmag <= min(2.0 ** (j + 0.5), grid.k_nyquist))
        if not mask.any():
            continue
        piece = phase * mask
        n = grid.n
        norm = _lp_quadrature(np.abs(np.fft.ifft2(piece * n * n)), p, grid.cell_area)
        coeffs += piece * (2.0 ** (-exponent * j) / norm)
    if extra_damping > 0:
        coeffs = coeffs * np.exp(-extra_damping * kmag**alpha)
    return SpectralField(grid, coeffs)


def gevrey_commutator_literal(f, g, j, gamma, alpha):
    """Reference commutator for one band: G_gamma Delta_j (f g) - f G_gamma
    Delta_j g from the block and Gevrey multipliers and two padded products."""

    def smear(field):
        return gevrey_multiply(delta_j(field, j), gamma, alpha)

    return commutator_values(smear(padded_product(f, g)) - padded_product(f, smear(g)))


def commutator_decay_rows_loop(n, j_lo, j_hi, trials, seed, st_sets, gamma, alpha,
                               field_damping):
    """Reference rows of check_commutator_decay: one commutator per (mode,
    trial, j), the test fields rebuilt for each mode."""
    grid = Grid(n)
    system = build_system(grid)
    js = list(range(j_lo, min(j_hi, system.j_max) + 1))
    rows = []
    for s, t, p in st_sets:
        for mode, gma in (("classical", 0.0), ("gevrey", gamma)):
            for trial in range(trials):
                f = _prescribed_profile_field(grid, s, p, seed + 17 * trial, field_damping, alpha)
                g = _prescribed_profile_field(
                    grid, t, p, seed + 17 * trial + 5, field_damping, alpha
                )
                for j in js:
                    norm = lp_norm(gevrey_commutator_literal(f, g, j, gma, alpha), p)
                    rows.append({"mode": mode, "s": s, "t": t, "p": p, "j": j,
                                 "trial": trial, "log2_norm": math.log2(norm)})
    return rows


class TestCommutatorDecayBatching:
    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_profile_field_matches_the_complex_form(self, n, p):
        grid = Grid(n)
        for exponent, seed, damping in ((1.2, 3, 0.0), (0.3, 8, 0.25)):
            got = _prescribed_profile_field(grid, exponent, p, seed, damping).coeffs
            want = prescribed_profile_field_complex(grid, exponent, p, seed, damping).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rows_match_the_per_band_loop(self):
        params = dict(n=64, j_lo=1, j_hi=4, trials=2, seed=3,
                      st_sets=((1.2, 0.3, 2.0), (1.3, 0.5, 4.0)))
        rep = run_check("commutator-decay", **params)
        want = commutator_decay_rows_loop(**params, gamma=0.05, alpha=0.6, field_damping=0.25)
        assert [{k: v for k, v in row.items() if k != "log2_norm"} for row in rep.trials] == [
            {k: v for k, v in row.items() if k != "log2_norm"} for row in want
        ]
        for got, ref in zip(rep.trials, want):
            assert abs(got["log2_norm"] - ref["log2_norm"]) <= 1e-12


class TestContractionRatios:
    def test_ratios_stop_at_the_first_gap_under_the_floor(self):
        gaps = [1e-3, 2e-6, 1e-9, 1e-16, 5e-15, 1e-19]
        resolved, ratios = _contraction_ratios(gaps, 1e-14)
        assert resolved == [1e-3, 2e-6, 1e-9]
        assert ratios == [2e-6 / 1e-3, 1e-9 / 2e-6]

    def test_too_few_resolved_gaps(self):
        assert _contraction_ratios([1e-3, 1e-20, 1e-3], 1e-14) == ([1e-3], [])
        assert _contraction_ratios([0.0, 0.0], 0.0) == ([], [])
        assert _contraction_ratios([], 1e-14) == ([], [])
        # a gap at the floor is unresolved
        assert _contraction_ratios([1.0, 1e-14], 1e-14) == ([1.0], [])

    def test_ratio_is_stable_under_a_one_ulp_amplitude_change(self):
        # the cheapest config whose Picard gaps reach round-off: the ratio of
        # the last two gaps there moves by 88% under a one-ulp change of the
        # amplitude when round-off gaps are not excluded
        cfg = dict(n=64, dt=0.04, t_end=0.2, record_every=5, picard_depth=6)
        ratio = [
            run_check("wellposedness", amplitudes=(0.01, a), **cfg).fits["max_contraction_ratio"]
            for a in (0.1, np.nextafter(0.1, 1.0))
        ]
        assert abs(ratio[1] - ratio[0]) < 1e-4 * ratio[0]

    def test_unresolved_gaps_are_inconclusive(self):
        # one Picard level past the heat flow: a single gap, no ratio
        rep = run_check(
            "wellposedness", n=32, dt=0.02, t_end=0.5, record_every=5, picard_depth=1,
            amplitudes=(0.01, 0.1),
        )
        assert rep.fits["resolved_gaps"] == 1
        assert "max_contraction_ratio" not in rep.fits
        assert rep.verdict == "inconclusive"
        assert any("round-off floor" in note for note in rep.notes)


class TestWellposednessSweep:
    CFG = dict(n=32, dt=0.02, t_end=0.5, record_every=5, picard_depth=1)

    def test_one_solve_per_amplitude(self, monkeypatch):
        # the radius clause reads the sweep's smallest-amplitude run instead
        # of solving it again
        amplitudes = []

        def counting_solve(config, sink):
            amplitudes.append(config.initial_data.amplitude)
            return solve(config, sink)

        monkeypatch.setattr(checks, "solve", counting_solve)
        rep = run_check("wellposedness", amplitudes=(0.1, 0.01, 1.0), **self.CFG)
        assert amplitudes == [0.1, 0.01, 1.0]
        radius_rows = [(row["t"], row["value"]) for row in rep.trials if row["kind"] == "radius"]
        small = solve(SolverConfig(
            grid=Grid(32), kappa=0.8, dt=0.02, t_end=0.5, picard_depth=0,
            initial_data=InitialData("random-band", 0.01, seed=0), record_every=5,
            p=2.0, q=2.0, alpha=0.4,
        ), ignore)
        want = [(row["t"], row["radius"]) for row in small.diagnostics if row["t"] > 0]
        assert radius_rows and radius_rows == want[: len(radius_rows)]

    @pytest.mark.parametrize("blown", [0.01, 0.1])
    def test_blow_up_in_the_sweep(self, monkeypatch, blown):
        def solve_or_blow_up(config, sink):
            if config.initial_data.amplitude == blown:
                raise BlowUpError(f"blow-up at t={0.25:g}", 0.25, None)
            return solve(config, sink)

        monkeypatch.setattr(checks, "solve", solve_or_blow_up)
        rep = run_check("wellposedness", amplitudes=(0.01, 0.1), **self.CFG)
        assert rep.verdict == FAIL  # one amplitude ratio left, nothing to compare
        assert f"blow-up at amplitude {blown:g}, t=0.25" in rep.notes
        # a small-data blow-up fails the estimate; the radius clause has no
        # run to read and is skipped
        skipped = "radius clause skipped: the smallest-amplitude run blew up" in rep.notes
        radius_rows = [row for row in rep.trials if row["kind"] == "radius"]
        assert skipped == (blown == 0.01) and bool(radius_rows) == (blown != 0.01)


class TestWellposednessMemory:
    def test_peak_does_not_grow_with_the_record_count(self):
        def run(record_every):
            return run_check("wellposedness", n=64, t_end=0.2, record_every=record_every)

        run(10)  # the grid's caches
        peaks = []
        for record_every in (1, 10):
            tracemalloc.start()
            try:
                run(record_every)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 21 and 3 records per run.  Python 3.11, numpy 2.4: 1.84 and 1.78 MiB;
        # 17.2 and 3.3 MiB when every run held its recorded fields until it
        # ended
        assert abs(peaks[0] - peaks[1]) < 0.5 * 2**20


class TestClauses:
    def test_fold(self):
        ok = _clause("a", 1.0, "<=", 2.0)
        over = _clause("b", 3.0, "<=", 2.0)
        unresolved = _clause("c", 3.0, "<=", 2.0, unresolved=True)
        nan = _clause("d", math.nan, ">=", 0.0)
        assert [c["verdict"] for c in (ok, over, unresolved, nan)] == [
            PASS, FAIL, INCONCLUSIVE, FAIL
        ]
        assert _fold([ok, ok]) == PASS
        assert _fold([ok, unresolved]) == INCONCLUSIVE  # inconclusive beats pass
        assert _fold([unresolved, over, ok]) == FAIL  # fail beats inconclusive
        assert _fold([ok, nan]) == FAIL  # a NaN value fails
        assert _fold([]) == INCONCLUSIVE  # no clause, no verdict

    @pytest.mark.parametrize("value, relation, bound, margin, verdict", [
        (1.0, "<=", 4.0, 0.75, PASS),  # slack over |bound|
        (5.0, "<=", 4.0, -0.25, FAIL),
        (-3.0, ">=", -2.0, -0.5, FAIL),
        (0.25, ">", 0.0, 0.25, PASS),  # the slack itself at bound 0
        (-0.5, ">", 0.0, -0.5, FAIL),
        (1.0, "<=", 1.0, 0.0, PASS),
        (1.0, "<", 1.0, 0.0, FAIL),  # a strict clause fails by equality
    ])
    def test_margin(self, value, relation, bound, margin, verdict):
        clause = _clause("x", value, relation, bound)
        assert (clause["margin"], clause["verdict"]) == (margin, verdict)

    @pytest.mark.parametrize("check_id, params", [
        ("lin-gevrey", dict(n=32, j_hi=3, trials=3)),
        ("r-derivatives", dict(gap_set=(3,), sigma_set=(0.5,))),
    ])
    def test_constant_cap_flips_the_verdict(self, monkeypatch, check_id, params):
        ratio = run_check(check_id, **params).fits["max_ratio"]
        monkeypatch.setattr(checks, "CONSTANT_CAP", ratio)
        assert run_check(check_id, **params).verdict == PASS
        monkeypatch.setattr(checks, "CONSTANT_CAP", np.nextafter(ratio, 0.0))
        rep = run_check(check_id, **params)
        assert rep.verdict == FAIL
        assert rep.worst_clause()[0] == "max_ratio" and rep.worst_clause()[1] < 0

    COMMUTATOR = dict(n=32, trials=2, j_lo=1, j_hi=3)

    def test_slope_slack_flips_the_verdict(self, monkeypatch):
        # worst_slope is the largest slope - cap, and every cap moves with
        # the slack
        worst = run_check("commutator-decay", **self.COMMUTATOR).fits["worst_slope"]
        monkeypatch.setattr(checks, "SLOPE_SLACK", checks.SLOPE_SLACK + worst + 1e-9)
        assert run_check("commutator-decay", **self.COMMUTATOR).verdict == PASS
        monkeypatch.setattr(checks, "SLOPE_SLACK", checks.SLOPE_SLACK - 2e-9)
        rep = run_check("commutator-decay", **self.COMMUTATOR)
        assert rep.verdict == FAIL
        assert rep.worst_clause()[0].startswith("slope_")

    def test_min_r_squared_makes_it_inconclusive(self, monkeypatch):
        r2 = run_check("commutator-decay", **self.COMMUTATOR).fits["r_squared"]
        monkeypatch.setattr(checks, "MIN_R_SQUARED", np.nextafter(r2, 2.0))
        rep = run_check("commutator-decay", **self.COMMUTATOR)
        assert rep.verdict == INCONCLUSIVE
        assert [c["verdict"] for c in rep.clauses].count(INCONCLUSIVE) == 1
        assert any("regression R^2" in note for note in rep.notes)

    def test_report_carries_the_judged_clauses(self, tmp_path):
        rep = run_check("wellposedness", kappa=0.5, alpha=0.45, beta=0.2)
        assert rep.verdict == FAIL
        name, margin = rep.worst_clause()
        assert name == "radius_slope" and margin == pytest.approx(-0.292, abs=1e-3)
        rep.write(tmp_path / "w.json")
        clauses = json.loads((tmp_path / "w.json").read_text())["clauses"]
        assert clauses == rep.clauses
        assert set(clauses[0]) == {"name", "value", "relation", "bound", "verdict", "margin"}
        assert [c["name"] for c in clauses if c["verdict"] == FAIL] == ["radius_slope"]


@pytest.fixture
def zero_blocks(monkeypatch):
    """Every Littlewood-Paley block of the checks is zero."""
    monkeypatch.setattr(checks, "_shaped_band_field", lambda grid, j, seed: SpectralField(
        grid, np.zeros((grid.n, grid.n), dtype=complex)))


class TestClausesWithoutData:
    """A clause with no data is inconclusive, never a pass or a crash."""

    def test_every_gamma_overflows(self):
        rep = run_check("lin-gevrey", n=32, j_hi=3, trials=3, gamma_set=(1e4,))
        assert rep.verdict == INCONCLUSIVE and not rep.trials
        assert math.isnan(rep.fits["max_ratio"])
        assert rep.notes == ["3 overflow/degenerate trials skipped"]

    @pytest.mark.parametrize("check_id", ["bernstein", "heat-kernel"])
    def test_every_block_is_skipped(self, zero_blocks, check_id):
        rep = run_check(check_id, n=32, j_hi=3, trials=3)
        assert rep.verdict == INCONCLUSIVE and not rep.trials
        assert {c["verdict"] for c in rep.clauses} == {INCONCLUSIVE}

    def test_one_bernstein_group_is_skipped(self, monkeypatch):
        # blocks scaled to 1e-60: the L^8 norms underflow to zero, the L^2
        # norms do not, so only the p = 8 groups have no rows
        shaped = checks._shaped_band_field
        monkeypatch.setattr(checks, "_shaped_band_field", lambda *a: shaped(*a) * 1e-60)
        rep = run_check("bernstein", n=32, j_hi=3, trials=3, p_set=(2.0, 8.0))
        assert rep.verdict == INCONCLUSIVE
        unresolved = {c["name"] for c in rep.clauses if c["verdict"] == INCONCLUSIVE}
        assert unresolved == {f"{key}_spread_s{s:g}_p8" for key in ("ratio", "gen_ratio")
                              for s in (0.25, 0.5, 1.0)}

    def test_skipped_commutator_fit(self, monkeypatch):
        # the Gevrey-mode commutators of the decay fit vanish; the continuity
        # probe, which asks for two bands, is left alone
        def zero_gevrey(f, g, bands, alpha):
            fields = gevrey_commutators(f, g, bands, alpha)
            if len(bands) == 2:
                return fields
            return [RealField(c.grid, np.zeros_like(c.values)) if gamma else c
                    for c, (_, gamma) in zip(fields, bands)]

        monkeypatch.setattr(checks, "gevrey_commutators", zero_gevrey)
        rep = run_check("commutator-decay", n=32, trials=2, j_lo=1, j_hi=3)
        assert rep.verdict == INCONCLUSIVE
        skipped = [c for c in rep.clauses if c["verdict"] == INCONCLUSIVE]
        assert [c["name"] for c in skipped] == ["slope_gevrey_s1.2_t0.3_p2",
                                                "slope_gevrey_s1.3_t0.5_p4"]
        assert all(math.isnan(c["value"]) for c in skipped)
        assert sum("fit skipped" in note for note in rep.notes) == 2

    def test_decayed_norm_underflows(self):
        # exp(-1e6 * 2^(kappa j)) is far below the smallest double: every
        # rate is skipped and counted
        rep = run_check("heat-kernel", n=32, j_hi=3, trials=3, t_grid=(1e6,))
        assert rep.verdict == INCONCLUSIVE and not rep.trials
        assert rep.notes == [f"{3 * 2 * 2} zero-norm trials skipped"]


class TestReports:
    def test_json_round_trip_and_determinism(self, tmp_path):
        rep1 = run_check("concavity")
        rep2 = run_check("concavity")
        assert rep1.to_json() == rep2.to_json()
        path = tmp_path / "concavity.json"
        rep1.write(path)
        parsed = json.loads(path.read_text())
        assert parsed["check_id"] == "concavity"
        assert parsed["verdict"] == "pass"
        assert parsed["config"]["alpha_set"] == [0.3, 0.5, 0.9]
        assert "numpy" in parsed["environment"]

    def test_json_parses_as_the_indented_encoding(self):
        def default(obj):
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            raise TypeError(f"not serializable: {type(obj)}")

        reports = [
            run_check("r-derivatives", gap_set=(3,), sigma_set=(0.5,)),
            run_check("lin-gevrey", n=32, j_hi=3, trials=3, gamma_set=(0.1, 1e4)),
            InequalityReport("empty", {"k": np.int64(3)}, [], {"x": np.float64(0.5)}, []),
        ]
        for rep in reports:
            payload = {
                "check_id": rep.check_id,
                "verdict": rep.verdict,
                "config": rep.config,
                "fits": rep.fits,
                "clauses": rep.clauses,
                "notes": rep.notes,
                "environment": rep.environment,
                "trials": rep.trials,
            }
            text = rep.to_json()
            assert json.loads(text) == json.loads(
                json.dumps(payload, indent=2, sort_keys=True, default=default)
            )
            # one trial row per line
            lines = [line.rstrip(",") for line in text.splitlines()]
            for row in rep.trials:
                assert "    " + json.dumps(row, sort_keys=True) in lines

    def test_config_echo_includes_overrides(self):
        rep = run_check("positivity", n=32, trials=3, seed=9)
        assert rep.config["n"] == 32
        assert rep.config["seed"] == 9

    def test_gamma_zero_gevrey_mode_equals_classical(self):
        # structural reduction: with gamma = 0 both modes run the identical
        # computation, so their fitted numbers coincide exactly
        rep = run_check(
            "commutator-decay", n=64, trials=2, j_lo=1, j_hi=3,
            commutator_gamma=0.0, st_sets=((1.2, 0.3, 2.0),),
        )
        assert rep.fits["slope_classical_s1.2_t0.3_p2"] == rep.fits["slope_gevrey_s1.2_t0.3_p2"]
