"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id> ... PASS/FAIL` line (visible with
pytest -s or in failure output) and asserts the criterion itself.
"""

import math
import time

import numpy as np

from sqgev.bilinear import make_kgtrj, make_ksimj, make_mA, make_mB
from sqgev.checks import run_check
from sqgev.dyadic import build_system
from sqgev.gevrey import heat_semigroup
from sqgev.solver import InitialData, SolverConfig, solve
from sqgev.spectral import (
    Grid,
    RealField,
    box_mask,
    forward_transform,
    inverse_transform,
    lp_norm,
    random_field,
    save_field,
)

from reference import (
    Collect,
    bilinear_pairing,
    dilate,
    estimate_operator_norm,
    ignore,
    make_riesz_pair,
    rotation_dual,
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def box_noise(grid, max_component, seed):
    return random_field(grid, seed, box_mask(grid, max_component))


class TestAcceptance:
    def test_01_transform_parseval(self):
        start = time.time()
        worst_round = 0.0
        worst_parseval = 0.0
        count = 0
        for n in (32, 64, 128):
            grid = Grid(n)
            for trial in range(34):
                rng = np.random.default_rng(1000 * n + trial)
                f = RealField(grid, rng.standard_normal((n, n)))
                F = forward_transform(f)
                back = inverse_transform(F)
                worst_round = max(
                    worst_round,
                    np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values),
                )
                quad = lp_norm(f, 2)
                worst_parseval = max(worst_parseval, abs(quad - F.l2_norm()) / quad)
                count += 1
        elapsed = time.time() - start
        ok = worst_round <= 1e-12 and worst_parseval <= 1e-12 and elapsed < 10
        _report(
            "01 transform/parseval",
            ok,
            f"{count} fields, round-trip {worst_round:.2e}, parseval "
            f"{worst_parseval:.2e}, {elapsed:.1f}s",
        )

    def test_02_partition_of_unity(self):
        start = time.time()
        worst = 0.0
        for n in (64, 256):
            system = build_system(Grid(n))
            radii = np.linspace(2.0**system.j_min, 2.0 ** (system.j_max - 1), 4000)
            total = sum(system.phi(j, radii) for j in system.js())
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
        elapsed = time.time() - start
        ok = worst <= 1e-10 and elapsed < 5
        _report("02 partition-of-unity", ok, f"max defect {worst:.2e}, {elapsed:.1f}s")

    def test_03_bernstein(self):
        start = time.time()
        rep = run_check(
            "bernstein", n=128, trials=500, j_lo=1, j_hi=5,
            p_set=(2.0, 4.0, 8.0), s_set=(0.25, 0.5, 1.0),
        )
        elapsed = time.time() - start
        detail = []
        ok = rep.verdict == "pass" and elapsed < 120
        for s in (0.25, 0.5, 1.0):
            cap = 2.0 ** (2 * s) * 1.1
            for p in (2.0, 4.0, 8.0):
                for key in ("ratio", "gen_ratio"):
                    spread = rep.fits[f"{key}_spread_s{s:g}_p{p:g}"]
                    if spread > cap:
                        ok = False
        detail.append(f"worst spread fraction {rep.fits['spread']:.3f} of cap")
        _report("03 bernstein", ok, f"{'; '.join(detail)}, {elapsed:.1f}s")

    def test_04_positivity(self):
        start = time.time()
        rep = run_check(
            "positivity", n=64, trials=200, p_set=(2.0, 4.0, 6.0), s_set=(0.25, 0.5, 0.9)
        )
        elapsed = time.time() - start
        ok = rep.verdict == "pass" and elapsed < 60
        _report(
            "04 positivity",
            ok,
            f"most negative normalized diff {rep.fits['max_ratio']:.2e}, {elapsed:.1f}s",
        )

    def test_05_heat_kernel(self):
        start = time.time()
        rep = run_check(
            "heat-kernel", n=128, trials=100, j_lo=1, j_hi=5,
            p_set=(2.0, 4.0), kappa_set=(0.5, 0.8),
            t_grid=tuple(float(t) for t in np.logspace(-2, 0, 5)),
        )
        elapsed = time.time() - start
        ok = rep.verdict == "pass" and elapsed < 60
        spread_by_kappa = {
            k: rep.fits[f"spread_kappa{k:g}"] for k in (0.5, 0.8)
        }
        for kappa, spread in spread_by_kappa.items():
            if spread > 2.0**kappa * 1.1:
                ok = False
        _report(
            "05 heat-kernel",
            ok,
            "spreads "
            + ", ".join(f"k={k}: {v:.3f} (cap {2**k*1.1:.3f})" for k, v in spread_by_kappa.items())
            + f", {elapsed:.1f}s",
        )

    def test_06_lin_gevrey(self):
        start = time.time()
        rep = run_check("lin-gevrey", n=128, trials=60, j_lo=0, j_hi=4, alpha=0.3, kappa=0.8)
        elapsed = time.time() - start
        ok = rep.verdict == "pass" and rep.fits["max_ratio"] <= 50.0 and elapsed < 60
        _report(
            "06 lin-gevrey", ok, f"max ratio {rep.fits['max_ratio']:.3f} (cap 50), {elapsed:.1f}s"
        )

    def test_07_concavity(self):
        start = time.time()
        rep = run_check("concavity", alpha_set=(0.3, 0.5, 0.9), c_set=(0.5, 1.0, 2.0))
        elapsed = time.time() - start
        anchor = abs(rep.fits["g1_at_half"] - (2.0 - math.sqrt(2.0)))
        ok = (
            rep.verdict == "pass"
            and rep.fits["epsilon_min"] > 0
            and anchor <= 1e-12
            and elapsed < 30
        )
        _report(
            "07 concavity",
            ok,
            f"eps_min {rep.fits['epsilon_min']:.4f}, g(1) anchor error {anchor:.1e}, {elapsed:.1f}s",
        )

    def test_08_r_derivatives(self):
        start = time.time()
        rep = run_check(
            "r-derivatives", alpha_set=(0.3, 0.7), sigma_set=(0.0, 0.5, 1.0),
            gap_set=(3, 4, 5, 6, 7), max_order=2,
        )
        elapsed = time.time() - start
        ok = rep.verdict == "pass" and rep.fits["max_ratio"] <= 50.0 and elapsed < 120
        _report(
            "08 r-derivatives",
            ok,
            f"max weighted ratio {rep.fits['max_ratio']:.3f} (cap 50), {elapsed:.1f}s",
        )

    def test_09_commutator_decay(self):
        start = time.time()
        rep = run_check("commutator-decay", n=128, trials=50, j_lo=1, j_hi=5)
        elapsed = time.time() - start
        ok = rep.verdict == "pass" and elapsed < 300
        slopes = {
            k[len("slope_"):]: v for k, v in rep.fits.items() if k.startswith("slope_")
        }
        for tag, slope in slopes.items():
            if slope > rep.fits[f"cap_{tag}"] or rep.fits[f"r2_{tag}"] < 0.9:
                ok = False
        _report(
            "09 commutator-decay",
            ok,
            "; ".join(f"{t}: {s:+.3f} (cap {rep.fits['cap_' + t]:+.2f})" for t, s in slopes.items())
            + f", min R2 {rep.fits['r_squared']:.3f}, {elapsed:.1f}s",
        )

    def test_10_bilinear_multiplier(self):
        start = time.time()
        grid16 = Grid(16)

        # duality identity on 50 triples
        worst_duality = 0.0
        for seed in range(50):
            m = make_riesz_pair() if seed % 2 == 0 else make_kgtrj()
            dual = rotation_dual(m)
            f = box_noise(grid16, 3, 3 * seed)
            g = box_noise(grid16, 3, 3 * seed + 1)
            h = box_noise(grid16, 3, 3 * seed + 2)
            lhs = bilinear_pairing(m, f, g, h)
            rhs = bilinear_pairing(dual, h, g, f)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst_duality = max(worst_duality, abs(lhs - rhs) / scale)
        ok = worst_duality <= 1e-10

        # dilation invariance of the norm estimate
        grid32 = Grid(32)
        m = make_riesz_pair()
        base = estimate_operator_norm(m, grid32, 2, 2, trials=8, seed=0)
        dilation_drift = 0.0
        for lam in (0.25, 4.0):
            other = estimate_operator_norm(dilate(m, lam), grid32, 2, 2, trials=8, seed=0)
            dilation_drift = max(dilation_drift, abs(other - base) / base)
        ok = ok and dilation_drift <= 0.10

        # norm stability of the paper symbols across grids
        stability = {}
        for name, factory in (
            ("kgtrj", make_kgtrj), ("ksimj", make_ksimj), ("mA", make_mA), ("mB", make_mB)
        ):
            sym = factory()
            est16 = estimate_operator_norm(sym, grid16, 2, 2, trials=8, seed=1)
            est32 = estimate_operator_norm(sym, grid32, 2, 2, trials=8, seed=1)
            ratio = est32 / est16 if est16 > 0 else math.inf
            stability[name] = ratio
            if not (0.5 <= ratio <= 2.0):
                ok = False

        elapsed = time.time() - start
        ok = ok and elapsed < 600
        _report(
            "10 bilinear-multiplier",
            ok,
            f"duality defect {worst_duality:.1e}, dilation drift {dilation_drift:.1%}, "
            "stability "
            + ", ".join(f"{k}: {v:.2f}x" for k, v in stability.items())
            + f", {elapsed:.1f}s",
        )

    def test_11_sqg_solver(self, tmp_path):
        start = time.time()
        grid = Grid(128)

        # heat-limit exactness: a plane wave advects itself trivially, so the
        # run must equal the fractional heat flow to machine precision
        x1, _ = grid.meshgrid()
        wave0 = forward_transform(RealField(grid, 0.5 * np.cos(x1)))
        snap_path = tmp_path / "wave.field"
        save_field(snap_path, wave0)
        wave_cfg = SolverConfig(
            grid=grid, kappa=0.8, dt=0.01, t_end=0.5, record_every=10,
            initial_data=InitialData(profile=f"file:{snap_path}"),
        )
        wave = Collect()
        wave_traj = solve(wave_cfg, wave)
        heat_err_wave = max(
            np.max(np.abs(snap.coeffs - heat_semigroup(wave0, t, 0.8).coeffs))
            for t, snap in zip(wave_traj.times, wave.snapshots[0])
        )
        ok = heat_err_wave <= 1e-10

        # L^2 never increases beyond the discrete tolerance
        diss_cfg = SolverConfig(
            grid=grid, kappa=0.8, dt=0.01, t_end=1.0, record_every=10,
            initial_data=InitialData("random-band", amplitude=0.2, seed=2),
        )
        diss = solve(diss_cfg, ignore)
        l2 = [row["l2"] for row in diss.diagnostics]
        ts = [row["t"] for row in diss.diagnostics]
        monotone = all(
            b <= a + 1e-8 * (tb - ta)
            for a, b, ta, tb in zip(l2, l2[1:], ts, ts[1:])
        )
        ok = ok and monotone

        # Richardson order on a smooth nonlinear run
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            run = Collect()
            solve(
                SolverConfig(
                    grid=grid, kappa=0.8, dt=dt, t_end=0.2, record_every=10000,
                    initial_data=InitialData("gaussian-pair", amplitude=2.0),
                ),
                run,
            )
            finals[dt] = run.snapshots[0][-1]
        err1 = (finals[0.02] - finals[0.01]).l2_norm()
        err2 = (finals[0.01] - finals[0.005]).l2_norm()
        order = math.log2(err1 / err2)
        ok = ok and (1.7 <= order <= 2.3)

        elapsed = time.time() - start
        ok = ok and elapsed < 300
        _report(
            "11 sqg-solver",
            ok,
            f"heat-limit {heat_err_wave:.1e}, L2 monotone {monotone}, "
            f"dt-order {order:.2f}, {elapsed:.1f}s",
        )

    def test_12_picard_small_data(self):
        start = time.time()
        rep = run_check(
            "wellposedness", n=128, kappa=0.8, alpha=0.4, beta=0.3, p=2.0,
            dt=0.01, t_end=1.0, record_every=10, picard_depth=6,
            amplitudes=(0.01, 0.1, 1.0),
        )
        elapsed = time.time() - start
        contraction = rep.fits["max_contraction_ratio"]
        sweep_ok = 0.5 <= rep.fits["sweep_ratio_next"] / rep.fits["sweep_ratio_small"] <= 2.0
        slope = rep.fits["radius_loglog_slope"]
        target = rep.fits["radius_slope_target"]
        ok = (
            rep.verdict == "pass"
            and contraction < 1.0
            and sweep_ok
            and slope >= target
            and elapsed < 900
        )
        _report(
            "12 picard/small-data",
            ok,
            f"contraction {contraction:.3g} < 1, sweep ratio stable {sweep_ok}, "
            f"radius slope {slope:.2f} >= {target:.2f}, {elapsed:.1f}s",
        )
