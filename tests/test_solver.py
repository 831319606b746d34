"""Tests for the SQG time stepper and the Picard approximation sequence."""

import math

import numpy as np
import pytest

from sqgev.dyadic import build_system
from sqgev.gevrey import heat_semigroup
from sqgev.solver import (
    _collocation_velocity,
    _heat_factor,
    _heun_step,
    BlowUpError,
    InitialData,
    SolverConfig,
    StabilityWarning,
    Trajectory,
    config_echo,
    dealias_mask,
    initial_field,
    nonlinear_term,
    picard_solve,
    solve,
    step,
    write_diagnostics,
)
from sqgev.spectral import (
    ConfigError,
    Grid,
    RealField,
    SpectralField,
    forward_transform,
    random_band_limited,
    save_field,
)


def cosine_config(n=32, **kw):
    grid = Grid(n)
    defaults = dict(
        grid=grid,
        kappa=0.8,
        dt=0.01,
        t_end=0.1,
        initial_data=InitialData(profile="single-ring", amplitude=0.5, ring_j=1),
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestConfig:
    def test_sigma(self):
        cfg = cosine_config(kappa=0.8, p=2.0)
        assert cfg.sigma == pytest.approx(1.2)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(kappa=0.0),
            dict(kappa=2.5),
            dict(dt=-0.1),
            dict(dt=0.5, t_end=0.1),
            dict(dealias="half"),
            dict(record_every=0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            cosine_config(**kw)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            InitialData(profile="vortex-soup")


class TestInitialData:
    def test_prescribed_besov_norm(self):
        for profile in ("gaussian-pair", "random-band", "single-ring"):
            cfg = cosine_config(
                n=64, initial_data=InitialData(profile=profile, amplitude=0.25, seed=3)
            )
            system = build_system(cfg.grid)
            fld = initial_field(cfg, system)
            norm = system.besov_norm(fld, cfg.besov_params())
            assert norm == pytest.approx(0.25, rel=1e-10)
            assert abs(fld.mean_value()) == 0.0

    def test_zero_profile(self):
        cfg = cosine_config(initial_data=InitialData(profile="zero"))
        assert np.all(initial_field(cfg).coeffs == 0)

    def test_dealias_mask_kills_mean_and_high_modes(self):
        grid = Grid(32)
        mask = dealias_mask(grid, "two-thirds")
        assert not mask[0, 0]
        assert not mask[16, 0]  # Nyquist
        assert mask[1, 1]
        loose = dealias_mask(grid, "none")
        assert loose[16, 0] and not loose[0, 0]


class TestNonlinearTerm:
    def test_zero_field(self):
        grid = Grid(32)
        theta = SpectralField(grid, np.zeros((32, 32), dtype=complex))
        out = nonlinear_term(theta)
        assert np.all(out.coeffs == 0)

    def test_plane_wave_advects_itself_trivially(self):
        # theta = cos(x1): u1 = 0 and d(theta)/dx2 = 0, so u.grad(theta) = 0
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        theta = forward_transform(RealField(grid, np.cos(x1)))
        out = nonlinear_term(theta)
        assert np.max(np.abs(out.coeffs)) <= 1e-15

    def test_energy_conservation_pairing(self):
        # int theta * (u.grad theta) dx = 0 for divergence-free u; with theta
        # band-limited inside the dealias zone the masked term is exact
        grid = Grid(64)
        theta = random_band_limited(grid, 2, seed=21)
        adv = nonlinear_term(theta, "two-thirds")
        pairing = grid.box_length**2 * float(
            np.real(np.sum(theta.coeffs * np.conj(adv.coeffs)))
        )
        grad_scale = float(np.max(grid.k_mag) * theta.l2_norm())
        assert abs(pairing) <= 1e-10 * theta.l2_norm() ** 2 * grad_scale


class TestStep:
    def test_reduces_to_heat_flow_on_plane_wave(self):
        cfg = cosine_config()
        grid = cfg.grid
        x1, _ = grid.meshgrid()
        theta = forward_transform(RealField(grid, np.cos(x1)))
        out = step(theta, cfg.dt, cfg)
        exact = heat_semigroup(theta, cfg.dt, cfg.kappa)
        assert np.max(np.abs(out.coeffs - exact.coeffs)) <= 1e-12

    def test_mean_stays_zero(self):
        cfg = cosine_config(n=64, initial_data=InitialData("random-band", 1.0, seed=4))
        theta = initial_field(cfg)
        for _ in range(5):
            theta = step(theta, cfg.dt, cfg)
        assert abs(theta.mean_value()) <= 1e-14

    def test_dt_refinement_is_second_order(self):
        cfg = cosine_config(
            n=64,
            kappa=0.8,
            initial_data=InitialData("gaussian-pair", amplitude=2.0),
            dt=0.02,
            t_end=0.2,
            record_every=1000,
        )
        finals = {}
        for div in (1, 2, 4):
            run = solve(
                SolverConfig(
                    **{
                        **{k: getattr(cfg, k) for k in (
                            "grid", "kappa", "t_end", "dealias", "picard_depth",
                            "initial_data", "record_every", "p", "q", "alpha", "sharpness",
                        )},
                        "dt": cfg.dt / div,
                    }
                )
            )
            finals[div] = run.final()
        err1 = (finals[1] - finals[2]).l2_norm()
        err2 = (finals[2] - finals[4]).l2_norm()
        order = math.log2(err1 / err2)
        assert 1.7 <= order <= 2.3


class TestSolve:
    def test_heat_only_run_matches_semigroup(self, tmp_path):
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        theta0 = forward_transform(RealField(grid, np.cos(x1)))
        # single Fourier mode: the advection term vanishes identically
        snap_path = tmp_path / "wave.field"
        save_field(snap_path, theta0)
        cfg = cosine_config(
            n=32, t_end=0.2, dt=0.01, record_every=5,
            initial_data=InitialData(profile=f"file:{snap_path}"),
        )
        traj = solve(cfg)
        for t, snap in zip(traj.times, traj.snapshots):
            exact = heat_semigroup(theta0, t, cfg.kappa)
            assert np.max(np.abs(snap.coeffs - exact.coeffs)) <= 1e-10

    def test_l2_never_increases(self):
        cfg = cosine_config(
            n=64,
            initial_data=InitialData("random-band", amplitude=0.2, seed=5),
            dt=0.01,
            t_end=0.5,
            record_every=5,
        )
        traj = solve(cfg)
        l2 = [row["l2"] for row in traj.diagnostics]
        dts = np.diff([row["t"] for row in traj.diagnostics])
        for a, b, h in zip(l2, l2[1:], dts):
            assert b <= a + 1e-8 * h

    def test_zero_data_stays_zero(self):
        cfg = cosine_config(initial_data=InitialData("zero"))
        traj = solve(cfg)
        assert all(row["l2"] == 0.0 for row in traj.diagnostics)

    def test_huge_dt_warns(self):
        cfg = cosine_config(
            n=32,
            initial_data=InitialData("random-band", amplitude=50.0, seed=6),
            dt=0.5,
            t_end=1.0,
        )
        with pytest.warns(StabilityWarning):
            try:
                solve(cfg)
            except BlowUpError:
                pass  # an actual blow-up is acceptable here

    def test_blowup_carries_partial_trajectory(self):
        cfg = cosine_config(
            n=32,
            initial_data=InitialData("random-band", amplitude=1e4, seed=7),
            dt=0.5,
            t_end=50.0,
            record_every=1,
        )
        with pytest.warns(StabilityWarning):
            with pytest.raises(BlowUpError) as err:
                solve(cfg)
        assert isinstance(err.value.trajectory, Trajectory)
        assert err.value.time > 0

    def test_times_strictly_increasing_and_mean_zero(self):
        cfg = cosine_config(n=32, record_every=3)
        traj = solve(cfg)
        times = np.array(traj.times)
        assert np.all(np.diff(times) > 0)
        for snap in traj.snapshots:
            assert abs(snap.mean_value()) <= 1e-12


class TestRecordSteps:
    def test_t_end_off_the_step_lattice_raises(self):
        # 1.0 / 0.4 = 2.5 steps: the run used to stop silently at t = 0.8
        cfg = cosine_config(n=16, dt=0.4, t_end=1.0)
        for run in (solve, picard_solve):
            with pytest.raises(ConfigError, match="whole number of steps"):
                run(cfg)

    def test_decimal_multiples_accepted(self):
        # 0.03 / 0.01 = 2.9999999999999996 in binary floating point
        run = solve(cosine_config(n=16, dt=0.01, t_end=0.03))
        assert len(run.times) == 4
        assert run.times[-1] == pytest.approx(0.03)


class TestPicard:
    def test_frozen_velocity_follows_the_level_below(self):
        # level l is advected by the velocity of level l - 1 at both ends of
        # every step, bit for bit
        cfg = cosine_config(
            n=32, picard_depth=2, record_every=1,
            initial_data=InitialData("random-band", amplitude=0.05, seed=3),
        )
        levels = picard_solve(cfg)
        grid = cfg.grid
        efactor = _heat_factor(grid, cfg.dt, cfg.kappa)
        mask = dealias_mask(grid, cfg.dealias)
        for lvl in (1, 2):
            below = [snap.coeffs for snap in levels[lvl - 1].snapshots]
            theta = levels[lvl].snapshots[0].coeffs
            for k in range(len(below) - 1):
                theta, _ = _heun_step(
                    theta, grid, cfg.dt, efactor, mask,
                    frozen=_collocation_velocity(below[k], grid),
                    frozen_next=_collocation_velocity(below[k + 1], grid),
                )
                assert np.array_equal(theta, levels[lvl].snapshots[k + 1].coeffs)

    def test_depth_zero_is_heat_flow(self):
        cfg = cosine_config(n=32, picard_depth=0, record_every=2)
        levels = picard_solve(cfg)
        assert len(levels) == 1
        theta0 = initial_field(cfg)
        for t, snap in zip(levels[0].times, levels[0].snapshots):
            exact = heat_semigroup(theta0, t, cfg.kappa)
            assert np.max(np.abs(snap.coeffs - exact.coeffs)) <= 1e-12

    def test_successive_differences_contract(self):
        cfg = cosine_config(
            n=64,
            picard_depth=4,
            initial_data=InitialData("random-band", amplitude=0.05, seed=8),
            dt=0.01,
            t_end=0.3,
            record_every=5,
        )
        system = build_system(cfg.grid)
        bp = cfg.besov_params()
        levels = picard_solve(cfg)
        gaps = []
        for lo, hi in zip(levels, levels[1:]):
            gaps.append(
                max(
                    system.besov_norm(a - b, bp)
                    for (_, a), (_, b) in zip(lo.samples(), hi.samples())
                )
            )
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r < 1.0 for r in ratios)

    def test_iterates_approach_full_solver(self):
        cfg = cosine_config(
            n=64,
            picard_depth=4,
            initial_data=InitialData("random-band", amplitude=0.05, seed=9),
            dt=0.01,
            t_end=0.3,
            record_every=1000,
        )
        levels = picard_solve(cfg)
        reference = solve(cfg)
        gap_prev = (levels[-1].final() - levels[-2].final()).l2_norm()
        dist = (levels[-1].final() - reference.final()).l2_norm()
        assert dist <= 2.0 * gap_prev + 1e-12


class TestArtifacts:
    def test_diagnostics_csv_embeds_config(self, tmp_path):
        cfg = cosine_config(n=32, record_every=5)
        traj = solve(cfg)
        path = tmp_path / "diag.csv"
        write_diagnostics(traj, path)
        text = path.read_text()
        assert "# kappa=0.8" in text
        assert "t,l2,lp,besov,radius" in text
        assert "convention" in text

    def test_config_echo_round_trips_values(self):
        cfg = cosine_config()
        echo = config_echo(cfg)
        assert echo["n"] == cfg.grid.n
        assert echo["initial_data"] == cfg.initial_data.profile
