"""Tests for the SQG time stepper and the Picard approximation sequence."""

import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqgev.solver
from sqgev.cli import write_diagnostics
from sqgev.dyadic import BesovParams, besov_norm, build_system
from sqgev.gevrey import heat_semigroup
from sqgev.solver import (
    ADVECTION_CONVENTION,
    _diagnostics_row,
    _full_spectrum,
    _half_plane,
    _heat_factor,
    _heun_step,
    _record_steps,
    _Workspace,
    BlowUpError,
    InitialData,
    SolverConfig,
    StabilityWarning,
    Trajectory,
    config_echo,
    dealias_mask,
    initial_field,
    PicardGaps,
    picard_solve,
    solve,
)
from sqgev.spectral import (
    TWO_PI,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    _ring_index,
    box_mask,
    forward_transform,
    random_band_limited,
    random_field,
    save_field,
)

from reference import Collect, ignore, nonlinear_term, picard_gaps


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


# Complex-transform stepping kernels, one field per transform, kept as
# oracles for the real-transform kernels of the solver.
def collocation_velocity_complex(theta_hat, grid):
    n2 = grid.n * grid.n
    kmag = grid.k_mag
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(kmag > 0, 1.0 / np.where(kmag > 0, kmag, 1.0), 0.0)
    u1_hat = 1j * grid.ky * inv * theta_hat
    u2_hat = -1j * grid.kx * inv * theta_hat
    return np.fft.ifft2(u1_hat * n2).real, np.fft.ifft2(u2_hat * n2).real


def advect_complex(theta_hat, u1, u2, grid, mask):
    n2 = grid.n * grid.n
    tx = np.fft.ifft2(1j * grid.kx * theta_hat * n2).real
    ty = np.fft.ifft2(1j * grid.ky * theta_hat * n2).real
    adv_hat = np.fft.fft2(u1 * tx + u2 * ty) / n2 * mask
    return adv_hat, max(np.max(np.abs(u1)), np.max(np.abs(u2)))


def heun_step_complex(theta_hat, grid, dt, efactor, mask):
    n1 = -advect_complex(theta_hat, *collocation_velocity_complex(theta_hat, grid), grid, mask)[0]
    predictor = efactor * (theta_hat + dt * n1)
    n2 = -advect_complex(predictor, *collocation_velocity_complex(predictor, grid), grid, mask)[0]
    return efactor * theta_hat + 0.5 * dt * (efactor * n1 + n2)


# The full-spectrum march of the real-transform solver as it was before the
# state became an in-place half spectrum: allocating irfft2/rfft2 calls and
# a new (n, n) state per step.  The trajectories of the half-plane march
# must equal its own, bit for bit.
def real_pair_full(half, first, second, n):
    stack = np.empty((2, *half.shape), dtype=np.complex128)
    np.multiply(half, first, out=stack[0])
    np.multiply(half, second, out=stack[1])
    return np.fft.irfft2(stack, s=(n, n), norm="forward")


def velocity_full(theta_hat, grid):
    ikx, iky, inv = _half_plane(grid)
    with np.errstate(invalid="ignore", over="ignore"):
        return real_pair_full(theta_hat[:, : grid.n // 2 + 1] * inv, iky, -ikx, grid.n)


def advect_full(theta_hat, u1, u2, grid, mask):
    n, h = grid.n, grid.n // 2 + 1
    ikx, iky, _ = _half_plane(grid)
    with np.errstate(invalid="ignore", over="ignore"):
        tx, ty = real_pair_full(theta_hat[:, :h], ikx, iky, n)
        half = np.fft.rfft2(u1 * tx + u2 * ty, norm="forward") * mask[:, :h]
        umax = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
    adv_hat = np.empty((n, n), dtype=np.complex128)
    adv_hat[:, :h] = half
    adv_hat[:, h:] = np.conj(half[grid._neg_index, h - 2 : 0 : -1])
    return adv_hat, umax


def heun_step_full(theta_hat, grid, dt, efactor, mask, frozen=None, frozen_next=None):
    vel = velocity_full(theta_hat, grid) if frozen is None else frozen
    adv1, umax = advect_full(theta_hat, *vel, grid, mask)
    n1 = -adv1
    with np.errstate(invalid="ignore", over="ignore"):
        predictor = efactor * (theta_hat + dt * n1)
    vel2 = velocity_full(predictor, grid) if frozen is None else frozen_next
    adv2, _ = advect_full(predictor, *vel2, grid, mask)
    n2 = -adv2
    with np.errstate(invalid="ignore", over="ignore"):
        return efactor * theta_hat + 0.5 * dt * (efactor * n1 + n2), umax


def march_full(config, sources, sink):
    grid, dt = config.grid, config.dt
    efactor = np.exp(-dt * grid.k_mag**config.kappa)
    mask = dealias_mask(grid, config.dealias)
    kmax = float(np.max(grid.k_mag))
    n_steps, marks = _record_steps(config)
    levels = range(len(sources))
    theta = [initial_field(config).coeffs] * len(levels)
    vel = {src: velocity_full(theta[src], grid)
           for lvl, src in enumerate(sources) if src not in (None, lvl)}
    times, diags = ([[] for _ in levels] for _ in range(2))
    metas = [{"convention": ADVECTION_CONVENTION, "level": lvl, "warnings": []} for lvl in levels]

    def trajectory(lvl):
        return Trajectory(config, tuple(times[lvl]), tuple(diags[lvl]), metas[lvl])

    def record(k):
        for lvl in levels:
            snap = SpectralField(grid, theta[lvl])
            try:
                row = _diagnostics_row(k * dt, snap, config)
            except HermitianSymmetryError as exc:
                raise BlowUpError("diagnostics", k * dt, trajectory(lvl)) from exc
            if not all(np.isfinite(row[key]) for key in ("l2", "lp", "besov")):
                raise BlowUpError("diagnostics", k * dt, trajectory(lvl))
            times[lvl].append(k * dt)
            diags[lvl].append(row)
            sink(lvl, k * dt, snap, row)

    record(0)
    for k in range(1, n_steps + 1):
        for lvl, src in enumerate(sources):
            if src is None:
                new, umax = efactor * theta[lvl], 0.0
            elif src == lvl:
                new, umax = heun_step_full(theta[lvl], grid, dt, efactor, mask)
            else:
                vel_end = velocity_full(theta[src], grid)
                new, umax = heun_step_full(theta[lvl], grid, dt, efactor, mask, vel[src], vel_end)
                vel[src] = vel_end
            notes = metas[lvl]["warnings"]
            if not notes and dt * kmax * umax > 1.0:
                notes.append(
                    f"advective CFL heuristic exceeded at t={k * dt:g}: "
                    f"dt*max|k|*max|u| = {dt * kmax * umax:.2f}"
                )
            if not np.all(np.isfinite(new)):
                raise BlowUpError("step", k * dt, trajectory(lvl))
            theta[lvl] = new
        if k in marks:
            record(k)
    return [trajectory(lvl) for lvl in levels]


def run_or_blowup(march, *args):
    """(levels, sink, None) from a finished march, ([partial], sink, time)
    from a blow-up; sink is the Collect sink of the run."""
    sink = Collect()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        try:
            return march(*args, sink), sink, None
        except BlowUpError as exc:
            return [exc.trajectory], sink, exc.time


def collected(march, *args):
    """(levels, Collect sink) of a finished march."""
    sink = Collect()
    return march(*args, sink), sink


def solve_levels(config, sink):
    """solve, as a list of levels."""
    return [solve(config, sink)]


def bounded(run):
    """run() in a helper thread joined with a 60 s timeout, so that a
    deadlocked march fails the test instead of hanging the suite.  Returns
    (result, BlowUpError or None, the StabilityWarnings it gave); any other
    error is raised.  Every thread the run started has ended.  The helper
    thread is named "march"."""
    before, out = threading.active_count(), {}

    def target():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", StabilityWarning)
            try:
                out["result"] = run()
            except BlowUpError as exc:
                out["blowup"] = exc
            except BaseException as exc:
                out["raised"] = exc
        out["warned"] = [w for w in caught if w.category is StabilityWarning]

    helper = threading.Thread(target=target, name="march", daemon=True)
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive(), "the march did not end within 60 s"
    assert threading.active_count() == before
    if "raised" in out:
        raise out["raised"]
    return out.get("result"), out.get("blowup"), out["warned"]


def after_each_step(monkeypatch, change):
    """Wrap the Heun step of every advected level: umax = change(k, lvl,
    theta, umax) runs after level lvl's step k, with k and lvl read from
    the march's stepping frame, and the march sees the umax it returns.
    Returns a set that gains, at each step, whether the thread that stepped
    is the one that called the march under `bounded`: {True} for one group
    of levels, {True, False} for two."""
    heun, threads = sqgev.solver._heun_step, set()

    def step(theta, *args, **kwargs):
        umax = heun(theta, *args, **kwargs)
        threads.add(threading.current_thread().name == "march")
        frame = sys._getframe(1)
        return change(frame.f_locals["k"], frame.f_locals["lvl"], theta, umax)

    monkeypatch.setattr("sqgev.solver._heun_step", step)
    return threads


def assert_same_run(got, want):
    """got and want are (levels, Collect sink) pairs."""
    (got, got_sink), (want, want_sink) = got, want
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.times == b.times
        assert a.diagnostics == b.diagnostics
        assert a.meta == b.meta
        x_snaps = got_sink.snapshots[a.meta["level"]]
        y_snaps = want_sink.snapshots[b.meta["level"]]
        assert len(x_snaps) == len(y_snaps) == len(a.times)
        for x, y in zip(x_snaps, y_snaps):
            assert np.array_equal(x.coeffs, y.coeffs)


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
            dict(picard_depth=-1),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            cosine_config(**kw)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            InitialData(profile="vortex-soup")

    def test_negative_amplitude(self):
        with pytest.raises(ConfigError, match="amplitude"):
            InitialData(amplitude=-1)


class TestInitialData:
    def test_prescribed_besov_norm(self):
        for profile in ("gaussian-pair", "random-band", "single-ring"):
            cfg = cosine_config(
                n=64, initial_data=InitialData(profile=profile, amplitude=0.25, seed=3)
            )
            fld = initial_field(cfg)
            norm = besov_norm(fld, cfg.besov_params())
            assert norm == pytest.approx(0.25, rel=1e-10)
            assert abs(fld.mean_value()) == 0.0

    def test_zero_profile(self):
        cfg = cosine_config(initial_data=InitialData(profile="zero"))
        assert np.all(initial_field(cfg).coeffs == 0)

    @pytest.mark.parametrize("profile", ["file", "file:", "filexyz", "files:x.field"])
    def test_snapshot_profile_needs_file_colon_and_a_path(self, profile):
        with pytest.raises(ConfigError, match="file:<path>"):
            InitialData(profile=profile)

    def test_real_snapshot_is_forward_transformed(self, tmp_path):
        grid = Grid(32)
        x1, x2 = grid.meshgrid()
        real = RealField(grid, np.cos(x1 + 2 * x2) - 0.25 * np.sin(3 * x2))
        fields = []
        for name, field in (("real", real), ("spectral", forward_transform(real))):
            save_field(tmp_path / name, field)
            cfg = cosine_config(initial_data=InitialData(profile=f"file:{tmp_path / name}"))
            fields.append(initial_field(cfg))
        assert np.array_equal(fields[0].coeffs, fields[1].coeffs)
        assert np.any(fields[0].coeffs)

    def test_snapshot_on_another_grid_raises(self, tmp_path):
        save_field(tmp_path / "f", random_band_limited(Grid(16), 1, seed=2))
        cfg = cosine_config(initial_data=InitialData(profile=f"file:{tmp_path / 'f'}"))
        with pytest.raises(ConfigError, match=r"snapshot grid \(n=16\) does not match run grid"):
            initial_field(cfg)

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
        pairing = TWO_PI**2 * float(
            np.real(np.sum(theta.coeffs * np.conj(adv.coeffs)))
        )
        grad_scale = float(np.max(grid.k_mag) * theta.l2_norm())
        assert abs(pairing) <= 1e-10 * theta.l2_norm() ** 2 * grad_scale


class TestRealKernels:
    @pytest.mark.parametrize("n", [8, 16, 32, 128, 256])
    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    def test_match_complex_kernels_with_nyquist_content(self, n, dealias):
        # the noise fills the dealias box, as a march state may: under none
        # that takes in the Nyquist row and column, where each odd symbol
        # must vanish along its own component
        grid = Grid(n)
        h = n // 2 + 1
        work = _Workspace(grid, dealias)
        theta = random_field(grid, n, box_mask(grid, work.c)).coeffs
        mask = dealias_mask(grid, dealias)
        ref_vel = np.array(collocation_velocity_complex(theta, grid))
        vel = work.velocity(theta[:, :h], np.empty((2, n, n)))
        assert np.max(np.abs(vel - ref_vel)) <= 1e-13 * np.max(np.abs(ref_vel))
        ref_adv, ref_umax = advect_complex(theta, *ref_vel, grid, mask)
        umax = work.max_speed(vel)
        adv = _full_spectrum(work.advection(theta[:, :h], vel), grid).coeffs
        assert np.max(np.abs(adv - ref_adv)) <= 1e-13 * np.max(np.abs(ref_adv))
        assert abs(umax - ref_umax) <= 1e-13 * ref_umax

    @pytest.mark.parametrize("n", [8, 16, 128, 256])
    def test_workspace_transforms_equal_numpy(self, n):
        # the split transforms write into preallocated buffers, in place
        # along the first axis, and give irfft2/rfft2's numbers exactly
        rng = np.random.default_rng(n)
        work = _Workspace(Grid(n), "none")
        values = rng.standard_normal((2, n, n))
        half = np.fft.rfft2(values, norm="forward")
        work.spec[...] = half
        out = np.empty((2, n, n))
        assert work.inverse(out) is out
        assert np.array_equal(out, np.fft.irfft2(half, s=(n, n), norm="forward"))
        adv = work.forward(values[1])
        assert np.shares_memory(adv, work.spec)
        assert np.array_equal(adv, np.fft.rfft2(values[1], norm="forward"))

    @pytest.mark.parametrize("n", [8, 16, 128, 256])
    def test_kept_box_transforms_equal_numpy(self, n):
        # a march's workspace transforms along axis 0 only the columns that
        # the two-thirds rule keeps; on a field inside that box its inverse
        # gives irfft2's numbers, and on any values its forward gives
        # rfft2's on the kept columns
        rng = np.random.default_rng(n)
        grid = Grid(n)
        work = _Workspace(grid, "two-thirds")
        keep = work.c + 1
        assert keep == n // 3 + 1
        box = dealias_mask(grid, "two-thirds")[:, : n // 2 + 1]
        values = rng.standard_normal((2, n, n))
        half = np.fft.rfft2(values, norm="forward") * box
        work.spec[...] = half
        out = np.empty((2, n, n))
        assert work.inverse(out) is out
        assert np.array_equal(out, np.fft.irfft2(half, s=(n, n), norm="forward"))
        adv = work.forward(values[1])
        assert np.shares_memory(adv, work.spec)
        want = np.fft.rfft2(values[1], norm="forward")
        assert np.array_equal(adv[:, :keep], want[:, :keep])

    @pytest.mark.parametrize("case", ["nan-u1", "nan-u2", "inf", "-inf", "negative-zero"])
    def test_max_speed_equals_the_abs_form(self, case):
        # max(max u, -min u) per component is max |u|, NaN in u1 included;
        # a NaN in u2 alone is passed over, as Python's max passes it over
        rng = np.random.default_rng(3)
        vel = rng.standard_normal((2, 8, 8))
        if case == "nan-u1":
            vel[0, 2, 3] = np.nan
        elif case == "nan-u2":
            vel[1, 5, 1] = np.nan
        elif case in ("inf", "-inf"):
            vel[1, 0, 7] = float(case)
        else:
            vel[...] = -0.0
        want = max(np.max(np.abs(vel[0])), np.max(np.abs(vel[1])))
        got = _Workspace(Grid(8), "none").max_speed(vel)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.isnan(got) == (case == "nan-u1")

    def test_masked_modes_hold_fixed_zeros_through_a_march(self):
        # under the two-thirds rule no transform writes the masked modes: on
        # an advected level they are +0 in the k2 >= 0 half from the first
        # step on, and on the heat-flow level efactor times the initial
        # zeros, so each level's sign pattern there stays as its first step
        # left it
        cfg = cosine_config(record_every=1, picard_depth=2,
                            initial_data=InitialData("random-band", amplitude=0.5, seed=1))
        h = cfg.grid.n // 2 + 1
        masked = ~dealias_mask(cfg.grid, "two-thirds")
        masked[0, 0] = False
        for march, heat_levels in ((solve_levels, ()), (picard_solve, (0,))):
            _, sink = collected(march, cfg)
            for lvl, snaps in sink.snapshots.items():
                signs = [np.signbit(np.stack([s.coeffs.real, s.coeffs.imag])[:, masked])
                         for s in snaps[1:]]
                assert len(signs) == 10
                assert all(np.array_equal(sign, signs[0]) for sign in signs)
                if lvl not in heat_levels:
                    half = masked.copy()
                    half[:, h:] = False
                    assert not np.signbit(np.stack([snaps[-1].coeffs.real,
                                                    snaps[-1].coeffs.imag])[:, half]).any()

    def test_half_plane_symbols_equal_the_full_grid_slices(self):
        grid = Grid(32)
        n, h = grid.n, grid.n // 2 + 1
        ikx = 1j * grid.kx[:, :1]
        iky = 1j * grid.ky[:1, :h]
        ikx[n // 2] = 0.0
        iky[0, n // 2] = 0.0
        kmag = grid.k_mag[:, :h]
        inv = np.divide(1.0, kmag, out=np.zeros(kmag.shape), where=kmag > 0)
        for got, want in zip(_half_plane(grid), (ikx, iky, inv)):
            assert np.array_equal(got, want)
        want = np.exp(-0.01 * grid.k_mag**0.8)[:, :h]
        assert np.array_equal(_heat_factor(grid, 0.01, 0.8), want)

    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    def test_half_plane_step_matches_complex_step(self, dealias):
        cfg = cosine_config(
            n=32, dealias=dealias, initial_data=InitialData("random-band", amplitude=0.5, seed=4)
        )
        grid = cfg.grid
        h = grid.n // 2 + 1
        efactor = np.exp(-cfg.dt * grid.k_mag**cfg.kappa)
        mask = dealias_mask(grid, cfg.dealias)
        work = _Workspace(grid, cfg.dealias)
        ref = initial_field(cfg).coeffs
        half = ref[:, :h].copy()
        for _ in range(5):
            ref = heun_step_complex(ref, grid, cfg.dt, efactor, mask)
            _heun_step(half, work, cfg.dt, efactor[:, :h])
            state = _full_spectrum(half, grid).coeffs
            assert np.max(np.abs(state - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_undealiased_solve_matches_complex_march(self):
        # without dealiasing the first step fills the Nyquist modes
        cfg = cosine_config(
            n=32, dealias="none", record_every=1,
            initial_data=InitialData("random-band", amplitude=0.5, seed=4),
        )
        sink = Collect()
        solve(cfg, sink)
        grid = cfg.grid
        efactor = np.exp(-cfg.dt * grid.k_mag**cfg.kappa)
        mask = dealias_mask(grid, cfg.dealias)
        theta = initial_field(cfg).coeffs
        for snap in sink.snapshots[0][1:]:
            theta = heun_step_complex(theta, grid, cfg.dt, efactor, mask)
            assert np.max(np.abs(snap.coeffs - theta)) <= 1e-12 * np.max(np.abs(theta))
        assert np.any(theta[grid.n // 2, :] != 0) and np.any(theta[:, grid.n // 2] != 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 32, 64, 128, 256]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_dealiased_advection_is_orthogonal_and_hermitian(self, n, seed):
        # inside the two-thirds box the masked product is exact, so
        # <P(u . grad theta), theta> = 0 up to round-off
        grid = Grid(n)
        theta = random_field(grid, seed, dealias_mask(grid, "two-thirds"))
        adv = nonlinear_term(theta, "two-thirds")
        pairing = TWO_PI**2 * np.sum(adv.coeffs * np.conj(theta.coeffs))
        assert abs(pairing) <= 1e-13 * theta.l2_norm() * adv.l2_norm()
        assert adv.is_hermitian()


class TestStep:
    def test_reduces_to_heat_flow_on_plane_wave(self, tmp_path):
        grid = Grid(32)
        x1, _ = grid.meshgrid()
        theta = forward_transform(RealField(grid, np.cos(x1)))
        save_field(tmp_path / "wave.field", theta)
        cfg = cosine_config(
            t_end=0.01, initial_data=InitialData(f"file:{tmp_path / 'wave.field'}")
        )
        sink = Collect()
        solve(cfg, sink)
        exact = heat_semigroup(theta, cfg.dt, cfg.kappa)
        assert np.max(np.abs(sink.snapshots[0][-1].coeffs - exact.coeffs)) <= 1e-12

    def test_mean_stays_zero(self):
        cfg = cosine_config(
            n=64, t_end=0.05, record_every=1,
            initial_data=InitialData("random-band", 1.0, seed=4),
        )
        sink = Collect()
        solve(cfg, sink)
        assert len(sink.snapshots[0]) == 6
        assert all(abs(theta.mean_value()) <= 1e-14 for theta in sink.snapshots[0])

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
            sink = Collect()
            solve(
                SolverConfig(
                    **{
                        **{k: getattr(cfg, k) for k in (
                            "grid", "kappa", "t_end", "dealias", "picard_depth",
                            "initial_data", "record_every", "p", "q", "alpha",
                        )},
                        "dt": cfg.dt / div,
                    }
                ),
                sink,
            )
            finals[div] = sink.snapshots[0][-1]
        err1 = (finals[1] - finals[2]).l2_norm()
        err2 = (finals[2] - finals[4]).l2_norm()
        order = math.log2(err1 / err2)
        assert 1.7 <= order <= 2.3


class TestScaling:
    @pytest.mark.parametrize("kappa", [0.5, 0.8])
    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    def test_critical_scaling_is_exact_on_the_even_modes(self, tmp_path, kappa, dealias):
        # theta_2(x, t) = 2^(kappa-1) theta(2x, 2^kappa t) solves the same
        # equation.  On the 2*pi box theta(2x) lives on the even modes of
        # the doubled grid, where both dealias rules and the Nyquist
        # convention are the coarse grid's, so the scheme keeps the identity
        # to round-off
        coarse = cosine_config(
            n=64, kappa=kappa, dealias=dealias, dt=0.01, t_end=0.2, record_every=100,
            initial_data=InitialData("random-band", amplitude=5.0, seed=3),
        )
        scale = 2.0 ** (kappa - 1.0)
        fine_grid = Grid(128)
        even = np.ix_(2 * coarse.grid.freqs % 128, 2 * coarse.grid.freqs % 128)
        coeffs = np.zeros((128, 128), dtype=complex)
        coeffs[even] = scale * initial_field(coarse).coeffs
        save_field(tmp_path / "even.field", SpectralField(fine_grid, coeffs))
        fine = cosine_config(
            n=128, kappa=kappa, dealias=dealias, dt=0.01 / 2.0**kappa,
            t_end=0.2 / 2.0**kappa, record_every=100,
            initial_data=InitialData(f"file:{tmp_path / 'even.field'}"),
        )
        runs = [Collect(), Collect()]
        solve(coarse, runs[0])
        solve(fine, runs[1])
        assert len(runs[0].snapshots[0]) == len(runs[1].snapshots[0]) == 2
        for theta, theta_2 in zip(runs[0].snapshots[0], runs[1].snapshots[0]):
            want = scale * theta.coeffs
            assert np.max(np.abs(theta_2.coeffs[even] - want)) <= 1e-12 * np.max(np.abs(want))
            odd = np.ones((128, 128), dtype=bool)
            odd[even] = False
            assert np.all(theta_2.coeffs[odd] == 0.0)
            # the blocks of theta(2x) are the blocks of theta one band down,
            # with the same L^p norms on the 2*pi box
            for p in (2.0, 4.0):
                bp = BesovParams(1.0 + 2.0 / p - kappa, p, 2.0)
                ratio = besov_norm(theta_2, bp) / besov_norm(theta, bp)
                assert ratio == pytest.approx(2.0 ** (2.0 / p), rel=1e-12)


def ring_step_error(tmp_path, n, dealias, rings, peak):
    """Relative max-coefficient distance, after one solve step, between the
    run from Hermitian Gaussian modes on the circles |k|^2 in rings (max
    coefficient peak) and the heat flow of those data."""
    grid = Grid(n)
    m2 = grid.freqs[:, None] ** 2 + grid.freqs[None, :] ** 2
    theta = random_field(grid, sum(rings), np.isin(m2, rings))
    theta = theta * (peak / np.max(np.abs(theta.coeffs)))
    save_field(tmp_path / "ring.field", theta)
    config = cosine_config(n=n, dealias=dealias, dt=0.002, t_end=0.002,
                           initial_data=InitialData(f"file:{tmp_path / 'ring.field'}"))
    sink = Collect()
    solve(config, sink)
    want = heat_semigroup(theta, 0.002, config.kappa).coeffs
    return np.max(np.abs(sink.snapshots[0][-1].coeffs - want)) / np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore::sqgev.solver.StabilityWarning")
class TestRingData:
    # If every mode of theta lies on one circle |k| = r, then
    # u = (-R2 theta, R1 theta) = -grad^perp Lambda^-1 theta = -grad^perp theta / r
    # is parallel to grad^perp theta, so u . grad theta = 0 pointwise and the
    # exact solution is the heat flow e^{-t r^kappa} theta0 at any amplitude.
    # The identity sees a lost perp in the velocity, not the sign of u or
    # the power of Lambda
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    @pytest.mark.parametrize("ring", [25, 65, 85])
    @pytest.mark.parametrize("peak", [1.0, 100.0])
    def test_one_ring_steps_as_the_heat_flow(self, tmp_path, n, dealias, ring, peak):
        assert ring_step_error(tmp_path, n, dealias, (ring,), peak) <= 1e-14

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    def test_two_rings_do_not(self, tmp_path, n, dealias):
        # the advection of two rings is not zero: the control of the identity
        assert ring_step_error(tmp_path, n, dealias, (25, 65), 100.0) > 1e-2


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
        sink = Collect()
        traj = solve(cfg, sink)
        for t, snap in zip(traj.times, sink.snapshots[0], strict=True):
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
        traj = solve(cfg, ignore)
        l2 = [row["l2"] for row in traj.diagnostics]
        dts = np.diff([row["t"] for row in traj.diagnostics])
        for a, b, h in zip(l2, l2[1:], dts):
            assert b <= a + 1e-8 * h

    def test_zero_data_stays_zero(self):
        cfg = cosine_config(initial_data=InitialData("zero"))
        traj = solve(cfg, ignore)
        assert all(row["l2"] == 0.0 for row in traj.diagnostics)
        assert all(row["radius"] == 0.0 for row in traj.diagnostics)

    def test_matches_plain_heun_loop(self):
        # the shared stepping loop adds nothing to the Heun step, bit for bit
        cfg = cosine_config(
            n=32, record_every=1, initial_data=InitialData("random-band", amplitude=0.5, seed=2)
        )
        sink = Collect()
        traj = solve(cfg, sink)
        assert traj.meta["level"] == 0 and traj.meta["warnings"] == []
        grid = cfg.grid
        efactor = _heat_factor(grid, cfg.dt, cfg.kappa)
        work = _Workspace(grid, cfg.dealias)
        h = grid.n // 2 + 1
        theta = initial_field(cfg).coeffs
        snaps = sink.snapshots[0]
        assert np.array_equal(theta, snaps[0].coeffs)
        half = theta[:, :h].copy()
        for snap in snaps[1:]:
            _heun_step(half, work, cfg.dt, efactor[:, :h])
            assert np.array_equal(_full_spectrum(half, grid).coeffs, snap.coeffs)

    def test_huge_dt_warns(self):
        cfg = cosine_config(
            n=32,
            initial_data=InitialData("random-band", amplitude=50.0, seed=6),
            dt=0.5,
            t_end=1.0,
        )
        with pytest.warns(StabilityWarning):
            try:
                solve(cfg, ignore)
            except BlowUpError:
                pass  # an actual blow-up is acceptable here

    def test_stability_warning_names_the_calling_line(self):
        cfg = cosine_config(
            n=32, picard_depth=1, dt=0.5, t_end=1.0,
            initial_data=InitialData("random-band", amplitude=50.0, seed=6),
        )
        runs = {
            "solve": lambda: solve(cfg, ignore),
            "picard_solve": lambda: picard_solve(cfg, ignore),
        }
        for name, run in runs.items():
            with pytest.warns(StabilityWarning) as record:
                try:
                    run()
                except BlowUpError:
                    pass
            assert record[0].filename == __file__, name

    def test_stability_warning_from_the_worker_names_the_calling_line(self, monkeypatch):
        # a depth-6 run whose one CFL excess is level 5's, which steps on
        # the worker thread
        cfg = cosine_config(n=32, picard_depth=6, record_every=1000)
        threads = after_each_step(
            monkeypatch, lambda k, lvl, theta, umax: 1e6 if lvl == 5 and k >= 3 else umax
        )
        call = lambda: picard_solve(cfg, ignore)  # noqa: E731
        levels, blowup, warned = bounded(call)
        assert blowup is None and len(threads) == 2
        assert len(warned) == 1
        assert (warned[0].filename, warned[0].lineno) == (__file__, call.__code__.co_firstlineno)
        notes = [traj.meta["warnings"] for traj in levels]
        assert notes == [[]] * 5 + [[str(warned[0].message)]] + [[]]
        assert notes[5][0].startswith("advective CFL heuristic exceeded at t=0.03:")

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
                solve(cfg, ignore)
        assert isinstance(err.value.trajectory, Trajectory)
        assert err.value.time > 0

    def test_times_strictly_increasing_and_mean_zero(self):
        cfg = cosine_config(n=32, record_every=3)
        sink = Collect()
        traj = solve(cfg, sink)
        times = np.array(traj.times)
        assert np.all(np.diff(times) > 0)
        for snap in sink.snapshots[0]:
            assert abs(snap.mean_value()) <= 1e-12


class TestMemory:
    def test_recorded_run_builds_no_full_grid_wavenumbers(self):
        # no cache may hold this grid's ring index, dyadic system or
        # half-plane symbols
        for cache in (_ring_index, build_system, _half_plane):
            cache.cache_clear()
        grid = Grid(256)
        config = SolverConfig(grid=grid, t_end=0.03, record_every=1)
        tracemalloc.start()
        try:
            # every recorded field kept, as when the run collected them
            solve(config, Collect())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not {"kx", "ky", "k_mag"} & set(vars(grid))
        # Python 3.11, numpy 2.4, alone or after the rest of this file:
        # 15.1-15.8 MB with the full-grid kx, ky and k_mag, the scaled
        # ifft2 input and a LAPACK line fit; 12.4-13.1 MB without them
        assert peak < 14.5 * 2**20


    def test_initial_data_holds_one_working_copy(self):
        config = SolverConfig(grid=Grid(256))
        initial_field(config)  # builds the grid's ring index and dyadic system
        tracemalloc.start()
        try:
            initial_field(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Python 3.11, numpy 2.4: 4.18 MiB with random-band masked twice, a
        # working copy alive through the norm and a scaled copy of the field;
        # 2.77 MiB with one mask and one scale
        assert peak < 3.25 * 2**20


# each run as a list of levels, with the sources of its full-spectrum march
# at picard_depth=2
LEVEL_RUNS = {
    "solve": (solve_levels, [0]),
    "picard_solve": (picard_solve, [None, 0, 1]),
}


class TestRecordSink:
    def test_no_record_runs_beside_a_stepping_workspace(self, monkeypatch):
        # every workspace goes into a weak set, so a live one shows while a
        # record is diagnosed or handed to the sink
        live, built, seen = weakref.WeakSet(), [], []
        build = _Workspace.__init__

        def tracked(self, *args):
            build(self, *args)
            live.add(self)
            built.append(1)

        def diagnosed(t, fld, config):
            seen.append(("row", t, len(live)))
            return _diagnostics_row(t, fld, config)

        def sink(lvl, t, snap, row):
            seen.append(("sink", t, len(live)))

        monkeypatch.setattr(_Workspace, "__init__", tracked)
        monkeypatch.setattr("sqgev.solver._diagnostics_row", diagnosed)
        # at depth 6 the upper levels step with a workspace of their own
        shallow, deep = (
            cosine_config(n=32, picard_depth=depth, t_end=0.05, record_every=1) for depth in (2, 6)
        )
        runs = [(name, run, shallow) for name, (run, _) in LEVEL_RUNS.items()]
        runs.append(("picard_solve at depth 6", picard_solve, deep))
        for name, run, cfg in runs:
            seen.clear(), built.clear()
            bounded(lambda: run(cfg, sink))
            # one workspace per group of levels and stretch of steps
            assert len(built) == (1 if run is solve_levels else 2) * 5, name
            # records between steps, not only at t = 0 and t_end
            assert {t for _, t, _ in seen} == {k * cfg.dt for k in range(6)}, name
            assert [alive for *_, alive in seen] == [0] * len(seen), name

    def test_sink_sees_every_record_and_the_run_keeps_none(self):
        cfg = cosine_config(
            n=32, picard_depth=2, record_every=3,
            initial_data=InitialData("random-band", amplitude=0.5, seed=2),
        )
        for run, sources in LEVEL_RUNS.values():
            want, want_sink = collected(march_full, cfg, sources)
            seen, alive = [], []

            def sink(lvl, t, snap, row):
                i = want[lvl].times.index(t)
                assert np.array_equal(snap.coeffs, want_sink.snapshots[lvl][i].coeffs)
                seen.append((lvl, t, row))
                alive.append(weakref.ref(snap))

            got = run(cfg, sink)
            # time by time, levels in order at each time
            assert [(lvl, t) for lvl, t, _ in seen] == [
                (lvl, t) for t in want[0].times for lvl in range(len(want))
            ]
            for lvl, t, row in seen:
                assert row == want[lvl].diagnostics[want[lvl].times.index(t)]
            # no recorded field outlives the run
            assert all(ref() is None for ref in alive)
            for a, b in zip(got, want, strict=True):
                assert (a.times, a.diagnostics, a.meta) == (b.times, b.diagnostics, b.meta)

    def test_blowup_with_a_sink_carries_the_records_it_saw(self):
        cfg = cosine_config(
            n=32, picard_depth=2, dt=0.5, t_end=50.0, record_every=1,
            initial_data=InitialData("random-band", amplitude=1e4, seed=7),
        )
        for name, (run, sources) in LEVEL_RUNS.items():
            want, want_sink, want_time = run_or_blowup(march_full, cfg, sources)
            got, got_sink, got_time = run_or_blowup(run, cfg)
            assert want_time is not None and got_time == want_time, name
            (a,), (b,) = got, want
            assert a.meta == b.meta
            assert (a.times, a.diagnostics) == (b.times, b.diagnostics)
            # the partial trajectory holds the times its level's sink saw
            level = b.meta["level"]
            assert got_sink.times[level] == list(a.times)
            mine, kept = got_sink.snapshots[level], want_sink.snapshots[level]
            for snap, ref in zip(mine, kept, strict=True):
                assert np.array_equal(snap.coeffs, ref.coeffs)


class TestRecordSteps:
    def test_t_end_off_the_step_lattice_raises(self):
        # 1.0 / 0.4 = 2.5 steps: the run used to stop silently at t = 0.8
        cfg = cosine_config(n=16, dt=0.4, t_end=1.0)
        for run in (solve, picard_solve):
            with pytest.raises(ConfigError, match="whole number of steps"):
                run(cfg, ignore)

    def test_decimal_multiples_accepted(self):
        # 0.03 / 0.01 = 2.9999999999999996 in binary floating point
        run = solve(cosine_config(n=16, dt=0.01, t_end=0.03, record_every=1), ignore)
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
        sink = Collect()
        picard_solve(cfg, sink)
        snaps = sink.snapshots
        grid = cfg.grid
        n, h = grid.n, grid.n // 2 + 1
        efactor = _heat_factor(grid, cfg.dt, cfg.kappa)[:, :h]
        work = _Workspace(grid, cfg.dealias)
        for lvl in (1, 2):
            below = [snap.coeffs[:, :h] for snap in snaps[lvl - 1]]
            theta = snaps[lvl][0].coeffs[:, :h].copy()
            for k in range(len(below) - 1):
                _heun_step(
                    theta, work, cfg.dt, efactor,
                    frozen=work.velocity(below[k], np.empty((2, n, n))),
                    frozen_next=work.velocity(below[k + 1], np.empty((2, n, n))),
                )
                new = _full_spectrum(theta, grid).coeffs
                assert np.array_equal(new, snaps[lvl][k + 1].coeffs)

    def test_past_cfl_warns_and_blowup_carries_partial_trajectory(self):
        cfg = cosine_config(
            n=32, picard_depth=2, dt=0.5, t_end=50.0, record_every=1000,
            initial_data=InitialData("random-band", amplitude=1e4, seed=7),
        )
        with pytest.warns(StabilityWarning):
            with pytest.raises(BlowUpError) as err:
                picard_solve(cfg, ignore)
        partial = err.value.trajectory
        assert isinstance(partial, Trajectory)
        assert err.value.time > 0
        assert partial.times[-1] < err.value.time
        assert partial.meta["warnings"]

    def test_non_finite_diagnostics_are_a_blowup(self):
        # huge but finite coefficients overflow the norms (l2 = inf, besov =
        # nan) several records before a coefficient turns non-finite
        cfg = cosine_config(
            n=32, picard_depth=2, dt=0.5, t_end=50.0, record_every=1,
            initial_data=InitialData("random-band", amplitude=1e4, seed=7),
        )
        sink = Collect()
        with pytest.warns(StabilityWarning):
            with pytest.raises(BlowUpError) as err:
                picard_solve(cfg, sink)
        partial = err.value.trajectory
        assert partial.times[-1] < err.value.time
        snaps = sink.snapshots[partial.meta["level"]]
        assert len(partial.times) == len(snaps) == len(partial.diagnostics)
        for row in partial.diagnostics:
            assert all(np.isfinite(value) for value in row.values())

    def test_hermitian_defect_in_diagnostics_is_a_blowup(self):
        # the unstable mode amplifies the round-off Hermitian defect past the
        # Besov norm's tolerance while every coefficient is still finite
        cfg = cosine_config(
            n=32, picard_depth=1, dt=0.5, t_end=50.0, record_every=1,
            initial_data=InitialData("random-band", amplitude=1e5, seed=7),
        )
        sink = Collect()
        with pytest.warns(StabilityWarning):
            with pytest.raises(BlowUpError) as err:
                picard_solve(cfg, sink)
        assert isinstance(err.value.__cause__, HermitianSymmetryError)
        partial = err.value.trajectory
        assert partial.meta["level"] == 1
        assert partial.times[-1] < err.value.time
        assert len(partial.times) == len(sink.snapshots[1]) == len(partial.diagnostics)

    @pytest.mark.parametrize("defect", [1e-3, 1e-11])
    def test_diagnostics_row_rejects_a_non_hermitian_field(self, defect):
        # a defect of 1e-11 passes inverse_transform's whole-field test (lp)
        # and fails the per-block test of the Besov norm, whose block at
        # |k| = 8 holds only the small mode pair
        cfg = cosine_config(n=32)
        c = np.zeros((32, 32), dtype=complex)
        c[1, 0] = c[-1, 0] = 1.0
        c[8, 0] = 1e-6
        c[-8, 0] = 1e-6 + defect
        snap = SpectralField(cfg.grid, c)
        assert snap.is_hermitian() == (defect < 1e-9)
        with pytest.raises(HermitianSymmetryError):
            _diagnostics_row(0.1, snap, cfg)

    def test_initial_row_is_shared_by_value_only(self):
        cfg = cosine_config(
            n=32, picard_depth=3, record_every=2,
            initial_data=InitialData("random-band", amplitude=0.05, seed=3),
        )
        sink = Collect()
        levels = picard_solve(cfg, sink)
        want = _diagnostics_row(0.0, sink.snapshots[0][0], cfg)
        rows = [traj.diagnostics[0] for traj in levels]
        assert all(row == want for row in rows)
        # each level holds its own row
        assert len({id(row) for row in rows}) == len(rows)

    def test_non_finite_initial_row_is_a_level_zero_blowup(self):
        cfg = cosine_config(
            n=16, picard_depth=2, record_every=1,
            initial_data=InitialData("random-band", amplitude=1e200, seed=1),
        )
        sink = Collect()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(BlowUpError, match="t=0: non-finite l2, lp, besov") as err:
                picard_solve(cfg, sink)
        assert err.value.time == 0.0
        partial = err.value.trajectory
        assert partial.meta["level"] == 0
        assert partial.times == partial.diagnostics == ()
        assert not sink.snapshots

    def test_depth_zero_is_heat_flow(self):
        cfg = cosine_config(n=32, picard_depth=0, record_every=2)
        sink = Collect()
        levels = picard_solve(cfg, sink)
        assert len(levels) == 1
        theta0 = initial_field(cfg)
        for t, snap in zip(levels[0].times, sink.snapshots[0]):
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
        sink, picard = Collect(), PicardGaps(cfg)

        def both(*record):
            sink(*record)
            picard(*record)

        picard_solve(cfg, both)
        gaps = picard_gaps(sink, cfg)
        assert picard.gaps == gaps
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r < 1.0 for r in ratios)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_diagnostics_besov_is_the_critical_norm_of_each_snapshot(self, p):
        # the well-posedness check reads its critical norms from these rows
        cfg = cosine_config(
            n=32, picard_depth=3, record_every=2, p=p,
            initial_data=InitialData("random-band", amplitude=0.05, seed=4),
        )
        bp = cfg.besov_params()
        runs = [collected(solve_levels, cfg), collected(picard_solve, cfg)]
        for levels, sink in runs:
            for lvl, traj in enumerate(levels):
                assert len(traj.diagnostics) == len(sink.snapshots[lvl]) == 6
                for row, snap in zip(traj.diagnostics, sink.snapshots[lvl]):
                    assert row["besov"] == besov_norm(snap, bp)

    def test_iterates_approach_full_solver(self):
        cfg = cosine_config(
            n=64,
            picard_depth=4,
            initial_data=InitialData("random-band", amplitude=0.05, seed=9),
            dt=0.01,
            t_end=0.3,
            record_every=1000,
        )
        levels, reference = Collect(), Collect()
        picard_solve(cfg, levels)
        solve(cfg, reference)
        last = [levels.snapshots[lvl][-1] for lvl in range(cfg.picard_depth + 1)]
        gap_prev = (last[-1] - last[-2]).l2_norm()
        dist = (last[-1] - reference.snapshots[0][-1]).l2_norm()
        assert dist <= 2.0 * gap_prev + 1e-12


class TestHalfPlaneMarch:
    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    def test_solve_and_picard_equal_full_spectrum_march(self, dealias):
        cfg = cosine_config(
            n=32, dealias=dealias, picard_depth=3, record_every=2,
            initial_data=InitialData("random-band", amplitude=0.5, seed=2),
        )
        assert_same_run(collected(solve_levels, cfg), collected(march_full, cfg, [0]))
        assert_same_run(
            collected(picard_solve, cfg), collected(march_full, cfg, [None, 0, 1, 2])
        )

    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    @pytest.mark.parametrize("record_every", [1, 1000])
    def test_blowup_equals_full_spectrum_march(self, dealias, record_every):
        # record_every=1 ends at non-finite diagnostics, 1000 at a non-finite
        # coefficient
        cfg = cosine_config(
            n=32, dealias=dealias, picard_depth=2, dt=0.5, t_end=50.0,
            record_every=record_every,
            initial_data=InitialData("random-band", amplitude=1e4, seed=7),
        )
        for run, sources in ((solve_levels, [0]), (picard_solve, [None, 0, 1])):
            *got, got_time = run_or_blowup(run, cfg)
            *want, want_time = run_or_blowup(march_full, cfg, sources)
            assert want_time is not None and got_time == want_time
            assert got[0][0].meta["level"] == want[0][0].meta["level"]
            assert_same_run(got, want)

    def test_alternating_grids_match_runs_alone(self):
        # each march owns its workspace: runs on two grids, interleaved,
        # give what each gives alone
        configs = [
            cosine_config(n=n, picard_depth=2, record_every=2,
                          initial_data=InitialData("random-band", amplitude=0.5, seed=n))
            for n in (32, 64)
        ]
        alone = [(collected(solve_levels, cfg), collected(picard_solve, cfg)) for cfg in configs]
        for _ in range(2):
            for cfg, (run, levels) in zip(configs, alone):
                assert_same_run(collected(solve_levels, cfg), run)
                assert_same_run(collected(picard_solve, cfg), levels)


class TestPicardWavefront:
    """A Picard chain with two advected levels or more steps its levels as
    two groups on two threads.  Forced into one group (_split = len), the
    march is the single loop over the levels in order, which two groups
    must equal bit for bit, blow-ups and warnings included."""

    def march(self, monkeypatch, cfg, groups, change=None, sink=ignore):
        """bounded(picard_solve(cfg, sink)) stepped as `groups` groups, with
        change run after each level's step (see after_each_step)."""
        with monkeypatch.context() as m:
            threads = after_each_step(m, change or (lambda k, lvl, theta, umax: umax))
            if groups == 1:
                m.setattr("sqgev.solver._split", len)
            out = bounded(lambda: picard_solve(cfg, sink))
        assert len(threads) == groups
        return out

    def test_split(self):
        split = sqgev.solver._split
        assert [split([None, *range(depth)]) for depth in range(7)] == [1, 2, 2, 3, 3, 4, 4]
        assert split([0]) == 1

    @pytest.mark.parametrize("depth", [2, 3, 6])
    @pytest.mark.parametrize("dealias", ["two-thirds", "none"])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_two_groups_equal_one(self, monkeypatch, depth, dealias, record_every):
        cfg = cosine_config(
            n=32, dealias=dealias, picard_depth=depth, t_end=0.2, record_every=record_every,
            initial_data=InitialData("random-band", amplitude=0.5, seed=depth),
        )
        self.assert_same_numbers(monkeypatch, cfg)

    @pytest.mark.parametrize("depth", [2, 6])
    def test_a_slow_worker_equals_one_group(self, monkeypatch, depth):
        # each velocity the worker computes waits 5 ms first, so that the
        # calling thread, were it given its first token early, would
        # overwrite level s - 1 before the worker read it, on any number of
        # CPUs
        velocity = _Workspace.velocity

        def slow(work, half, out):
            if threading.current_thread().name != "march":
                time.sleep(0.005)
            return velocity(work, half, out)

        monkeypatch.setattr(_Workspace, "velocity", slow)
        cfg = cosine_config(
            n=32, picard_depth=depth, t_end=0.2, record_every=7,
            initial_data=InitialData("random-band", amplitude=0.5, seed=depth),
        )
        self.assert_same_numbers(monkeypatch, cfg)

    def assert_same_numbers(self, monkeypatch, cfg):
        runs = []
        for groups in (1, 2):
            sink, gaps = Collect(), PicardGaps(cfg)

            def both(*record):
                sink(*record)
                gaps(*record)

            levels, blowup, warned = self.march(monkeypatch, cfg, groups, sink=both)
            assert blowup is None and not warned
            runs.append(((levels, sink), gaps.gaps))
        (one, one_gaps), (two, two_gaps) = runs
        assert_same_run(two, one)
        assert two_gaps == one_gaps

    def assert_same_blowup(self, monkeypatch, cfg, change=None):
        runs = []
        for groups in (1, 2):
            sink = Collect()
            _, blowup, warned = self.march(monkeypatch, cfg, groups, change, sink)
            assert blowup is not None
            runs.append((blowup, sink, [str(w.message) for w in warned]))
        (one, one_sink, one_warned), (two, two_sink, two_warned) = runs
        assert (str(two), two.time) == (str(one), one.time)
        assert two.trajectory.meta == one.trajectory.meta
        assert_same_run(([two.trajectory], two_sink), ([one.trajectory], one_sink))
        assert two_warned == one_warned
        # every level's records, not only the failing level's
        assert two_sink.times == one_sink.times
        for lvl, snaps in one_sink.snapshots.items():
            for x, y in zip(two_sink.snapshots[lvl], snaps, strict=True):
                assert np.array_equal(x.coeffs, y.coeffs)

    # (depth, the (step, level) pairs whose step turns non-finite); at
    # depth 6 levels 0-3 step on the calling thread and 4-6 on the worker,
    # at depth 2 levels 0-1 and 2
    POISONS = {
        "lower": (6, {(3, 2)}),
        "handed-level": (6, {(3, 3)}),
        "upper": (6, {(3, 5)}),
        "upper-first-lower-ahead": (6, {(3, 5), (4, 1)}),
        "lower-first": (6, {(3, 2), (3, 5)}),
        "handed-level-first": (6, {(3, 3), (3, 4)}),
        "depth-2-lower": (2, {(2, 1)}),
        "depth-2-upper": (2, {(2, 2)}),
    }

    @pytest.mark.parametrize("record_every", [2, 1000])
    @pytest.mark.parametrize("depth, poison", POISONS.values(), ids=POISONS)
    def test_blowup_in_either_group_equals_one_group(
        self, monkeypatch, depth, poison, record_every
    ):
        cfg = cosine_config(
            n=32, picard_depth=depth, t_end=0.1, record_every=record_every,
            initial_data=InitialData("random-band", amplitude=0.5, seed=2),
        )
        upper = sqgev.solver._split([None, *range(depth)])

        def change(k, lvl, theta, umax):
            if lvl >= upper:
                time.sleep(0.002)  # so that the lower group runs ahead
            if (k, lvl) not in poison:
                return umax
            # a CFL note too, which is warned only up to the first failure
            theta[0, 1] = np.nan
            return 1e6

        self.assert_same_blowup(monkeypatch, cfg, change)

    @pytest.mark.parametrize("depth", [2, 6])
    @pytest.mark.parametrize("record_every", [1, 1000])
    def test_cfl_excess_and_blowup_equal_one_group(self, monkeypatch, depth, record_every):
        # every level notes a CFL excess; record_every=1 ends at non-finite
        # diagnostics, 1000 at a non-finite coefficient
        cfg = cosine_config(
            n=32, picard_depth=depth, dt=0.5, t_end=50.0, record_every=record_every,
            initial_data=InitialData("random-band", amplitude=1e4, seed=7),
        )
        self.assert_same_blowup(monkeypatch, cfg)

    @pytest.mark.parametrize("level", [2, 5])
    def test_an_error_in_either_group_ends_the_march(self, monkeypatch, level):
        cfg = cosine_config(n=32, picard_depth=6, record_every=1000)

        def change(k, lvl, theta, umax):
            if (k, lvl) == (3, level):
                raise RuntimeError(f"step {k} of level {lvl}")
            return umax

        with pytest.raises(RuntimeError, match=f"step 3 of level {level}"):
            self.march(monkeypatch, cfg, 2, change)

    def test_a_raising_sink_leaves_no_live_worker(self, monkeypatch):
        cfg = cosine_config(n=32, picard_depth=6, record_every=2)

        def sink(lvl, t, snap, row):
            if t > 0:
                raise RuntimeError("sink")

        with pytest.raises(RuntimeError, match="sink"):
            self.march(monkeypatch, cfg, 2, sink=sink)

    def test_concurrent_marches_under_a_short_switch_interval(self, monkeypatch):
        # three two-group marches at once, six threads on fewer cores, with
        # the interpreter switching threads as often as it can: a handoff
        # out of order changes the numbers
        cfgs = [
            cosine_config(n=32, picard_depth=6, record_every=3,
                          initial_data=InitialData("random-band", amplitude=0.5, seed=seed))
            for seed in range(3)
        ]
        with monkeypatch.context() as m:
            m.setattr("sqgev.solver._split", len)
            want = [collected(picard_solve, cfg) for cfg in cfgs]
        got = [None] * len(cfgs)

        def run(i):
            got[i] = collected(picard_solve, cfgs[i])

        helpers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(cfgs))]
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for helper in helpers:
                helper.start()
            for helper in helpers:
                helper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(helper.is_alive() for helper in helpers)
        assert threading.active_count() == before
        for run_got, run_want in zip(got, want, strict=True):
            assert_same_run(run_got, run_want)

    def test_the_worker_keeps_the_callers_errstate(self, monkeypatch):
        cfg = cosine_config(n=32, picard_depth=6, record_every=1000)
        seen = set()

        def change(k, lvl, theta, umax):
            seen.add(np.geterr()["divide"])
            return umax

        def run():
            with np.errstate(divide="raise"):
                return picard_solve(cfg, ignore)

        threads = after_each_step(monkeypatch, change)
        bounded(run)
        assert len(threads) == 2 and seen == {"raise"}


class TestArtifacts:
    def test_diagnostics_csv_embeds_config(self, tmp_path):
        cfg = cosine_config(n=32, record_every=5)
        traj = solve(cfg, ignore)
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
