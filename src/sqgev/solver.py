"""Time integration of dissipative SQG and its linearized Picard iterates.

The scheme is an integrating-factor Heun (RK2) step: the fractional heat
flow is applied exactly through exp(-dt |k|^kappa), the advection term is
advanced explicitly at second order.  The convention is

    d theta/dt + u . grad theta + Lambda^kappa theta = 0,
    u = (-R2 theta, R1 theta),

with the quadratic term formed pseudo-spectrally (pointwise product in
physical space) and dealiased by the two-thirds rule by default.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DEFAULT_SHARPNESS, BesovParams, DyadicSystem, default_system
from .gevrey import spectral_decay_fit
from .spectral import (
    ConfigError,
    Grid,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    load_field,
    lp_norm,
    random_band_limited,
)

ADVECTION_CONVENTION = "dtheta/dt + u.grad(theta) + Lambda^kappa theta = 0"

PROFILES = ("gaussian-pair", "random-band", "single-ring", "zero")


class BlowUpError(FloatingPointError):
    """Integration produced non-finite coefficients."""

    def __init__(self, message: str, time: float, trajectory: "Trajectory | None"):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class StabilityWarning(UserWarning):
    """Advisory CFL-style warning: dt * max|k| * max|u| exceeded 1."""


@dataclass(frozen=True)
class InitialData:
    """Named analytic profile (plus amplitude/seed) or a snapshot file.

    The amplitude is the prescribed homogeneous Besov norm at the critical
    regularity sigma = 1 + 2/p - kappa of the run.
    """

    profile: str = "random-band"
    amplitude: float = 0.1
    seed: int = 0
    ring_j: int = 2
    path: str | None = None

    def __post_init__(self):
        if self.profile not in PROFILES and not self.profile.startswith("file"):
            raise ConfigError(
                f"unknown initial data profile {self.profile!r}; "
                f"choose one of {PROFILES} or file:<path>"
            )
        if self.amplitude < 0:
            raise ConfigError("amplitude must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    kappa: float = 0.8
    dt: float = 1e-2
    t_end: float = 1.0
    dealias: str = "two-thirds"
    picard_depth: int = 0
    initial_data: InitialData = field(default_factory=InitialData)
    record_every: int = 1
    # diagnostics: L^p / Besov indices and the Gevrey exponent of the
    # radius estimate
    p: float = 2.0
    q: float = 2.0
    alpha: float = 0.4
    sharpness: float = DEFAULT_SHARPNESS

    def __post_init__(self):
        if not (0.0 < self.kappa <= 2.0):
            raise ConfigError(f"kappa must lie in (0, 2], got {self.kappa}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ConfigError(f"t_end={self.t_end} shorter than one step dt={self.dt}")
        if self.dealias not in ("two-thirds", "none"):
            raise ConfigError(f"unknown dealias rule {self.dealias!r}")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.picard_depth < 0:
            raise ConfigError("picard_depth must be >= 0")

    @property
    def sigma(self) -> float:
        """Critical Besov regularity 1 + 2/p - kappa."""
        return 1.0 + 2.0 / self.p - self.kappa

    def besov_params(self) -> BesovParams:
        return BesovParams(self.sigma, self.p, self.q)


@dataclass(frozen=True)
class Trajectory:
    config: SolverConfig
    times: tuple
    snapshots: tuple
    diagnostics: tuple
    meta: dict

    def samples(self):
        """(t, field) pairs with t > 0, ready for X_T norms."""
        return [(t, s) for t, s in zip(self.times, self.snapshots) if t > 0]

    def final(self) -> SpectralField:
        return self.snapshots[-1]


def dealias_mask(grid: Grid, rule: str) -> np.ndarray:
    """Keep-mask for the quadratic term; always kills the mean mode."""
    if rule == "none":
        mask = np.ones((grid.n, grid.n), dtype=bool)
    else:
        cutoff = grid.n / 3.0
        absf = np.abs(grid.freqs)
        mask = (absf[:, None] < cutoff) & (absf[None, :] < cutoff)
    mask = mask.copy()
    mask[0, 0] = False
    return mask


# -- initial data --------------------------------------------------------


def _gaussian_pair_values(grid: Grid) -> np.ndarray:
    L = grid.box_length
    x1, x2 = grid.meshgrid()
    width = L / 16.0
    out = np.zeros((grid.n, grid.n))
    for sign, cx in ((1.0, 0.5 * L - L / 8.0), (-1.0, 0.5 * L + L / 8.0)):
        # nearest-image distance keeps the profile smooth across the seam
        dx = (x1 - cx + 0.5 * L) % L - 0.5 * L
        dy = (x2 - 0.5 * L + 0.5 * L) % L - 0.5 * L
        out += sign * np.exp(-(dx**2 + dy**2) / (2.0 * width**2))
    return out - out.mean()


def _flat_modulus_band(grid: Grid, seed: int) -> np.ndarray:
    """Hermitian coefficients of unit modulus with random phases, filling the
    two-thirds dealiasing box (so the spectrum survives a dealiased run and
    the radius diagnostics see a flat baseline)."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-math.pi, math.pi, (grid.n, grid.n))
    idx = grid._neg_index
    phase = 0.5 * (raw - raw[np.ix_(idx, idx)])  # antisymmetric
    cutoff = grid.n / 3.0
    absf = np.abs(grid.freqs)
    mask = (absf[:, None] < cutoff) & (absf[None, :] < cutoff)
    mask[0, 0] = False
    return np.exp(1j * phase) * mask


def initial_field(config: SolverConfig, system: DyadicSystem | None = None) -> SpectralField:
    """Construct the configured initial data, normalized in the critical norm."""
    grid = config.grid
    system = system or default_system(grid, config.sharpness)
    init = config.initial_data
    if init.profile.startswith("file"):
        path = init.path or init.profile.partition(":")[2]
        loaded, _ = load_field(path)
        if isinstance(loaded, RealField):
            loaded = forward_transform(loaded)
        if loaded.grid != grid:
            raise ConfigError(
                f"snapshot grid (n={loaded.grid.n}) does not match run grid (n={grid.n})"
            )
        coeffs = loaded.coeffs.copy()
    elif init.profile == "zero":
        coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    elif init.profile == "gaussian-pair":
        coeffs = forward_transform(RealField(grid, _gaussian_pair_values(grid))).coeffs.copy()
    elif init.profile == "random-band":
        coeffs = _flat_modulus_band(grid, init.seed)
    elif init.profile == "single-ring":
        coeffs = random_band_limited(grid, init.ring_j, init.seed).coeffs.copy()
    else:  # unreachable; InitialData validates
        raise ConfigError(init.profile)

    coeffs[0, 0] = 0.0
    if config.dealias == "two-thirds":
        coeffs = coeffs * dealias_mask(grid, config.dealias)
    fld = SpectralField(grid, coeffs)
    norm = system.besov_norm(fld, config.besov_params())
    if init.profile == "zero" or init.amplitude == 0.0 or norm == 0.0:
        return SpectralField(grid, np.zeros_like(coeffs))
    if init.profile.startswith("file"):
        return fld  # files are taken verbatim
    return (init.amplitude / norm) * fld


# -- nonlinear term and stepping ------------------------------------------


def _collocation_velocity(theta_hat: np.ndarray, grid: Grid):
    """Values (u1, u2) = (-R2 theta, R1 theta) of the velocity on the grid points."""
    n2 = grid.n * grid.n
    kmag = grid.k_mag
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(kmag > 0, 1.0 / np.where(kmag > 0, kmag, 1.0), 0.0)
    u1_hat = 1j * grid.ky * inv * theta_hat
    u2_hat = -1j * grid.kx * inv * theta_hat
    with np.errstate(invalid="ignore", over="ignore"):
        return np.fft.ifft2(u1_hat * n2).real, np.fft.ifft2(u2_hat * n2).real


def _advect(theta_hat: np.ndarray, u1: np.ndarray, u2: np.ndarray, grid: Grid, mask: np.ndarray):
    """Spectral coefficients of u . grad theta for the collocation velocity
    (u1, u2), dealiased; also max |u|."""
    n2 = grid.n * grid.n
    # blow-up shows up as NaN/Inf here and is detected by the caller, so the
    # intermediate arithmetic must not warn
    with np.errstate(invalid="ignore", over="ignore"):
        tx = np.fft.ifft2(1j * grid.kx * theta_hat * n2).real
        ty = np.fft.ifft2(1j * grid.ky * theta_hat * n2).real
        product = u1 * tx + u2 * ty
        adv_hat = np.fft.fft2(product) / n2 * mask
        umax = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
    return adv_hat, umax


def nonlinear_term(theta: SpectralField, dealias: str = "two-thirds") -> SpectralField:
    """u . grad theta for u the Riesz velocity of theta (advection form)."""
    grid = theta.grid
    mask = dealias_mask(grid, dealias)
    u1, u2 = _collocation_velocity(theta.coeffs, grid)
    adv_hat, _ = _advect(theta.coeffs, u1, u2, grid, mask)
    if not np.all(np.isfinite(adv_hat)):
        raise BlowUpError("overflow while forming the advection term", 0.0, None)
    return SpectralField(grid, adv_hat)


def _heat_factor(grid: Grid, dt: float, kappa: float) -> np.ndarray:
    return np.exp(-dt * grid.k_mag**kappa)


def _heun_step(theta_hat, grid, dt, efactor, mask, frozen=None, frozen_next=None):
    """One integrating-factor Heun step; returns (new_theta_hat, umax).

    With frozen velocities (Picard mode), `frozen` supplies the collocation
    velocity (u1, u2) at the current time and `frozen_next` at the next;
    otherwise velocity is recomputed from the advected state itself.
    """
    vel = _collocation_velocity(theta_hat, grid) if frozen is None else frozen
    adv1, umax = _advect(theta_hat, *vel, grid, mask)
    n1 = -adv1
    predictor = efactor * (theta_hat + dt * n1)
    vel2 = _collocation_velocity(predictor, grid) if frozen is None else frozen_next
    adv2, _ = _advect(predictor, *vel2, grid, mask)
    n2 = -adv2
    new = efactor * theta_hat + 0.5 * dt * (efactor * n1 + n2)
    return new, umax


def step(theta: SpectralField, dt: float, config: SolverConfig) -> SpectralField:
    """Advance one step; exact heat flow when the advection term vanishes."""
    grid = theta.grid
    efactor = _heat_factor(grid, dt, config.kappa)
    mask = dealias_mask(grid, config.dealias)
    new, umax = _heun_step(theta.coeffs, grid, dt, efactor, mask)
    kmax = float(np.max(grid.k_mag))
    if dt * kmax * umax > 1.0:
        warnings.warn(
            f"advective CFL heuristic exceeded: dt*max|k|*max|u| = {dt * kmax * umax:.2f}",
            StabilityWarning,
            stacklevel=2,
        )
    if not np.all(np.isfinite(new)):
        raise BlowUpError("non-finite coefficients after one step", dt, None)
    return SpectralField(grid, new)


def _diagnostics_row(t, theta_hat, grid, config, system):
    fld = SpectralField(grid, theta_hat)
    phys = inverse_transform(fld)
    if np.any(theta_hat):
        gamma_hat, *_, low_signal = spectral_decay_fit(fld, config.alpha)
        radius = 0.0 if low_signal else max(gamma_hat, 0.0)
    else:
        radius = 0.0
    return {
        "t": t,
        "l2": fld.l2_norm(),
        "lp": lp_norm(phys, config.p),
        "besov": system.besov_norm(fld, config.besov_params()),
        "radius": radius,
    }


def _record_steps(config: SolverConfig) -> tuple[int, list[int]]:
    ratio = config.t_end / config.dt
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise ConfigError("t_end shorter than one time step")
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ConfigError(
            f"t_end={config.t_end:g} is not a whole number of steps dt={config.dt:g} "
            f"(t_end/dt = {ratio:.12g})"
        )
    marks = list(range(0, n_steps + 1, config.record_every))
    if marks[-1] != n_steps:
        marks.append(n_steps)
    return n_steps, marks


def solve(config: SolverConfig) -> Trajectory:
    """Integrate SQG to t_end; raises BlowUpError carrying the partial run."""
    grid = config.grid
    system = default_system(grid, config.sharpness)
    theta = initial_field(config, system).coeffs.copy()
    efactor = _heat_factor(grid, config.dt, config.kappa)
    mask = dealias_mask(grid, config.dealias)
    kmax = float(np.max(grid.k_mag))
    n_steps, marks = _record_steps(config)

    times, snaps, diags = [], [], []
    meta = {"convention": ADVECTION_CONVENTION, "warnings": []}

    def record(k, th):
        t = k * config.dt
        times.append(t)
        snaps.append(SpectralField(grid, th))
        diags.append(_diagnostics_row(t, th, grid, config, system))

    record(0, theta)
    cfl_flagged = False
    for k in range(1, n_steps + 1):
        theta, umax = _heun_step(theta, grid, config.dt, efactor, mask)
        if not cfl_flagged and config.dt * kmax * umax > 1.0:
            note = (
                f"advective CFL heuristic exceeded at t={k * config.dt:g}: "
                f"dt*max|k|*max|u| = {config.dt * kmax * umax:.2f}"
            )
            meta["warnings"].append(note)
            warnings.warn(note, StabilityWarning, stacklevel=2)
            cfl_flagged = True
        if not np.all(np.isfinite(theta)):
            partial = Trajectory(config, tuple(times), tuple(snaps), tuple(diags), meta)
            raise BlowUpError(
                f"blow-up at t={k * config.dt:g}", k * config.dt, partial
            )
        if k in marks or k == n_steps:
            record(k, theta)

    return Trajectory(config, tuple(times), tuple(snaps), tuple(diags), meta)


def picard_solve(config: SolverConfig) -> list[Trajectory]:
    """Approximation sequence: theta^0 solves the fractional heat equation
    and each theta^(n+1) solves linear advection-diffusion with the velocity
    frozen from theta^n, all from the same initial data.

    All levels advance simultaneously in one sweep over time so no level
    needs the full history of the previous one.  Returns trajectories for
    levels 0..picard_depth.
    """
    if config.picard_depth < 0:
        raise ConfigError("picard_depth must be >= 0")
    grid = config.grid
    system = default_system(grid, config.sharpness)
    depth = config.picard_depth
    theta0 = initial_field(config, system).coeffs.copy()
    efactor = _heat_factor(grid, config.dt, config.kappa)
    mask = dealias_mask(grid, config.dealias)
    n_steps, marks = _record_steps(config)

    prev = [theta0.copy() for _ in range(depth + 1)]
    times = [[0.0] for _ in range(depth + 1)]
    snaps = [[SpectralField(grid, theta0)] for _ in range(depth + 1)]
    diags = [[_diagnostics_row(0.0, theta0, grid, config, system)] for _ in range(depth + 1)]

    # collocation velocity of every level below the top at the current time;
    # a step's end-time velocity is the next step's start-time velocity
    vel = [_collocation_velocity(prev[lvl], grid) for lvl in range(depth)]
    for k in range(1, n_steps + 1):
        t = k * config.dt
        nxt = [None] * (depth + 1)
        nxt[0] = efactor * prev[0]
        for lvl in range(1, depth + 1):
            vel_end = _collocation_velocity(nxt[lvl - 1], grid)
            nxt[lvl], _ = _heun_step(
                prev[lvl], grid, config.dt, efactor, mask,
                frozen=vel[lvl - 1], frozen_next=vel_end,
            )
            vel[lvl - 1] = vel_end
        for lvl in range(depth + 1):
            if not np.all(np.isfinite(nxt[lvl])):
                partial = Trajectory(
                    config, tuple(times[lvl]), tuple(snaps[lvl]), tuple(diags[lvl]),
                    {"convention": ADVECTION_CONVENTION, "level": lvl},
                )
                raise BlowUpError(f"Picard level {lvl} blow-up at t={t:g}", t, partial)
        if k in marks or k == n_steps:
            for lvl in range(depth + 1):
                times[lvl].append(t)
                snaps[lvl].append(SpectralField(grid, nxt[lvl]))
                diags[lvl].append(_diagnostics_row(t, nxt[lvl], grid, config, system))
        prev = nxt

    return [
        Trajectory(
            config,
            tuple(times[lvl]),
            tuple(snaps[lvl]),
            tuple(diags[lvl]),
            {"convention": ADVECTION_CONVENTION, "level": lvl},
        )
        for lvl in range(depth + 1)
    ]


# -- run artifacts ---------------------------------------------------------


def config_echo(config: SolverConfig) -> dict:
    init = config.initial_data
    return {
        "n": config.grid.n,
        "box_length": config.grid.box_length,
        "kappa": config.kappa,
        "dt": config.dt,
        "t_end": config.t_end,
        "dealias": config.dealias,
        "picard_depth": config.picard_depth,
        "record_every": config.record_every,
        "p": config.p,
        "q": config.q,
        "alpha": config.alpha,
        "sharpness": config.sharpness,
        "initial_data": init.profile,
        "amplitude": init.amplitude,
        "init_seed": init.seed,
        "ring_j": init.ring_j,
        "convention": ADVECTION_CONVENTION,
    }


def write_diagnostics(trajectory: Trajectory, path) -> None:
    """Diagnostics CSV with the effective config echoed in '#' comment lines."""
    with open(path, "w", newline="") as fh:
        for key, val in config_echo(trajectory.config).items():
            fh.write(f"# {key}={val}\n")
        writer = csv.DictWriter(fh, fieldnames=["t", "l2", "lp", "besov", "radius"])
        writer.writeheader()
        for row in trajectory.diagnostics:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
