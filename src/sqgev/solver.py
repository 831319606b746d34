"""Time integration of dissipative SQG and its linearized Picard iterates.

The scheme is an integrating-factor Heun (RK2) step: the fractional heat
flow is applied exactly through exp(-dt |k|^kappa), the advection term is
advanced explicitly at second order.  The convention is

    d theta/dt + u . grad theta + Lambda^kappa theta = 0,
    u = (-R2 theta, R1 theta),

with the quadratic term formed pseudo-spectrally (pointwise product in
physical space) and dealiased by the two-thirds rule by default.

Each level's state is its k2 >= 0 half spectrum, an (n, n//2+1) array
that the Heun step updates in place, and the step allocates nothing: a
workspace (_Workspace) holds the half-plane symbols and every buffer, and
numpy's out= arguments write the velocity pair, the gradient pair and the
product's transform into it.  A workspace lives for one stretch of steps
between two records and is dropped before the record, whose transients
then reuse its pages.  The inverse transform of a (2, n, n//2+1) stack
is ifft along axis 0 then irfft along axis 1, the forward transform rfft
along axis 1 then fft along axis 0: the same numbers as irfft2 and rfft2.
The kernel has one contract: every state it sees lies in the dealias box
of components at most c, c = n//3 under the two-thirds rule (Orszag 1971)
and n//2, every mode, under `none`.  A march keeps it, since the initial
data is masked and every update dealiased; so each axis-0 pass runs, in
place, on the c + 1 kept columns only, and the dealiasing writes zeros
over the rows and columns outside the box instead of multiplying by a
mask.  No transform output reaches the masked modes: from the first step
on they hold +0 on an advected level and the heat factor times the
initial zeros on a heat-flow level, whatever the round-off of the
transforms.  The k2 < 0 columns are rebuilt from Hermitian symmetry
(spectral._full_spectrum) only when a level is recorded; the initial data
is recorded as given.
Nyquist convention: each odd symbol (i kx, i ky and the Riesz pair) is 0
where its own component is the Nyquist frequency n/2, the value the real
part of a complex inverse transform gives it there.

The solution and its Picard iterates obey the same equation and differ only
in where the advecting velocity comes from, so one loop (_march) advances a
list of levels through the same time steps.  Each level names its velocity
source: none (pure heat flow), its own velocity (the solution), or the
velocity of the level below, frozen at both ends of each step (the Picard
iterates).  `solve` is the one-level call and `picard_solve` the call with
heat flow at level 0 and level l advected by level l - 1.  Level l at step
k needs level l - 1 at steps k - 1 and k only, so a Picard chain with two
advected levels or more steps its upper levels one step behind its lower
ones, on a second thread, with the arithmetic of one loop; the two threads
hand the boundary level over as one token per step in each direction.  The
loop records diagnostics, hands each recorded snapshot to the caller's sink
and keeps none, warns of the first CFL excess of each level, and raises
BlowUpError carrying the partial trajectory of the first level, in (step,
level) order, that turns non-finite, or whose recorded field fails the
Hermitian check or has a non-finite norm.
PicardGaps is the sink that reduces a Picard run to the gaps between its
levels.
"""

from __future__ import annotations

import contextvars
import math
import queue
import threading
import warnings
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np

from .dyadic import BesovParams, besov_norm
from .gevrey import fit_radius, spectral_decay_fit
from .spectral import (
    TWO_PI,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    _freeze,
    _full_spectrum,
    box_mask,
    forward_transform,
    inverse_transform,
    load_field,
    lp_norm,
    random_band_limited,
    random_phases,
)

ADVECTION_CONVENTION = "dtheta/dt + u.grad(theta) + Lambda^kappa theta = 0"

PROFILES = ("gaussian-pair", "random-band", "single-ring", "zero")


class BlowUpError(FloatingPointError):
    """Integration produced non-finite coefficients."""

    def __init__(self, message: str, time: float, trajectory: Trajectory):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class StabilityWarning(UserWarning):
    """Advisory CFL-style warning: dt * max|k| * max|u| exceeded 1."""


@dataclass(frozen=True)
class InitialData:
    """Named analytic profile (plus amplitude/seed) or a snapshot file
    given as profile "file:<path>".

    The amplitude is the prescribed homogeneous Besov norm at the critical
    regularity sigma = 1 + 2/p - kappa of the run.
    """

    profile: str = "random-band"
    amplitude: float = 0.1
    seed: int = 0
    ring_j: int = 2

    def __post_init__(self):
        is_file = self.profile.startswith("file:") and self.profile != "file:"
        if self.profile not in PROFILES and not is_file:
            raise ConfigError(
                f"unknown initial data profile {self.profile!r}; "
                f"choose one of {PROFILES} or file:<path>"
            )
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(f"amplitude must be finite and nonnegative, got {self.amplitude}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SolverConfig:
    """A run.  These defaults are the defaults of the command line too; the
    field order is the order of the config echo."""

    grid: Grid = Grid(128)
    kappa: float = 0.8
    dt: float = 1e-2
    t_end: float = 1.0
    dealias: str = "two-thirds"
    picard_depth: int = 4
    record_every: int = 10
    # diagnostics: L^p / Besov indices and the Gevrey exponent of the
    # radius estimate
    p: float = 2.0
    q: float = 2.0
    alpha: float = 0.4
    initial_data: InitialData = InitialData()

    def __post_init__(self):
        if not (0.0 < self.kappa <= 2.0):
            raise ConfigError(f"kappa must lie in (0, 2], got {self.kappa}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be finite and positive, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ConfigError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < self.dt:
            raise ConfigError(f"t_end={self.t_end} shorter than one step dt={self.dt}")
        if self.dealias not in ("two-thirds", "none"):
            raise ConfigError(f"unknown dealias rule {self.dealias!r}")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.picard_depth < 0:
            raise ConfigError("picard_depth must be >= 0")
        if not (self.p >= 1 and self.q >= 1):
            raise ConfigError(f"need p >= 1 and q >= 1, got p={self.p}, q={self.q}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha}")

    @property
    def sigma(self) -> float:
        """Critical Besov regularity 1 + 2/p - kappa."""
        return 1.0 + 2.0 / self.p - self.kappa

    def besov_params(self) -> BesovParams:
        return BesovParams(self.sigma, self.p, self.q)


@dataclass(frozen=True)
class Trajectory:
    """Recorded run of one level: its times and diagnostics rows; its
    snapshots went to the run's sink.  meta holds the advection convention,
    the level (0 for `solve`) and the CFL notes."""

    config: SolverConfig
    times: tuple
    diagnostics: tuple
    meta: dict


def _kept_component(grid: Grid, rule: str) -> int:
    """Largest integer frequency component that the dealias rule keeps:
    n//3 under the two-thirds rule, n//2 (every mode) under none."""
    return grid.n // 2 if rule == "none" else grid.n // 3


def dealias_mask(grid: Grid, rule: str) -> np.ndarray:
    """Keep-mask for the quadratic term; always kills the mean mode.  The
    two-thirds rule keeps integer components below n/3."""
    return box_mask(grid, _kept_component(grid, rule))


# -- initial data --------------------------------------------------------


def _gaussian_pair_values(grid: Grid) -> np.ndarray:
    L = TWO_PI
    x1, x2 = grid.meshgrid()
    width = L / 16.0
    out = np.zeros((grid.n, grid.n))
    for sign, cx in ((1.0, 0.5 * L - L / 8.0), (-1.0, 0.5 * L + L / 8.0)):
        # nearest-image distance keeps the profile smooth across the seam
        dx = (x1 - cx + 0.5 * L) % L - 0.5 * L
        dy = (x2 - 0.5 * L + 0.5 * L) % L - 0.5 * L
        out += sign * np.exp(-(dx**2 + dy**2) / (2.0 * width**2))
    return out - out.mean()


def initial_field(config: SolverConfig) -> SpectralField:
    """Construct the configured initial data, normalized in the critical norm."""
    grid = config.grid
    init = config.initial_data
    two_thirds = config.dealias == "two-thirds"
    if init.profile.startswith("file:"):
        loaded, _ = load_field(init.profile.partition(":")[2])
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
        # unit modulus filling the two-thirds box, so the spectrum survives a
        # dealiased run and the radius diagnostics see a flat baseline
        coeffs = random_phases(grid, np.random.default_rng(init.seed))
        two_thirds = True
    else:  # single-ring; InitialData validates the profile
        coeffs = random_band_limited(grid, init.ring_j, init.seed).coeffs.copy()

    coeffs[0, 0] = 0.0
    if two_thirds:
        np.multiply(coeffs, dealias_mask(grid, "two-thirds"), out=coeffs)
    fld = SpectralField._adopt(grid, coeffs)
    # a file's huge coefficients can overflow the norm; its first diagnostics
    # row then ends the run as a BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        norm = besov_norm(fld, config.besov_params())
    if init.profile == "zero" or init.amplitude == 0.0 or norm == 0.0:
        return SpectralField._adopt(grid, np.zeros_like(fld.coeffs))
    if init.profile.startswith("file:"):
        return fld  # files are taken verbatim
    # one complex product, which also sets the signs of the masked modes'
    # zeros in the t = 0 snapshot; the march's first step leaves them +0 on
    # an advected level and keeps them on a heat-flow level
    scaled = fld.coeffs * (init.amplitude / norm)
    del fld
    return SpectralField._adopt(grid, scaled)


# -- stepping ------------------------------------------------------------


@lru_cache(maxsize=16)
def _half_plane(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only odd symbols i kx (an (n, 1) column) and i ky (a (1, n//2+1)
    row), and 1/|k| (0 at k = 0), on the k2 >= 0 half plane.

    Each odd symbol is 0 at its own Nyquist frequency (i kx on row n/2, i ky
    on column n/2): there it maps a Hermitian spectrum to an anti-Hermitian
    one, whose real field is 0, while irfft2 reads the half plane as
    Hermitian.
    """
    n, h = grid.n, grid.n // 2 + 1
    ikx = 1j * grid.k_axis[:, None]
    iky = 1j * grid.k_axis[None, :h]
    ikx[n // 2] = 0.0
    iky[0, n // 2] = 0.0
    kmag = grid.half_k_mag(h)
    inv = np.divide(1.0, kmag, out=np.zeros(kmag.shape), where=kmag > 0)
    return _freeze(ikx), _freeze(iky), _freeze(inv)


class _Workspace:
    """Half-plane operators and preallocated buffers for the stepping kernel
    on one grid; a march builds one per stretch of steps between two
    records, and none is shared between grids.

    Its contract: every half spectrum it sees lies in the dealias box, the
    components at most c (all of them under `none`).  spec holds two
    (n, n//2+1) half spectra and is the input of `inverse` and the output
    of `forward`; kept is its first c + 1 columns, on which both axis-0
    passes run, in place.  `advection` then writes +0 over the rows and
    columns outside the box and at the mean mode, so the masked modes take
    no transform output.  vel and grad hold (2, n, n) grid values; n1 and
    pred are the Heun stage-1 term and predictor; finite is the non-finite
    test's scratch.
    """

    def __init__(self, grid: Grid, dealias: str):
        n, h = grid.n, grid.n // 2 + 1
        self.n = n
        self.c = _kept_component(grid, dealias)
        self.ikx, self.iky, self.inv = _half_plane(grid)
        self.neg_ikx = -self.ikx
        self.spec = np.empty((2, n, h), dtype=np.complex128)
        self.kept = self.spec[..., : self.c + 1]
        self.vel = np.empty((2, n, n))
        self.grad = np.empty((2, n, n))
        self.n1 = np.empty((n, h), dtype=np.complex128)
        self.pred = np.empty((n, h), dtype=np.complex128)
        self.finite = np.empty((n, h), dtype=bool)

    def inverse(self, out: np.ndarray) -> np.ndarray:
        """Grid values of the two half spectra in spec, into the (2, n, n)
        array out; the same numbers as irfft2, and spec is overwritten."""
        np.fft.ifft(self.kept, axis=-2, norm="forward", out=self.kept)
        return np.fft.irfft(self.spec, n=self.n, axis=-1, norm="forward", out=out)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of the (n, n) grid values, into spec[0]; the same
        numbers as rfft2 on the kept columns, the others transformed along
        axis 1 only."""
        out, kept = self.spec[0], self.kept[0]
        np.fft.rfft(values, axis=-1, norm="forward", out=out)
        np.fft.fft(kept, axis=-2, norm="forward", out=kept)
        return out

    def velocity(self, half: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Values (u1, u2) = (-R2 theta, R1 theta) on the grid points of the
        field with half spectrum half, into the (2, n, n) array out."""
        spec = self.spec
        np.multiply(half, self.inv, out=spec[1])
        np.multiply(spec[1], self.iky, out=spec[0])
        np.multiply(spec[1], self.neg_ikx, out=spec[1])
        return self.inverse(out)

    def advection(self, half: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """Dealiased half spectrum of u . grad theta for the collocation
        velocity vel, into spec[0]: +0 outside the kept box and at the mean
        mode, whatever the transform gave there."""
        spec, grad, c = self.spec, self.grad, self.c
        np.multiply(half, self.ikx, out=spec[0])
        np.multiply(half, self.iky, out=spec[1])
        self.inverse(grad)
        np.multiply(vel[0], grad[0], out=grad[0])
        np.multiply(vel[1], grad[1], out=grad[1])
        np.add(grad[0], grad[1], out=grad[0])
        adv = self.forward(grad[0])
        adv[c + 1 : self.n - c] = 0
        adv[:, c + 1 :] = 0
        adv[0, 0] = 0
        return adv

    def max_speed(self, vel: np.ndarray) -> float:
        """max |u| over both components of the collocation velocity vel;
        NaN when u1 holds a NaN, as max(max|u1|, max|u2|) is."""
        u1, u2 = vel
        return max(np.max(u1), -np.min(u1), np.max(u2), -np.min(u2))


def _heat_factor(grid: Grid, dt: float, kappa: float) -> np.ndarray:
    """exp(-dt |k|^kappa) on the k2 >= 0 half plane."""
    return np.exp(-dt * grid.half_k_mag(grid.n // 2 + 1) ** kappa)


def _heun_step(theta, work, dt, efactor, frozen=None, frozen_next=None):
    """One integrating-factor Heun step of the half spectrum theta, in
    place; returns max |u| at the start of the step.

    efactor is the half-plane heat factor.  With frozen velocities (Picard
    mode), `frozen` supplies the collocation velocity (u1, u2) at the
    current time and `frozen_next` at the next; otherwise velocity is
    recomputed from the advected state itself.
    """
    n1, pred = work.n1, work.pred
    # blow-up shows up as NaN/Inf in the state and is detected by the
    # caller, so the intermediate arithmetic must not warn
    with np.errstate(invalid="ignore", over="ignore"):
        vel = work.velocity(theta, work.vel) if frozen is None else frozen
        umax = work.max_speed(vel)
        np.negative(work.advection(theta, vel), out=n1)
        np.multiply(n1, dt, out=pred)
        np.add(theta, pred, out=pred)
        np.multiply(efactor, pred, out=pred)
        vel = work.velocity(pred, work.vel) if frozen is None else frozen_next
        adv2 = work.advection(pred, vel)
        # theta <- efactor * theta + dt/2 * (efactor * n1 + n2), n2 = -adv2
        np.multiply(efactor, n1, out=n1)
        np.subtract(n1, adv2, out=n1)
        np.multiply(n1, 0.5 * dt, out=n1)
        np.multiply(efactor, theta, out=theta)
        np.add(theta, n1, out=theta)
    return umax


def _diagnostics_row(t, fld, config):
    # the caller turns a non-finite norm into a BlowUpError, so an overflow
    # here needs no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "t": t,
            "l2": fld.l2_norm(),
            "lp": lp_norm(inverse_transform(fld), config.p),
            "besov": besov_norm(fld, config.besov_params()),
            "radius": fit_radius(spectral_decay_fit(fld, config.alpha)),
        }


def _record_steps(config: SolverConfig) -> tuple[int, set[int]]:
    """Step count and the set of recorded step indices (0 and the last
    always included)."""
    ratio = config.t_end / config.dt
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ConfigError(
            f"t_end={config.t_end:g} is not a whole number of steps dt={config.dt:g} "
            f"(t_end/dt = {ratio:.12g})"
        )
    return n_steps, set(range(0, n_steps + 1, config.record_every)) | {n_steps}


def _split(sources: list) -> int:
    """First level s of the upper group of a march: (L + 2) // 2 for a
    Picard chain of L >= 3 levels (two advected levels or more), whose
    levels [0, s) and [s, L) then step on two threads; L, one group,
    otherwise."""
    chain = len(sources) >= 3 and sources == [None, *range(len(sources) - 1)]
    return (len(sources) + 2) // 2 if chain else len(sources)


def _march(config: SolverConfig, sources: list, sink) -> list[Trajectory]:
    """Advance levels 0..len(sources)-1 from the configured initial data.

    sources[l] is the level whose velocity advects level l: None for pure
    heat flow, l itself for the self-advected solution, or a lower level
    (advecting no other level), whose velocity is frozen at both ends of
    each step.  A step's end-time velocity is reused as the next step's
    start-time velocity.

    Each level's state is its k2 >= 0 half spectrum, updated in place; the
    k2 < 0 columns are rebuilt when it is recorded.  Across records the run
    keeps only what carries state: the half spectra, the heat factor and the
    frozen velocities.  The stepping workspaces and the Picard spare
    velocities are built for each stretch of steps between two records and
    dropped before the record, so that no record runs beside them.  Each
    record, once its diagnostics row is finite, is handed to sink(level, t,
    snapshot, row), levels in order at each recorded time, and the run
    keeps no recorded field alive.  The returned trajectories (and the one
    a BlowUpError carries) hold every time, row and note.

    The levels step as groups (_split), each with its own workspace: one
    group, inline, unless sources is a Picard chain with two advected
    levels or more.  Then the lower group [0, s) steps on the calling
    thread and the upper group [s, L) on a worker thread, one step behind:
    level s at step k needs level s - 1 at steps k - 1 and k only, and
    numpy releases the GIL in its transforms and ufuncs.  The worker starts
    for each stretch and is joined before its record.  During a stretch the
    two threads share only level s - 1 and two queues: the lower group puts
    a token in `ready` when it has advanced level s - 1 by a step, and the
    upper group puts one in `taken` when it has read it, the first after
    its step-0 velocities; each side waits for the other's token before it
    reads or overwrites the level.  Each side puts the end marker None in
    the other's queue when it returns, ended, stopped or raising, and a
    side that takes None returns at once; the queues are first in, first
    out, so every real token arrives before it.  A group notes the
    first CFL excess of each level and stops at its first non-finite level;
    the calling thread then warns the notes in (step, level) order up to
    the earliest stop and raises BlowUpError for that stop, so that every
    level does the arithmetic, and the run ends with the error, of a
    single loop over the levels in order.
    """
    grid, dt = config.grid, config.dt
    h = grid.n // 2 + 1
    n_steps, marks = _record_steps(config)
    levels = range(len(sources))
    times, diags = ([[] for _ in levels] for _ in range(2))
    metas = [{"convention": ADVECTION_CONVENTION, "level": lvl, "warnings": []} for lvl in levels]

    def trajectory(lvl):
        return Trajectory(config, tuple(times[lvl]), tuple(diags[lvl]), metas[lvl])

    def checked_row(t, snap, lvl):
        try:
            row = _diagnostics_row(t, snap, config)
        except HermitianSymmetryError as exc:
            # an unstable mode can amplify the round-off Hermitian defect
            # while every coefficient is still finite
            raise BlowUpError(f"blow-up at t={t:g}: {exc}", t, trajectory(lvl)) from exc
        bad = [key for key in ("l2", "lp", "besov") if not np.isfinite(row[key])]
        if bad:
            # huge but finite coefficients overflow when squared
            raise BlowUpError(
                f"blow-up at t={t:g}: non-finite {', '.join(bad)}", t, trajectory(lvl)
            )
        return row

    def record(lvl, t, snap, row):
        times[lvl].append(t)
        diags[lvl].append(row)
        sink(lvl, t, snap, row)

    def record_step(k):
        # a function of its own, so that no snapshot outlives its record
        t = k * dt
        for lvl in levels:
            snap = _full_spectrum(half[lvl], grid)
            record(lvl, t, snap, checked_row(t, snap, lvl))

    # the initial data is recorded as given, with one diagnostics row of
    # which every level holds its own copy; the stepping workspace is built
    # after it, so that their peaks do not stack
    init = initial_field(config)
    init_row = checked_row(0.0, init, 0)
    for lvl in levels:
        record(lvl, 0.0, init, dict(init_row))
    half = [init.coeffs[:, :h].copy() for _ in levels]
    del init
    efactor = _heat_factor(grid, dt, config.kappa)
    kmax = float(grid.rings.radii[-1])
    split = _split(sources)
    groups = [levels[:split], levels[split:]] if split < len(sources) else [levels]
    vels = [{} for _ in groups]  # each group's frozen velocities

    def advance(g, work, start, end, notes, inbox=None, outbox=None):
        """Steps start..end of group g; returns the (step, level) of its
        first non-finite level, or None.  In a split march group g takes
        the other group's tokens from inbox, before it overwrites (lower)
        or reads (upper) level s - 1, and puts its own in outbox after; it
        returns None when it takes the end marker None."""
        lvls, vel = groups[g], vels[g]
        handed = lvls[-1] if g == 0 and inbox is not None else None
        frozen = [src for lvl in lvls if (src := sources[lvl]) not in (None, lvl)]
        # one spare per stretch; it carries no state from one step to the next
        spare = np.empty((2, grid.n, grid.n)) if frozen else None
        if start == 1:
            vel.update({src: work.velocity(half[src], np.empty((2, grid.n, grid.n)))
                        for src in frozen})
        if g == 1:
            # only now, after the step-0 velocities have read level s - 1,
            # may the lower group advance it
            outbox.put(start - 1)
        for k in range(start, end + 1):
            for lvl in lvls:
                src = sources[lvl]
                if lvl == handed and inbox.get() is None:
                    return None
                if src is None:
                    np.multiply(efactor, half[lvl], out=half[lvl])
                    umax = 0.0
                elif src == lvl:
                    umax = _heun_step(half[lvl], work, dt, efactor)
                else:
                    taking = src not in lvls
                    if taking and inbox.get() is None:
                        return None
                    spare = work.velocity(half[src], spare)
                    if taking:
                        outbox.put(k)
                    umax = _heun_step(half[lvl], work, dt, efactor, vel[src], spare)
                    vel[src], spare = spare, vel[src]
                noted = metas[lvl]["warnings"] or any(note[1] == lvl for note in notes)
                if dt * kmax * umax > 1.0 and not noted:
                    notes.append((k, lvl, f"advective CFL heuristic exceeded at t={k * dt:g}: "
                                          f"dt*max|k|*max|u| = {dt * kmax * umax:.2f}"))
                if not np.isfinite(half[lvl], out=work.finite).all():
                    return k, lvl
                if lvl == handed:
                    outbox.put(k)
        return None

    def stretch(start, end):
        """Steps start..end of every group, whose workspaces die with this
        call, before the record.  The CFL notes are warned and a blow-up
        raised here, on the calling thread: the warning names the line
        that called solve or picard_solve, four frames up (stretch, _march,
        the solver call, its caller)."""
        works = [_Workspace(grid, config.dealias) for _ in groups]
        failed, notes = [None] * len(groups), [[] for _ in groups]
        if len(groups) == 1:
            failed[0] = advance(0, works[0], start, end, notes[0])
        else:
            ready, taken, errors = queue.SimpleQueue(), queue.SimpleQueue(), []

            def upper():
                try:
                    failed[1] = advance(1, works[1], start, end, notes[1], ready, taken)
                except BaseException as exc:  # raised again on the calling thread
                    errors.append(exc)
                finally:
                    taken.put(None)

            # the copied context carries the caller's np.errstate
            worker = threading.Thread(target=contextvars.copy_context().run, args=(upper,))
            worker.start()
            try:
                failed[0] = advance(0, works[0], start, end, notes[0], taken, ready)
            finally:
                ready.put(None)
                worker.join()
            if errors:
                raise errors[0]
        del works
        stop = min(filter(None, failed), default=None)
        for k, lvl, note in sorted(note for group in notes for note in group):
            if stop and (k, lvl) > stop:
                break
            metas[lvl]["warnings"].append(note)
            warnings.warn(note, StabilityWarning, stacklevel=4)
        if stop:
            k, lvl = stop
            raise BlowUpError(f"blow-up at t={k * dt:g}", k * dt, trajectory(lvl))

    start = 1
    for end in sorted(marks)[1:]:
        stretch(start, end)
        # the frozen velocities carry on to the next stretch, and the last
        # record needs none
        if end == n_steps:
            vels.clear()
        record_step(end)
        start = end + 1
    return [trajectory(lvl) for lvl in levels]


def solve(config: SolverConfig, sink) -> Trajectory:
    """Integrate SQG to t_end, handing each record to sink(0, t, snapshot,
    row) as it is made (see _march).  Returns the trajectory of times and
    diagnostics rows; raises BlowUpError carrying the partial one.  A caller
    that wants the snapshots keeps them in its sink."""
    return _march(config, [0], sink)[0]


def picard_solve(config: SolverConfig, sink) -> list[Trajectory]:
    """Approximation sequence: theta^0 solves the fractional heat equation
    and each theta^(n+1) solves linear advection-diffusion with the velocity
    frozen from theta^n, all from the same initial data.

    All levels advance through the same time steps, level l one step
    behind level l - 1 at most, so no level needs the full history of the
    previous one; from two advected levels on, the upper half of the
    levels steps on a second thread (see _march).  Each record goes to
    sink(level, t, snapshot, row), levels in order at each recorded time;
    PicardGaps is the sink that reduces them to the gaps between levels.
    Returns the trajectories of levels 0..picard_depth.
    """
    return _march(config, [None, *range(config.picard_depth)], sink)


class PicardGaps:
    """Record sink of a Picard run: gaps[l] is the sup over the recorded
    t > 0 of the critical Besov norm of level l minus level l + 1, taken as
    the records of one time arrive level by level, and last[l] is the last
    snapshot of level l."""

    def __init__(self, config: SolverConfig):
        self.bp = config.besov_params()
        self.last = [None] * (config.picard_depth + 1)
        self.gaps = [-math.inf] * config.picard_depth

    def __call__(self, level, t, snap, row):
        if t > 0 and level > 0:
            gap = besov_norm(self.last[level - 1] - snap, self.bp)
            self.gaps[level - 1] = max(self.gaps[level - 1], gap)
        self.last[level] = snap


# -- run artifacts ---------------------------------------------------------


# Run keys: one per leaf field of SolverConfig and GevreyParams, nested
# dataclasses flattened in field order and keys named after their fields,
# except these.
KEY_SPELLINGS = {"profile": "initial_data", "seed": "init_seed"}


def flat_config(config) -> dict:
    """{run key: value} over the leaf fields of a config dataclass."""
    flat = {}
    for f in fields(config):
        value = getattr(config, f.name)
        key = KEY_SPELLINGS.get(f.name, f.name)
        if is_dataclass(value):
            flat.update(flat_config(value))
        else:
            flat[key] = value
    return flat


def config_from_flat(cls, params: dict):
    """Build the config dataclass cls from run keys, the inverse of
    flat_config; a field whose key is absent keeps its default."""
    kwargs = {}
    for f in fields(cls):
        key = KEY_SPELLINGS.get(f.name, f.name)
        if is_dataclass(f.default):
            kwargs[f.name] = config_from_flat(type(f.default), {**flat_config(f.default), **params})
        elif key in params:
            kwargs[f.name] = params[key]
    return cls(**kwargs)


def config_echo(config: SolverConfig) -> dict:
    return {**flat_config(config), "convention": ADVECTION_CONVENTION}

