"""Dyadic (Littlewood-Paley) bump system and homogeneous Besov norms.

The radial profile psi0 equals 1 on r <= 1/2, vanishes for r >= 1, and
transitions through a C-infinity smooth step built from exp(-c/t).  The band
profiles phi_j(r) = phi0(r / 2^j) with phi0 = psi0(./2) - psi0 tile the
resolved wavenumber range: sum_j phi_j = 1 there by telescoping.

The bump is fixed: its transition sharpness is the module constant
SHARPNESS, not a parameter.  Any two admissible dyadic partitions give
equivalent homogeneous Besov norms (Bahouri, Chemin and Danchin, Fourier
Analysis and Nonlinear PDEs, 2011, ch. 2), so the sharpness is a
construction constant of the norms, not a constant of any estimate.

The block operators and norms are functions of the field alone: each reads
its band range from the memoized build_system(f.grid).  Every p reads phi_j
on the ring radii against the field's ring spectrum, which an optional radial
weight (the X_T Gevrey weight) scales, for the Hermitian test and at p = 2
for Parseval; other p transform each block on the k2 >= 0 half plane.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .spectral import (
    HERMITIAN_FLOOR,
    HERMITIAN_RTOL,
    TWO_PI,
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    SpectralField,
    _lp_quadrature,
    apply_multiplier,
)

# Sharpness of the smooth step.  Larger values narrow the transition zone,
# pushing sum_j phi_j^2 closer to 1 (almost-orthogonality of the blocks)
# while keeping exact plateaus and C-infinity regularity.
SHARPNESS = 12.0


class HomogeneityWarning(UserWarning):
    """Field handed to a homogeneous-space norm has a nonzero mean."""


def smooth_step(t):
    """C-infinity step H with H(t)=0 for t<=0 and H(t)=1 for t>=1."""
    t = np.asarray(t, dtype=np.float64)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.empty_like(t)
    out[lo] = 0.0
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-SHARPNESS / tm)
    b = np.exp(-SHARPNESS / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def smooth_step_prime(t):
    """Derivative of smooth_step (vanishes outside (0, 1))."""
    t = np.asarray(t, dtype=np.float64)
    mid = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    tm = t[mid]
    a = np.exp(-SHARPNESS / tm)
    b = np.exp(-SHARPNESS / (1.0 - tm))
    # H' = a'b - ab' over (a+b)^2 with a' = a*s/t^2, b' = -b*s/(1-t)^2
    out[mid] = a * b * SHARPNESS * (1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2) / (a + b) ** 2
    return out


def psi0(r):
    """Radial plateau profile: 1 on r <= 1/2, 0 on r >= 1."""
    r = np.asarray(r, dtype=np.float64)
    return smooth_step(2.0 * (1.0 - r))


def psi0_prime(r):
    r = np.asarray(r, dtype=np.float64)
    return -2.0 * smooth_step_prime(2.0 * (1.0 - r))


def phi0(r):
    """Band profile supported on [1/2, 2]: phi0 = psi0(./2) - psi0."""
    r = np.asarray(r, dtype=np.float64)
    return psi0(0.5 * r) - psi0(r)


def phi0_prime(r):
    r = np.asarray(r, dtype=np.float64)
    return 0.5 * psi0_prime(0.5 * r) - psi0_prime(r)


@dataclass(frozen=True)
class BesovParams:
    """Homogeneous Besov space indices: regularity s, L^p, summation q."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.p >= 1 and self.q >= 1):  # NaN fails too
            raise ConfigError(f"Besov indices require finite s and p, q >= 1, got {self}")


@dataclass(frozen=True)
class DyadicSystem:
    """Dyadic band system resolved on a particular grid.

    j_min..j_max is the range of band indices whose annuli both contain a
    lattice point and fit under the Nyquist wavenumber: band 0 holds the
    unit ring, the innermost nonzero one, and 2^(j_max+1) = n/2.
    """

    grid: Grid
    j_max: int
    j_min: ClassVar[int] = 0

    def js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def phi(self, j: int, r) -> np.ndarray:
        return phi0(np.asarray(r, dtype=np.float64) / 2.0**j)

    def partition_sum(self, r) -> np.ndarray:
        """sum of phi_j(r) over the resolved range (telescopes to 1 inside)."""
        r = np.asarray(r, dtype=np.float64)
        return psi0(r / 2.0 ** (self.j_max + 1)) - psi0(r / 2.0**self.j_min)

    def require_resolved(self, j: int) -> None:
        if not (self.j_min <= j <= self.j_max):
            raise BandRangeError(
                f"band j={j} outside resolved range [{self.j_min}, {self.j_max}]"
            )

    @cached_property
    def _ring_profiles(self) -> np.ndarray:
        """phi_j on the ring radii of the grid, one row per resolved j."""
        table = np.array([self.phi(j, self.grid.rings.radii) for j in self.js()])
        table.flags.writeable = False
        return table


# -- block operators and norms of a field -----------------------------------


def delta_j(f: SpectralField, j: int) -> SpectralField:
    """Littlewood-Paley block: multiply by phi_j(|k|)."""
    system = build_system(f.grid)
    system.require_resolved(j)
    return apply_multiplier(f, system.phi(j, f.grid.k_mag))


def _block_norms(f: SpectralField, p: float, weight, ring_weight) -> np.ndarray:
    """||Delta_j (w f)||_{L^p} for every resolved j, w a radial weight (None
    for 1) read as ring_weight on the ring radii.  phi_j w is radial and
    nonnegative, so inverse_transform's test of a block reads the ring maxima
    of |c(k) - conj c(-k)| and of |c|, times phi_j w.  p = 2 is Parseval over
    the rings; other p, the quadrature of irfft2((c w) phi_j) on k2 >= 0."""
    system = build_system(f.grid)
    spec = f.ring_spectrum
    phi = system._ring_profiles
    defect = (phi * (ring_weight * spec.defect)).max(axis=1)
    scale = (phi * (ring_weight * spec.peak)).max(axis=1)
    bad = defect > np.maximum(HERMITIAN_RTOL * scale, HERMITIAN_FLOOR)
    if bad.any():
        i = int(np.argmax(bad))
        raise HermitianSymmetryError(
            f"block j={i} is not Hermitian-symmetric "
            f"(defect {defect[i]:.3e})"
        )
    if p == 2:
        return TWO_PI * np.sqrt(phi**2 @ (ring_weight * (ring_weight * spec.energy)))
    half = f.grid.n // 2 + 1
    c = f.coeffs[:, :half]
    if weight is not None:
        c = c * weight(f.grid.half_k_mag(half))
    ids = f.grid.rings.ids[:, :half]
    blocks = (np.fft.irfft2(c * phi_j[ids], s=f.coeffs.shape, norm="forward") for phi_j in phi)
    return np.array([_lp_quadrature(block, p, f.grid.cell_area) for block in blocks])


def block_lp_norms(f: SpectralField, p: float, weight=None) -> np.ndarray:
    """||Delta_j (w f)||_{L^p} for every resolved j, in order (w = 1 by default)."""
    return _block_norms(f, p, weight, 1.0 if weight is None else weight(f.grid.rings.radii))


def _terms(grid: Grid, bp: BesovParams, blocks) -> np.ndarray:
    """2^(j s) times the block norms, j over the resolved range."""
    return 2.0 ** (bp.s * np.asarray(build_system(grid).js(), dtype=np.float64)) * blocks


def besov_norm(f: SpectralField, bp: BesovParams, weight=None) -> float:
    """Homogeneous Besov norm of w f (w = 1 by default), truncated to the
    resolved dyadic range.

    A non-Hermitian block raises HermitianSymmetryError, and an overflowing
    weight a non-finite norm.  Modes outside the resolved annuli
    (the mean and the corner modes beyond Nyquist) do not contribute; a
    nonzero mean triggers a HomogeneityWarning since the norm ignores it.
    """
    ring_weight = 1.0 if weight is None else weight(f.grid.rings.radii)
    peak = float((ring_weight * f.ring_spectrum.peak).max())
    if abs(f.mean_value()) > 1e-12 * max(peak, 1e-300):
        warnings.warn(
            "besov_norm: field has a nonzero mean, which a homogeneous "
            "norm cannot see",
            HomogeneityWarning,
            stacklevel=2,
        )
    terms = _terms(f.grid, bp, _block_norms(f, bp.p, weight, ring_weight))
    if np.isinf(bp.q):
        return float(np.max(terms)) if terms.size else 0.0
    return float(np.sum(terms**bp.q) ** (1.0 / bp.q))


def besov_report(f: SpectralField, bp: BesovParams):
    """Per-block rows (j, weighted block norm, cumulative q-sum) plus the
    fraction of spectral energy invisible to the truncated norm."""
    system = build_system(f.grid)
    terms = _terms(f.grid, bp, block_lp_norms(f, bp.p))
    if np.isinf(bp.q):
        cumulative = np.maximum.accumulate(terms)
    else:
        cumulative = np.cumsum(terms**bp.q) ** (1.0 / bp.q)
    rows = [{"j": j, "weighted_block_norm": term, "cumulative": total}
            for j, term, total in zip(system.js(), terms, cumulative)]
    coverage = system.partition_sum(f.grid.rings.radii)
    energy = f.ring_spectrum.energy
    total = float(energy.sum())
    discarded = float(energy[coverage < 1e-12].sum()) / total if total > 0 else 0.0
    return rows, discarded


@lru_cache(maxsize=64)
def build_system(grid: Grid) -> DyadicSystem:
    """The dyadic system of a grid, bands 0..log2(n/2) - 1; memoized, so
    equal grids share one system and its frozen bump profiles (profiles are
    pure functions)."""
    return DyadicSystem(grid=grid, j_max=int(np.log2(grid.n)) - 2)
