"""Dyadic (Littlewood-Paley) bump system and homogeneous Besov norms.

The radial profile psi0 equals 1 on r <= 1/2, vanishes for r >= 1, and
transitions through a C-infinity smooth step built from exp(-c/t).  The band
profiles phi_j(r) = phi0(r / 2^j) with phi0 = psi0(./2) - psi0 tile the
resolved wavenumber range: sum_j phi_j = 1 there by telescoping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    HERMITIAN_FLOOR,
    HERMITIAN_RTOL,
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    SpectralField,
    apply_multiplier,
    inverse_transform,
    lp_norm,
)

# Sharpness of the smooth step.  Larger values narrow the transition zone,
# pushing sum_j phi_j^2 closer to 1 (almost-orthogonality of the blocks)
# while keeping exact plateaus and C-infinity regularity.
DEFAULT_SHARPNESS = 12.0


class HomogeneityWarning(UserWarning):
    """Field handed to a homogeneous-space norm has a nonzero mean."""


def smooth_step(t, sharpness: float = DEFAULT_SHARPNESS):
    """C-infinity step H with H(t)=0 for t<=0 and H(t)=1 for t>=1."""
    t = np.asarray(t, dtype=np.float64)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.empty_like(t)
    out[lo] = 0.0
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-sharpness / tm)
    b = np.exp(-sharpness / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def smooth_step_prime(t, sharpness: float = DEFAULT_SHARPNESS):
    """Derivative of smooth_step (vanishes outside (0, 1))."""
    t = np.asarray(t, dtype=np.float64)
    mid = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    tm = t[mid]
    a = np.exp(-sharpness / tm)
    b = np.exp(-sharpness / (1.0 - tm))
    # H' = a'b - ab' over (a+b)^2 with a' = a*s/t^2, b' = -b*s/(1-t)^2
    out[mid] = a * b * sharpness * (1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2) / (a + b) ** 2
    return out


def psi0(r, sharpness: float = DEFAULT_SHARPNESS):
    """Radial plateau profile: 1 on r <= 1/2, 0 on r >= 1."""
    r = np.asarray(r, dtype=np.float64)
    return smooth_step(2.0 * (1.0 - r), sharpness)


def psi0_prime(r, sharpness: float = DEFAULT_SHARPNESS):
    r = np.asarray(r, dtype=np.float64)
    return -2.0 * smooth_step_prime(2.0 * (1.0 - r), sharpness)


def phi0(r, sharpness: float = DEFAULT_SHARPNESS):
    """Band profile supported on [1/2, 2]: phi0 = psi0(./2) - psi0."""
    r = np.asarray(r, dtype=np.float64)
    return psi0(0.5 * r, sharpness) - psi0(r, sharpness)


def phi0_prime(r, sharpness: float = DEFAULT_SHARPNESS):
    r = np.asarray(r, dtype=np.float64)
    return 0.5 * psi0_prime(0.5 * r, sharpness) - psi0_prime(r, sharpness)


@dataclass(frozen=True)
class BesovParams:
    """Homogeneous Besov space indices: regularity s, L^p, summation q."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ConfigError(f"Besov indices require p, q >= 1, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class DyadicSystem:
    """Dyadic band system resolved on a particular grid.

    j_min..j_max is the range of band indices whose annuli both contain a
    lattice point and fit under the Nyquist wavenumber (2^(j_max+1) <= k_ny).
    """

    grid: Grid
    sharpness: float
    j_min: int
    j_max: int

    # -- profile evaluation on arbitrary radii --------------------------

    def psi(self, j: int, r) -> np.ndarray:
        return psi0(np.asarray(r, dtype=np.float64) / 2.0**j, self.sharpness)

    def phi(self, j: int, r) -> np.ndarray:
        return phi0(np.asarray(r, dtype=np.float64) / 2.0**j, self.sharpness)

    def phi_window(self, j: int, r, width: int = 2) -> np.ndarray:
        """Sum of phi_l over the window |l - j| <= width, clipped to range."""
        r = np.asarray(r, dtype=np.float64)
        total = np.zeros_like(r)
        for l in range(max(j - width, self.j_min), min(j + width, self.j_max) + 1):
            total += self.phi(l, r)
        return total

    def partition_sum(self, r) -> np.ndarray:
        """sum of phi_j(r) over the resolved range (telescopes to 1 inside)."""
        r = np.asarray(r, dtype=np.float64)
        return self.psi(self.j_max + 1, r) - self.psi(self.j_min, r)

    # -- block operators -------------------------------------------------

    def _require_resolved(self, j: int) -> None:
        if not (self.j_min <= j <= self.j_max):
            raise BandRangeError(
                f"band j={j} outside resolved range [{self.j_min}, {self.j_max}]"
            )

    def delta_j(self, f: SpectralField, j: int) -> SpectralField:
        """Littlewood-Paley block: multiply by phi_j(|k|)."""
        self._require_resolved(j)
        return apply_multiplier(f, lambda kx, ky: self.phi(j, np.hypot(kx, ky)))

    def tilde_delta_j(self, f: SpectralField, j: int) -> SpectralField:
        """Widened block sum over |l - j| <= 2, clipped to the resolved range."""
        self._require_resolved(j)
        return apply_multiplier(f, lambda kx, ky: self.phi_window(j, np.hypot(kx, ky)))

    def s_k(self, f: SpectralField, k: int) -> SpectralField:
        """Low-frequency partial sum over blocks l <= k - 3 (zero when empty)."""
        top = min(k - 3, self.j_max)
        if top < self.j_min:
            return SpectralField(f.grid, np.zeros_like(f.coeffs))

        def symbol(kx, ky):
            r = np.hypot(kx, ky)
            return self.psi(top + 1, r) - self.psi(self.j_min, r)

        return apply_multiplier(f, symbol)

    def s_symbol(self, k: int, r) -> np.ndarray:
        """Symbol of s_k on radii r (for bilinear symbol construction)."""
        top = min(k - 3, self.j_max)
        r = np.asarray(r, dtype=np.float64)
        if top < self.j_min:
            return np.zeros_like(r)
        return self.psi(top + 1, r) - self.psi(self.j_min, r)

    # -- norms -------------------------------------------------------------

    def block_lp_norms(self, f: SpectralField, p: float) -> np.ndarray:
        """||Delta_j f||_{L^p} for every resolved j, in order.

        p = 2 takes the Parseval path of _block_l2_norms; any other p
        transforms each block and takes the collocation quadrature.
        """
        if f.grid != self.grid:
            raise ConfigError(f"field grid {f.grid} does not match system grid {self.grid}")
        if not np.all(np.isfinite(f.coeffs)):
            raise ConfigError("spectral field contains non-finite coefficients")
        if p == 2:
            return self._block_l2_norms(f)
        return np.array(
            [lp_norm(inverse_transform(self.delta_j(f, j)), p) for j in self.js()]
        )

    @cached_property
    def _ring_profiles(self) -> np.ndarray:
        """phi_j on the ring radii of the grid, one row per resolved j."""
        table = np.array([self.phi(j, self.grid.rings.radii) for j in self.js()])
        table.flags.writeable = False
        return table

    def _block_l2_norms(self, f: SpectralField) -> np.ndarray:
        """Parseval: ||Delta_j f||_2 = L sqrt(sum over rings of phi_j^2 E),
        with E the ring sums of |f_hat|^2.

        Each block gets the Hermitian test inverse_transform would apply to
        it.  phi_j is radial and nonnegative, so a block's defect and scale
        are the ring maxima of |c(k) - conj c(-k)| and of |c|, times phi_j.
        """
        rings = self.grid.rings
        phi = self._ring_profiles
        mags = np.abs(f.coeffs)
        defect = (phi * rings.max(f.hermitian_defects())).max(axis=1)
        scale = (phi * rings.max(mags)).max(axis=1)
        bad = defect > np.maximum(HERMITIAN_RTOL * scale, HERMITIAN_FLOOR)
        if bad.any():
            i = int(np.argmax(bad))
            raise HermitianSymmetryError(
                f"block j={self.j_min + i} is not Hermitian-symmetric "
                f"(defect {defect[i]:.3e})"
            )
        energy = rings.sum(mags**2)
        return self.grid.box_length * np.sqrt(phi**2 @ energy)

    def js(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def besov_norm(self, f: SpectralField, bp: BesovParams) -> float:
        """Homogeneous Besov norm truncated to the resolved dyadic range.

        At p = 2 the block norms come from Parseval over the ring spectrum,
        with no inverse transform; other p use the collocation quadrature of
        each transformed block.  Non-finite coefficients raise ConfigError
        and a non-Hermitian block raises HermitianSymmetryError.

        Modes outside the resolved annuli (the mean and the corner modes
        beyond Nyquist) do not contribute; a nonzero mean triggers a
        HomogeneityWarning since the homogeneous norm ignores it.
        """
        scale = float(np.max(np.abs(f.coeffs)))
        if abs(f.mean_value()) > 1e-12 * max(scale, 1e-300):
            warnings.warn(
                "besov_norm: field has a nonzero mean, which a homogeneous "
                "norm cannot see",
                HomogeneityWarning,
                stacklevel=2,
            )
        blocks = self.block_lp_norms(f, bp.p)
        weights = 2.0 ** (bp.s * np.asarray(self.js(), dtype=np.float64))
        terms = weights * blocks
        if np.isinf(bp.q):
            return float(np.max(terms)) if terms.size else 0.0
        return float(np.sum(terms**bp.q) ** (1.0 / bp.q))

    def besov_report(self, f: SpectralField, bp: BesovParams):
        """Per-block rows (j, weighted block norm, cumulative q-sum) plus the
        fraction of spectral energy invisible to the truncated norm."""
        blocks = self.block_lp_norms(f, bp.p)
        rows = []
        cumulative = 0.0
        for j, block in zip(self.js(), blocks):
            term = 2.0 ** (bp.s * j) * block
            if np.isinf(bp.q):
                cumulative = max(cumulative, term)
            else:
                cumulative = (cumulative**bp.q + term**bp.q) ** (1.0 / bp.q)
            rows.append({"j": j, "weighted_block_norm": term, "cumulative": cumulative})
        rings = self.grid.rings
        coverage = self.partition_sum(rings.radii)
        energy = rings.sum(np.abs(f.coeffs) ** 2)
        total = float(energy.sum())
        discarded = float(energy[coverage < 1e-12].sum()) / total if total > 0 else 0.0
        return rows, discarded


def build_system(grid: Grid, transition_sharpness: float = DEFAULT_SHARPNESS) -> DyadicSystem:
    """Resolve the dyadic range for a grid and freeze the bump profiles."""
    if transition_sharpness <= 0:
        raise ConfigError("transition_sharpness must be positive")
    kmag = grid.k_mag
    in_disk = (kmag > 0) & (kmag <= grid.k_nyquist)
    j_max = int(np.floor(np.log2(grid.k_nyquist))) - 1
    j_min = None
    for j in range(-40, j_max + 1):
        mask = in_disk & (kmag > 2.0 ** (j - 1)) & (kmag < 2.0 ** (j + 1))
        if mask.any():
            j_min = j
            break
    if j_min is None or j_min > j_max:
        raise ConfigError(
            f"grid n={grid.n}, L={grid.box_length:g} cannot host a dyadic annulus"
        )
    return DyadicSystem(grid=grid, sharpness=transition_sharpness, j_min=j_min, j_max=j_max)


@lru_cache(maxsize=64)
def _cached_system(n: int, box_length: float, sharpness: float) -> DyadicSystem:
    return build_system(Grid(n, box_length), sharpness)


def default_system(grid: Grid, sharpness: float = DEFAULT_SHARPNESS) -> DyadicSystem:
    """Memoized dyadic system for a grid (profiles are pure functions)."""
    return _cached_system(grid.n, grid.box_length, sharpness)
