"""Gevrey multiplier, fractional Laplacian, heat semigroup, Riesz velocity,
time-weighted Gevrey-Besov norms and analyticity-radius estimation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import BesovParams, DyadicSystem
from .spectral import ConfigError, Grid, SpectralField, apply_multiplier

# exp() argument beyond which double precision overflows; the guard keeps a
# little headroom below math.log(sys.float_info.max) ~ 709.78.
OVERFLOW_EXPONENT = 700.0


class GevreyOverflowError(FloatingPointError):
    """exp(gamma * |k|^alpha) would overflow on this grid."""

    def __init__(self, message: str, max_gamma: float, time: float | None = None):
        super().__init__(message)
        self.max_gamma = max_gamma
        self.time = time


@dataclass(frozen=True)
class GevreyParams:
    """Parameters of the time-weighted Gevrey-Besov norm.

    alpha: Gevrey exponent, gamma: fixed radius, lam: radius growth rate in
    gamma(t) = lam * t^(alpha/kappa), kappa: dissipation order, beta: time
    weight exponent in t^(beta/kappa).
    """

    alpha: float
    kappa: float
    lam: float = 1.0
    gamma: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha < self.kappa <= 1.0):
            raise ConfigError(
                f"need 0 < alpha < kappa <= 1, got alpha={self.alpha}, kappa={self.kappa}"
            )
        if not 0 <= self.beta < self.kappa / 2:
            raise ConfigError(f"need 0 <= beta < kappa/2, got beta={self.beta}, kappa={self.kappa}")
        if self.lam < 0:
            raise ConfigError(f"radius growth rate must be nonnegative, got {self.lam}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")

    def radius_at(self, t: float) -> float:
        return self.lam * t ** (self.alpha / self.kappa)


def max_admissible_gamma(grid: Grid, alpha: float) -> float:
    """Largest gamma for which exp(gamma |k|^alpha) stays finite on the grid."""
    kmax = float(np.max(grid.k_mag))
    return OVERFLOW_EXPONENT / kmax**alpha


def gevrey_multiply(f: SpectralField, gamma: float, alpha: float) -> SpectralField:
    """Apply G_gamma: scale coefficients by exp(gamma * |k|^alpha).

    Negative gamma (smoothing) is always safe; positive gamma is guarded
    against overflow.
    """
    if not 0 < alpha <= 1:
        raise ConfigError(f"Gevrey exponent must lie in (0, 1], got {alpha}")
    if gamma > 0:
        cap = max_admissible_gamma(f.grid, alpha)
        if gamma > cap:
            raise GevreyOverflowError(
                f"gamma={gamma:g} exceeds the overflow guard; "
                f"max admissible gamma on this grid is {cap:g}",
                max_gamma=cap,
            )
    return apply_multiplier(
        f, lambda kx, ky: np.exp(gamma * np.hypot(kx, ky) ** alpha)
    )


def fractional_laplacian(f: SpectralField, s: float) -> SpectralField:
    """Lambda^s: scale by |k|^s, with the zero mode mapped to zero."""

    def symbol(kx, ky):
        kmag = np.hypot(kx, ky)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(kmag > 0, kmag**s, 0.0)
        return out

    return apply_multiplier(f, symbol)


def heat_semigroup(f: SpectralField, t: float, kappa: float) -> SpectralField:
    """Fractional heat flow e^{-t Lambda^kappa}."""
    if t < 0:
        raise ValueError(f"heat semigroup requires t >= 0, got {t}")
    return apply_multiplier(f, lambda kx, ky: np.exp(-t * np.hypot(kx, ky) ** kappa))


def riesz_transform(f: SpectralField, axis: int) -> SpectralField:
    """R_axis with symbol -i k_axis / |k| (zero on the zero mode)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")

    def symbol(kx, ky):
        kc = kx if axis == 1 else ky
        kmag = np.hypot(kx, ky)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(kmag > 0, -1j * kc / np.where(kmag > 0, kmag, 1.0), 0.0)
        return out

    return apply_multiplier(f, symbol)


def riesz_velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """SQG velocity u = (-R_2 theta, R_1 theta); divergence-free by symbol algebra."""
    return -riesz_transform(theta, 2), riesz_transform(theta, 1)


@dataclass(frozen=True)
class XTNormSample:
    """One trajectory sample of the time-weighted Gevrey-Besov norm."""

    t: float
    gamma: float
    besov: float
    weighted: float

    def __post_init__(self):
        if self.t <= 0:
            raise ConfigError(f"X_T samples require t > 0, got t={self.t}")


def xt_norm(
    trajectory: Sequence[tuple[float, SpectralField]],
    gp: GevreyParams,
    bp: BesovParams,
    system: DyadicSystem,
) -> tuple[float, list[XTNormSample]]:
    """sup over samples of t^(beta/kappa) * ||G_{gamma(t)} v(t)||_Besov.

    The Besov parameters are used as given, so callers working at base
    regularity sigma should pass s = sigma + beta.  Returns the sup and the
    per-sample records.
    """
    if len(trajectory) == 0:
        raise ValueError("xt_norm needs at least one trajectory sample")
    samples = []
    for t, field in trajectory:
        if t <= 0:
            raise ValueError(f"xt_norm samples require t > 0, got t={t}")
        gamma_t = gp.radius_at(t)
        try:
            lifted = gevrey_multiply(field, gamma_t, gp.alpha)
        except GevreyOverflowError as exc:
            raise GevreyOverflowError(
                f"Gevrey weight overflow at t={t:g} (gamma(t)={gamma_t:g}): {exc}",
                max_gamma=exc.max_gamma,
                time=t,
            ) from exc
        besov = system.besov_norm(lifted, bp)
        samples.append(
            XTNormSample(
                t=t,
                gamma=gamma_t,
                besov=besov,
                weighted=t ** (gp.beta / gp.kappa) * besov,
            )
        )
    return max(s.weighted for s in samples), samples


def spectral_decay_fit(theta: SpectralField, alpha: float):
    """Least-squares fit of -log(ring-averaged |theta_hat|) against |k|^alpha.

    Rings group lattice modes of identical |k| (equal integer |m|^2); the
    ring averages come from one pass over the grid's ring index.  The fit
    covers the upper half (in radius) of the populated spectrum, capped
    at the Nyquist disk, so band-limited fields (dealiased runs, say) are
    fitted over their own resolved range.  Returns
    (gamma_hat, intercept, r_squared, n_rings, low_signal).
    """
    grid = theta.grid
    rings = grid.rings
    nyq2 = (grid.n // 2) ** 2
    mags = np.abs(theta.coeffs)
    populated = (rings.sum(mags > 0) > 0) & (rings.m2 > 0) & (rings.m2 <= nyq2)
    if not populated.any():
        return 0.0, 0.0, 0.0, 0, True
    top2 = int(rings.m2[populated].max())
    fit_zone = (rings.m2 > top2 // 4) & (rings.m2 <= top2)

    radii = rings.radii[fit_zone]
    means = rings.sum(mags)[fit_zone] / rings.counts[fit_zone]
    keep = means > 0
    if keep.sum() < 3:
        return 0.0, 0.0, 0.0, int(keep.sum()), True

    x = radii[keep] ** alpha
    y = -np.log(means[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared, int(keep.sum()), False


def analyticity_radius_estimate(theta: SpectralField, alpha: float) -> float:
    """Spectral-decay estimate of the Gevrey radius, clamped at zero."""
    if not np.any(theta.coeffs):
        warnings.warn("analyticity radius: field is zero (low signal)", stacklevel=2)
        return 0.0
    gamma_hat, _, _, _, low_signal = spectral_decay_fit(theta, alpha)
    if low_signal:
        warnings.warn(
            "analyticity radius: spectrum numerically zero on the fit range",
            stacklevel=2,
        )
        return 0.0
    return max(gamma_hat, 0.0)
