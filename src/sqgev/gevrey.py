"""Gevrey multiplier, fractional Laplacian, heat semigroup, one-sample X_T norms
(xt_norm, the record sink XTSink) and analyticity-radius estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import BesovParams, besov_norm
from .spectral import ConfigError, Grid, SpectralField, apply_multiplier

# exp() argument beyond which double precision overflows; the guard keeps a
# little headroom below math.log(sys.float_info.max) ~ 709.78.
OVERFLOW_EXPONENT = 700.0


class GevreyOverflowError(FloatingPointError):
    """exp(gamma * |k|^alpha) would overflow on this grid, or a Gevrey-weighted
    norm is not finite; the message names the guard's cap or the sample time."""


@dataclass(frozen=True)
class GevreyParams:
    """Parameters of the time-weighted Gevrey-Besov norm.

    alpha: Gevrey exponent, lam: radius growth rate in
    gamma(t) = lam * t^(alpha/kappa), kappa: dissipation order, beta: time
    weight exponent in t^(beta/kappa).
    """

    alpha: float
    kappa: float
    lam: float = 0.5
    beta: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.alpha < self.kappa <= 1.0):
            raise ConfigError(
                f"need 0 < alpha < kappa <= 1, got alpha={self.alpha}, kappa={self.kappa}"
            )
        if not 0 <= self.beta < self.kappa / 2:
            raise ConfigError(f"need 0 <= beta < kappa/2, got beta={self.beta}, kappa={self.kappa}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"radius growth rate must be finite and nonnegative, got {self.lam}")

    def radius_at(self, t: float) -> float:
        return self.lam * t ** (self.alpha / self.kappa)


def max_admissible_gamma(grid: Grid, alpha: float) -> float:
    """Largest gamma for which exp(gamma |k|^alpha) stays finite on the grid."""
    return OVERFLOW_EXPONENT / float(grid.rings.radii[-1]) ** alpha


def check_gevrey_weight(grid: Grid, gamma: float, alpha: float) -> None:
    """Guard of the weight exp(gamma * |k|^alpha): ConfigError unless
    0 < alpha <= 1 and gamma is finite, GevreyOverflowError when a positive
    gamma would overflow on the grid.  Negative gamma smooths."""
    if not 0 < alpha <= 1:
        raise ConfigError(f"Gevrey exponent must lie in (0, 1], got {alpha}")
    if not np.isfinite(gamma):
        raise ConfigError(f"Gevrey radius must be finite, got gamma={gamma}")
    if gamma > 0:
        cap = max_admissible_gamma(grid, alpha)
        if gamma > cap:
            raise GevreyOverflowError(
                f"gamma={gamma:g} exceeds the overflow guard; "
                f"max admissible gamma on this grid is {cap:g}"
            )


def gevrey_multiply(f: SpectralField, gamma: float, alpha: float) -> SpectralField:
    """Apply G_gamma: scale coefficients by exp(gamma * |k|^alpha), guarded
    by check_gevrey_weight."""
    check_gevrey_weight(f.grid, gamma, alpha)
    return apply_multiplier(f, np.exp(gamma * f.grid.k_mag**alpha))


def fractional_laplacian(f: SpectralField, s: float) -> SpectralField:
    """Lambda^s: scale by |k|^s (s finite), with the zero mode mapped to zero."""
    if not np.isfinite(s):
        raise ConfigError(f"fractional Laplacian needs a finite order, got s={s}")
    kmag = f.grid.k_mag
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = np.where(kmag > 0, kmag**s, 0.0)
    return apply_multiplier(f, symbol)


def heat_semigroup(f: SpectralField, t: float, kappa: float) -> SpectralField:
    """Fractional heat flow e^{-t Lambda^kappa}, t >= 0 and kappa finite."""
    if not (np.isfinite(t) and t >= 0 and np.isfinite(kappa)):
        raise ConfigError(f"heat semigroup needs finite t >= 0 and kappa, got t={t}, kappa={kappa}")
    return apply_multiplier(f, np.exp(-t * f.grid.k_mag**kappa))


@dataclass(frozen=True)
class XTNormSample:
    """One trajectory sample of the time-weighted Gevrey-Besov norm."""

    t: float
    gamma: float
    besov: float
    weighted: float


def xt_norm(t: float, field: SpectralField, gp: GevreyParams, bp: BesovParams) -> XTNormSample:
    """The X_T sample t^(beta/kappa) * ||G_{gamma(t)} v(t)||_Besov at t > 0, from
    one besov_norm call with the radial weight exp(gamma(t) r^alpha), at any
    p; the X_T norm of a trajectory is the max of its samples' weighted norms.
    The Besov parameters are used as given, so callers at base regularity
    sigma pass s = sigma + beta.  A weight past the overflow guard, or a
    weighted field or norm that is not finite, raises GevreyOverflowError
    naming t."""
    if not t > 0:
        raise ConfigError(f"X_T samples require t > 0, got t={t}")
    gamma_t = gp.radius_at(t)
    try:
        check_gevrey_weight(field.grid, gamma_t, gp.alpha)
    except GevreyOverflowError as exc:
        raise GevreyOverflowError(
            f"Gevrey weight overflow at t={t:g} (gamma(t)={gamma_t:g}): {exc}"
        ) from exc
    # inside the guard the weight is finite, but the weighted field or its
    # norm can still overflow (|G v|^p in the quadrature, say)
    with np.errstate(over="ignore", invalid="ignore"):
        besov = besov_norm(field, bp, lambda r: np.exp(gamma_t * r**gp.alpha))
    if not np.isfinite(besov):
        raise GevreyOverflowError(
            f"Gevrey-weighted Besov norm overflows at t={t:g} (gamma(t)={gamma_t:g})"
        )
    return XTNormSample(t, gamma_t, besov, t ** (gp.beta / gp.kappa) * besov)


class XTSink:
    """Record sink of a run (see solver._march) that takes each record's X_T
    sample as it is made: samples[l] lists level l's xt_norm samples at
    t > 0, and sup(l) is its X_T norm.  A level's first Gevrey overflow ends
    its sampling and is held until raise_overflow(), which raises that of
    the lowest level, so that a later blow-up still ends the run first."""

    def __init__(self, levels: int, gp: GevreyParams, bp: BesovParams):
        self.gp, self.bp = gp, bp
        self.samples = [[] for _ in range(levels)]
        self.overflow = [None] * levels

    def __call__(self, level, t, snap, row):
        if t > 0 and self.overflow[level] is None:
            try:
                self.samples[level].append(xt_norm(t, snap, self.gp, self.bp))
            except GevreyOverflowError as exc:
                self.overflow[level] = exc

    def sup(self, level: int = 0) -> float:
        return max(s.weighted for s in self.samples[level])

    def raise_overflow(self) -> None:
        for exc in self.overflow:
            if exc is not None:
                raise exc


def spectral_decay_fit(theta: SpectralField, alpha: float):
    """Least-squares fit of -log(ring-averaged |theta_hat|) against |k|^alpha.

    Rings group lattice modes of identical |k| (equal integer |m|^2); the
    ring averages come from the field's ring spectrum.  The fit
    covers the upper half (in radius) of the populated spectrum, capped
    at the Nyquist disk, so band-limited fields (dealiased runs, say) are
    fitted over their own resolved range.  Returns
    (gamma_hat, intercept, r_squared, n_rings, low_signal).
    """
    grid = theta.grid
    rings = grid.rings
    spec = theta.ring_spectrum
    nyq2 = (grid.n // 2) ** 2
    populated = (spec.peak > 0) & (rings.m2 > 0) & (rings.m2 <= nyq2)
    if not populated.any():
        return 0.0, 0.0, 0.0, 0, True
    top2 = int(rings.m2[populated].max())
    fit_zone = (rings.m2 > top2 // 4) & (rings.m2 <= top2)

    radii = rings.radii[fit_zone]
    means = spec.amplitude[fit_zone] / rings.counts[fit_zone]
    keep = means > 0
    if keep.sum() < 3:
        return 0.0, 0.0, 0.0, int(keep.sum()), True

    slope, intercept, r_squared = fit_line(radii[keep] ** alpha, -np.log(means[keep]))
    return slope, intercept, r_squared, int(keep.sum()), False


def fit_line(x, y):
    """Least-squares line through (x, y): (slope, intercept, R^2), from the
    centred normal equations; ConfigError unless x takes two distinct values."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.size < 2 or np.all(x == x[0]):
        raise ConfigError(f"a line fit needs two distinct x values, got {x.size} points")
    dx = x - x.mean()
    slope = float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r_squared


def fit_radius(fit) -> float:
    """Gevrey radius read off a spectral_decay_fit result: 0 on low signal,
    else the fitted slope clamped at 0."""
    gamma_hat, *_, low_signal = fit
    return 0.0 if low_signal else max(gamma_hat, 0.0)
