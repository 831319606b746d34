"""Bilinear Fourier multipliers: the paper's symbols, their Marcinkiewicz
weighted-derivative scan, and dealiased products of real fields.

A symbol m(xi, eta) defines T_m(f, g), whose output coefficient at kappa' is

    sum over xi + eta = kappa' of m(xi, eta) * f_hat(xi) * g_hat(eta),

an exact convolution in which pairs whose sum leaves the wavenumber lattice
are dropped (never wrapped).  Here are the four symbols of the commutator
estimates (make_kgtrj, make_ksimj, make_mA, make_mB), the Marcinkiewicz
weighted-derivative scan, and the Gevrey commutator [G_gamma Delta_j, f] g.
The direct double sum that evaluates T_m for any symbol, and the duality,
dilation and randomized norm probes built on it, are the test oracle in
tests/reference.py.

Products of real fields follow Orszag's 3/2 rule through one lift onto the
3n/2 grid (_lift, which splits the Nyquist row and column) and one
truncation back (_truncate), shared by padded_product and the commutator.
gevrey_commutators takes a list of (j, gamma) bands on one operand pair,
lifting f and forming (f g)^ once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dyadic import build_system, phi0, phi0_prime
from .gevrey import check_gevrey_weight
from .spectral import (
    HERMITIAN_FLOOR,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    _full_spectrum,
)


@dataclass(frozen=True)
class BilinearSymbol:
    """Bilinear symbol m(xi, eta).

    ``eval`` maps two (..., 2) wavenumber arrays to a complex array of the
    leading shape.  ``support_hint``, when set, is a closed annulus (lo, hi)
    outside of which m(xi, .) vanishes in eta; an operator probe uses it to
    build admissible g fields.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str = ""
    support_hint: tuple[float, float] | None = None

    def __call__(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(xi, float), np.asarray(eta, float)))


# -- Marcinkiewicz weighted-derivative scan ---------------------------------


@dataclass(frozen=True)
class ProbeSpec:
    """Polar probe lattice for derivative scans; radii per argument, angles
    per circle.  Never touches xi = 0 or eta = 0."""

    xi_radii: tuple = tuple(2.0**e for e in range(-4, 5))
    eta_radii: tuple = tuple(2.0**e for e in range(-4, 5))
    n_angles: int = 6

    def points(self):
        def circle(radii):
            ang = (np.arange(self.n_angles) + 0.37) * (2 * math.pi / self.n_angles)
            pts = np.array([[r * math.cos(a), r * math.sin(a)] for r in radii for a in ang])
            return pts

        xi = circle(self.xi_radii)
        eta = circle(self.eta_radii)
        # all pairs
        xi_full = np.repeat(xi, eta.shape[0], axis=0)
        eta_full = np.tile(eta, (xi.shape[0], 1))
        return xi_full, eta_full


@dataclass(frozen=True)
class MarcinkiewiczReport:
    """max over probes of |d^b1_xi d^b2_eta m| * |xi|^|b1| * |eta|^|b2|,
    for every multi-index pair with |b1| + |b2| <= max_order."""

    max_order: int
    entries: dict
    flagged: tuple

    def worst(self, order: int | None = None) -> float:
        vals = [
            v
            for (b1, b2), v in self.entries.items()
            if order is None or sum(b1) + sum(b2) == order
        ]
        return max(vals) if vals else 0.0


def _multi_indices(max_order: int):
    """Pairs (b1, b2) of 2D multi-indices with |b1| + |b2| <= max_order,
    ordered by |b1|, then b1, then |b2|, then b2."""
    singles = [(a, total - a) for total in range(max_order + 1) for a in range(total + 1)]
    return [(b1, b2) for b1 in singles for b2 in singles if sum(b1) + sum(b2) <= max_order]


def _fd_stencil(xi, eta, b1, b2, rel_step):
    """Nested central differences for d^b1_xi d^b2_eta, steps scaled by each
    argument's radius: the 2^(|b1|+|b2|) perturbed (xi, eta) point sets,
    stacked on a new leading axis, and the difference tree over them.  A
    leaf of the tree is the index of a point set; a node (h, hi, lo) is
    (hi - lo) / (2 h)."""
    points = []
    tree = _fd_tree(xi, eta, b1, b2, rel_step, points)
    return np.stack([x for x, _ in points]), np.stack([y for _, y in points]), tree


def _fd_tree(xi, eta, b1, b2, rel_step, points):
    """The difference tree of _fd_stencil, appending its point sets to points.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, which would keep every point set alive
    until the cyclic garbage collector runs.
    """
    for comp in range(2):
        if b1[comp] > 0:
            h = rel_step * _norm(xi)
            e = np.zeros_like(xi)
            e[..., comp] = 1.0
            lower = tuple(b1[c] - (c == comp) for c in range(2))
            return (h, _fd_tree(xi + h[..., None] * e, eta, lower, b2, rel_step, points),
                    _fd_tree(xi - h[..., None] * e, eta, lower, b2, rel_step, points))
    for comp in range(2):
        if b2[comp] > 0:
            h = rel_step * _norm(eta)
            e = np.zeros_like(eta)
            e[..., comp] = 1.0
            lower = tuple(b2[c] - (c == comp) for c in range(2))
            return (h, _fd_tree(xi, eta + h[..., None] * e, b1, lower, rel_step, points),
                    _fd_tree(xi, eta - h[..., None] * e, b1, lower, rel_step, points))
    points.append((xi, eta))
    return len(points) - 1


def _fd_combine(values, tree):
    """The derivative from a stencil's tree and the symbol values at its
    point sets, values[i] at point set i."""
    if isinstance(tree, int):
        return values[tree]
    h, hi, lo = tree
    return (_fd_combine(values, hi) - _fd_combine(values, lo)) / (2.0 * h)


def marcinkiewicz_check(
    m: BilinearSymbol,
    max_order: int = 2,
    probe: ProbeSpec | None = None,
    rel_step: float = 1e-3,
) -> MarcinkiewiczReport:
    """Scan weighted mixed derivatives of m over a polar probe lattice.

    Central finite differences with relative step 1e-3; a non-finite
    derivative flags its entry instead of failing.
    """
    probe = probe or ProbeSpec()
    xi, eta = probe.points()
    xi_mag = np.linalg.norm(xi, axis=-1)
    eta_mag = np.linalg.norm(eta, axis=-1)
    entries = {}
    flagged = []
    for b1, b2 in _multi_indices(max_order):
        xi_pts, eta_pts, tree = _fd_stencil(xi, eta, b1, b2, rel_step)
        deriv = np.asarray(_fd_combine(m(xi_pts, eta_pts), tree))
        weighted = np.abs(deriv) * xi_mag ** sum(b1) * eta_mag ** sum(b2)
        finite = np.isfinite(weighted)
        if not finite.all():
            flagged.append((b1, b2))
        entries[(b1, b2)] = float(weighted[finite].max()) if finite.any() else float("nan")
    return MarcinkiewiczReport(max_order=max_order, entries=entries, flagged=tuple(flagged))


# -- Gevrey commutator -------------------------------------------------------


def _require_real_pair(f: SpectralField, g: SpectralField, what: str) -> None:
    if f.grid != g.grid:
        raise ConfigError(f"{what} operands must share a grid")
    for operand in (f, g):
        if not operand.is_hermitian():
            raise HermitianSymmetryError(
                f"{what} needs real fields; operand Hermitian defect "
                f"{operand.hermitian_defect():.3e}"
            )


def _lift(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Values on the 3n/2 grid of the field whose k2 >= 0 half spectrum on
    the n lattice is ``half``, shape (n, n//2 + 1)."""
    n, big = grid.n, 3 * grid.n // 2
    h = n // 2
    wide = np.zeros((big, big // 2 + 1), dtype=np.complex128)
    # the small-lattice Nyquist column (-n/2) lands on +n/2, its mirror
    # lying in the omitted half-plane
    wide[grid.freqs % big, : h + 1] = half
    # the small-lattice Nyquist row and column are cosine content: split
    # them between +-n/2 on the big lattice so real fields lift to real
    # fields
    wide[big - h, :] *= 0.5
    wide[h, :] = wide[big - h, :]
    wide[:, h] *= 0.5
    return np.fft.irfft2(wide * big * big, s=(big, big))


def _truncate(grid: Grid, values: np.ndarray) -> np.ndarray:
    """k2 >= 0 half spectrum on the n lattice, shape (n, n//2 + 1), of real
    values on the 3n/2 grid; the Nyquist row and column are zero."""
    big, h = 3 * grid.n // 2, grid.n // 2
    half = (np.fft.rfft2(values) / (big * big))[grid.freqs % big, : h + 1]
    half[h, :] = 0.0
    half[:, h] = 0.0
    return half


def padded_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product of two real fields on a 3/2-padded grid, truncated
    back to the original lattice: exact convolution with out-of-lattice
    modes dropped.

    Orszag's 3/2 rule: on M = 3n/2 points a sum frequency |s| <= n wraps
    to at most n - M = -n/2, which the truncation drops, so every kept mode
    is exact.  Both operands must be Hermitian-symmetric (real fields):
    the transforms are real (irfft2/rfft2), which read only the k2 >= 0
    half-plane, so a complex input raises HermitianSymmetryError instead of
    being silently symmetrized; the k2 < 0 columns of the result are
    rebuilt from Hermitian symmetry.

    Truncation is symmetric (the Nyquist row/column of the output is
    dropped too), matching the double-sum oracle apply_bilinear of
    tests/reference.py and keeping real inputs real.
    """
    _require_real_pair(f, g, "padded_product")
    grid = f.grid
    h = grid.n // 2 + 1
    half = _truncate(grid, _lift(grid, f.coeffs[:, :h]) * _lift(grid, g.coeffs[:, :h]))
    return _full_spectrum(half, grid)


def gevrey_commutators(
    f: SpectralField,
    g: SpectralField,
    bands: list[tuple[int, float]],
    alpha: float,
) -> list[RealField]:
    """[G_gamma Delta_j, f] g for every (j, gamma) in ``bands``, in order.

    With the band symbol b(k) = phi_j(|k|) exp(gamma |k|^alpha) the
    commutator is b (f g)^ - (f (b g_hat)^vee)^.  The operand checks, the
    lift of f and (f g)^ are shared by all bands; each band then costs one
    lift, one rfft2 and one irfft2, on the k2 >= 0 half plane.

    Guards as delta_j and gevrey_multiply (BandRangeError,
    GevreyOverflowError, ConfigError); operands must be real fields on one
    grid.  Each output must be Hermitian to 1e-7 of its largest coefficient
    (floor HERMITIAN_FLOOR).  On the half plane only the k2 = 0 column can
    carry a defect: the other columns stand for their own mirrors, and the
    Nyquist row and column are zero.
    """
    _require_real_pair(f, g, "gevrey_commutators")
    grid = f.grid
    system = build_system(grid)
    for j, gamma in bands:
        system.require_resolved(j)
        check_gevrey_weight(grid, gamma, alpha)
    n, h = grid.n, grid.n // 2
    kmag = grid.half_k_mag(h + 1)
    kpow = kmag**alpha
    g_half = g.coeffs[:, : h + 1]
    f_big = _lift(grid, f.coeffs[:, : h + 1])
    fg_half = _truncate(grid, f_big * _lift(grid, g_half))
    out = []
    for j, gamma in bands:
        symbol = system.phi(j, kmag) * np.exp(gamma * kpow)
        c = symbol * fg_half - _truncate(grid, f_big * _lift(grid, symbol * g_half))
        column = c[:, 0]
        defect = float(np.max(np.abs(column - np.conj(column[grid._neg_index]))))
        if defect > max(1e-7 * float(np.max(np.abs(c))), HERMITIAN_FLOOR):
            raise HermitianSymmetryError(
                f"commutator band j={j}, gamma={gamma:g} is not Hermitian-symmetric "
                f"(defect {defect:.3e})"
            )
        out.append(RealField(grid, np.fft.irfft2(c, s=(n, n), norm="forward")))
    return out


# -- the symbols of the commutator estimates ----------------------------------


def _norm(v):
    """Euclidean norm over the last axis of (..., 2) arrays; bit-identical
    to np.linalg.norm(v, axis=-1) without its strided reduction."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def _r_alpha_sigma(xi, eta, alpha, sigma):
    """R_{alpha,sigma}(xi, eta) = |xi + eta*sigma|^a - |xi|^a - |eta|^a."""
    return _norm(xi + sigma * eta) ** alpha - _norm(xi) ** alpha - _norm(eta) ** alpha


def make_kgtrj(gamma: float = 0.1, alpha: float = 0.5, j: int = 0, k: int = 3) -> BilinearSymbol:
    """High-high interaction symbol: exp(gamma R_alpha) phi_j(xi+eta)
    phi~_k(xi) phi_k(eta), for k >= j + 3."""

    def window(r):
        total = np.zeros_like(r)
        for l in (k - 2, k - 1, k, k + 1, k + 2):
            total += phi0(r / 2.0**l)
        return total

    def ev(xi, eta):
        expo = _r_alpha_sigma(xi, eta, alpha, 1.0)  # |xi+eta|^a - |xi|^a - |eta|^a
        return (
            np.exp(gamma * expo)
            * phi0(_norm(xi + eta) / 2.0**j)
            * window(_norm(xi))
            * phi0(_norm(eta) / 2.0**k)
        )

    return BilinearSymbol(
        eval=ev,
        description=f"kgtrj(gamma={gamma:g}, alpha={alpha:g}, j={j}, k={k})",
        support_hint=(2.0 ** (k - 1), 2.0 ** (k + 1)),
    )


def make_ksimj(gamma: float = 0.1, alpha: float = 0.5, j: int = 1, k: int = 2) -> BilinearSymbol:
    """Comparable-frequency symbol exp(gamma R_alpha) phi_j(xi+eta)
    phi_k(xi) phi_k(eta), for |k - j| <= 4."""

    def ev(xi, eta):
        expo = _r_alpha_sigma(xi, eta, alpha, 1.0)
        return (
            np.exp(gamma * expo)
            * phi0(_norm(xi + eta) / 2.0**j)
            * phi0(_norm(xi) / 2.0**k)
            * phi0(_norm(eta) / 2.0**k)
        )

    return BilinearSymbol(
        eval=ev,
        description=f"ksimj(gamma={gamma:g}, alpha={alpha:g}, j={j}, k={k})",
        support_hint=(2.0 ** (k - 1), 2.0 ** (k + 1)),
    )


def _mvt_pieces(gamma, alpha, sigma, l, k):
    """Shared factors of the mean-value-theorem symbols mA/mB.

    The exponent is R_{alpha,sigma}(eta, xi) = |eta + sigma*xi|^a - |eta|^a
    - |xi|^a, matching the sigma*xi + eta argument of the bump factors.
    """

    def expo(xi, eta):
        return np.exp(gamma * _r_alpha_sigma(eta, xi, alpha, sigma))

    def bands(xi, eta):
        return phi0(_norm(xi) / 2.0**l) * phi0(_norm(eta) / 2.0**k)

    return expo, bands


def make_mA(gamma: float = 0.1, alpha: float = 0.5, sigma: float = 0.5, i: int = 1,
            j: int = 3, l: int = 0, k: int = 3) -> BilinearSymbol:
    """Gevrey-weight piece of the mean-value commutator symbol."""
    expo, bands = _mvt_pieces(gamma, alpha, sigma, l, k)

    def ev(xi, eta):
        v = sigma * xi + eta
        r = _norm(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            power = np.where(r > 0, r ** (alpha - 2.0), 0.0)
        return (
            alpha * gamma * expo(xi, eta) * power * v[..., i - 1]
            * phi0(r / 2.0**j) * bands(xi, eta)
        )

    return BilinearSymbol(
        eval=ev,
        description=f"mA(gamma={gamma:g}, alpha={alpha:g}, sigma={sigma:g}, i={i}, j={j}, l={l}, k={k})",
        support_hint=(2.0 ** (k - 1), 2.0 ** (k + 1)),
    )


def make_mB(gamma: float = 0.1, alpha: float = 0.5, sigma: float = 0.5, i: int = 1,
            j: int = 3, l: int = 0, k: int = 3) -> BilinearSymbol:
    """Bump-derivative piece of the mean-value commutator symbol."""
    expo, bands = _mvt_pieces(gamma, alpha, sigma, l, k)

    def ev(xi, eta):
        v = (sigma * xi + eta) / 2.0**j
        r = _norm(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = np.where(r > 0, phi0_prime(r) / np.where(r > 0, r, 1.0), 0.0)
        dphi = radial * v[..., i - 1]
        return expo(xi, eta) * dphi * 2.0 ** (-j) * bands(xi, eta)

    return BilinearSymbol(
        eval=ev,
        description=f"mB(gamma={gamma:g}, alpha={alpha:g}, sigma={sigma:g}, i={i}, j={j}, l={l}, k={k})",
        support_hint=(2.0 ** (k - 1), 2.0 ** (k + 1)),
    )
