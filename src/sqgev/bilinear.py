"""Bilinear Fourier multiplier operators evaluated by direct double sums.

T_m(f, g) has output coefficient at kappa' equal to

    sum over xi + eta = kappa' of m(xi, eta) * f_hat(xi) * g_hat(eta),

an exact convolution in which pairs whose sum leaves the wavenumber lattice
are dropped (never wrapped).  The double sum is deliberately naive -- it is
the verification oracle for everything else -- and guarded by a cost cap.

Also here: the Marcinkiewicz weighted-derivative scan, rotation duality,
dilation, a randomized operator-norm probe, the Gevrey commutator
[G_gamma Delta_j, f] g, and a registry of the named symbols used by the
commutator estimates.

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
    TWO_PI,
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    _full_spectrum,
    _lp_quadrature,
    band_mask,
    box_mask,
    hermitian_noise,
    negated_modes,
)

COST_GUARD = 10**8  # max occupied-mode pairs in one double sum


class CostGuardError(ValueError):
    """The occupied-mode product exceeds the double-sum budget."""


@dataclass(frozen=True)
class BilinearSymbol:
    """Bilinear symbol m(xi, eta).

    ``eval`` maps two (..., 2) wavenumber arrays to a complex array of the
    leading shape.  ``support_hint``, when set, is a closed annulus (lo, hi)
    outside of which m(xi, .) vanishes in eta; norm probes use it to build
    admissible g fields.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str = ""
    support_hint: tuple[float, float] | None = None

    def __call__(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(xi, float), np.asarray(eta, float)))


def _occupied(field: SpectralField, rtol: float = 1e-14):
    """Integer frequencies and coefficients of the meaningfully occupied modes."""
    scale = float(np.max(np.abs(field.coeffs)))
    mask = np.abs(field.coeffs) > rtol * scale if scale > 0 else np.zeros_like(field.coeffs, bool)
    ii, jj = np.nonzero(mask)
    freqs = field.grid.freqs
    mi = np.stack([freqs[ii], freqs[jj]], axis=-1)  # (count, 2) integer freqs
    return mi, field.coeffs[ii, jj]


def apply_bilinear(m: BilinearSymbol, f: SpectralField, g: SpectralField) -> SpectralField:
    """Direct double-sum evaluation of T_m(f, g) on the common lattice."""
    if f.grid != g.grid:
        raise ConfigError("bilinear operands must share a grid")
    grid = f.grid
    mf, cf = _occupied(f)
    mg, cg = _occupied(g)
    if mf.shape[0] * mg.shape[0] > COST_GUARD:
        raise CostGuardError(
            f"double sum over {mf.shape[0]} x {mg.shape[0]} occupied modes exceeds "
            f"{COST_GUARD:.0e}; use sparser (band-limited) inputs"
        )
    n = grid.n
    half = n // 2
    out = np.zeros(n * n, dtype=np.complex128)
    if mf.shape[0] == 0 or mg.shape[0] == 0:
        return SpectralField(grid, out.reshape(n, n))

    chunk = max(1, int(4_000_000 // max(mg.shape[0], 1)))
    for start in range(0, mf.shape[0], chunk):
        fi = mf[start : start + chunk]          # (c, 2)
        ci = cf[start : start + chunk]
        sums = fi[:, None, :] + mg[None, :, :]  # (c, ng, 2) integer sums
        # symmetric truncation: |components| <= n/2 - 1, so that +k and -k
        # output modes are kept or dropped together and real inputs with a
        # real-symmetric symbol give a real output
        valid = (
            (sums[..., 0] > -half) & (sums[..., 0] < half)
            & (sums[..., 1] > -half) & (sums[..., 1] < half)
        )
        vals = (
            m(fi[:, None, :].astype(float), mg[None, :, :].astype(float))
            * ci[:, None]
            * cg[None, :]
        )
        flat = (sums[..., 0] % n) * n + (sums[..., 1] % n)
        np.add.at(out, flat[valid], vals[valid])
    return SpectralField(grid, out.reshape(n, n))


def bilinear_pairing(m: BilinearSymbol, f: SpectralField, g: SpectralField, h: SpectralField) -> complex:
    """<T_m(f, g), h> = (2 pi)^2 * sum_k T_hat(k) h_hat(-k)."""
    T = apply_bilinear(m, f, g)
    return TWO_PI**2 * complex(np.sum(T.coeffs * negated_modes(h.coeffs)))


def rotation_dual(m: BilinearSymbol) -> BilinearSymbol:
    """Dual symbol m~ with <T_m(f,g), h> = <T_m~(h,g), f> identically.

    Substituting the pairing constraint xi + eta + nu = 0 forces
    m~(xi, eta) = m(-xi-eta, eta); the map is an involution.  (In two
    dimensions the orientation sign (-1)^d is +1.)
    """

    def dual_eval(xi, eta):
        return m(-xi - eta, eta)

    return BilinearSymbol(
        eval=dual_eval,
        description=f"rotation-dual({m.description})",
        support_hint=m.support_hint,
    )


def dilate(m: BilinearSymbol, lam: float) -> BilinearSymbol:
    """Dilated symbol m_lam(xi, eta) = m(lam*xi, lam*eta)."""
    if lam <= 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")

    hint = None
    if m.support_hint is not None:
        hint = (m.support_hint[0] / lam, m.support_hint[1] / lam)

    return BilinearSymbol(
        eval=lambda xi, eta: m(lam * xi, lam * eta),
        description=f"dilate({m.description}, {lam:g})",
        support_hint=hint,
    )


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


# -- randomized operator-norm probe -----------------------------------------


def _masked_noise(grid: Grid, mask: np.ndarray, rng) -> SpectralField | None:
    if not mask.any():
        return None
    noise = hermitian_noise(grid, mask, rng)
    return noise if np.any(noise.coeffs) else None


def _normalized(field: SpectralField, p: float) -> SpectralField | None:
    norm = _lr_norm_of_output(field, p)
    if norm == 0:
        return None
    return (1.0 / norm) * field


def _lr_norm_of_output(T: SpectralField, r: float) -> float:
    n = T.grid.n
    values = np.fft.ifft2(T.coeffs * n * n)  # complex in general
    return _lp_quadrature(np.abs(values), r, T.grid.cell_area)


def _peak_pair(m: BilinearSymbol, grid: Grid, f_mask: np.ndarray, g_mask: np.ndarray):
    """Deterministic argmax of |m| over the admissible mode pairs."""
    freqs = grid.freqs
    fi, fj = np.nonzero(f_mask)
    gi, gj = np.nonzero(g_mask)
    xi = np.stack([freqs[fi], freqs[fj]], axis=-1).astype(float)
    eta = np.stack([freqs[gi], freqs[gj]], axis=-1).astype(float)
    best_val, best = -1.0, None
    chunk = max(1, int(2_000_000 // max(eta.shape[0], 1)))
    for start in range(0, xi.shape[0], chunk):
        block = np.abs(m(xi[start : start + chunk, None, :], eta[None, :, :]))
        idx = np.unravel_index(np.argmax(block), block.shape)
        if block[idx] > best_val:
            best_val = float(block[idx])
            best = (xi[start + idx[0]], eta[idx[1]])
    return best, best_val


def _cosine_mode(grid: Grid, k: np.ndarray) -> SpectralField:
    """Unit-coefficient real plane-wave pair at +-k."""
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    mi = int(round(k[0])) % grid.n
    mj = int(round(k[1])) % grid.n
    coeffs[mi, mj] = 0.5
    coeffs[(-mi) % grid.n, (-mj) % grid.n] += 0.5
    return SpectralField(grid, coeffs)


def estimate_operator_norm(
    m: BilinearSymbol,
    grid: Grid,
    p: float,
    q: float,
    trials: int = 8,
    seed: int = 0,
) -> float:
    """Randomized lower bound on ||T_m||: L^p x L^q -> L^r, 1/r = 1/p + 1/q.

    Probes seeded random unit-norm band-limited pairs plus one deterministic
    concentrated pair (plane waves at the argmax of |m|), and reports the
    best output norm seen; this is a lower bound on the true operator norm,
    never the norm itself.  Without a support hint both fields live inside
    the box |freq components| <= n/4 - 1 so the quadratic interaction is
    exactly resolved; with a hint, g spans the symbol's eta-annulus and f
    sweeps all resolvable dyadic bands.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if p < 1 or q < 1:
        raise ValueError(f"invalid exponent triple: need p, q >= 1, got p={p}, q={q}")
    r = 1.0 / (1.0 / p + 1.0 / q) if not (math.isinf(p) and math.isinf(q)) else math.inf

    rng = np.random.default_rng(seed)
    hinted = m.support_hint is not None
    if hinted:
        admissible = (grid.k_mag > 0) & (grid.k_mag <= grid.k_nyquist)
        g_mask = band_mask(grid, m.support_hint[0], m.support_hint[1])
        if not g_mask.any():
            raise BandRangeError(
                f"support hint {m.support_hint} has no lattice modes on n={grid.n}"
            )
    else:
        admissible = box_mask(grid, grid.n // 4 - 1)
        g_mask = admissible

    bands = []
    j_top = int(math.floor(math.log2(grid.k_nyquist)))
    for j in range(-2, j_top + 1):
        mask = band_mask(grid, 2.0 ** (j - 1), 2.0 ** (j + 1)) & admissible
        if mask.any():
            bands.append(mask)
    if not bands:
        raise BandRangeError(f"no admissible bands on n={grid.n}")

    best = 0.0

    # concentrated probe: plane waves at the symbol's strongest pair; unlike
    # flat random fields this does not dilute as the grid gains modes
    pair, peak = _peak_pair(m, grid, admissible, g_mask)
    if pair is not None and peak > 0:
        f = _normalized(_cosine_mode(grid, pair[0]), p)
        g = _normalized(_cosine_mode(grid, pair[1]), q)
        if f is not None and g is not None:
            best = max(best, _lr_norm_of_output(apply_bilinear(m, f, g), r))

    for trial in range(trials):
        f = _masked_noise(grid, bands[trial % len(bands)], rng)
        if f is None:
            continue
        f = _normalized(f, p)
        if hinted:
            g = _masked_noise(grid, g_mask, rng)
        elif trial == 0:
            g = f  # aligned pair probes the Hoelder-equality direction
        else:
            g = _masked_noise(grid, bands[(trial * 3 + 1) % len(bands)], rng)
        if f is None or g is None:
            continue
        g = _normalized(g, q)
        if g is None:
            continue
        best = max(best, _lr_norm_of_output(apply_bilinear(m, f, g), r))
    return best


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
    dropped too), matching apply_bilinear and keeping real inputs real.
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


# -- named symbol registry ----------------------------------------------------


def _norm(v):
    """Euclidean norm over the last axis of (..., 2) arrays; bit-identical
    to np.linalg.norm(v, axis=-1) without its strided reduction."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def _r_alpha_sigma(xi, eta, alpha, sigma):
    """R_{alpha,sigma}(xi, eta) = |xi + eta*sigma|^a - |xi|^a - |eta|^a."""
    return _norm(xi + sigma * eta) ** alpha - _norm(xi) ** alpha - _norm(eta) ** alpha


def make_riesz_pair() -> BilinearSymbol:
    """Separable Riesz pair: symbol of (R_1 f)(R_1 g)."""

    def term(v):
        r = _norm(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0, -1j * v[..., 0] / np.where(r > 0, r, 1.0), 0.0)

    return BilinearSymbol(
        eval=lambda xi, eta: term(xi) * term(eta),
        description="riesz-pair",
    )


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


SYMBOL_REGISTRY = {
    "riesz-pair": make_riesz_pair,
    "kgtrj": make_kgtrj,
    "ksimj": make_ksimj,
    "mA": make_mA,
    "mB": make_mB,
}


def registered_symbol(name: str, **params) -> BilinearSymbol:
    if name not in SYMBOL_REGISTRY:
        raise KeyError(
            f"unknown symbol {name!r}; registered: {sorted(SYMBOL_REGISTRY)}"
        )
    return SYMBOL_REGISTRY[name](**params)
