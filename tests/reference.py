"""Reference code shared by the tests: the record sink that collects every
snapshot of a run, the Picard gaps of a collected run, the norms of
transformed full-plane Besov blocks, the Riesz transform on the full
spectrum, the advection term through the solver's stepping workspace, the
real values of a reference commutator, and the bilinear double-sum oracle.

The oracle evaluates T_m(f, g) for any symbol m of sqgev.bilinear by the
direct double sum over occupied mode pairs, guarded by a cost cap.  Around
it are the pairing <T_m(f, g), h>, the rotation dual and dilation of a
symbol, a randomized lower bound on the operator norm, and the separable
Riesz pair symbol.  No check or verb calls them; the tests compare
padded_product and the Gevrey commutator against the double sum, and
acceptance test 10 runs the duality and dilation identities and the norm
probe on it.
"""

import math
from collections import defaultdict

import numpy as np

from sqgev.bilinear import BilinearSymbol, _norm
from sqgev.dyadic import besov_norm, build_system, delta_j
from sqgev.solver import _Workspace
from sqgev.spectral import (
    HERMITIAN_FLOOR,
    TWO_PI,
    BandRangeError,
    ConfigError,
    Grid,
    RealField,
    SpectralField,
    _full_spectrum,
    _lp_quadrature,
    apply_multiplier,
    band_mask,
    box_mask,
    hermitian_noise,
    inverse_transform,
    lp_norm,
    negated_modes,
)


class Collect:
    """Record sink that keeps every record: times[l] and snapshots[l] are
    level l's recorded times and fields, in order.  The reference for what
    a run recorded."""

    def __init__(self):
        self.times = defaultdict(list)
        self.snapshots = defaultdict(list)

    def __call__(self, level, t, snap, row):
        self.times[level].append(t)
        self.snapshots[level].append(snap)

    def samples(self, level=0):
        """(t, field) pairs of level with t > 0, ready for X_T norms."""
        return [(t, s) for t, s in zip(self.times[level], self.snapshots[level]) if t > 0]


def picard_gaps(sink: Collect, config) -> list[float]:
    """For each pair of successive levels of a Picard run collected in sink,
    the sup over the recorded t > 0 of the critical Besov norm of their
    difference."""
    bp = config.besov_params()
    return [
        max(
            besov_norm(a - b, bp)
            for (_, a), (_, b) in zip(sink.samples(lvl), sink.samples(lvl + 1))
        )
        for lvl in range(config.picard_depth)
    ]


def transformed_block_norms(f: SpectralField, p: float, weight=None) -> np.ndarray:
    """||Delta_j (w f)||_{L^p} for every resolved j the long way: the radial
    weight w multiplies the lattice, then each full-plane block goes through
    inverse_transform (and its Hermitian test) to the collocation quadrature.
    The reference of dyadic.block_lp_norms at every p."""
    if weight is not None:
        f = apply_multiplier(f, weight(f.grid.k_mag))
    js = build_system(f.grid).js()
    return np.array([lp_norm(inverse_transform(delta_j(f, j)), p) for j in js])


def ignore(level, t, snap, row):
    """Record sink that keeps nothing, for runs read through their
    diagnostics rows only."""


def riesz_transform(f: SpectralField, axis: int) -> SpectralField:
    """R_axis with symbol -i k_axis / |k| (zero on the zero mode)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    grid = f.grid
    kc = grid.kx if axis == 1 else grid.ky
    kmag = grid.k_mag
    return apply_multiplier(f, np.where(kmag > 0, -1j * kc / np.where(kmag > 0, kmag, 1.0), 0.0))


def nonlinear_term(theta: SpectralField, dealias: str = "two-thirds") -> SpectralField:
    """Dealiased u . grad theta for u the Riesz velocity of theta, through
    the solver's stepping workspace, whose contract holds theta to the
    dealias box, as it holds every state of a march."""
    grid = theta.grid
    work = _Workspace(grid, dealias)
    half = theta.coeffs[:, : grid.n // 2 + 1]
    return _full_spectrum(work.advection(half, work.velocity(half, work.vel)), grid)


def commutator_values(c: SpectralField) -> RealField:
    """The real field of a reference commutator's spectrum c, whose Hermitian
    defect must be at most 1e-7 of its largest coefficient (floor
    HERMITIAN_FLOOR): the bound gevrey_commutators puts on its outputs, as
    a commutator, the difference of two near-equal products, keeps their
    round-off."""
    scale = float(np.max(np.abs(c.coeffs)))
    assert c.hermitian_defect() <= max(1e-7 * scale, HERMITIAN_FLOOR)
    return RealField(c.grid, np.fft.ifft2(c.coeffs, norm="forward").real)


# -- the bilinear double-sum oracle -----------------------------------------


COST_GUARD = 10**8  # max occupied-mode pairs in one double sum


class CostGuardError(ValueError):
    """The occupied-mode product exceeds the double-sum budget."""


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
