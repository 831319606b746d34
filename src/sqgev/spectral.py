"""Spectral substrate: periodic grids, transforms, Fourier multipliers, norms.

Everything else in the package is built on the objects defined here.  Fields
are immutable after construction and all operations are pure functions, so
they are safe to call from multiple threads.

Conventions:
  * the domain is the periodic box [0, L)^2 sampled on an n-by-n lattice,
  * spectral coefficients use the Fourier-series normalization in which a
    plane wave cos(k.x) has exactly two coefficients of value 1/2,
  * coefficient arrays are laid out in numpy fft order along both axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# A spectrum counts as Hermitian when max |c(k) - conj c(-k)| is at most
# max(HERMITIAN_RTOL * max |c|, HERMITIAN_FLOOR).  The absolute floor keeps
# all-roundoff fields (an annihilated block, say) from failing the relative
# test on junk.
HERMITIAN_RTOL = 1e-9
HERMITIAN_FLOOR = 1e-13


class ConfigError(ValueError):
    """Invalid grid or run configuration."""


class HermitianSymmetryError(ValueError):
    """Spectral data does not represent a real field."""


class BandRangeError(ValueError):
    """Requested dyadic band is not resolved on this grid."""


class MultiplierOverflowError(FloatingPointError):
    """A multiplier symbol evaluated to NaN/Inf on an occupied mode."""

    def __init__(self, message: str, wavenumber=None):
        super().__init__(message)
        self.wavenumber = wavenumber


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n lattice on the periodic box [0, box_length)^2.

    The wavenumber lattice is k = (2*pi/box_length) * m with integer
    frequencies m in [-n/2, n/2) along each axis.
    """

    n: int
    box_length: float = TWO_PI

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"grid size must be a power of two >= 8, got n={self.n}")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ConfigError(f"box_length must be positive, got {self.box_length}")

    @cached_property
    def freqs(self) -> np.ndarray:
        """Integer frequencies in fft order, shape (n,)."""
        f = np.fft.fftfreq(self.n, d=1.0 / self.n)
        f = np.rint(f).astype(np.int64)
        f.flags.writeable = False
        return f

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Physical wavenumbers (2*pi/box_length) * freqs, shape (n,)."""
        return _freeze((TWO_PI / self.box_length) * self.freqs)

    @cached_property
    def kx(self) -> np.ndarray:
        """Physical wavenumber along axis 0, shape (n, n)."""
        return _freeze(np.broadcast_to(self.k_axis[:, None], (self.n, self.n)).copy())

    @cached_property
    def ky(self) -> np.ndarray:
        """Physical wavenumber along axis 1, shape (n, n)."""
        return _freeze(np.broadcast_to(self.k_axis[None, :], (self.n, self.n)).copy())

    @cached_property
    def k_mag(self) -> np.ndarray:
        return _freeze(self.half_k_mag(self.n))

    def half_k_mag(self, columns: int) -> np.ndarray:
        """|k| on the leading columns of the fft layout, shape (n, columns);
        columns = n//2 + 1 gives the k2 >= 0 half plane."""
        return np.hypot(self.k_axis[:, None], self.k_axis[None, :columns])

    @cached_property
    def _neg_index(self) -> np.ndarray:
        idx = (-np.arange(self.n)) % self.n
        idx.flags.writeable = False
        return idx

    @property
    def rings(self) -> "RingIndex":
        """Read-only ring index of the lattice, shared by all equal grids."""
        return _ring_index(self)

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def cell_area(self) -> float:
        return (self.box_length / self.n) ** 2

    @property
    def k_min(self) -> float:
        """Smallest nonzero wavenumber magnitude (lattice spacing in k)."""
        return TWO_PI / self.box_length

    @property
    def k_nyquist(self) -> float:
        return (TWO_PI / self.box_length) * (self.n // 2)

    @cached_property
    def x(self) -> np.ndarray:
        """Collocation coordinate along one axis, shape (n,)."""
        arr = np.arange(self.n) * self.spacing
        arr.flags.writeable = False
        return arr

    def meshgrid(self):
        """Physical coordinates (X1, X2) with 'ij' indexing."""
        return np.meshgrid(self.x, self.x, indexing="ij")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RingIndex:
    """Lattice modes grouped into rings of equal integer |m|^2.

    ids: ring id of every mode, int32, shape (n, n), fft layout;
    m2: the integer |m|^2 of each ring, ascending;
    radii: the physical radius k_min * sqrt(m2) of each ring;
    counts: the number of modes on each ring.
    """

    ids: np.ndarray
    m2: np.ndarray
    radii: np.ndarray
    counts: np.ndarray

    def sum(self, values) -> np.ndarray:
        """Sum of a per-mode array over each ring."""
        return np.bincount(self.ids.ravel(), weights=np.ravel(values), minlength=self.m2.size)

    def max(self, values) -> np.ndarray:
        """Max of a nonnegative per-mode array (or its leading columns) over each ring."""
        out = np.zeros(self.m2.size)
        np.maximum.at(out, self.ids[:, : values.shape[1]].ravel(), values.ravel())
        return out


@dataclass(frozen=True, eq=False)
class RingSpectrum:
    """Read-only per-ring sums and maxima of a spectrum c."""

    energy: np.ndarray  # sum |c|^2
    amplitude: np.ndarray  # sum |c|
    peak: np.ndarray  # max |c|
    defect: np.ndarray  # max |c(k) - conj c(-k)|


@lru_cache(maxsize=16)
def _ring_index(grid: Grid) -> RingIndex:
    m2 = grid.freqs[:, None] ** 2 + grid.freqs[None, :] ** 2
    present = np.zeros(int(m2.max()) + 1, dtype=bool)
    present[m2.ravel()] = True
    ring_m2 = np.flatnonzero(present)
    ids = (np.cumsum(present, dtype=np.int32) - 1)[m2]
    return RingIndex(
        ids=_freeze(ids),
        m2=_freeze(ring_m2),
        radii=_freeze(grid.k_min * np.sqrt(ring_m2)),
        counts=_freeze(np.bincount(ids.ravel(), minlength=ring_m2.size)),
    )


@dataclass(frozen=True)
class RealField:
    """Real scalar field sampled on the collocation points of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ConfigError(
                f"field shape {v.shape} does not match grid {(self.grid.n, self.grid.n)}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("real field contains non-finite entries")
        object.__setattr__(self, "values", _freeze(v.copy()))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a scalar field, fft layout, shape (n, n)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n, self.grid.n):
            raise ConfigError(
                f"coefficient shape {c.shape} does not match grid {(self.grid.n, self.grid.n)}"
            )
        if not np.all(np.isfinite(c)):
            raise ConfigError("spectral field contains non-finite coefficients")
        object.__setattr__(self, "coeffs", _freeze(c.copy()))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    @cached_property
    def ring_spectrum(self) -> RingSpectrum:
        """The spectrum reduced over the rings, once per field (coeffs is frozen)."""
        rings, mags = self.grid.rings, np.abs(self.coeffs)
        reductions = (rings.sum(mags**2), rings.sum(mags), rings.max(mags),
                      rings.max(self._half_plane_defects()))
        return RingSpectrum(*map(_freeze, reductions))

    def _half_plane_defects(self) -> np.ndarray:
        """|coeffs(k) - conj(coeffs(-k))| on the k2 >= 0 half plane, which
        holds k or -k for every mode (the defect is even in k)."""
        idx, half = self.grid._neg_index, self.grid.n // 2 + 1
        return np.abs(self.coeffs[:, :half] - np.conj(self.coeffs[np.ix_(idx, idx[:half])]))

    def hermitian_defect(self) -> float:
        """Max deviation from coeffs(-k) = conj(coeffs(k))."""
        return float(np.max(self._half_plane_defects()))

    def is_hermitian(self, rtol: float = HERMITIAN_RTOL) -> bool:
        scale = float(np.max(np.abs(self.coeffs)))
        return self.hermitian_defect() <= max(rtol * scale, HERMITIAN_FLOOR)

    def mean_value(self) -> complex:
        """Value of the zero mode (the mean of the underlying field)."""
        return complex(self.coeffs[0, 0])

    def l2_norm(self) -> float:
        """L^2 norm via Parseval: ||f||^2 = L^2 * sum |f_hat(k)|^2."""
        return self.grid.box_length * float(
            np.sqrt(np.sum(np.abs(self.coeffs) ** 2))
        )


def _full_spectrum(half: np.ndarray, grid: Grid) -> SpectralField:
    """The field with k2 >= 0 half spectrum half, its k2 < 0 columns rebuilt
    from Hermitian symmetry, f_hat(k1, -k2) = conj f_hat(-k1, k2)."""
    h = grid.n // 2 + 1
    coeffs = np.empty((grid.n, grid.n), dtype=np.complex128)
    coeffs[:, :h] = half
    coeffs[:, h:] = np.conj(half[grid._neg_index, h - 2 : 0 : -1])
    return SpectralField(grid, coeffs)


def forward_transform(f: RealField) -> SpectralField:
    """DFT normalized so that the coefficient of e^{ik.x} is returned directly."""
    n = f.grid.n
    coeffs = np.fft.fft2(f.values) / (n * n)
    return SpectralField(f.grid, coeffs)


def inverse_transform(F: SpectralField, rtol: float = HERMITIAN_RTOL) -> RealField:
    """Exact inverse of forward_transform; input must be Hermitian-symmetric."""
    if not F.is_hermitian(rtol):
        raise HermitianSymmetryError(
            f"coefficients are not Hermitian-symmetric "
            f"(defect {F.hermitian_defect():.3e})"
        )
    # unscaled, as forward_transform divides by n^2
    return RealField(F.grid, np.fft.ifft2(F.coeffs, norm="forward").real)


def apply_multiplier(F: SpectralField, symbol) -> SpectralField:
    """Multiply coefficients by a symbol's values on the lattice.

    ``symbol`` is a real or complex array broadcastable to the (n, n) fft
    layout of the coefficients, typically built from the cached
    ``grid.k_mag``, ``grid.kx`` and ``grid.ky``.  Symbols that are singular
    at k = 0 should define their own value there; a non-finite symbol value
    on an unoccupied mode is silently replaced by zero, while one on an
    occupied mode raises MultiplierOverflowError carrying the offending
    wavenumber.
    """
    grid = F.grid
    sym = np.asarray(symbol)
    try:
        np.broadcast_to(sym, F.coeffs.shape)
    except ValueError as exc:
        raise ConfigError(f"symbol shape {sym.shape} does not broadcast to {F.coeffs.shape}") from exc
    bad = ~np.isfinite(sym)
    if bad.any():
        # modes at roundoff level relative to the field peak do not count as
        # occupied; a singular symbol there is zeroed instead of fatal
        floor = 1e-14 * float(np.max(np.abs(F.coeffs)))
        hit = bad & (np.abs(F.coeffs) > floor)
        if hit.any():
            i, j = np.argwhere(hit)[0]
            k = (grid.k_axis[i], grid.k_axis[j])
            raise MultiplierOverflowError(
                f"multiplier is not finite on occupied mode k={k}", wavenumber=k
            )
        sym = np.where(bad, 0.0, sym)
    return SpectralField(grid, F.coeffs * sym)


def lp_norm(f: RealField, p: float) -> float:
    """L^p norm by collocation quadrature; p = inf gives the max norm."""
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    return _lp_quadrature(f.values, p, f.grid.cell_area)


def _lp_quadrature(values: np.ndarray, p: float, cell_area: float) -> float:
    """Collocation L^p quadrature; internal variant also accepts 0 < p < 1."""
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    return float(np.sum(np.abs(values) ** p) * cell_area) ** (1.0 / p)


def band_mask(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Modes with lo <= |k| <= hi, restricted to the Nyquist disk."""
    kmag = grid.k_mag
    return (kmag >= lo) & (kmag <= hi) & (kmag <= grid.k_nyquist) & (kmag > 0)


def box_mask(grid: Grid, max_component: int) -> np.ndarray:
    """Modes whose integer frequency components are all at most
    max_component in absolute value, the mean mode excluded."""
    absf = np.abs(grid.freqs)
    mask = (absf[:, None] <= max_component) & (absf[None, :] <= max_component)
    mask[0, 0] = False
    return mask


def negated_modes(c: np.ndarray) -> np.ndarray:
    """c(-k) for an (n, n) array in fft layout: index (-i) % n on both axes.

    Reversal plus a one-place roll moves the same data as fancy indexing
    with (-arange(n)) % n, without building the gathered index.
    """
    return np.roll(c[::-1, ::-1], 1, axis=(0, 1))


def hermitian_symmetrize(grid: Grid, raw: np.ndarray) -> np.ndarray:
    """Project a complex array onto the Hermitian-symmetric subspace."""
    return 0.5 * (raw + np.conj(negated_modes(raw)))


def hermitian_noise(grid: Grid, mask: np.ndarray, rng, profile=1.0) -> SpectralField:
    """Random Hermitian field: complex Gaussian coefficients times a radial
    ``profile`` (an array or a scalar), symmetrized and restricted to ``mask``.

    Draws the real parts, then the imaginary parts, of a full n-by-n array.
    """
    raw = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    return SpectralField(grid, hermitian_symmetrize(grid, raw * mask * profile) * mask)


def random_phases(grid: Grid, rng, half_plane: bool = False) -> np.ndarray:
    """Hermitian unit-modulus coefficients exp(i phase), with the phase the
    antisymmetric part of a uniform draw on [-pi, pi).

    With half_plane, only the k2 >= 0 columns are returned (and
    exponentiated); the draw is full-size either way, since the phase at k
    pairs with the one at -k, so both forms agree on those columns.
    """
    raw = rng.uniform(-math.pi, math.pi, (grid.n, grid.n))
    phase = 0.5 * (raw - negated_modes(raw))
    del raw
    if half_plane:
        phase = phase[:, : grid.n // 2 + 1]
    coeffs = 1j * phase
    return np.exp(coeffs, out=coeffs)


def random_band_limited(grid: Grid, j: int, seed: int) -> SpectralField:
    """Random Hermitian field with spectrum in the dyadic annulus of index j.

    The annulus is 2^(j-1) <= |k| <= 2^(j+1) in physical wavenumber units,
    intersected with the Nyquist disk.  Deterministic for a given seed.
    """
    mask = band_mask(grid, 2.0 ** (j - 1), 2.0 ** (j + 1))
    if not mask.any():
        raise BandRangeError(
            f"dyadic annulus j={j} contains no lattice point on an "
            f"n={grid.n}, L={grid.box_length:g} grid"
        )
    return hermitian_noise(grid, mask, np.random.default_rng(seed))


# --- field snapshot files ------------------------------------------------
#
# Format: a text header of key=value lines (required keys: n, box_length,
# kind, time; extra keys are preserved), a blank line, then raw little-endian
# float64 data in row-major order -- plain values for a real field,
# interleaved re/im pairs for a spectral field.

_HEADER_SEP = b"\n\n"


def save_field(path, field, time: float = 0.0, extra: dict | None = None) -> None:
    if isinstance(field, RealField):
        kind = "real"
        data = np.ascontiguousarray(field.values, dtype="<f8")
    elif isinstance(field, SpectralField):
        kind = "spectral"
        # a little-endian complex128 is an interleaved (re, im) pair of <f8
        data = np.ascontiguousarray(field.coeffs, dtype="<c16")
    else:
        raise TypeError(f"cannot save object of type {type(field)}")
    lines = [
        f"n={field.grid.n}",
        f"box_length={field.grid.box_length!r}",
        f"kind={kind}",
        f"time={float(time)!r}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key}={val}")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        fh.write(_HEADER_SEP)
        fh.write(data)  # through the buffer protocol, without a copy


def load_field(path):
    """Read a snapshot file; returns (field, header_dict).  An unreadable
    path raises ConfigError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc.strerror or exc}") from exc
    sep = blob.find(_HEADER_SEP)
    if sep < 0:
        raise ConfigError(f"{path}: missing header separator")
    header = {}
    for line in blob[:sep].decode("ascii").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: malformed header line {line!r}")
        key, _, val = line.partition("=")
        header[key.strip()] = val.strip()
    try:
        n = int(header["n"])
        box_length = float(header["box_length"])
        kind = header["kind"]
        header["time"] = float(header.get("time", 0.0))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad header ({exc})") from exc
    grid = Grid(n, box_length)
    payload = np.frombuffer(blob[sep + len(_HEADER_SEP):], dtype="<f8")
    if kind == "real":
        if payload.size != n * n:
            raise ConfigError(f"{path}: expected {n * n} floats, got {payload.size}")
        return RealField(grid, payload.reshape(n, n)), header
    if kind == "spectral":
        if payload.size != 2 * n * n:
            raise ConfigError(f"{path}: expected {2 * n * n} floats, got {payload.size}")
        inter = payload.reshape(n, n, 2)
        return SpectralField(grid, inter[..., 0] + 1j * inter[..., 1]), header
    raise ConfigError(f"{path}: unknown field kind {kind!r}")
