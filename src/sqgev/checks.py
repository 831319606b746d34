"""Inequality verification harness.

One runnable check per quantitative estimate: each sweeps randomized trials,
fits constants or log2 slopes, and states the estimate as clauses `value
relation bound` with fixed tolerances.  "Bounded up to a constant" is
operationalized as: the fitted constant exists, is finite, and is uniform
(within the stated spread) over the swept parameter that the estimate's
constant must not depend on.  A clause with no data, or whose regression
has R^2 < MIN_R_SQUARED, can never pass; it is inconclusive instead.

Each check_* takes its parameters as keyword arguments, whose defaults are
the check's configuration, and returns (trials, fits, clauses, notes);
run_check overlays the overrides on those defaults, tests them against the
hypotheses of the estimate (the table HYPOTHESES) before the check draws
anything, and builds the report, whose verdict is the fold of its clauses
(_fold).  The tolerances are module constants, not parameters, so that no
run can move a verdict by moving its bound.  Every check runs on the 2*pi box.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from .bilinear import _fd_combine, _fd_stencil, _multi_indices, _norm, gevrey_commutators
from .dyadic import BesovParams, build_system, delta_j
from .gevrey import (
    GevreyOverflowError,
    GevreyParams,
    XTSink,
    fit_line,
    fractional_laplacian,
    gevrey_multiply,
    heat_semigroup,
    xt_norm,
)
from .solver import BlowUpError, InitialData, PicardGaps, SolverConfig, initial_field
from .solver import picard_solve, solve
from .spectral import (
    TWO_PI,
    ConfigError,
    Grid,
    RealField,
    SpectralField,
    _full_spectrum,
    _lp_quadrature,
    box_mask,
    forward_transform,
    inverse_transform,
    lp_norm,
    random_band_limited,
    random_field,
)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

# Verdict bounds: the cap of a parameter-uniform ratio, the slack of a decay
# slope in log2 units, and the least R^2 of a regression that can pass.
CONSTANT_CAP = 50.0
SLOPE_SLACK = 0.2
MIN_R_SQUARED = 0.9


def _clause(name, value, relation, bound, unresolved=False) -> dict:
    """The clause `value relation bound`, relation one of <=, <, >=, >, as
    judged: inconclusive if unresolved, else pass when its slack toward the
    bound is positive (or 0 under <= and >=), so a NaN value fails.  The
    margin is the slack as a fraction of |bound|, or the slack at bound 0."""
    value, bound = float(value), float(bound)
    slack = bound - value if relation[0] == "<" else value - bound
    holds = slack > 0 or (slack == 0 and relation[-1] == "=")
    return {"name": name, "value": value, "relation": relation, "bound": bound,
            "verdict": INCONCLUSIVE if unresolved else PASS if holds else FAIL,
            "margin": slack / abs(bound) if bound else slack}


def _fold(clauses) -> str:
    """fail if any clause fails, else pass if all pass (and one exists), else inconclusive."""
    verdicts = {clause["verdict"] for clause in clauses}
    return FAIL if FAIL in verdicts else PASS if verdicts == {PASS} else INCONCLUSIVE


@dataclass
class InequalityReport:
    check_id: str
    config: dict
    trials: list
    fits: dict
    clauses: list
    notes: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return _fold(self.clauses)

    def to_json(self) -> str:
        def default(obj):
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            raise TypeError(f"not serializable: {type(obj)}")

        keys = ("check_id", "verdict", "config", "fits", "clauses", "notes", "environment")
        header = {key: getattr(self, key) for key in keys}
        # only the small header goes through the indenting encoder; the
        # trials follow it, one row per line
        head = json.dumps(header, indent=2, sort_keys=True, default=default)
        # one encoder for every row: json.dumps with these options would
        # build a new one per row
        encode = json.JSONEncoder(sort_keys=True, default=default).encode
        rows = ",\n".join("    " + encode(row) for row in self.trials)
        trials = f"[\n{rows}\n  ]" if self.trials else "[]"
        # head ends in "\n}": reopen it for the trials
        return f'{head[:-2]},\n  "trials": {trials}\n}}'

    def write(self, path) -> None:
        with open(path, "w") as fh:
            print(self.to_json(), file=fh)

    def worst_clause(self) -> tuple[str, float]:
        """(name, margin) of the clause of least margin, a NaN margin first."""
        worst = min(
            self.clauses, key=lambda c: (not math.isnan(c["margin"]), c["margin"]),
            default={"name": "", "margin": math.nan},
        )
        return worst["name"], worst["margin"]


def _signed_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """Signed power |v|^(e-1) v: odd, and equal to v itself at e = 1."""
    return np.sign(values) * np.abs(values) ** exponent


def _signed_power_norms(phys: RealField, ps, exponents) -> dict:
    """{(e, p): ||Lambda^e (|f|^(p/2-1) f)||_2} for f = phys, from one
    forward transform per p."""
    norms = {}
    for p in ps:
        v_hat = forward_transform(RealField(phys.grid, _signed_power(phys.values, p / 2.0)))
        for e in exponents:
            norms[e, p] = fractional_laplacian(v_hat, e).l2_norm()
    return norms


def _shaped_band_field(grid, j, seed):
    """Random field shaped like a genuine Littlewood-Paley block."""
    return delta_j(random_band_limited(grid, j, seed), j)


def _resolved_bands(grid, j_lo, j_hi) -> list[int]:
    """j_lo..j_hi, which must be a nonempty part of the grid's resolved range."""
    system = build_system(grid)
    if not system.j_min <= j_lo <= j_hi <= system.j_max:
        raise ConfigError(
            f"band range [{j_lo}, {j_hi}] is not inside the resolved range "
            f"[{system.j_min}, {system.j_max}] on n={grid.n}"
        )
    return list(range(j_lo, j_hi + 1))


def _lp_norms(field: SpectralField, ps) -> dict:
    """{p: ||field||_p} for every p in ps, from one inverse transform."""
    phys = inverse_transform(field)
    return {p: lp_norm(phys, p) for p in ps}


# ---------------------------------------------------------------------------
# Bernstein (classical and generalized)
# ---------------------------------------------------------------------------


def check_bernstein(
    *, n=128, j_lo=1, j_hi=5,
    trials=500, seed=0, s_set=(0.25, 0.5, 1.0), p_set=(2.0, 4.0, 8.0),
):
    """Two-sided block norm equivalences: the fractional-derivative sandwich
    ratio and its |f|^(p/2) variant must be j-uniform within 2^(2|s|)*1.1."""
    grid = Grid(n)
    js = _resolved_bands(grid, j_lo, j_hi)
    rows = []
    for trial in range(trials):
        j = js[trial % len(js)]
        f = _shaped_band_field(grid, j, seed + trial)
        phys = inverse_transform(f)
        base = {p: lp_norm(phys, p) for p in p_set}
        live = [p for p in p_set if base[p] != 0.0]
        # each transformed field is made once and read at every exponent;
        # the generalized variant goes through the signed p/2 power
        lam_norms = {s: _lp_norms(fractional_laplacian(f, s), live) for s in s_set}
        gen_norms = _signed_power_norms(phys, live, s_set)
        for s in s_set:
            for p in live:
                ratio = lam_norms[s][p] / (2.0 ** (j * s) * base[p])
                gen = gen_norms[s, p] ** (2.0 / p) / (2.0 ** (2.0 * s * j / p) * base[p])
                rows.append({"j": j, "s": s, "p": p, "ratio": ratio, "gen_ratio": gen})

    fits = {}
    clauses = []
    worst_spread = 0.0
    for s in s_set:
        cap = 2.0 ** (2.0 * abs(s)) * 1.1
        for p in p_set:
            for key in ("ratio", "gen_ratio"):
                vals = [r[key] for r in rows if r["s"] == s and r["p"] == p]
                spread = max(vals) / min(vals) if vals else math.nan
                name = f"{key}_spread_s{s:g}_p{p:g}"
                fits[name] = spread
                worst_spread = max(worst_spread, spread / cap)
                clauses.append(_clause(name, spread, "<=", cap, unresolved=not vals))
    fits["spread"] = worst_spread  # worst spread as a fraction of its cap
    return rows, fits, clauses, []


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------


def _smooth_noise(grid, seed):
    """Band-limited random field with mildly decaying spectrum, no Nyquist."""
    shape = np.exp(-0.5 * (grid.k_mag / (0.5 * grid.k_nyquist)) ** 2)
    return random_field(grid, seed, box_mask(grid, grid.n // 3), profile=shape)


def check_positivity(
    *, n=64, trials=200, seed=0,
    s_set=(0.25, 0.5, 0.9), p_set=(2.0, 4.0, 6.0),
):
    """int Lambda^s f |f|^(p-2) f dx >= (2/p) || Lambda^(s/2) f^(p/2) ||_2^2
    with the signed power; exact equality at p = 2."""
    grid = Grid(n)
    rows = []
    worst = math.inf
    equality = []  # the normalized |lhs - rhs| at p = 2
    for trial in range(trials):
        f = _smooth_noise(grid, seed + trial)
        phys = inverse_transform(f)
        rhs_norms = _signed_power_norms(phys, p_set, [s / 2.0 for s in s_set])
        for s in s_set:
            lam_f = inverse_transform(fractional_laplacian(f, s))
            for p in p_set:
                lhs = float(
                    np.sum(lam_f.values * np.abs(phys.values) ** (p - 2) * phys.values)
                    * grid.cell_area
                )
                rhs = (2.0 / p) * rhs_norms[s / 2.0, p] ** 2
                diff = lhs - rhs
                scale = max(abs(lhs), abs(rhs), 1e-30)
                rows.append(
                    {"trial": trial, "s": s, "p": p, "lhs": lhs, "rhs": rhs, "diff": diff}
                )
                worst = min(worst, diff / scale)
                if p == 2.0:
                    equality.append(abs(diff) / scale)
    fits = {"max_ratio": worst}  # most negative normalized difference
    clauses = [_clause("normalized_difference", worst, ">=", -1e-10, unresolved=not rows)]
    if equality:
        clauses.append(_clause("p2_equality_defect", max(equality), "<=", 1e-12))
    return rows, fits, clauses, []


# ---------------------------------------------------------------------------
# Heat kernel two-sided decay
# ---------------------------------------------------------------------------


def check_heat_kernel(
    *, n=128, j_lo=1, j_hi=5,
    trials=100, seed=0, kappa_set=(0.5, 0.8), p_set=(2.0, 4.0),
    t_grid=tuple(float(t) for t in np.logspace(-2, 0, 5)),
):
    """Measured block decay rates r = -log(norm ratio)/t must straddle
    2^(kappa j) with a j,t,p-uniform spread at most 2^kappa * 1.1."""
    grid = Grid(n)
    js = _resolved_bands(grid, j_lo, j_hi)
    # per_kappa[i] holds the rows of kappa_set[i]; each block serves every
    # kappa and is transformed once, and each decayed block serves every p
    per_kappa = [[] for _ in kappa_set]
    skipped = 0
    for trial in range(trials):
        j = js[trial % len(js)]
        f = _shaped_band_field(grid, j, seed + trial)
        base = _lp_norms(f, p_set)
        live = [p for p in p_set if base[p] != 0.0]
        skipped += len(kappa_set) * (len(p_set) - len(live))
        for kappa, kappa_rows in zip(kappa_set, per_kappa):
            norms = {t: _lp_norms(heat_semigroup(f, t, kappa), live) for t in t_grid}
            for p in live:
                for t in t_grid:
                    if norms[t][p] == 0.0:  # underflowed: no rate to read
                        skipped += 1
                        continue
                    rate = -math.log(norms[t][p] / base[p]) / t
                    value = rate / 2.0 ** (kappa * j)
                    kappa_rows.append(
                        {"kappa": kappa, "j": j, "p": p, "t": t, "rate_over_2kj": value}
                    )
    rows = [row for kappa_rows in per_kappa for row in kappa_rows]
    fits = {}
    clauses = []
    for kappa, kappa_rows in zip(kappa_set, per_kappa):
        scaled = [row["rate_over_2kj"] for row in kappa_rows]
        c1, c2 = (max(scaled), min(scaled)) if scaled else (math.nan, math.nan)
        fits[f"c1_kappa{kappa:g}"] = c1
        fits[f"c2_kappa{kappa:g}"] = c2
        fits[f"spread_kappa{kappa:g}"] = c1 / c2
        # an infinite c1 makes the spread infinite or NaN, which fails
        cap, unresolved = 2.0**kappa * 1.1, not scaled
        clauses.append(_clause(f"c2_kappa{kappa:g}", c2, ">", 0.0, unresolved))
        clauses.append(_clause(f"spread_kappa{kappa:g}", c1 / c2, "<=", cap, unresolved))
    fits["spread"] = max(fits[f"spread_kappa{k:g}"] for k in kappa_set)
    notes = [f"{skipped} zero-norm trials skipped"] if skipped else []
    return rows, fits, clauses, notes


# ---------------------------------------------------------------------------
# Linear Gevrey estimate
# ---------------------------------------------------------------------------


def check_lin_gevrey(
    *, n=128, j_lo=0, j_hi=4,
    trials=60, seed=0, alpha=0.3, kappa=0.8, gamma_set=(0.01, 0.1, 0.5),
    p_set=(2.0, 4.0),
):
    """||G Lambda^alpha block|| over its two-term majorant, uniformly capped
    over the (j, gamma) sweep; prefactor gamma^((kappa-alpha)/alpha)."""
    grid = Grid(n)
    js = _resolved_bands(grid, j_lo, j_hi)
    exponent = (kappa - alpha) / alpha
    rows = []
    skipped = 0
    for trial in range(trials):
        j = js[trial % len(js)]
        f = _shaped_band_field(grid, j, seed + trial)
        lam_a = fractional_laplacian(f, alpha)
        lam_k = fractional_laplacian(f, kappa)
        lam_a_norms = _lp_norms(lam_a, p_set)
        for gamma in gamma_set:
            try:
                left_f = gevrey_multiply(lam_a, gamma, alpha)
                right_f = gevrey_multiply(lam_k, gamma, alpha)
            except GevreyOverflowError:
                skipped += 1
                continue
            right = _lp_norms(right_f, p_set)
            left = _lp_norms(left_f, p_set)
            for p in p_set:
                denom = lam_a_norms[p] + gamma**exponent * right[p]
                if denom == 0.0:
                    skipped += 1
                    continue
                ratio = left[p] / denom
                rows.append({"j": j, "gamma": gamma, "p": p, "ratio": ratio})
    per_gamma = {
        f"max_ratio_gamma{g:g}": max(r["ratio"] for r in rows if r["gamma"] == g)
        for g in gamma_set
        if any(r["gamma"] == g for r in rows)
    }
    worst = max((r["ratio"] for r in rows), default=math.nan)
    fits = {"max_ratio": worst, "prefactor_exponent": exponent, **per_gamma}
    clauses = [_clause("max_ratio", worst, "<=", CONSTANT_CAP, unresolved=not rows)]
    notes = [f"{skipped} overflow/degenerate trials skipped"] if skipped else []
    return rows, fits, clauses, notes


# ---------------------------------------------------------------------------
# Concavity of the fractional triangle defect
# ---------------------------------------------------------------------------


# Radii per block of the concavity scan: a (50, 720) float64 block is 288 KB,
# so the block and its temporaries stay in cache and the full (400, 720)
# lattice is never built.
CONCAVITY_BLOCK = 50


def _defect_minima(R, cos, sin, alpha_set):
    """Per alpha, the minimum of the normalized defect |xi|^a + 1 - |xi+e1|^a
    over xi = R (cos A, sin A), for a column R of radii."""
    shifted = np.hypot(R * cos + 1.0, R * sin)
    return [(R**alpha + 1.0 - shifted**alpha).min() for alpha in alpha_set]


def check_concavity(*, seed=0, alpha_set=(0.3, 0.5, 0.9), c_set=(0.5, 1.0, 2.0)):
    """Brute-force minimum of (|xi|^a + |eta|^a - |xi+eta|^a)/|eta|^a over
    |xi|/|eta| >= c, plus the 1D reduction g(x) = |x|^a + 1 - |x+1|^a."""
    fits = {}
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    cos, sin = np.cos(angles), np.sin(angles)
    per_c = []  # per_c[k][i]: the row of (alpha_set[i], c_set[k])
    for c in c_set:
        radii = np.geomspace(c, c * 2.0**10, 400)
        # eta = e1, xi = R (cos A, sin A), scanned a block of radii at a time;
        # the minimum of the block minima is the lattice minimum exactly
        minima = np.array(
            [
                _defect_minima(radii[start : start + CONCAVITY_BLOCK, None], cos, sin, alpha_set)
                for start in range(0, len(radii), CONCAVITY_BLOCK)
            ]
        ).min(axis=0)
        x = np.concatenate([radii, -radii])
        per_c.append([])
        for alpha, eps_2d in zip(alpha_set, minima.tolist()):
            g = np.abs(x) ** alpha + 1.0 - np.abs(x + 1.0) ** alpha
            eps_1d = float(g.min())
            g_end = min(
                abs(c) ** alpha + 1.0 - abs(c + 1.0) ** alpha,
                abs(c) ** alpha + 1.0 - abs(-c + 1.0) ** alpha,
            )
            per_c[-1].append(
                {
                    "alpha": alpha,
                    "c": c,
                    "epsilon_2d": eps_2d,
                    "epsilon_1d": eps_1d,
                    "g_endpoint_min": g_end,
                }
            )
    rows = [row for alpha_rows in zip(*per_c) for row in alpha_rows]

    # frozen closed-form anchor: g(1) at alpha = 1/2 equals 2 - sqrt(2)
    g1 = 1.0**0.5 + 1.0 - 2.0**0.5
    fits["g1_at_half"] = g1

    # rotation invariance spot checks
    worst_rot = 0.0
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        xi = rng.uniform(-3, 3, 2)
        eta = rng.uniform(-3, 3, 2)

        def defect(a, b, alpha=0.5):
            return (
                np.linalg.norm(a) ** alpha
                + np.linalg.norm(b) ** alpha
                - np.linalg.norm(a + b) ** alpha
            )

        worst_rot = max(worst_rot, abs(defect(rot @ xi, rot @ eta) - defect(xi, eta)))
    fits["rotation_defect"] = worst_rot

    fits["epsilon_min"] = min(r["epsilon_2d"] for r in rows)
    clauses = [
        _clause("epsilon_2d_min", fits["epsilon_min"], ">", 0.0),
        _clause("epsilon_1d_min", min(r["epsilon_1d"] for r in rows), ">", 0.0),
        _clause("g1_anchor_error", abs(g1 - (2.0 - math.sqrt(2.0))), "<=", 1e-12),
        _clause("rotation_defect", worst_rot, "<=", 1e-12),
    ]
    return rows, fits, clauses, []


# ---------------------------------------------------------------------------
# R_{alpha,sigma} weighted derivative bounds
# ---------------------------------------------------------------------------


def check_r_derivatives(
    *, alpha_set=(0.3, 0.5, 0.9), sigma_set=(0.0, 0.5, 1.0), gap_set=(3, 4, 5, 6, 7),
    max_order=2,
):
    """Weighted maxima |d^b1_xi d^b2_eta R_{alpha,sigma}| |xi|^|b1| |eta|^|b2|
    / 2^(l alpha) uniform over the frequency-separated probe family; the
    bound is stated for 0 < alpha < 1."""
    families = [(l, l + gap) for l in (0, 1) for gap in gap_set]
    angles = (np.arange(6) + 0.29) * 2.0 * math.pi / 6

    def circle(e):
        radii = (2.0 ** (e - 0.5), 2.0**e, 2.0 ** (e + 0.5))
        return np.array([[r * math.cos(a), r * math.sin(a)] for r in radii for a in angles])

    # the probe pairs of every (l, k) family in one array, family-major; a
    # circle holds 3 radii x 6 angles = 18 points
    xi = np.concatenate([np.repeat(circle(k), 18, axis=0) for _, k in families])
    eta = np.concatenate([np.tile(circle(l), (18, 1)) for l, _ in families])
    xm = np.linalg.norm(xi, axis=-1)
    em = np.linalg.norm(eta, axis=-1)
    indices = _multi_indices(max_order)
    scales = [np.repeat([2.0 ** (l * alpha) for l, _ in families], 18 * 18) for alpha in alpha_set]
    # maxima[a][s][i]: the per-family maxima of multi-index i at
    # (alpha_set[a], sigma_set[s]).  One stencil at a time serves every
    # (alpha, sigma): R_{alpha,sigma} = |xi + sigma eta|^a - |xi|^a - |eta|^a,
    # in the operation order of bilinear._r_alpha_sigma, with each radius
    # taken once per stencil and each power once per alpha.
    maxima = [[[] for _ in sigma_set] for _ in alpha_set]
    for b1, b2 in indices:
        xi_pts, eta_pts, tree = _fd_stencil(xi, eta, b1, b2, 1e-3)
        xi_r, eta_r = _norm(xi_pts), _norm(eta_pts)
        sum_r = [_norm(xi_pts + sigma * eta_pts) for sigma in sigma_set]
        weight_xi, weight_eta = xm ** sum(b1), em ** sum(b2)
        for per_alpha, alpha, scale in zip(maxima, alpha_set, scales):
            xi_pow, eta_pow = xi_r**alpha, eta_r**alpha
            for per_sigma, r in zip(per_alpha, sum_r):
                deriv = _fd_combine(r**alpha - xi_pow - eta_pow, tree)
                weighted = np.abs(deriv) * weight_xi * weight_eta / scale
                per_sigma.append(weighted.reshape(len(families), -1).max(axis=1))
    rows = []
    worst = 0.0
    for alpha, per_alpha in zip(alpha_set, maxima):
        for sigma, per_sigma in zip(sigma_set, per_alpha):
            for f, (l, k) in enumerate(families):
                for (b1, b2), family_max in zip(indices, per_sigma):
                    value = float(family_max[f])
                    rows.append(
                        {
                            "alpha": alpha,
                            "sigma": sigma,
                            "l": l,
                            "k": k,
                            "b1": list(b1),
                            "b2": list(b2),
                            "weighted_max": value,
                        }
                    )
                    worst = max(worst, value)
    fits = {"max_ratio": worst}
    return rows, fits, [_clause("max_ratio", worst, "<=", CONSTANT_CAP)], []


# ---------------------------------------------------------------------------
# Commutator decay in j
# ---------------------------------------------------------------------------


def _prescribed_profile_field(grid, exponent, p, seed, extra_damping=0.0, alpha=0.6):
    """Random-phase field whose octave bands carry L^p norm 2^(-exponent*j).

    Bands are disjoint half-open octaves (2^(j-1/2), 2^(j+1/2)], each pinned
    to its norm exactly, so block norms track 2^(-exponent*j) uniformly in j
    regardless of lattice ring granularity.  Optional Gevrey damping
    multiplies in exp(-damping |k|^alpha).

    The field is built on the k2 >= 0 half plane, which is all a band's
    real inverse transform reads; the k2 < 0 columns are rebuilt from
    Hermitian symmetry at the end.  At p = 2 a band's norm comes from
    Parseval instead of a transform: its coefficients have unit modulus,
    so the norm is 2 pi times the square root of its mode count over the
    full plane, where an interior column of the half plane (0 < k2 < n/2)
    stands for itself and its mirror image.
    """
    n, h = grid.n, grid.n // 2 + 1
    phase = random_field(grid, seed, True, law="phase").coeffs[:, :h]
    kmag = grid.half_k_mag(h)
    mirrored = np.full(h, 2.0)
    mirrored[[0, -1]] = 1.0
    j_top = int(math.floor(math.log2(grid.k_nyquist)))
    half = np.zeros((n, h), dtype=complex)
    for j in range(0, j_top + 1):
        # never empty: 2^j <= n/2 puts the mode (2^j, 0) in the band
        mask = (kmag > 2.0 ** (j - 0.5)) & (kmag <= min(2.0 ** (j + 0.5), grid.k_nyquist))
        piece = phase * mask
        if p == 2.0:
            norm = TWO_PI * math.sqrt(float(np.sum(mask * mirrored)))
        else:
            values = np.fft.irfft2(piece, s=(n, n), norm="forward")
            norm = _lp_quadrature(values, p, grid.cell_area)
        half += piece * (2.0 ** (-exponent * j) / norm)
    if extra_damping > 0:
        half = half * np.exp(-extra_damping * kmag**alpha)
    return _full_spectrum(half, grid)


def check_commutator_decay(
    *, n=128, j_lo=1, j_hi=5,
    trials=50, seed=0, st_sets=((1.2, 0.3, 2.0), (1.3, 0.5, 4.0)),
    commutator_gamma=0.05, commutator_alpha=0.6, delta=0.1, field_damping=0.25,
):
    """log2 || [G_gamma Delta_j, f] g ||_p regressed against j: the slope must
    not exceed -(s+t-2/p) (+ (alpha-delta) in Gevrey mode) plus slack.
    st_sets holds the exponent triples (s, t, p); field_damping is the
    gamma' of the G_{-gamma'} test-field smoothing."""
    grid = Grid(n)
    js = _resolved_bands(grid, j_lo, j_hi)
    gamma, alpha = commutator_gamma, commutator_alpha
    rows = []
    fits = {}
    clauses = []
    notes = []
    modes = (("classical", 0.0), ("gevrey", gamma))
    bands = [(j, gma) for _, gma in modes for j in js]
    for s, t, p in st_sets:
        if t == 2.0 / p:  # hypothesis (ii) at its boundary, which the estimate tolerates
            notes.append(f"hypothesis (ii) boundary case t = 2/p = {t:g} tolerated")
        decay_target = s + t - 2.0 / p
        # both modes see the same test fields, so one call per trial covers
        # every (mode, j) band; norms[trial] is laid out like bands
        norms = []
        for trial in range(trials):
            f = _prescribed_profile_field(grid, s, p, seed + 17 * trial, field_damping, alpha)
            g = _prescribed_profile_field(grid, t, p, seed + 17 * trial + 5, field_damping, alpha)
            norms.append(
                [lp_norm(c, p) for c in gevrey_commutators(f, g, bands, alpha)]
            )
        for m, (mode, _) in enumerate(modes):
            logs = {j: [] for j in js}
            for trial, trial_norms in enumerate(norms):
                for j, norm in zip(js, trial_norms[m * len(js) : (m + 1) * len(js)]):
                    if norm == 0.0:
                        # degenerate trial (a constant operand, say): nothing
                        # to regress against
                        continue
                    logs[j].append(math.log2(norm))
                    rows.append(
                        {"mode": mode, "s": s, "t": t, "p": p, "j": j,
                         "trial": trial, "log2_norm": logs[j][-1]}
                    )
            cap = -decay_target + SLOPE_SLACK
            if mode == "gevrey":
                cap += alpha - delta
            tag = f"{mode}_s{s:g}_t{t:g}_p{p:g}"
            slope, r2 = math.nan, -math.inf  # a skipped fit is unresolved
            if any(not logs[j] for j in js):
                notes.append(f"{mode} s={s:g} t={t:g} p={p:g}: all-zero norms, fit skipped")
            else:
                means = [float(np.mean(logs[j])) for j in js]
                slope, _, r2 = fit_line(js, means)
                fits[f"slope_{tag}"] = slope
                fits[f"cap_{tag}"] = cap
                fits[f"r2_{tag}"] = r2
                if r2 < MIN_R_SQUARED:
                    notes.append(f"{tag}: regression R^2 = {r2:.3f} < {MIN_R_SQUARED}")
            clauses.append(
                _clause(f"slope_{tag}", slope, "<=", cap, unresolved=r2 < MIN_R_SQUARED)
            )

        # continuity of the Gevrey weight at gamma -> 0
        f = _prescribed_profile_field(grid, s, p, seed + 1)
        g = _prescribed_profile_field(grid, t, p, seed + 6)
        j_mid = js[len(js) // 2]
        n0, n_eps = (
            lp_norm(c, p)
            for c in gevrey_commutators(f, g, [(j_mid, 0.0), (j_mid, 1e-4)], alpha)
        )
        drift = abs(n_eps - n0) / n0
        fits[f"gamma_continuity_s{s:g}_t{t:g}_p{p:g}"] = drift
        clauses.append(_clause(f"gamma_continuity_s{s:g}_t{t:g}_p{p:g}", drift, "<=", 0.01))

    slope_keys = [k for k in fits if k.startswith("slope_")]
    if slope_keys:
        fits["worst_slope"] = max(fits[k] - fits["cap_" + k[len("slope_"):]] for k in slope_keys)
        fits["r_squared"] = min(v for k, v in fits.items() if k.startswith("r2_"))
    return rows, fits, clauses, notes


# ---------------------------------------------------------------------------
# Well-posedness / Picard scheme
# ---------------------------------------------------------------------------


# A Picard gap counts as resolved when it exceeds this multiple of the
# largest level norm: below it the difference of two levels is round-off.
ROUNDOFF_GAP = 1e3 * np.finfo(float).eps


def _contraction_ratios(gaps, floor):
    """The leading gaps above the round-off floor and the ratios of
    successive ones; a gap at or under the floor ends the run, since every
    later level differs from its predecessor by round-off alone."""
    resolved = list(itertools.takewhile(lambda gap: gap > floor, gaps))
    return resolved, [b / a for a, b in zip(resolved, resolved[1:])]


def check_wellposedness(
    *, n=128, seed=0,
    alpha=0.4, kappa=0.8, lam=0.5, beta=0.3, amplitudes=(0.01, 0.1, 1.0),
    p=2.0, q=2.0, dt=0.01, t_end=1.0, record_every=10, picard_depth=6,
):
    """Small-data bounds for the approximation scheme: uniform X_T control,
    vanishing heat-flow X_T as T -> 0, contraction of successive iterates,
    amplitude-linearity, and the Gevrey-radius growth exponent."""
    grid = Grid(n)
    gp = GevreyParams(alpha=alpha, kappa=kappa, lam=lam, beta=beta)
    rows = []
    fits = {}
    notes = [
        "second uniform-bound clause tested with the t^(beta/kappa) weight "
        "(the unweighted print drops it)"
    ]

    def run_cfg(amplitude, depth=0):
        return SolverConfig(
            grid=grid, kappa=kappa, dt=dt, t_end=t_end, picard_depth=depth,
            initial_data=InitialData("random-band", amplitude, seed=seed),
            record_every=record_every, p=p, q=q, alpha=gp.alpha,
        )

    base = run_cfg(amplitudes[1], picard_depth)
    bp_lift = BesovParams(base.sigma + beta, p, q)

    # (a) + contraction: Picard iterates at the middle amplitude.  Each
    # diagnostics row holds the critical Besov norm of its snapshot.
    picard, xt = PicardGaps(base), XTSink(picard_depth + 1, gp, bp_lift)

    def picard_sink(*record):
        picard(*record)
        xt(*record)

    levels = picard_solve(base, picard_sink)
    xt.raise_overflow()
    theta0_norm = levels[0].diagnostics[0]["besov"]
    xt_ratios = [xt.sup(lvl) / theta0_norm for lvl in range(len(levels))]
    rows.extend({"kind": "xt_ratio", "level": lvl, "value": r} for lvl, r in enumerate(xt_ratios))
    fits["max_xt_ratio"] = max(xt_ratios)
    clauses = [_clause("max_xt_ratio", max(xt_ratios), "<=", CONSTANT_CAP)]

    gaps = picard.gaps
    level_scale = max(row["besov"] for traj in levels for row in traj.diagnostics if row["t"] > 0)
    resolved, ratios = _contraction_ratios(gaps, ROUNDOFF_GAP * level_scale)
    fits["resolved_gaps"] = len(resolved)
    for i, r in enumerate(ratios):
        rows.append({"kind": "contraction", "step": i, "value": r})
    worst_ratio = max(ratios, default=math.nan)
    if ratios:
        fits["max_contraction_ratio"] = worst_ratio
    else:
        notes.append(
            f"{len(resolved)} of {len(gaps)} Picard gaps above the round-off floor: "
            "no contraction ratio resolved"
        )
    clauses.append(_clause("max_contraction_ratio", worst_ratio, "<", 1.0, unresolved=not ratios))

    # (b) heat-flow X_T -> 0 on a shrinking horizon; the semigroup is exact,
    # so the trajectory is sampled on a geometric grid reaching down to
    # horizons far below the solver step; each horizon's X_T norm is the max
    # of the samples at t <= T, and theta0 is the march's t = 0 record
    theta0 = initial_field(base)
    heat_ts = [t_end * 2.0**-i for i in range(12)]
    weighted = [xt_norm(t, heat_semigroup(theta0, t, kappa), gp, bp_lift).weighted for t in heat_ts]
    sups = list(itertools.accumulate(reversed(weighted), max))[::-1]
    for T, sup in zip(heat_ts, sups):
        rows.append({"kind": "heat_xt", "T": T, "value": sup})
    fits["heat_xt_first"] = sups[0]
    fits["heat_xt_last"] = sups[-1]
    # sups are suffix maxima, nonincreasing by construction: the clause is their decay
    clauses.append(_clause("heat_xt_last", sups[-1], "<", sups[0]))

    # (c) amplitude sweep: linear-regime ratio stability
    sweep_ratios = []
    smallest = min(amplitudes)
    small = None
    for amplitude in amplitudes:
        xt = XTSink(1, gp, bp_lift)
        try:
            traj = solve(run_cfg(amplitude), xt)
        except BlowUpError as exc:
            rows.append({"kind": "sweep", "amplitude": amplitude, "value": None})
            notes.append(f"blow-up at amplitude {amplitude:g}, t={exc.time:g}")
            continue
        xt.raise_overflow()
        if amplitude == smallest:
            small = traj
        sup = xt.sup()
        init = traj.diagnostics[0]["besov"]
        sweep_ratios.append(sup / init)
        rows.append({"kind": "sweep", "amplitude": amplitude, "value": sup / init})
    change = math.nan  # the change of the first two ratios; NaN with fewer
    if len(sweep_ratios) >= 2:
        fits["sweep_ratio_small"], fits["sweep_ratio_next"] = sweep_ratios[:2]
        change = sweep_ratios[1] / sweep_ratios[0]
    clauses.append(_clause("sweep_ratio_change_floor", change, ">=", 0.5))
    clauses.append(_clause("sweep_ratio_change_cap", change, "<=", 2.0))

    # Gevrey radius growth on the sweep's smallest-amplitude run; its blow-up
    # is a failure of the small-data estimate itself
    target = 0.8 * gp.alpha / kappa
    if small is None:
        notes.append("radius clause skipped: the smallest-amplitude run blew up")
        return rows, fits, [*clauses, _clause("radius_slope", math.nan, ">=", target)], notes
    radii = [(row["t"], row["radius"]) for row in small.diagnostics if row["t"] > 0]
    first_decade = [(t, r) for t, r in radii if t <= radii[0][0] * 10.0 + 1e-12]
    usable = [(t, r) for t, r in first_decade if r > 0]
    for t, r in first_decade:
        rows.append({"kind": "radius", "t": t, "value": r})
    # the largest relative fall between successive radii (radii are >= 0)
    drop = max(((a - b) / a for (_, a), (_, b) in zip(radii, radii[1:]) if a > 0), default=0.0)
    fits["radius_nondecreasing"] = bool(drop <= 1e-9)
    slope, r2 = math.nan, math.nan
    if len(usable) >= 3:
        slope, _, r2 = fit_line(
            [math.log(t) for t, _ in usable], [math.log(r) for _, r in usable]
        )
        fits["radius_loglog_slope"] = slope
        fits["r_squared"] = r2
        fits["radius_slope_target"] = target
        if r2 < MIN_R_SQUARED:
            notes.append(f"radius regression R^2 = {r2:.3f} < {MIN_R_SQUARED}")
    else:
        notes.append("radius estimate had too little signal for a slope fit")
    clauses.append(_clause("radius_slope", slope, ">=", target, unresolved=r2 < MIN_R_SQUARED))
    clauses.append(_clause("radius_relative_drop", drop, "<=", 1e-9))
    return rows, fits, clauses, notes


# ---------------------------------------------------------------------------
# registry / driver
# ---------------------------------------------------------------------------

ALL_CHECKS = {
    "bernstein": check_bernstein,
    "positivity": check_positivity,
    "heat-kernel": check_heat_kernel,
    "lin-gevrey": check_lin_gevrey,
    "concavity": check_concavity,
    "r-derivatives": check_r_derivatives,
    "commutator-decay": check_commutator_decay,
    "wellposedness": check_wellposedness,
}


def _every(holds):
    """The predicate of a tuple key: holds for each of its entries."""
    return lambda values: all(map(holds, values))


# The hypotheses of each estimate, rows (keys, predicate of their values, statement);
# run_check tests those of "*" whose keys a check takes, then the check's own, in order.
HYPOTHESES = {
    "*": [(("trials",), lambda trials: trials >= 1, "trials >= 1"),
          (("seed",), lambda seed: seed >= 0, "seed >= 0")],
    "bernstein": [
        (("p_set",), _every(lambda p: 1 <= p < math.inf), "1 <= p < inf for every p"),
        (("s_set",), _every(math.isfinite), "every s finite"),
    ],
    "positivity": [
        (("p_set",), _every(lambda p: 2 <= p < math.inf), "2 <= p < inf for every p"),
        (("s_set",), _every(lambda s: 0 <= s <= 2), "0 <= s <= 2 for every s"),
    ],
    "heat-kernel": [
        (("kappa_set",), _every(lambda k: 0 < k < math.inf), "every kappa finite and > 0"),
        (("t_grid",), _every(lambda t: 0 < t < math.inf), "every t finite and > 0"),
        (("p_set",), _every(lambda p: p >= 1), "every p >= 1"),
    ],
    "lin-gevrey": [
        (("alpha", "kappa"), lambda a, k: 0 < a < k < math.inf, "0 < alpha < kappa < inf"),
        (("gamma_set",), _every(lambda g: 0 <= g < math.inf), "every gamma finite and >= 0"),
        (("p_set",), _every(lambda p: p >= 1), "every p >= 1"),
    ],
    "concavity": [
        (("alpha_set",), _every(lambda a: 0 < a < 1), "alpha in (0, 1) for every alpha"),
        (("c_set",), _every(lambda c: 0 < c < math.inf), "finite c > 0 for every c"),
    ],
    "r-derivatives": [
        (("alpha_set",), _every(lambda a: 0 < a < 1), "0 < alpha < 1 for every alpha"),
        (("sigma_set",), _every(lambda s: 0 <= s <= 1), "0 <= sigma <= 1 for every sigma"),
        # each order costs about 3.5 times the one below (0.72 s at 5, past the cap)
        (("max_order",), lambda order: 1 <= order <= 4, "1 <= max_order <= 4"),
        # |xi| >= 2|eta| on every probe pair; at gap 1 the shells touch at 2^(l + 1/2)
        (("gap_set",), _every(lambda gap: gap >= 2), "separated shells, gap >= 2 for every gap"),
    ],
    "commutator-decay": [
        (("j_lo", "j_hi"), lambda j_lo, j_hi: j_lo < j_hi, "at least two bands, j_lo < j_hi"),
        (("field_damping", "commutator_gamma"), lambda d, g: -math.inf < g < d < math.inf,
         "damping gamma' > gamma, both finite"),
        (("commutator_alpha",), lambda a: 0 < a <= 1, "a Gevrey exponent 0 < alpha <= 1"),
        (("delta",), lambda delta: 0 < delta < 1, "0 < delta < 1"),
        (("st_sets",), _every(lambda stp: stp[2] >= 1), "p >= 1 in every (s, t, p)"),
        (("st_sets", "delta"), lambda st, d: all(2 / p < s < 1 + 2 / p - d for s, _, p in st),
         "(i) 2/p < s < 1 + 2/p - delta in every (s, t, p)"),
        (("st_sets",), _every(lambda stp: stp[1] <= 2 / stp[2]),
         "(ii) t < 2/p, or the boundary t = 2/p, in every (s, t, p)"),
        (("st_sets",), _every(lambda stp: stp[0] + stp[1] > 2 / stp[2]),
         "(iii) s + t > 2/p in every (s, t, p)"),
    ],
    "wellposedness": [
        (("amplitudes",), _every(lambda a: 0 < a < math.inf), "finite amplitudes > 0"),
        (("amplitudes",), lambda a: len(a) >= 2, "at least two amplitudes"),
    ],
}


def check_defaults(check_id: str) -> dict:
    """The parameters a check takes, with their defaults."""
    if check_id not in ALL_CHECKS:
        raise ConfigError(f"unknown check {check_id!r}; known: {sorted(ALL_CHECKS)}")
    params = inspect.signature(ALL_CHECKS[check_id]).parameters
    return {name: param.default for name, param in params.items()}


def run_check(check_id: str, **overrides) -> InequalityReport:
    """Run one check with its defaults overlaid by overrides; the report's
    config holds every parameter the check took."""
    config = check_defaults(check_id)
    unknown = sorted(set(overrides) - set(config))
    if unknown:
        raise ConfigError(
            f"check {check_id!r} takes no {', '.join(unknown)}; it takes {', '.join(config)}"
        )
    config.update(overrides)
    for keys, holds, statement in HYPOTHESES["*"] + HYPOTHESES.get(check_id, []):
        if set(keys) <= set(config) and not holds(*(config[key] for key in keys)):
            got = ", ".join(f"{key}={config[key]}" for key in keys)
            raise ConfigError(f"{check_id} hypothesis violated: need {statement}, got {got}")
    trials, fits, clauses, notes = ALL_CHECKS[check_id](**config)
    environment = {
        "numpy": np.__version__, "python": platform.python_version(), "machine": platform.machine()
    }
    return InequalityReport(check_id, config, trials, fits, clauses, notes, environment)
