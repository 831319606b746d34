"""Command-line harness: simulate, picard, analyze, verify, symbols.

Configuration is flat key=value text.  Precedence: defaults, then the
--config file, then SQGEV_<KEY> environment variables, then --set overrides.
The run keys come from the fields of the solver config dataclasses, the
verify keys from the keyword defaults of the checks.  Exit codes: 0
success, 2 usage/config error, 3 numerical blow-up, 4 check failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import os
import sys
from pathlib import Path

from . import checks as checks_mod
from .bilinear import SYMBOL_REGISTRY
from .checks import ALL_CHECKS, check_defaults, run_check
from .dyadic import BesovParams, build_system
from .gevrey import GevreyParams, fit_radius, spectral_decay_fit, xt_norm
from .solver import (
    BlowUpError,
    SolverConfig,
    Trajectory,
    config_echo,
    config_from_flat,
    flat_config,
    picard_gaps,
    picard_solve,
    solve,
    write_diagnostics,
)
from .spectral import ConfigError, SpectralField, forward_transform, load_field, save_field

ENV_PREFIX = "SQGEV_"

# The run keys with their defaults and types, all taken from the config
# dataclasses: SolverConfig, then the X_T trace parameters of GevreyParams.
RUN_DEFAULTS = flat_config(SolverConfig())
RUN_DEFAULTS.update(flat_config(config_from_flat(GevreyParams, RUN_DEFAULTS)))
RUN_KEYS = {key: type(value) for key, value in RUN_DEFAULTS.items()}
# The run keys that `analyze` reads; the grid comes from the snapshot.
ANALYZE_KEYS = {key: RUN_KEYS[key] for key in ("sharpness", "p", "q", "kappa", "alpha")}


class UsageError(ValueError):
    """Bad command line, config file, or override."""


def float_tuple(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


def int_tuple(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(","))


def _coerce(key: str, raw: str, keys: dict):
    if key not in keys:
        raise UsageError(f"unknown key {key!r}; valid keys: {', '.join(sorted(keys))}")
    target = keys[key]
    try:
        return target(raw)
    except ValueError as exc:
        raise UsageError(f"key {key!r} expects {target.__name__}, got {raw!r}") from exc


def parse_config(path: str | None, overrides: list[str], keys: dict, defaults: dict) -> dict:
    """Merge defaults <- config file <- SQGEV_* environment <- --set overrides."""
    merged = dict(defaults)
    if path:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, _, raw = stripped.partition("=")
                merged[key.strip()] = _coerce(key.strip(), raw.strip(), keys)
    for key in keys:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            merged[key] = _coerce(key, env, keys)
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"override must be key=value, got {item!r}")
        key, _, raw = item.partition("=")
        merged[key.strip()] = _coerce(key.strip(), raw.strip(), keys)
    return merged


def _field_echo(cfg: SolverConfig) -> dict:
    return {f"config_{k}": v for k, v in config_echo(cfg).items()}


def _save_blowup(out: Path, exc: BlowUpError, suffix: str = "") -> None:
    """Last valid snapshot and diagnostics of the level that blew up."""
    traj = exc.trajectory
    if traj.snapshots:
        save_field(
            out / f"last_snapshot{suffix}.field",
            traj.snapshots[-1],
            time=traj.times[-1],
            extra=_field_echo(traj.config),
        )
        write_diagnostics(traj, out / f"diagnostics{suffix}.csv")


def _write_xt_trace(path, traj: Trajectory, gp: GevreyParams) -> None:
    cfg = traj.config
    bp = BesovParams(cfg.sigma + gp.beta, cfg.p, cfg.q)
    _, samples = xt_norm(traj.samples(), gp, bp, build_system(cfg.grid, cfg.sharpness))
    radii = {row["t"]: row["radius"] for row in traj.diagnostics}
    with open(path, "w", newline="") as fh:
        for key, val in {**config_echo(cfg), "lam": gp.lam, "beta": gp.beta}.items():
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "gamma_t", "besov_norm", "weighted_norm", "radius_estimate"])
        for s in samples:
            writer.writerow(
                [repr(s.t), repr(s.gamma), repr(s.besov), repr(s.weighted), repr(radii.get(s.t, 0.0))]
            )


def _cmd_simulate(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    cfg = config_from_flat(SolverConfig, params)
    gp = config_from_flat(GevreyParams, params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        traj = solve(cfg)
    except BlowUpError as exc:
        _save_blowup(out, exc)
        print(f"blow-up at t={exc.time:g}; last snapshot saved", file=sys.stderr)
        return 3
    write_diagnostics(traj, out / "diagnostics.csv")
    _write_xt_trace(out / "xt_trace.csv", traj, gp)
    echo = _field_echo(cfg)
    for t, snap in zip(traj.times, traj.snapshots):
        save_field(out / f"snapshot_t{t:.6f}.field", snap, time=t, extra=echo)
    print(f"run complete: t_end={traj.times[-1]:g}, {len(traj.snapshots)} snapshots -> {out}")
    return 0


def _cmd_picard(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    cfg = config_from_flat(SolverConfig, params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        levels = picard_solve(cfg)
    except BlowUpError as exc:
        level = exc.trajectory.meta["level"]
        _save_blowup(out, exc, f"_level{level}")
        print(
            f"blow-up at t={exc.time:g} during Picard iteration (level {level}); "
            "last snapshot saved",
            file=sys.stderr,
        )
        return 3
    gaps = picard_gaps(levels, build_system(cfg.grid, cfg.sharpness))
    with open(out / "convergence.csv", "w", newline="") as fh:
        for key, val in config_echo(cfg).items():
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(["level", "sup_besov_gap_to_next"])
        for lvl, gap in enumerate(gaps):
            writer.writerow([lvl, repr(gap)])
    echo = _field_echo(cfg)
    for lvl, traj in enumerate(levels):
        write_diagnostics(traj, out / f"diagnostics_level{lvl}.csv")
        save_field(
            out / f"final_level{lvl}.field", traj.snapshots[-1], time=traj.times[-1], extra=echo
        )
    print(f"picard complete: {len(levels)} levels -> {out}")
    return 0


def _cmd_analyze(args) -> int:
    params = parse_config(
        args.config, args.set, ANALYZE_KEYS, {key: RUN_DEFAULTS[key] for key in ANALYZE_KEYS}
    )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    field, header = load_field(args.snapshot)
    if not isinstance(field, SpectralField):
        field = forward_transform(field)
    grid = field.grid
    system = build_system(grid, params["sharpness"])
    bp = BesovParams(1.0 + 2.0 / params["p"] - params["kappa"], params["p"], params["q"])
    rows, discarded = system.besov_report(field, bp)
    fit = spectral_decay_fit(field, params["alpha"])
    _, _, r2, n_rings, _ = fit
    radius = fit_radius(fit)
    report_path = out / "analysis.csv"
    with open(report_path, "w", newline="") as fh:
        fh.write(f"# snapshot={args.snapshot}\n")
        for key, val in sorted(header.items()):
            fh.write(f"# snapshot_{key}={val}\n")
        for key in sorted(ANALYZE_KEYS):
            fh.write(f"# {key}={params[key]}\n")
        fh.write(f"# besov_s={bp.s}\n")
        fh.write(f"# discarded_energy_fraction={discarded!r}\n")
        fh.write(f"# radius_estimate={radius!r}\n")
        fh.write(f"# radius_fit_r2={r2!r}\n")
        fh.write(f"# radius_fit_rings={n_rings}\n")
        writer = csv.writer(fh)
        writer.writerow(["j", "weighted_block_norm", "cumulative_q_sum"])
        for row in rows:
            writer.writerow([row["j"], repr(row["weighted_block_norm"]), repr(row["cumulative"])])
    print(
        f"analysis -> {report_path} (besov={rows[-1]['cumulative']:.6g}, "
        f"radius={radius:.6g})"
    )
    return 0


def _key_type(default):
    """Parser of a verify key, from its default; None for nested tuples,
    which stay code-side."""
    if not isinstance(default, tuple):
        return type(default)
    return {int: int_tuple, float: float_tuple}.get(type(default[0]))


def _cmd_verify(args) -> int:
    ids = args.check or sorted(ALL_CHECKS)
    for cid in ids:
        if cid not in ALL_CHECKS:
            raise UsageError(f"unknown check {cid!r}; known: {', '.join(sorted(ALL_CHECKS))}")
    takes = {cid: check_defaults(cid) for cid in ALL_CHECKS}
    keys = {
        key: _key_type(default)
        for params in takes.values()
        for key, default in params.items()
        if _key_type(default)
    }
    overrides = parse_config(args.config, args.set, keys, {})
    untaken = {item.partition("=")[0].strip() for item in args.set}
    untaken -= {key for cid in ids for key in takes[cid]}
    if untaken:
        raise UsageError(
            f"no selected check takes {', '.join(sorted(untaken))}; checks: {', '.join(ids)}"
        )
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    failed = False
    for cid in ids:
        report = run_check(cid, **{k: v for k, v in overrides.items() if k in takes[cid]})
        report.write(out / f"{cid}.json")
        summary.append(
            (cid, report.verdict, report.key_constant(), report.residual())
        )
        if report.verdict != checks_mod.PASS:
            failed = True
        print(f"{cid:20s} {report.verdict:12s} key={report.key_constant():.6g}")
    with open(out / "summary.csv", "w", newline="") as fh:
        fh.write(f"# checks={','.join(ids)}\n")
        for key in sorted(overrides):
            fh.write(f"# {key}={overrides[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["check_id", "verdict", "key_constant", "residual"])
        for row in summary:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])
    return 4 if failed else 0


def _cmd_symbols(_args) -> int:
    for name in sorted(SYMBOL_REGISTRY):
        factory = SYMBOL_REGISTRY[name]
        sig = inspect.signature(factory)
        params = ", ".join(
            f"{p.name}={p.default!r}" for p in sig.parameters.values()
        )
        print(f"{name}({params})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgev",
        description="Pseudo-spectral SQG toolkit and inequality verification harness",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--output-dir", "-o", default="out", help="artifact directory")

    p_sim = sub.add_parser("simulate", help="integrate SQG and write run artifacts")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_pic = sub.add_parser("picard", help="run the approximation sequence")
    common(p_pic)
    p_pic.set_defaults(func=_cmd_picard)

    p_ana = sub.add_parser("analyze", help="Besov/Gevrey report for a snapshot")
    common(p_ana)
    p_ana.add_argument("snapshot", help="field snapshot file")
    p_ana.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify", help="run inequality checks")
    common(p_ver)
    p_ver.add_argument("--check", action="append", metavar="CHECK_ID",
                       help=f"check to run (repeatable; default all): {', '.join(sorted(ALL_CHECKS))}")
    p_ver.set_defaults(func=_cmd_verify)

    p_sym = sub.add_parser("symbols", help="list registered bilinear symbols")
    p_sym.set_defaults(func=_cmd_symbols)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
