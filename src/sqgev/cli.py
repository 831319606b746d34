"""Command-line harness: simulate, picard, analyze, verify, symbols.

Configuration is flat key=value text; command-line --set overrides win over
the file, and environment variables prefixed SQGEV_ win over both.  Exit
codes: 0 success, 2 usage/config error, 3 numerical blow-up, 4 check failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import os
import sys
from pathlib import Path

from . import checks as checks_mod
from .bilinear import SYMBOL_REGISTRY
from .checks import ALL_CHECKS, CheckConfig, run_check
from .dyadic import DEFAULT_SHARPNESS, BesovParams, default_system
from .gevrey import GevreyParams, spectral_decay_fit, xt_norm
from .solver import (
    BlowUpError,
    InitialData,
    SolverConfig,
    Trajectory,
    config_echo,
    picard_solve,
    solve,
    write_diagnostics,
)
from .spectral import ConfigError, Grid, SpectralField, forward_transform, load_field, save_field

ENV_PREFIX = "SQGEV_"

RUN_KEYS = {
    "n": int,
    "box_length": float,
    "kappa": float,
    "dt": float,
    "t_end": float,
    "dealias": str,
    "picard_depth": int,
    "record_every": int,
    "initial_data": str,
    "amplitude": float,
    "init_seed": int,
    "ring_j": int,
    "p": float,
    "q": float,
    "alpha": float,
    "beta": float,
    "lam": float,
    "sharpness": float,
}

RUN_DEFAULTS = {
    "n": 128,
    "box_length": 2.0 * math.pi,
    "kappa": 0.8,
    "dt": 0.01,
    "t_end": 1.0,
    "dealias": "two-thirds",
    "picard_depth": 4,
    "record_every": 10,
    "initial_data": "random-band",
    "amplitude": 0.1,
    "init_seed": 0,
    "ring_j": 2,
    "p": 2.0,
    "q": 2.0,
    "alpha": 0.4,
    "beta": 0.3,
    "lam": 0.5,
    "sharpness": DEFAULT_SHARPNESS,
}


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
        if target is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
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


def _solver_config(params: dict) -> tuple[SolverConfig, GevreyParams]:
    grid = Grid(params["n"], params["box_length"])
    initial = InitialData(
        profile=params["initial_data"],
        amplitude=params["amplitude"],
        seed=params["init_seed"],
        ring_j=params["ring_j"],
    )
    cfg = SolverConfig(
        grid=grid,
        kappa=params["kappa"],
        dt=params["dt"],
        t_end=params["t_end"],
        dealias=params["dealias"],
        picard_depth=params["picard_depth"],
        initial_data=initial,
        record_every=params["record_every"],
        p=params["p"],
        q=params["q"],
        alpha=params["alpha"],
        sharpness=params["sharpness"],
    )
    gp = GevreyParams(
        alpha=params["alpha"], kappa=params["kappa"], lam=params["lam"], beta=params["beta"]
    )
    return cfg, gp


def _write_xt_trace(path, traj: Trajectory, gp: GevreyParams, system) -> None:
    bp = BesovParams(traj.config.sigma + gp.beta, traj.config.p, traj.config.q)
    _, samples = xt_norm(traj.samples(), gp, bp, system)
    radii = {row["t"]: row["radius"] for row in traj.diagnostics}
    with open(path, "w", newline="") as fh:
        for key, val in config_echo(traj.config).items():
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "gamma_t", "besov_norm", "weighted_norm", "radius_estimate"])
        for s in samples:
            writer.writerow(
                [repr(s.t), repr(s.gamma), repr(s.besov), repr(s.weighted), repr(radii.get(s.t, 0.0))]
            )


def _cmd_simulate(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    cfg, gp = _solver_config(params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = {f"config_{k}": v for k, v in config_echo(cfg).items()}
    try:
        traj = solve(cfg)
    except BlowUpError as exc:
        if exc.trajectory is not None and exc.trajectory.snapshots:
            save_field(
                out / "last_snapshot.field",
                exc.trajectory.snapshots[-1],
                time=exc.trajectory.times[-1],
                extra=echo,
            )
            write_diagnostics(exc.trajectory, out / "diagnostics.csv")
        print(f"blow-up at t={exc.time:g}; last snapshot saved", file=sys.stderr)
        return 3
    write_diagnostics(traj, out / "diagnostics.csv")
    system = default_system(cfg.grid, cfg.sharpness)
    _write_xt_trace(out / "xt_trace.csv", traj, gp, system)
    for t, snap in zip(traj.times, traj.snapshots):
        save_field(out / f"snapshot_t{t:.6f}.field", snap, time=t, extra=echo)
    print(f"run complete: t_end={traj.times[-1]:g}, {len(traj.snapshots)} snapshots -> {out}")
    return 0


def _cmd_picard(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    cfg, gp = _solver_config(params)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = default_system(cfg.grid, cfg.sharpness)
    try:
        levels = picard_solve(cfg)
    except BlowUpError as exc:
        print(f"blow-up at t={exc.time:g} during Picard iteration", file=sys.stderr)
        return 3
    bp = cfg.besov_params()
    rows = []
    for lvl, (lo, hi) in enumerate(zip(levels, levels[1:])):
        gap = max(
            system.besov_norm(a - b, bp)
            for (_, a), (_, b) in zip(lo.samples(), hi.samples())
        )
        rows.append((lvl, gap))
    with open(out / "convergence.csv", "w", newline="") as fh:
        for key, val in config_echo(cfg).items():
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(["level", "sup_besov_gap_to_next"])
        for lvl, gap in rows:
            writer.writerow([lvl, repr(gap)])
    for lvl, traj in enumerate(levels):
        write_diagnostics(traj, out / f"diagnostics_level{lvl}.csv")
        save_field(
            out / f"final_level{lvl}.field",
            traj.snapshots[-1],
            time=traj.times[-1],
            extra={f"config_{k}": v for k, v in config_echo(cfg).items()},
        )
    print(f"picard complete: {len(levels)} levels -> {out}")
    return 0


def _cmd_analyze(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    field, header = load_field(args.snapshot)
    if not isinstance(field, SpectralField):
        field = forward_transform(field)
    grid = field.grid
    system = default_system(grid, params["sharpness"])
    bp = BesovParams(1.0 + 2.0 / params["p"] - params["kappa"], params["p"], params["q"])
    rows, discarded = system.besov_report(field, bp)
    gamma_hat, _, r2, n_rings, low_signal = spectral_decay_fit(field, params["alpha"])
    radius = max(gamma_hat, 0.0) if not low_signal else 0.0
    report_path = out / "analysis.csv"
    with open(report_path, "w", newline="") as fh:
        fh.write(f"# snapshot={args.snapshot}\n")
        for key, val in sorted(header.items()):
            fh.write(f"# snapshot_{key}={val}\n")
        for key in sorted(RUN_KEYS):
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


def _check_keys() -> dict:
    int_tuples = {"gap_set", "ns"}
    skip = {"check_id", "st_sets"}  # nested tuples stay code-side
    keys = {}
    for name, fld in CheckConfig.__dataclass_fields__.items():
        if name in skip:
            continue
        typ = fld.type if isinstance(fld.type, type) else str(fld.type)
        if typ in (int, "int"):
            keys[name] = int
        elif typ in (float, "float"):
            keys[name] = float
        elif typ in (str, "str"):
            keys[name] = str
        elif typ in (tuple, "tuple"):
            keys[name] = int_tuple if name in int_tuples else float_tuple
    return keys


def _cmd_verify(args) -> int:
    ids = args.check or sorted(ALL_CHECKS)
    for cid in ids:
        if cid not in ALL_CHECKS:
            raise UsageError(f"unknown check {cid!r}; known: {', '.join(sorted(ALL_CHECKS))}")
    keys = _check_keys()
    overrides = parse_config(args.config, args.set, keys, {})
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    failed = False
    for cid in ids:
        report = run_check(cid, **overrides)
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
