"""Command-line harness: simulate, picard, analyze, verify.

Configuration is flat key=value text.  Precedence: defaults, then the
--config file, then SQGEV_<KEY> environment variables, then --set overrides.
The run keys come from the fields of the solver config dataclasses, the
verify keys from the keyword defaults of the checks.  Exit codes: 0
success, 2 usage/config error, 3 numerical blow-up or Gevrey overflow
(in verify: of any check, after the other checks have run), 4 check failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import shutil
import sys
from pathlib import Path

from . import checks as checks_mod
from .checks import ALL_CHECKS, check_defaults, run_check
from .dyadic import BesovParams, besov_report
from .gevrey import GevreyOverflowError, GevreyParams, XTSink, fit_radius, spectral_decay_fit
from .solver import (
    BlowUpError,
    PicardGaps,
    SolverConfig,
    Trajectory,
    config_echo,
    config_from_flat,
    flat_config,
    picard_solve,
    solve,
)
from .spectral import ConfigError, SpectralField, forward_transform, load_field, save_field

ENV_PREFIX = "SQGEV_"

# The run keys with their defaults and types, all taken from the config
# dataclasses: SolverConfig, then the X_T trace parameters of GevreyParams.
RUN_DEFAULTS = flat_config(SolverConfig())
RUN_DEFAULTS.update(flat_config(config_from_flat(GevreyParams, RUN_DEFAULTS)))
RUN_KEYS = {key: type(value) for key, value in RUN_DEFAULTS.items()}
# The run keys that `analyze` reads; the grid comes from the snapshot.
ANALYZE_KEYS = {key: RUN_KEYS[key] for key in ("p", "q", "kappa", "alpha")}


# A run or check that raises one of these failed numerically: exit 3, with
# one stderr line from _numerical_message.
NUMERICAL_ERRORS = (BlowUpError, GevreyOverflowError)
# The summary.csv verdict of a check that raised one of them instead of
# returning a report.
ERROR = "error"


class UsageError(ValueError):
    """Bad command line, config file, or override."""


def _numerical_message(exc: Exception) -> str:
    prefix = "blow-up" if isinstance(exc, BlowUpError) else "gevrey overflow"
    return f"{prefix}: {exc}"


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


def write_csv(path, echo: dict, columns, rows) -> None:
    """The one table layout of every artifact: '# key=value' echo lines, a
    header row, then the rows, each float cell (numpy's too) as the repr of
    a Python float."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}={val}\n" for key, val in echo.items())
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def write_diagnostics(traj: Trajectory, path) -> None:
    """The level's diagnostics rows under its config echo, which also
    carries the level's CFL note (its first CFL excess), if it has one."""
    columns = ["t", "l2", "lp", "besov", "radius"]
    rows = ([row[c] for c in columns] for row in traj.diagnostics)
    echo = config_echo(traj.config)
    if traj.meta["warnings"]:
        echo["cfl_note"] = traj.meta["warnings"][0]
    write_csv(path, echo, columns, rows)


def _field_echo(cfg: SolverConfig) -> dict:
    return {f"config_{k}": v for k, v in config_echo(cfg).items()}


def _save_blowup(out: Path, traj: Trajectory, save_last, suffix: str = "") -> str:
    """Diagnostics of the level that blew up and, through save_last(path),
    its last recorded snapshot, if it recorded any; returns the end of the
    stderr message that says which."""
    if not traj.times:
        return "no snapshot saved"
    out.mkdir(parents=True, exist_ok=True)
    save_last(out / f"last_snapshot{suffix}.field")
    write_diagnostics(traj, out / f"diagnostics{suffix}.csv")
    return "last snapshot saved"


class _SimulateSink(XTSink):
    """Record sink of `simulate`: writes each snapshot file as it is
    recorded, creating the output directory at the first, and keeps only
    its X_T sample (XTSink)."""

    def __init__(self, out: Path, cfg: SolverConfig, gp: GevreyParams):
        super().__init__(1, gp, BesovParams(cfg.sigma + gp.beta, cfg.p, cfg.q))
        self.out, self.echo = out, _field_echo(cfg)
        self.last = None  # path of the last snapshot written

    def __call__(self, level, t, snap, row):
        if self.last is None:
            self.out.mkdir(parents=True, exist_ok=True)
        self.last = self.out / f"snapshot_t{t:.6f}.field"
        save_field(self.last, snap, time=t, extra=self.echo)
        super().__call__(level, t, snap, row)

    def write_xt_trace(self, path, traj: Trajectory) -> None:
        columns = ["t", "gamma_t", "besov_norm", "weighted_norm", "radius_estimate"]
        radii = (row["radius"] for row in traj.diagnostics if row["t"] > 0)
        rows = ([s.t, s.gamma, s.besov, s.weighted, r] for s, r in zip(self.samples[0], radii))
        echo = {**config_echo(traj.config), "lam": self.gp.lam, "beta": self.gp.beta}
        write_csv(path, echo, columns, rows)


def _cmd_simulate(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    cfg = config_from_flat(SolverConfig, params)
    out = Path(args.output_dir)
    sink = _SimulateSink(out, cfg, config_from_flat(GevreyParams, params))
    try:
        traj = solve(cfg, sink)
    except BlowUpError as exc:
        saved = _save_blowup(out, exc.trajectory, lambda path: shutil.copyfile(sink.last, path))
        print(f"blow-up at t={exc.time:g}; {saved}", file=sys.stderr)
        return 3
    write_diagnostics(traj, out / "diagnostics.csv")
    sink.raise_overflow()
    sink.write_xt_trace(out / "xt_trace.csv", traj)
    print(f"run complete: t_end={traj.times[-1]:g}, {len(traj.times)} snapshots -> {out}")
    return 0


def _cmd_picard(args) -> int:
    params = parse_config(args.config, args.set, RUN_KEYS, RUN_DEFAULTS)
    cfg = config_from_flat(SolverConfig, params)
    out = Path(args.output_dir)
    echo = _field_echo(cfg)
    sink = PicardGaps(cfg)
    try:
        levels = picard_solve(cfg, sink)
    except BlowUpError as exc:
        traj = exc.trajectory
        level = traj.meta["level"]
        saved = _save_blowup(
            out, traj,
            lambda path: save_field(path, sink.last[level], time=traj.times[-1], extra=echo),
            f"_level{level}",
        )
        print(
            f"blow-up at t={exc.time:g} during Picard iteration (level {level}); {saved}",
            file=sys.stderr,
        )
        return 3
    out.mkdir(parents=True, exist_ok=True)
    columns = ["level", "sup_besov_gap_to_next"]
    write_csv(out / "convergence.csv", config_echo(cfg), columns, enumerate(sink.gaps))
    for lvl, traj in enumerate(levels):
        write_diagnostics(traj, out / f"diagnostics_level{lvl}.csv")
        save_field(
            out / f"final_level{lvl}.field", sink.last[lvl], time=traj.times[-1], extra=echo
        )
    print(f"picard complete: {len(levels)} levels -> {out}")
    return 0


def _cmd_analyze(args) -> int:
    params = parse_config(
        args.config, args.set, ANALYZE_KEYS, {key: RUN_DEFAULTS[key] for key in ANALYZE_KEYS}
    )
    field, header = load_field(args.snapshot)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not isinstance(field, SpectralField):
        field = forward_transform(field)
    bp = BesovParams(1.0 + 2.0 / params["p"] - params["kappa"], params["p"], params["q"])
    rows, discarded = besov_report(field, bp)
    fit = spectral_decay_fit(field, params["alpha"])
    _, _, r2, n_rings, _ = fit
    radius = fit_radius(fit)
    report_path = out / "analysis.csv"
    echo = {
        "snapshot": args.snapshot,
        **{f"snapshot_{key}": val for key, val in sorted(header.items())},
        **{key: params[key] for key in sorted(ANALYZE_KEYS)},
        "besov_s": bp.s,
        "discarded_energy_fraction": discarded,
        "radius_estimate": radius,
        "radius_fit_r2": r2,
        "radius_fit_rings": n_rings,
    }
    table = ([row["j"], row["weighted_block_norm"], row["cumulative"]] for row in rows)
    write_csv(report_path, echo, ["j", "weighted_block_norm", "cumulative_q_sum"], table)
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
    # before any value is parsed: a key that no check takes (a verdict
    # bound, say) reads like one that only an unselected check takes
    untaken = {item.partition("=")[0].strip() for item in args.set}
    untaken -= {key for cid in ids for key in takes[cid]}
    if untaken:
        raise UsageError(
            f"unknown key {', '.join(map(repr, sorted(untaken)))}: no selected check takes "
            f"it; checks: {', '.join(ids)}"
        )
    overrides = parse_config(args.config, args.set, keys, {})
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    failed = errored = False
    for cid in ids:
        try:
            report = run_check(cid, **{k: v for k, v in overrides.items() if k in takes[cid]})
        except NUMERICAL_ERRORS as exc:
            # a numerical failure ends this check only: record it, run the rest
            message = _numerical_message(exc)
            print(message, file=sys.stderr)
            print(f"{cid:20s} {ERROR}")
            summary.append((cid, ERROR, "", math.nan, math.nan, message))
            errored = True
            continue
        report.write(out / f"{cid}.json")
        worst, margin = report.worst_clause()
        residual = report.fits.get("r_squared", math.nan)
        summary.append((cid, report.verdict, worst, margin, residual, ""))
        failed |= report.verdict != checks_mod.PASS
        print(f"{cid:20s} {report.verdict:12s} {worst}={margin:.6g}")
    echo = {"checks": ",".join(ids), **dict(sorted(overrides.items()))}
    columns = ["check_id", "verdict", "worst_clause", "margin", "residual", "message"]
    write_csv(out / "summary.csv", echo, columns, summary)
    return 3 if errored else 4 if failed else 0


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
    except NUMERICAL_ERRORS as exc:
        print(_numerical_message(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
