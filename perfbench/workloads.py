"""Workload definitions and the correctness gate of the sqgev benchmark.

A workload is one `sqgev` verb call at a fixed size.  The benchmark seed picks
the verb's own seed (`init_seed` for simulate and picard, `seed` for verify)
as `seed % REFERENCE_SEEDS`, so that every input it can make has an output
recorded in `reference/<workload>.json` by `record_reference.py`.

This module is pure Python on purpose: `run.py` imports it and must
stay small, because the peak resident memory of a child is read from the
kernel, which counts the pages a child inherits from its parent.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The seven checks that never call the solver.
VERIFY_CHECKS = (
    "commutator-decay",
    "bernstein",
    "heat-kernel",
    "positivity",
    "lin-gevrey",
    "concavity",
    "r-derivatives",
)

WORKLOADS = {
    # Diagnostics-bound at n=256 (a 1 MiB complex field, larger than L2):
    # every step is recorded, so the radius fit and the Besov norms dominate.
    "simulate-dense": {
        "args": ["simulate", "--set", "n=256", "--set", "t_end=0.03", "--set", "record_every=1"],
        "seed_key": "init_seed",
    },
    # Stepping-bound through the frozen-velocity path: 30 steps on 6 levels,
    # only the first and last time recorded.
    "picard-deep": {
        "args": ["picard", "--set", "picard_depth=6", "--set", "t_end=0.3", "--set", "record_every=100"],
        "seed_key": "init_seed",
    },
    # Bilinear-bound with no solver at all: padded products in commutator-decay.
    "verify-harness": {
        "args": ["verify", *[a for cid in VERIFY_CHECKS for a in ("--check", cid)], "--set", "trials=2"],
        "seed_key": "seed",
    },
}

REFERENCE_SEEDS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Round-off tolerance: |got - ref| <= RTOL * |ref| + FLOOR * scale, where the
# scale of a CSV value is the largest |ref| in its column (so the Picard gaps,
# which fall to 1e-21, are held to an absolute floor set by the first gap) and
# the scale of a fitted constant is 1.
RTOL = 1e-9
FLOOR = 1e-9

# Outputs compared against the reference; other artifacts (field snapshots,
# the X_T trace) only have to exist.
COMPARED_CSV_PREFIXES = ("diagnostics", "convergence")


def verb_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def verb_argv(workload: str, seed: int, out_dir) -> list[str]:
    spec = WORKLOADS[workload]
    return [*spec["args"], "--set", f"{spec['seed_key']}={verb_seed(seed)}", "-o", str(out_dir)]


def _read_table(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return {"columns": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}


def collect(out_dir: Path) -> dict:
    """Reduce a verb's artifact directory to what the gate compares."""
    outputs = {"files": sorted(p.name for p in out_dir.iterdir()), "tables": {}, "checks": {}}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv" and path.name.startswith(COMPARED_CSV_PREFIXES):
            outputs["tables"][path.name] = _read_table(path)
        elif path.suffix == ".json":
            report = json.loads(path.read_text())
            outputs["checks"][report["check_id"]] = {
                "verdict": report["verdict"],
                "fits": report["fits"],
            }
    return outputs


def _close(got, ref, scale: float) -> bool:
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return got == ref
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= RTOL * abs(ref) + FLOOR * scale


def _compare_tree(got, ref, where: str, failures: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            failures.append(f"{where}: keys differ from the reference")
            return
        for key in ref:
            _compare_tree(got[key], ref[key], f"{where}.{key}", failures)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            failures.append(f"{where}: length differs from the reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_tree(g, r, f"{where}[{i}]", failures)
    elif not _close(got, ref, 1.0):
        failures.append(f"{where}: {got!r} differs from reference {ref!r}")


def _compare_table(name: str, got: dict, ref: dict, failures: list) -> None:
    if got["columns"] != ref["columns"] or len(got["rows"]) != len(ref["rows"]):
        failures.append(f"{name}: shape or columns differ from the reference")
        return
    for c, column in enumerate(ref["columns"]):
        scale = max(abs(row[c]) for row in ref["rows"])
        for r, (g_row, r_row) in enumerate(zip(got["rows"], ref["rows"])):
            if not _close(g_row[c], r_row[c], scale):
                failures.append(
                    f"{name} row {r} {column}: {g_row[c]!r} differs from reference {r_row[c]!r}"
                )


def self_consistency(outputs: dict) -> list[str]:
    """Failures that need no reference: a check verdict other than pass, or
    an L^2 norm that grows in time."""
    failures = [
        f"check {cid} verdict {report['verdict']}"
        for cid, report in outputs["checks"].items()
        if report["verdict"] != "pass"
    ]
    for name, table in outputs["tables"].items():
        if "l2" not in table["columns"]:
            continue
        c = table["columns"].index("l2")
        l2 = [row[c] for row in table["rows"]]
        for i, (before, after) in enumerate(zip(l2, l2[1:])):
            if after > before:
                failures.append(f"{name}: l2 increases at row {i + 1} ({before!r} -> {after!r})")
    return failures


def gate(outputs: dict, reference: dict) -> list[str]:
    """Every reason the outputs fail; empty when they pass."""
    failures = self_consistency(outputs)
    missing = sorted(set(reference["files"]) - set(outputs["files"]))
    if missing:
        failures.append(f"missing artifacts: {', '.join(missing)}")
    for name, ref_table in reference["tables"].items():
        if name in outputs["tables"]:
            _compare_table(name, outputs["tables"][name], ref_table, failures)
    for cid, ref_report in reference["checks"].items():
        got = outputs["checks"].get(cid)
        if got is None:
            failures.append(f"check {cid} report missing")
        else:
            _compare_tree(got["fits"], ref_report["fits"], f"{cid}.fits", failures)
    return failures


def load_reference(workload: str) -> dict:
    """Recorded outputs of `workload` for every verb seed.

    Raises ValueError when the recorded verb arguments no longer match the
    workload definition, since the outputs would then be compared against
    a different computation.
    """
    path = REFERENCE_DIR / f"{workload}.json"
    ref = json.loads(path.read_text())
    spec = WORKLOADS[workload]
    if ref["args"] != spec["args"] or ref["seed_key"] != spec["seed_key"]:
        raise ValueError(f"{path} was recorded for other verb arguments; re-record it")
    return ref
