#!/usr/bin/env python3
"""Record the reference outputs the benchmark gate compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload (default: all) once per verb seed 0..REFERENCE_SEEDS-1 and
writes `perfbench/reference/<workload>.json`.  It refuses to record outputs
that fail the reference-free part of the gate (a non-zero exit, a check
verdict other than pass, or a growing `l2`).  The committed references were
recorded from the package as it stood when the benchmark was defined;
re-record only when a workload definition changes, never to make a changed
program pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS, collect, self_consistency, verb_argv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def record(workload: str) -> dict:
    spec = WORKLOADS[workload]
    reference = {"args": spec["args"], "seed_key": spec["seed_key"], "seeds": {}}
    for seed in range(REFERENCE_SEEDS):
        out = ROOT / ".bench_out" / "reference" / workload / str(seed)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"), str(ROOT / "src"),
            str(out.parent / f"timing-{seed}.json"), "-", *verb_argv(workload, seed, out),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        outputs = collect(out)
        failures = self_consistency(outputs)
        if failures:
            raise SystemExit(f"{workload} seed {seed} fails the gate: {failures}")
        reference["seeds"][str(seed)] = outputs
        print(f"{workload} seed {seed}: {len(outputs['files'])} artifacts recorded")
    return reference


def main(argv: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or sorted(WORKLOADS):
        reference = record(workload)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
