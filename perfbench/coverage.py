#!/usr/bin/env python3
"""Print the coverage table of README.md from traced results.

    python3 perfbench/run.py --workload W --seed 0 --seconds 30 --trace 1   # each workload
    python3 perfbench/coverage.py [SEED]

For each workload it reads `.bench_out/results/<workload>-seed<SEED>-trace1.json`
and prints each layer's self time as a share of the traced call's wall time,
then the share of the work the workload was chosen to stress, and the
tracing overhead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = (*LAYERS, "kernel")


def purpose(workload: str, m: dict) -> tuple[str, float]:
    """The work a workload was chosen to stress, in seconds of the traced call."""
    if workload == "simulate-dense":
        return ("radius fit self + Besov norm total",
                m["gevrey.spectral_decay_fit.self_s"] + m["dyadic.besov_norm.total_s"])
    if workload == "picard-deep":
        return ("stepping loop self + its own FFTs",
                m["solver.solve.self_s"] + m["solver.picard_solve.self_s"]
                + m["kernel.fft.from.solver.self_s"])
    return ("padded product self + its own FFTs",
            m["bilinear.padded_product.self_s"] + m["kernel.fft.from.bilinear.self_s"])


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 0
    header = ["workload", "traced wall s", *COLUMNS, "stressed work", "share", "trace overhead s"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for workload in WORKLOADS:
        path = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace1.json"
        record = json.loads(path.read_text())
        m = {name: v["value"] for name, v in record["result"]["metrics"].items()}
        wall = record["traced_wall_s"]
        shares = [f"{100 * m[f'layer.{layer}.self_s'] / wall:.0f}%" for layer in COLUMNS]
        label, seconds = purpose(workload, m)
        print(f"| {workload} | {wall:.2f} | " + " | ".join(shares)
              + f" | {label} | {100 * seconds / wall:.0f}% | {m['trace.overhead_s']:+.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
