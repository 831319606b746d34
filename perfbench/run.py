#!/usr/bin/env python3
"""The sqgev benchmark: times `sqgev` verb calls end to end, one at a time,
each in a fresh child process, and gates every call's outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the checkout that contains it and imports
`sqgev` from the checkout's `src/`.  For S seconds it launches calls of one
workload (see `workloads.py`) back to back, so it is a closed loop with one
client.  Each call must exit 0, pass every check, keep `l2` non-increasing
and reproduce the recorded reference outputs to round-off.

With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json: medians
over the calls of `wall_s` (the verb call itself, artifact writing included),
`setup_s` (process launch until `sqgev.cli` is imported), `peak_rss_mb` and
`pass_ratio` (the share of calls that pass the gate).  With `--trace 1` it
alternates untraced and traced calls and prints the per-layer metrics of
BENCHMARK.json, taken from the traced calls; see README.md.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A results file with the environment
stamp and every call is written to `.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import KERNEL_SPAN, aggregate
from workloads import WORKLOADS, collect, gate, load_reference, verb_argv, verb_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_ROUNDS = 3
# A run must end within 180 s: no call is started that the longest round so
# far says would end after this, and a running call is killed at it.
RUN_LIMIT_S = 170.0
COUNT_FIELDS = ("calls", "points", "bytes", "bytes_computed")
BYTES_PER_POINT = 16  # complex128


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Call:
    traced: bool
    exit_code: int
    wall_s: float
    setup_s: float
    rss_mb: float
    cpu_s: float
    failures: list = field(default_factory=list)
    numpy: str | None = None
    stats: dict | None = None
    level_steps: int = 0

    def summary(self) -> dict:
        keys = ("traced", "exit_code", "wall_s", "setup_s", "rss_mb", "cpu_s", "failures")
        return {k: getattr(self, k) for k in keys}


def child_env() -> dict:
    """The caller's environment without SQGEV_* overrides (they would change
    the workload), with BLAS/OpenMP threads capped at the core count and set
    to one where unset."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SQGEV_")}
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit():
            env[var] = "1"
        elif int(value) > nproc:
            env[var] = str(nproc)
    return env


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(env: dict, numpy_version: str | None) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: env[var] for var in THREAD_VARS},
    }


def run_call(workload: str, seed: int, traced: bool, env: dict, call_dir: Path,
             reference: dict, deadline: float) -> Call:
    shutil.rmtree(call_dir, ignore_errors=True)
    out = call_dir / "out"
    out.mkdir(parents=True)
    timing_path, spans_path = call_dir / "timing.json", call_dir / "spans.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), str(ROOT / "src"), str(timing_path),
        str(spans_path) if traced else "-", *verb_argv(workload, seed, out),
    ]
    with open(call_dir / "stdout.txt", "wb") as stdout, open(call_dir / "stderr.txt", "wb") as stderr:
        launched = clock()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - clock(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        reaped = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = Call(
        traced=traced,
        exit_code=proc.returncode,
        wall_s=reaped - launched,
        setup_s=reaped - launched,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    if call.exit_code != 0:
        tail = (call_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        call.failures.append(f"exit code {call.exit_code}: {' '.join(tail)}")
    try:
        timing = json.loads(timing_path.read_text())
    except (OSError, ValueError):
        call.failures.append("child wrote no timing")
    else:
        call.setup_s = timing["ready"] - launched
        call.wall_s = timing["done"] - timing["ready"]
        call.numpy = timing["numpy"]
    if not call.failures:
        try:
            call.failures += gate(collect(out), reference["seeds"][str(verb_seed(seed))])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            call.failures.append(f"unreadable outputs: {exc!r}")
    if traced and not call.failures:
        trace = json.loads(spans_path.read_text())
        call.stats = aggregate(trace["spans"])
        call.level_steps = trace["level_steps"]
    if not call.failures:
        shutil.rmtree(call_dir)  # failing calls are kept for inspection
    return call


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            reference: dict) -> list[Call]:
    start = clock()
    deadline = start + RUN_LIMIT_S
    pattern = (False, True) if trace else (False,)
    calls: list[Call] = []
    longest = 0.0
    work = OUT_DIR / "work" / workload
    while True:
        round_start = clock()
        for traced in pattern:
            call_dir = work / f"call-{len(calls)}"
            calls.append(run_call(workload, seed, traced, env, call_dir, reference, deadline))
        longest = max(longest, clock() - round_start)
        elapsed = clock() - start
        rounds = len(calls) // len(pattern)
        if (elapsed >= seconds and rounds >= MIN_ROUNDS) or elapsed + longest > RUN_LIMIT_S:
            return calls


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def end_to_end(calls: list[Call]) -> dict:
    timed = [c for c in calls if not c.traced]
    passed = sum(1 for c in calls if not c.failures)
    return {
        "wall_s": _median([c.wall_s for c in timed]),
        "setup_s": _median([c.setup_s for c in timed]),
        "peak_rss_mb": _median([c.rss_mb for c in timed]),
        "pass_ratio": passed / len(calls),
    }


def layer_value(name: str, stats: dict, level_steps: int) -> float:
    """One per-layer metric of one traced call, by the naming rules in README.md."""
    if name == "solver.level_steps":
        return level_steps
    if name == "solver.step_s":
        loop = sum(stats.get(f"solver.{fn}", {}).get("self_s", 0.0) for fn in ("solve", "picard_solve"))
        return loop / level_steps if level_steps else 0.0
    if name.startswith("layer.") and name.endswith(".self_s"):
        layer = name[len("layer."):-len(".self_s")]
        return sum(
            s["self_s"] for key, s in stats.items()
            if key.partition(".")[0] == layer and not key.startswith(f"{KERNEL_SPAN}.from.")
        )
    if name.startswith("checks.") and name.endswith(".wall_s"):
        check_id = name[len("checks."):-len(".wall_s")]
        return stats.get("checks.check_" + check_id.replace("-", "_"), {}).get("total_s", 0.0)
    base, _, metric = name.rpartition(".")
    entry = stats.get(base, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
    if metric in ("calls", "total_s", "self_s"):
        return entry[metric]
    if metric in ("points", "bytes"):
        return entry["amount"]
    if metric == "bytes_computed":
        return entry["amount"] * BYTES_PER_POINT
    raise ValueError(f"BENCHMARK.json names per-layer metric {name!r}, which run.py cannot measure")


def per_layer(calls: list[Call], names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced calls) and any count that did
    not repeat exactly between the traced calls."""
    traced = [c for c in calls if c.traced and c.stats is not None]
    untraced = [c for c in calls if not c.traced]
    values, problems = {}, []
    for name in names:
        if name == "process.cpu_s":
            values[name] = _median([c.cpu_s for c in untraced])
        elif name == "trace.overhead_s":
            values[name] = _median([c.wall_s for c in traced]) - _median([c.wall_s for c in untraced])
        else:
            samples = [layer_value(name, c.stats, c.level_steps) for c in traced]
            if name.endswith(COUNT_FIELDS) or name == "solver.level_steps":
                if len(set(samples)) > 1:
                    problems.append(f"{name} differs between traced calls: {samples}")
            values[name] = _median(samples)
    return values, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqgev" / "cli.py").is_file():
        print(f"error: no sqgev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference(args.workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()

    calls = measure(args.workload, args.seed, args.seconds, bool(args.trace), env, reference)
    failed = sum(1 for c in calls if c.failures)
    problems = []
    if args.trace:
        values, problems = per_layer(calls, [m["name"] for m in spec["per_layer"]])
        declared = spec["per_layer"]
    else:
        values = end_to_end(calls)
        declared = spec["end_to_end"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }

    timed_walls = [c.wall_s for c in calls if not c.traced]
    record = {
        "environment": environment(env, next((c.numpy for c in calls if c.numpy), None)),
        "workload": args.workload,
        "seed": args.seed,
        "verb_seed": verb_seed(args.seed),
        "verb_argv": verb_argv(args.workload, args.seed, "OUT"),
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": {"median": _median(timed_walls), "tail": tail(timed_walls), "samples": len(timed_walls)},
        "traced_wall_s": _median([c.wall_s for c in calls if c.traced]),
        "fail_ratio": failed / len(calls),
        "problems": problems,
        "calls": [c.summary() for c in calls],
        "result": result,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=2) + "\n")

    for c in calls:
        for reason in c.failures:
            print(f"failed call: {reason}")
    for reason in problems:
        print(f"trace problem: {reason}")
    wall = record["wall_s"]
    tail_text = f", p{wall['tail']['percentile']:.0f} {wall['tail']['value']:.4f} s" if wall["tail"] else ""
    print(f"wall_s: median {wall['median']:.4f} s{tail_text} over {wall['samples']} untraced calls")
    print(f"results: {results_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
