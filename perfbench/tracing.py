"""Span recording for a traced benchmark call, and the self-time arithmetic.

`Tracer.install` wraps, from outside the package, every public function of
each sqgev module, the public methods of `DyadicSystem`, and
`numpy.fft.fft2`/`ifft2` (the `kernel` layer).  A function is rebound under
every module name and in every module-level dict that holds it, because the
modules import each other's functions by name (`from .gevrey import
spectral_decay_fit`) and `checks.ALL_CHECKS` holds the check functions, so
patching only the defining module would miss the calls that matter.

Spans are kept in memory as `[name, parent_index, start, end, amount]` and
written out once, after the verb returns.  `amount` is the number of points
an FFT transformed, or the bytes `save_field` wrote.

`aggregate` is pure Python so that `run.py` can use it without
importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("spectral", "dyadic", "gevrey", "solver", "bilinear", "checks", "cli")
KERNEL_SPAN = "kernel.fft"


def _fft_points(args, result) -> int:
    return int(result.size)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


AMOUNTS = {"spectral.save_field": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.level_steps = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, amount=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, open_[-1] if open_ else -1, clock(), 0.0, 0]
            open_.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                open_.pop()
            if amount is not None:
                record[4] = amount(args, result)
            return result

        return traced

    def _count_steps(self, fn):
        # Counted, not spanned: the Heun step is the stepping loop's own work
        # and stays in the self time of solve / picard_solve.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.level_steps += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        import numpy.fft

        package = importlib.import_module("sqgev")
        modules = {layer: importlib.import_module(f"sqgev.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    replacement[obj] = self.wrap(name, obj, AMOUNTS.get(name))
        heun = modules["solver"]._heun_step
        replacement[heun] = self._count_steps(heun)

        dyadic_system = modules["dyadic"].DyadicSystem
        for attr, obj in list(vars(dyadic_system).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(dyadic_system, attr, self.wrap(f"dyadic.{attr}", obj))

        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(module, attr, replacement[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in replacement:
                            obj[key] = replacement[value]

        numpy.fft.fft2 = self.wrap(KERNEL_SPAN, numpy.fft.fft2, _fft_points)
        numpy.fft.ifft2 = self.wrap(KERNEL_SPAN, numpy.fft.ifft2, _fft_points)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "level_steps": self.level_steps}, fh)


def aggregate(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds and summed amount.

    Self time is a span's duration minus the durations of its direct
    children.  Under the key `kernel.fft.from.<layer>` it also gives the FFT
    time whose direct caller is in `layer`.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = {}

    def add(key, duration, self_s, amount):
        entry = stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += self_s
        entry["amount"] += amount

    for i, (name, parent, start, end, amount) in enumerate(spans):
        duration = end - start
        add(name, duration, duration - child[i], amount)
        if name == KERNEL_SPAN and parent >= 0:
            caller = spans[parent][0].partition(".")[0]
            add(f"{KERNEL_SPAN}.from.{caller}", duration, duration - child[i], amount)
    return stats
