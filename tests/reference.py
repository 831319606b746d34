"""Reference code shared by the tests: the record sink that collects every
snapshot of a run, the Picard gaps of a collected run, and the Riesz
transform on the full spectrum."""

from collections import defaultdict

import numpy as np

from sqgev.dyadic import besov_norm
from sqgev.spectral import SpectralField, apply_multiplier


class Collect:
    """Record sink that keeps every record: times[l] and snapshots[l] are
    level l's recorded times and fields, in order.  The reference for what
    a run recorded."""

    def __init__(self):
        self.times = defaultdict(list)
        self.snapshots = defaultdict(list)

    def __call__(self, level, t, snap, row):
        self.times[level].append(t)
        self.snapshots[level].append(snap)

    def samples(self, level=0):
        """(t, field) pairs of level with t > 0, ready for X_T norms."""
        return [(t, s) for t, s in zip(self.times[level], self.snapshots[level]) if t > 0]


def picard_gaps(sink: Collect, config) -> list[float]:
    """For each pair of successive levels of a Picard run collected in sink,
    the sup over the recorded t > 0 of the critical Besov norm of their
    difference."""
    bp = config.besov_params()
    return [
        max(
            besov_norm(a - b, bp)
            for (_, a), (_, b) in zip(sink.samples(lvl), sink.samples(lvl + 1))
        )
        for lvl in range(config.picard_depth)
    ]


def ignore(level, t, snap, row):
    """Record sink that keeps nothing, for runs read through their
    diagnostics rows only."""


def riesz_transform(f: SpectralField, axis: int) -> SpectralField:
    """R_axis with symbol -i k_axis / |k| (zero on the zero mode)."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    grid = f.grid
    kc = grid.kx if axis == 1 else grid.ky
    kmag = grid.k_mag
    return apply_multiplier(f, np.where(kmag > 0, -1j * kc / np.where(kmag > 0, kmag, 1.0), 0.0))
