"""Pseudo-spectral toolkit for the 2D supercritical surface quasi-geostrophic
equation: Littlewood-Paley/Besov/Gevrey machinery and a Picard approximation
scheme.

The verification harness of the underlying quantitative estimates lives in
`sqgev.checks`, with the bilinear multiplier symbols of the commutator
estimates in `sqgev.bilinear`.  Neither is imported here: they load with
`sqgev verify`, so `simulate`, `picard` and `analyze` start without them."""

from .spectral import (
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    RealField,
    SpectralField,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    load_field,
    lp_norm,
    random_band_limited,
    save_field,
)
from .dyadic import BesovParams, DyadicSystem, besov_norm, build_system
from .gevrey import (
    GevreyOverflowError,
    GevreyParams,
    XTNormSample,
    fractional_laplacian,
    gevrey_multiply,
    heat_semigroup,
    xt_norm,
)
from .solver import (
    BlowUpError,
    InitialData,
    SolverConfig,
    Trajectory,
    picard_solve,
    solve,
)

__version__ = "0.1.0"
