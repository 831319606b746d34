"""Pseudo-spectral toolkit for the 2D supercritical surface quasi-geostrophic
equation: Littlewood-Paley/Besov/Gevrey machinery, a Picard approximation
scheme, the bilinear multiplier symbols of the commutator estimates with
their Marcinkiewicz scan, and a verification harness for the underlying
quantitative estimates."""

from .spectral import (
    BandRangeError,
    ConfigError,
    Grid,
    HermitianSymmetryError,
    MultiplierOverflowError,
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
    nonlinear_term,
    picard_solve,
    solve,
)
from .bilinear import BilinearSymbol, marcinkiewicz_check
from .checks import ALL_CHECKS, InequalityReport, run_check

__version__ = "0.1.0"
