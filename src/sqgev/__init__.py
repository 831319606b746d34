"""Pseudo-spectral toolkit for the 2D supercritical surface quasi-geostrophic
equation: Littlewood-Paley/Besov/Gevrey machinery, a Picard approximation
scheme, bilinear multiplier evaluation, and a verification harness for the
underlying quantitative estimates."""

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
    step,
)
from .bilinear import (
    BilinearSymbol,
    apply_bilinear,
    dilate,
    estimate_operator_norm,
    marcinkiewicz_check,
    registered_symbol,
    rotation_dual,
)
from .checks import ALL_CHECKS, InequalityReport, run_check

__version__ = "0.1.0"
