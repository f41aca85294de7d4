"""Bifurcating autoregression with missing data: simulation and inference.

The observed data live on a binary tree whose missingness follows a
two-type Galton-Watson process; the package simulates the joint model,
fits the autoregression by least squares, computes every limit object
of the asymptotic theory in closed form, and verifies the limit
theorems by seeded Monte Carlo experiments.
"""

from .bar import BarParams, NoiseParams, ObservedTree, noise_moments, simulate_joint
from .errors import (
    BartreeError,
    CapacityError,
    DegenerateModelError,
    EstimationError,
    ExtinctionError,
    LineageFormatError,
    NumericalError,
    ValidationError,
)
from .estimation import (
    DesignMatrices,
    MartingaleDiagnostics,
    ThetaEstimate,
    accumulate_design,
    estimate_theta,
    martingale_diagnostics,
    sequential_variance_functionals,
    theta_path,
    true_noise_functionals,
)
from .gw import (
    GrowthRateEstimate,
    GWSpectral,
    ObservationMask,
    ReproductionLaw,
    estimate_pi,
    extinction_probabilities,
    renormalized_population,
    simulate_mask,
    spectral,
)
from .inference import (
    ConfidenceInterval,
    WaldTest,
    sigma_rho_cis,
    theta_cis,
    wald_test,
)
from .limits import LimitMatrices, design_limits, limit_matrices
from .mc import McConfig, McReport

__version__ = "0.1.0"

__all__ = [
    "BarParams",
    "BartreeError",
    "CapacityError",
    "ConfidenceInterval",
    "DegenerateModelError",
    "DesignMatrices",
    "EstimationError",
    "ExtinctionError",
    "GWSpectral",
    "GrowthRateEstimate",
    "LimitMatrices",
    "LineageFormatError",
    "MartingaleDiagnostics",
    "McConfig",
    "McReport",
    "NoiseParams",
    "NumericalError",
    "ObservationMask",
    "ObservedTree",
    "ReproductionLaw",
    "ThetaEstimate",
    "ValidationError",
    "WaldTest",
    "accumulate_design",
    "design_limits",
    "estimate_pi",
    "estimate_theta",
    "extinction_probabilities",
    "limit_matrices",
    "martingale_diagnostics",
    "noise_moments",
    "renormalized_population",
    "sequential_variance_functionals",
    "sigma_rho_cis",
    "simulate_joint",
    "simulate_mask",
    "spectral",
    "theta_cis",
    "theta_path",
    "true_noise_functionals",
    "wald_test",
]
