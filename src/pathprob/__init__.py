"""Positive path-weight formulation of 1D quantum transition probabilities."""

__version__ = "0.1.0"

from .lattice import LatticeConfig, Path, StepQuantities, second_differences
from .potentials import BandLimitedPotential, SpectralLine, band_limit
from .weights import (  # noqa: I001

    WeightEvaluation,
    m_bound,
    m_sup_certified,
    path_weight,
    positivity_threshold,
    step_m,
    step_q_exponential,
    step_q_linear,
)
from .results import TransitionEstimate
from .quadrature import extrapolate_gamma, transition_probability_quadrature
from .montecarlo import SamplerConfig, estimate_transition_mc
from .oracle import free_kernel_exact, kernel_estimate, propagate

__all__ = [
    "TransitionEstimate",
    "transition_probability_quadrature",
    "extrapolate_gamma",
    "SamplerConfig",
    "estimate_transition_mc",
    "free_kernel_exact",
    "kernel_estimate",
    "propagate",
    "__version__",
    "BandLimitedPotential",
    "SpectralLine",
    "band_limit",
    "LatticeConfig",
    "Path",
    "StepQuantities",
    "second_differences",
    "WeightEvaluation",
    "step_m",
    "m_bound",
    "m_sup_certified",
    "step_q_linear",
    "step_q_exponential",
    "path_weight",
    "positivity_threshold",
]
