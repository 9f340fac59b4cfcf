"""Positive path-weight formulation of 1D quantum transition probabilities."""

__version__ = "0.1.0"

from .lattice import LatticeConfig, Path, second_differences
from .potentials import BandLimitedPotential, SpectralLine, band_limit
from .weights import (  # noqa: I001

    m_bound,
    m_sup_certified,
    path_weight,
    positivity_threshold,
    step_m,
    step_q_exponential,
    step_q_linear,
)
from .results import PositivityResult, TransitionEstimate, WeightResult
from .quadrature import extrapolate_gamma, transition_probability_quadrature
from .montecarlo import SamplerConfig, estimate_transition_mc
from .oracle import free_kernel_exact, kernel_estimate, propagate

__all__ = [
    "TransitionEstimate",
    "WeightResult",
    "PositivityResult",
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
    "second_differences",
    "step_m",
    "m_bound",
    "m_sup_certified",
    "step_q_linear",
    "step_q_exponential",
    "path_weight",
    "positivity_threshold",
]
