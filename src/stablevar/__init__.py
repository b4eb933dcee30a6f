"""stablevar: stable Levy noise simulation and stability-index estimation
from compensated p-variation statistics."""

from stablevar.stable_law import RandomStream, StableParams, abs_moment, sample_stable, sin_moment
from stablevar.path_sim import PathSample, simulate_levy
from stablevar.pvariation import compensated_terminal, compensator, terminal_pvariation
from stablevar.limit_law import limit_scale, ref_cdf_half_stable, sample_limit
from stablevar.estimator import (
    EstimationError,
    EstimationResult,
    GridConfig,
    KSSurface,
    block_split,
    estimate,
    ks_distance,
    ks_surface,
)

__all__ = [
    "RandomStream",
    "StableParams",
    "sample_stable",
    "abs_moment",
    "sin_moment",
    "PathSample",
    "simulate_levy",
    "terminal_pvariation",
    "compensator",
    "compensated_terminal",
    "limit_scale",
    "ref_cdf_half_stable",
    "sample_limit",
    "GridConfig",
    "KSSurface",
    "EstimationResult",
    "EstimationError",
    "block_split",
    "ks_distance",
    "ks_surface",
    "estimate",
]

__version__ = "0.1.0"
