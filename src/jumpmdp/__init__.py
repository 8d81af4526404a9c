"""Moderate-deviation machinery for Poisson-driven jump SDEs.

Simulation of small-noise jump SDEs and their intensity-tilted versions,
fluid and linearized fluctuation limits, quadratic rate functions evaluated
two equivalent ways, and Monte Carlo / importance-sampling experiments that
verify the Gaussian-regime and exponential-decay predictions at desk scale.
"""

from .mark_space import MarkMeasure
from .prm import (
    ControlField,
    entropy_integrand,
    log_likelihood_ratio,
    sample_controlled_measure,
    sample_poisson_measure,
    substream,
    tilt_cost,
    truncated_tilt,
)
from .jump_sde import (
    ModelSpec,
    PathGrid,
    fluid_limit,
    simulate_jump_path,
)
from .mdp_limit import (
    LinearizedSystem,
    build_linearization,
    decompose_controlled_path,
    gaussian_covariance,
    solve_limit_path,
)
from .rate import (
    RateSolution,
    controllability_gramian,
    rate_of_path,
    rate_to_point,
    sphere_minimum,
    sphere_rate,
)
from .models import MODEL_BUILDERS, build_model
from .experiments import (
    ExperimentConfig,
    entropy_bound_constants,
    run_clt_check,
    run_mdp_slope,
    run_simulate,
    verify_entropy_tail_bounds,
    verify_var_rep,
)

__version__ = "0.1.0"
