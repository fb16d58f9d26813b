"""Particle-based stochastic projected gradient flows over probability space.

The package tracks a belief over unknown parameters as an equal-weight
particle cloud and improves it one streaming observation at a time by a
projected stochastic descent in Wasserstein geometry.  It ships exact
transport diagnostics (assignment-based Wasserstein-2, Bures distance,
moment lower bounds), convergence bound reporting, and a complete
desk-scale predictive-maintenance pipeline built on those pieces.
"""

from .errors import ConfigError, DataError, EngineError, NumericalError, UnsafeStepError
from .flow import (
    FlowConfig,
    FlowTrace,
    StepBoundReport,
    convergence_bound,
    lipschitz_norm_gap,
    run,
    step,
    validate_tau,
)
from .functionals import (
    StreamingLSObjective,
    evaluate_objective,
    exact_gradient,
    perturbed_gradient,
    stochastic_gradient,
)
from .measures import (
    ParticleMeasure,
    covariance,
    init_uniform_box,
    mean,
)
from .sets import (
    Ball,
    Box,
    ConvexSet,
    FullSpace,
    Halfspace,
    NonnegativeOrthant,
    project_measure,
)
from .transport import (
    bures_distance,
    gelbrich_lower_bound,
    w2_1d,
    w2_exact,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "ConfigError",
    "ConvexSet",
    "DataError",
    "EngineError",
    "FlowConfig",
    "FlowTrace",
    "FullSpace",
    "Halfspace",
    "NonnegativeOrthant",
    "NumericalError",
    "ParticleMeasure",
    "StepBoundReport",
    "StreamingLSObjective",
    "UnsafeStepError",
    "bures_distance",
    "convergence_bound",
    "covariance",
    "evaluate_objective",
    "exact_gradient",
    "gelbrich_lower_bound",
    "init_uniform_box",
    "lipschitz_norm_gap",
    "mean",
    "perturbed_gradient",
    "project_measure",
    "run",
    "step",
    "stochastic_gradient",
    "validate_tau",
    "w2_1d",
    "w2_exact",
]
