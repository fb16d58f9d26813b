"""Particle-based stochastic projected gradient flows over probability space.

The package tracks a belief over unknown parameters as an equal-weight
particle cloud and improves it one streaming observation at a time by a
projected stochastic descent in Wasserstein geometry.  It ships exact
transport diagnostics (assignment-based Wasserstein-2, Bures distance,
moment lower bounds), convergence bound reporting, and a complete
desk-scale predictive-maintenance pipeline built on those pieces.

Each public name is imported from its module on first access, so a cold
process pays only for the modules it uses: ``import wgflow`` loads none of
them, and ``wgflow simulate`` never loads the flow, its sets or transport.
"""

import importlib

__version__ = "0.1.0"

#: The module that defines each public name.
_SOURCES = {
    "ConfigError": "errors",
    "DataError": "errors",
    "EngineError": "errors",
    "NumericalError": "errors",
    "UnsafeStepError": "errors",
    "FlowConfig": "flow",
    "FlowTrace": "flow",
    "run": "flow",
    "step": "flow",
    "StepBoundReport": "functionals",
    "StreamingLSObjective": "functionals",
    "convergence_bound": "functionals",
    "evaluate_objective": "functionals",
    "exact_gradient": "functionals",
    "perturbed_gradient": "functionals",
    "stochastic_gradient": "functionals",
    "validate_tau": "functionals",
    "ParticleMeasure": "measures",
    "covariance": "measures",
    "init_uniform_box": "measures",
    "mean": "measures",
    "Ball": "sets",
    "Box": "sets",
    "ConvexSet": "sets",
    "FullSpace": "sets",
    "Halfspace": "sets",
    "NonnegativeOrthant": "sets",
    "project_measure": "sets",
    "bures_distance": "transport",
    "gelbrich_lower_bound": "transport",
    "lipschitz_norm_gap": "transport",
    "w2_1d": "transport",
    "w2_exact": "transport",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
