"""Fish School Search family for constrained continuous optimization.

Provides the school state, the link-based niching layer with its
leader-aware collective movements, the two-phase constrained engine with its
epsilon / gradient-probe / penalty variants, the CEC 2010 benchmark subset at
10D, and a reproducible experiment harness with a CLI.
"""

from .constraint_handling import (
    EpsilonSchedule,
    best_index,
    epsilon_less_arrays,
    initial_epsilon,
    normalized_feeding,
)
from .engine import EngineParams, RunRecord, Variant, decide_phase, run
from .gradient import forward_gradient, pick_direction
from .niching import LinkGraph, leader_instinctive_step, leader_volitive_step, link_formator
from .problem import EvaluationError, Problem, evaluate_many, violation_many
from .school import School, StepSchedule

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Problem",
    "EvaluationError",
    "evaluate_many",
    "violation_many",
    "School",
    "StepSchedule",
    "LinkGraph",
    "link_formator",
    "leader_instinctive_step",
    "leader_volitive_step",
    "best_index",
    "epsilon_less_arrays",
    "EpsilonSchedule",
    "initial_epsilon",
    "normalized_feeding",
    "forward_gradient",
    "pick_direction",
    "Variant",
    "EngineParams",
    "RunRecord",
    "decide_phase",
    "run",
]
