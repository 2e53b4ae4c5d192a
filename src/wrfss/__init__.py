"""Fish School Search family for constrained continuous optimization.

Provides the two-phase constrained engine with its epsilon / gradient-probe /
penalty variants, the link-based niching layer with its leader-aware
collective movements, the CEC 2010 benchmark subset at 10D, and a
reproducible experiment harness with a CLI. The package exports the library
API; the stage functions are imported from their modules
(:mod:`wrfss.niching`, :mod:`wrfss.constraint_handling`,
:mod:`wrfss.gradient`, :mod:`wrfss.school`).
"""

from .engine import EngineParams, RunRecord, Variant, run
from .problem import EvaluationError, Problem, evaluate_many, violation_many

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Problem",
    "EvaluationError",
    "evaluate_many",
    "violation_many",
    "Variant",
    "EngineParams",
    "RunRecord",
    "run",
]
