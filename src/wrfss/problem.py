"""Nonlinear programming problem model.

A problem is an objective over a box, plus inequality constraints g(x) <= 0
and equality constraints h(x) = 0. Equalities are handled through a tolerance
relaxation |h(x)| - delta <= 0, and infeasibility is aggregated into a single
non-negative violation measure that is zero exactly on the relaxed feasible
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Problem",
    "Evaluation",
    "EvaluationError",
    "evaluate",
    "evaluate_many",
    "relax_equalities",
]

ConstraintFn = Callable[[np.ndarray], float]


class EvaluationError(RuntimeError):
    """A problem function returned a non-finite value.

    Attributes:
        kind: one of "objective", "inequality", "equality".
        index: 0-based index within the constraint group (None for objective).
    """

    def __init__(self, kind: str, index: int | None, problem_name: str = ""):
        self.kind = kind
        self.index = index
        self.problem_name = problem_name
        where = kind if index is None else f"{kind}[{index}]"
        name = f" of problem {problem_name!r}" if problem_name else ""
        super().__init__(f"non-finite value from {where}{name}")


@dataclass(frozen=True)
class Problem:
    """Minimization problem over a box with optional constraints.

    Inequalities are feasible when g(x) <= 0; equalities when |h(x)| <= delta.
    ``violation_exponent`` is the power applied to each constraint breach when
    aggregating the violation measure.

    When ``vectorized`` is true, the objective and every constraint accept an
    (n, dimension) array and return an (n,) array; this is the fast path used
    by the search engine, and plain per-point callables work everywhere else.
    """

    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    objective: Callable
    inequalities: tuple[ConstraintFn, ...] = ()
    equalities: tuple[ConstraintFn, ...] = ()
    delta: float = 1e-4
    violation_exponent: float = 1.0
    vectorized: bool = False
    name: str = ""

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise ValueError("bounds must be 1-D arrays of length `dimension`")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if self.equalities and not self.delta > 0.0:
            raise ValueError("delta must be positive when equality constraints are present")
        if not self.delta >= 0.0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if not self.violation_exponent > 0.0:
            raise ValueError(f"violation_exponent must be positive, got {self.violation_exponent}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))

    @property
    def range_width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def n_inequalities(self) -> int:
        return len(self.inequalities)

    @property
    def n_equalities(self) -> int:
        return len(self.equalities)


@dataclass(frozen=True)
class Evaluation:
    """Objective value and aggregate constraint violation at one point."""

    fitness: float
    violation: float

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _violation_terms(values: np.ndarray, exponent: float) -> np.ndarray:
    terms = np.maximum(0.0, values)
    if exponent != 1.0:
        terms = terms**exponent
    return terms


def evaluate(problem: Problem, x: Sequence[float] | np.ndarray) -> Evaluation:
    """Evaluate objective and violation at a single point.

    The violation is the sum over inequalities of max(0, g(x))**p plus the sum
    over equalities of max(0, |h(x)| - delta)**p. A point is feasible exactly
    when the violation is zero. Raises EvaluationError if any function returns
    a non-finite value.
    """
    x = np.asarray(x, dtype=float)
    f = float(problem.objective(x))
    if not np.isfinite(f):
        raise EvaluationError("objective", None, problem.name)
    violation = 0.0
    for j, g in enumerate(problem.inequalities):
        gv = float(g(x))
        if not np.isfinite(gv):
            raise EvaluationError("inequality", j, problem.name)
        violation += float(_violation_terms(np.asarray(gv), problem.violation_exponent))
    for j, h in enumerate(problem.equalities):
        hv = float(h(x))
        if not np.isfinite(hv):
            raise EvaluationError("equality", j, problem.name)
        violation += float(
            _violation_terms(np.asarray(abs(hv) - problem.delta), problem.violation_exponent)
        )
    return Evaluation(fitness=f, violation=violation)


def evaluate_many(problem: Problem, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a batch of points, returning (fitness, violation) arrays.

    Uses the problem's vectorized callables when available, otherwise falls
    back to row-by-row evaluation. Results are identical either way.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != problem.dimension:
        raise ValueError(f"points must have shape (n, {problem.dimension})")
    if not problem.vectorized:
        evs = [evaluate(problem, row) for row in points]
        return (
            np.array([e.fitness for e in evs]),
            np.array([e.violation for e in evs]),
        )

    f = np.asarray(problem.objective(points), dtype=float)
    if not np.all(np.isfinite(f)):
        raise EvaluationError("objective", None, problem.name)
    violation = np.zeros(points.shape[0])
    for j, g in enumerate(problem.inequalities):
        gv = np.asarray(g(points), dtype=float)
        if not np.all(np.isfinite(gv)):
            raise EvaluationError("inequality", j, problem.name)
        violation += _violation_terms(gv, problem.violation_exponent)
    for j, h in enumerate(problem.equalities):
        hv = np.asarray(h(points), dtype=float)
        if not np.all(np.isfinite(hv)):
            raise EvaluationError("equality", j, problem.name)
        violation += _violation_terms(np.abs(hv) - problem.delta, problem.violation_exponent)
    return f, violation


def relax_equalities(problem: Problem, delta: float) -> Problem:
    """Convert every equality h(x) = 0 into the inequality |h(x)| - delta <= 0.

    The returned problem has no equality constraints; its violation measure
    and feasible set coincide with the original problem evaluated under the
    same tolerance.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")

    def as_inequality(h: ConstraintFn, tol: float) -> ConstraintFn:
        def g(x):
            return np.abs(h(x)) - tol

        return g

    relaxed = tuple(as_inequality(h, delta) for h in problem.equalities)
    return Problem(
        dimension=problem.dimension,
        lower=problem.lower,
        upper=problem.upper,
        objective=problem.objective,
        inequalities=problem.inequalities + relaxed,
        equalities=(),
        delta=delta,
        violation_exponent=problem.violation_exponent,
        vectorized=problem.vectorized,
        name=problem.name,
    )
