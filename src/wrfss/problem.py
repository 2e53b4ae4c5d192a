"""Nonlinear programming problem model.

A problem is an objective over a box, plus inequality constraints g(x) <= 0
and equality constraints h(x) = 0. Every problem function takes a batch: it
maps an (n, D) array of points to n values. Equalities are relaxed to
|h(x)| - delta <= 0, and infeasibility is aggregated into one non-negative
violation measure,

    violation(x) = sum_j max(0, g_j(x))**p + sum_j max(0, |h_j(x)| - delta)**p,

with p the violation exponent. It is zero exactly on the relaxed feasible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

__all__ = ["Problem", "EvaluationError", "evaluate_many", "feasible_many", "violation_many"]

# Maps an (n, D) batch of points to n values.
BatchFn = Callable[[np.ndarray], np.ndarray]


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


def _reject_non_finite(instance) -> None:
    """Raise ValueError naming the first float field of a dataclass that is not finite."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Problem:
    """Minimization problem over a box with optional constraints.

    The objective and every constraint map an (n, dimension) array to an
    (n,) array; ``evaluate_many``, ``violation_many`` and ``feasible_many``
    reject any other shape. Inequalities are feasible when g(x) <= 0,
    equalities when |h(x)| <= delta, and ``violation_exponent`` is the power p
    applied to each breach in the violation measure (see the module
    docstring). A per-point function f becomes a batch one as
    ``lambda X: np.array([f(x) for x in X])``.
    """

    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    objective: BatchFn
    inequalities: tuple[BatchFn, ...] = ()
    equalities: tuple[BatchFn, ...] = ()
    delta: float = 1e-4
    violation_exponent: float = 1.0
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
        _reject_non_finite(self)
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


def _values(fn: BatchFn, points: np.ndarray, kind: str, index: int | None, name: str) -> np.ndarray:
    """``fn(points)`` as floats, checked to be one finite value per point."""
    values = np.asarray(fn(points), dtype=float)
    n, d = points.shape
    if values.shape != (n,) or n == d > 1:
        # A per-point function returns a (D,) row of the batch, which has n
        # values when n == D; on a single point it cannot.
        rows, got = points, values.shape
        if got == (n,):
            rows = points[:1]
            got = np.shape(fn(rows))
        if got != rows.shape[:1]:
            where = kind if index is None else f"{kind}[{index}]"
            raise ValueError(
                f"{where} of problem {name!r} returned shape {got} for points of shape "
                f"{rows.shape}; expected ({rows.shape[0]},)"
            )
    if not np.isfinite(values).all():
        raise EvaluationError(kind, index, name)
    return values


def _checked_points(problem: Problem, points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != problem.dimension:
        raise ValueError(f"points must have shape (n, {problem.dimension})")
    return points


def _constraints(problem: Problem) -> Iterator[tuple[str, int, BatchFn]]:
    """Each constraint as (kind, index, function), in the order the violation sums them."""
    for j, g in enumerate(problem.inequalities):
        yield "inequality", j, g
    for j, h in enumerate(problem.equalities):
        yield "equality", j, h


def _term(problem: Problem, kind: str, index: int, fn: BatchFn, points: np.ndarray) -> np.ndarray:
    """One constraint's violation term per row: max(0, g)**p, or max(0, |h| - delta)**p."""
    values = _values(fn, points, kind, index, problem.name)
    if kind == "equality":
        values = np.abs(values) - problem.delta
    terms = np.maximum(0.0, values)
    if problem.violation_exponent != 1.0:
        terms = terms**problem.violation_exponent
    return terms


def violation_many(problem: Problem, points: np.ndarray) -> np.ndarray:
    """The violation of each row of a batch, without calling the objective.

    Row i gets sum_j max(0, g_j)**p + sum_j max(0, |h_j| - delta)**p, zero
    exactly when the row is feasible; it is the violation column of
    ``evaluate_many``. Raises ValueError when ``points`` is not (n,
    dimension) or a constraint does not return shape (n,), and
    EvaluationError, naming the constraint, when one returns a non-finite
    value.
    """
    points = _checked_points(problem, points)
    violation = np.zeros(points.shape[0])
    for kind, j, fn in _constraints(problem):
        violation += _term(problem, kind, j, fn, points)
    return violation


def feasible_many(problem: Problem, points: np.ndarray) -> np.ndarray:
    """Whether each row of a batch is feasible: ``violation_many(problem, points) == 0``.

    The constraints are scored in the order the violation sums them, each
    only on the rows every earlier one accepted: the whole batch while no row
    is rejected, then the rows still feasible, stopping once none is left. So
    a constraint is never called on a row an earlier one rejected, and a
    non-finite value there raises nothing. Otherwise raises as
    ``violation_many`` does.
    """
    points = _checked_points(problem, points)
    feasible = np.ones(points.shape[0], dtype=bool)
    rows = None  # indices of the rows still feasible, once some row is rejected
    for kind, j, fn in _constraints(problem):
        if rows is None:
            feasible = _term(problem, kind, j, fn, points) == 0.0
            if feasible.all():
                continue
            rows = np.flatnonzero(feasible)
        else:
            accepted = _term(problem, kind, j, fn, points[rows]) == 0.0
            feasible[rows[~accepted]] = False
            rows = rows[accepted]
        if rows.size == 0:
            break
    return feasible


def evaluate_many(problem: Problem, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a batch of points, returning (fitness, violation) arrays.

    The violation is ``violation_many(problem, points)``. Raises ValueError
    when ``points`` is not (n, dimension) or a problem function does not
    return shape (n,); when n == dimension, each function is also called on
    the first point alone and must return shape (1,). Raises EvaluationError,
    naming the function, when one returns a non-finite value; the objective
    is checked first.
    """
    points = _checked_points(problem, points)
    f = _values(problem.objective, points, "objective", None, problem.name)
    return f, violation_many(problem, points)
