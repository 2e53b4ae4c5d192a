"""Comparators and schedules for constrained search.

Contains the feasibility-first selection of a population's best (Deb), the
epsilon comparison with its decay schedule, and the normalized feeding rule
that maps objective values onto fish weights. With a zero tolerance the
epsilon comparison is the feasibility rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "best_index",
    "epsilon_less_arrays",
    "EpsilonSchedule",
    "initial_epsilon",
    "normalized_feeding",
    "RunningExtremes",
]


def best_index(fitness: np.ndarray, violation: np.ndarray) -> np.ndarray:
    """Index of the feasibility-rules best entry of each row; a tie keeps the first.

    The (R, k) arrays hold one population per row (one per run), and the
    result holds one index per row.
    """
    feasible = violation == 0.0
    some = feasible.any(axis=1)
    if not some.any():
        return violation.argmin(axis=1)
    index = np.where(feasible, fitness, np.inf).argmin(axis=1)
    if not some.all():
        index = np.where(some, index, violation.argmin(axis=1))
    return index


def epsilon_less_arrays(
    f1: np.ndarray, v1: np.ndarray, f2: np.ndarray, v2: np.ndarray, eps: float
) -> np.ndarray:
    """Strict epsilon comparison of (fitness, violation) pairs, elementwise.

    Pair 1 beats pair 2 by fitness when both violations are within ``eps`` or
    the violations are exactly equal, and by violation otherwise. ``math.inf``
    reduces it to a plain fitness comparison, and ``0`` to the feasibility
    rules (feasible beats infeasible, then fitness among feasible, violation
    among infeasible).
    """
    by_fitness = ((v1 <= eps) & (v2 <= eps)) | (v1 == v2)
    return np.where(by_fitness, f1 < f2, v1 < v2)


def initial_epsilon(violations: np.ndarray) -> float:
    """Starting epsilon from the initial population violations.

    Half of (mean violation + minimum violation).
    """
    violations = np.asarray(violations, dtype=float)
    if violations.size == 0:
        raise ValueError("initial_epsilon requires a nonempty violation list")
    return 0.5 * (float(violations.mean()) + float(violations.min()))


@dataclass(frozen=True)
class EpsilonSchedule:
    """Decaying tolerance: eps0 * (1 - t/cutoff)**cp until the cutoff, then 0.

    ``cp`` is max(cp_min, (-5 - log10(eps0)) / log10(0.05)); with eps0 = 0 the
    schedule is identically zero and cp falls back to cp_min.
    """

    eps0: float
    cutoff: int
    cp_min: float = 3.0
    cp: float = field(init=False)

    def __post_init__(self):
        if self.eps0 < 0.0:
            raise ValueError(f"eps0 must be non-negative, got {self.eps0}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {self.cutoff}")
        if self.cp_min <= 0.0:
            raise ValueError(f"cp_min must be positive, got {self.cp_min}")
        if self.eps0 > 0.0:
            cp = max(self.cp_min, (-5.0 - math.log10(self.eps0)) / math.log10(0.05))
        else:
            cp = self.cp_min
        object.__setattr__(self, "cp", cp)

    def value_at(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"iteration must be non-negative, got {t}")
        if t >= self.cutoff or self.eps0 == 0.0:
            return 0.0
        return self.eps0 * (1.0 - t / self.cutoff) ** self.cp


def normalized_feeding(
    values: np.ndarray,
    running_min: float | np.ndarray,
    running_max: float | np.ndarray,
    w_scale: float,
) -> np.ndarray:
    """Map objective values onto weights in [1, w_scale], best value highest.

    w = w_scale + (1 - w_scale) * (value - min) / (max - min), so the running
    minimum maps to w_scale and the running maximum to 1. A degenerate range
    (max == min) yields w_scale / 2 for every fish. Extremes given as arrays
    broadcast against ``values``: (R, 1) extremes feed a (R, n) school of R
    runs, each run against its own pair.
    """
    values = np.asarray(values, dtype=float)
    if isinstance(running_min, np.ndarray) and running_min.size == 1:  # one pair: scalars
        running_min, running_max = running_min.item(), running_max.item()
    if not isinstance(running_min, np.ndarray):
        if running_min > running_max:
            raise ValueError("running_min must not exceed running_max")
        if running_max == running_min:
            return np.full(values.shape, w_scale / 2.0)
        frac = (values - running_min) / (running_max - running_min)
        return w_scale + (1.0 - w_scale) * frac
    span = np.subtract(running_max, running_min)
    if (span > 0.0).all():
        return w_scale + (1.0 - w_scale) * ((values - running_min) / span)
    if (span < 0.0).any():
        raise ValueError("running_min must not exceed running_max")
    flat = span == 0.0
    frac = (values - running_min) / np.where(flat, 1.0, span)
    return np.where(flat, w_scale / 2.0, w_scale + (1.0 - w_scale) * frac)


@dataclass(frozen=True)
class RunningExtremes:
    """Minimum and maximum of every value seen so far; ``update`` returns the widened pair.

    The pair of (R, 1) arrays holds the extremes of R runs, and ``update``
    takes a (R, n) array, one row of values per run.
    """

    min: np.ndarray
    max: np.ndarray

    @classmethod
    def empty(cls, runs: int) -> RunningExtremes:
        """The extremes of R runs that have seen nothing: min inf above max -inf."""
        return cls(np.full((runs, 1), math.inf), np.full((runs, 1), -math.inf))

    def update(self, values: np.ndarray) -> RunningExtremes:
        if not values.size:
            return self
        return RunningExtremes(
            np.minimum(self.min, np.minimum.reduce(values, axis=1, keepdims=True)),
            np.maximum(self.max, np.maximum.reduce(values, axis=1, keepdims=True)),
        )
