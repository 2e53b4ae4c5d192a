"""Finite-difference directional probe for the individual movement.

The probe estimates a forward-difference gradient of the violation measure
from one batch of D+1 evaluations, samples K random unit directions, and
picks the direction with the lowest directional derivative (lowest absolute
derivative when the school is already exploiting a feasible region, to avoid
stepping off it). The engine gates the probe per fish and builds the
candidates from these two functions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["forward_gradient", "pick_direction"]


def forward_gradient(
    fn_rows: Callable[[np.ndarray], np.ndarray], x: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Forward-difference gradient estimate from one batch of D+1 rows.

    ``fn_rows`` maps a (D+1, D) array to D+1 values. Row 0 is ``x`` and row
    j+1 is ``x`` with x_j += e_j, so component j is
    (fn(x + e_j) - fn(x)) / e_j. ``e`` is a per-dimension array.
    """
    values = fn_rows(np.concatenate([x[None, :], x[None, :] + np.diag(e)]))
    return (values[1:] - values[0]) / e


def pick_direction(
    gradient: np.ndarray, k: int, phase: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample k uniform unit directions and return the preferred one.

    Phase 1 picks the direction with the smallest signed derivative (steepest
    sampled descent); phase 2 the smallest absolute derivative. With a zero
    gradient every derivative ties and the first sample wins.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    u = rng.normal(size=(k, gradient.shape[0]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    derivs = u @ gradient
    idx = int(np.argmin(derivs)) if phase == 1 else int(np.argmin(np.abs(derivs)))
    return u[idx]
