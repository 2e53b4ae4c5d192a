"""Finite-difference directional probe for the individual movement.

The probe estimates a forward-difference gradient of the violation measure
at each of p points from one batch of p * (D+1) evaluations, and for each
point picks, among K sampled unit directions, the one with the lowest
directional derivative (lowest absolute derivative when the school is
already exploiting a feasible region, to avoid stepping off it). The engine
gates the probe per fish, draws every random number, and then builds the
candidates of all probing fish at once from these two functions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["forward_gradient", "pick_direction"]


def forward_gradient(
    fn_rows: Callable[[np.ndarray], np.ndarray], x: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Forward-difference gradient estimates at p points from one batch call.

    ``x`` is a (p, D) array and ``e`` a per-dimension array of steps.
    ``fn_rows`` maps a (p * (D+1), D) array to its p * (D+1) values: point i
    owns rows i * (D+1) to i * (D+1) + D, the first being x_i and the next D
    being x_i with x_ij += e_j. Row i of the result holds
    (fn(x_i + e_j) - fn(x_i)) / e_j.
    """
    p, d = x.shape
    rows = np.concatenate([x[:, None, :], x[:, None, :] + np.diag(e)], axis=1)
    values = fn_rows(rows.reshape(p * (d + 1), d)).reshape(p, d + 1)
    return (values[:, 1:] - values[:, :1]) / e


def pick_direction(
    gradient: np.ndarray, normals: np.ndarray, phase: int | np.ndarray
) -> np.ndarray:
    """For each of p gradients, the preferred one of its K sampled directions.

    ``gradient`` is (p, D) and ``normals`` (p, K, D) standard normal samples,
    which are normalized to uniform unit directions. Phase 1 picks the
    direction with the smallest signed derivative (steepest sampled descent);
    phase 2 the smallest absolute derivative. ``phase`` is one phase for all
    p probes, or an array of p phases, one per probe. With a zero gradient every
    derivative ties and the first sample wins. Returns a (p, D) array.
    """
    p, k, _ = normals.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per_probe = isinstance(phase, np.ndarray)
    if not np.all((phase == 1) | (phase == 2)) if per_probe else phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    u = normals / np.sqrt((normals * normals).sum(axis=-1, keepdims=True))
    # One matrix-vector product per probe: a stacked product may run another
    # BLAS kernel, which rounds differently.
    derivs = np.empty((p, k))
    for i in range(p):
        derivs[i] = u[i] @ gradient[i]
    if per_probe:
        derivs[phase == 2] = np.abs(derivs[phase == 2])
    elif phase == 2:
        derivs = np.abs(derivs)
    return u[np.arange(p), np.argmin(derivs, axis=1)]
