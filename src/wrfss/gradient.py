"""Finite-difference directional probe for the individual movement.

The probe estimates a forward-difference gradient of the violation measure
at each of p points from one batch of p * (D+1) evaluations, and for each
point finds, among K sampled unit directions, both the one with the lowest
directional derivative and the one with the lowest absolute derivative. The
probe knows no phase: the engine steps along the first in phase 1 and along
the second in phase 2 (to avoid stepping off a feasible region it already
exploits), so a phase switch only chooses between the two. The engine gates
the probe per fish, draws every random number, and then builds the
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


def pick_direction(gradient: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each of p gradients, the steepest and the flattest of its K sampled directions.

    ``gradient`` is (p, D) and ``normals`` (p, K, D) standard normal samples,
    which are normalized to uniform unit directions. Returns two (p, D)
    arrays: the directions with the smallest signed derivative (steepest
    sampled descent) and with the smallest absolute derivative. With a zero
    gradient every derivative ties and the first sample wins in both.
    """
    p, k, _ = normals.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u = normals / np.sqrt((normals * normals).sum(axis=-1, keepdims=True))
    # One matrix-vector product per probe: a stacked product may run another
    # BLAS kernel, which rounds differently.
    derivs = np.empty((p, k))
    for i in range(p):
        derivs[i] = u[i] @ gradient[i]
    rows = np.arange(p)
    return u[rows, np.argmin(derivs, axis=1)], u[rows, np.argmin(np.abs(derivs), axis=1)]
