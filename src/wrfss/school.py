"""Individual-movement acceptance and step schedule.

A school is plain parallel arrays, one row per fish: positions, weights, last
moves (``delta_x``, ``delta_f``), fitness and violation, held as locals of
:func:`wrfss.engine.run`. ``accept`` applies the individual movement's
acceptance decisions and returns the new arrays; the leader-aware collective
movements live in :mod:`wrfss.niching` and the weight feeding in
:mod:`wrfss.constraint_handling`. Steps decay linearly over the iteration
budget.

Movement deltas are stored improvement-positive: ``delta_f`` is (old score -
new score) under the active minimization objective, so a successful move has
a positive delta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["StepSchedule", "accept"]


@dataclass(frozen=True)
class StepSchedule:
    """Linearly decaying step sizes, expressed as fractions of the box range.

    ``at(t)`` interpolates from the initial values at iteration ``start`` down
    to the final values at the horizon; up to ``start`` it stays at the
    initial values, and from the horizon on at the final values. ``start``
    lies in [0, horizon]. ``boost(tau, t)`` returns the schedule that starts
    at ``t`` from the current values times (1 + tau), with the same endpoint.
    """

    step_ind_initial: float
    step_ind_final: float
    step_vol_initial: float
    step_vol_final: float
    horizon: int
    start: int = 0

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {self.horizon}")
        if not 0 <= self.start <= self.horizon:
            raise ValueError(f"start must lie in [0, {self.horizon}], got {self.start}")
        for name in ("step_ind", "step_vol"):
            initial, final = getattr(self, f"{name}_initial"), getattr(self, f"{name}_final")
            if not initial >= final >= 0.0:
                raise ValueError(
                    f"{name}_initial >= {name}_final >= 0 required, got {initial} and {final}"
                )

    def at(self, t: int) -> tuple[float, float]:
        if t >= self.horizon:
            return self.step_ind_final, self.step_vol_final
        if t <= self.start:
            return self.step_ind_initial, self.step_vol_initial
        frac = (t - self.start) / (self.horizon - self.start)
        return (
            self.step_ind_initial + (self.step_ind_final - self.step_ind_initial) * frac,
            self.step_vol_initial + (self.step_vol_final - self.step_vol_initial) * frac,
        )

    def boost(self, tau: float, t: int) -> StepSchedule:
        ind, vol = self.at(t)
        return replace(
            self, step_ind_initial=ind * (1.0 + tau), step_vol_initial=vol * (1.0 + tau),
            start=min(t, self.horizon),
        )


def accept(
    accepted: np.ndarray,
    candidates: np.ndarray,
    cand_fitness: np.ndarray,
    cand_violation: np.ndarray,
    gain: np.ndarray,
    positions: np.ndarray,
    fitness: np.ndarray,
    violation: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Move the accepted fish to their candidates and record the deltas.

    ``gain`` is the improvement (current score - candidate score) under the
    active objective. A rejected fish keeps its position and evaluation, with
    zero deltas. Returns new ``(positions, fitness, violation, delta_x,
    delta_f)`` arrays; the inputs are not modified.
    """
    delta_f = np.where(accepted, gain, 0.0)
    delta_x = np.where(accepted[:, None], candidates - positions, 0.0)
    positions = np.where(accepted[:, None], candidates, positions)
    fitness = np.where(accepted, cand_fitness, fitness)
    violation = np.where(accepted, cand_violation, violation)
    return positions, fitness, violation, delta_x, delta_f
