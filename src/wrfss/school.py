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

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StepSchedule", "accept"]


@dataclass
class StepSchedule:
    """Linearly decaying step sizes, expressed as fractions of the box range.

    ``at(t)`` interpolates from the (possibly boosted) current anchor down to
    the final values at the horizon; past the horizon it stays at the final
    values. ``boost`` multiplies the current values by (1 + tau) and re-anchors
    the decay there, keeping the original endpoint.
    """

    step_ind_initial: float
    step_ind_final: float
    step_vol_initial: float
    step_vol_final: float
    horizon: int
    _anchor_t: int = field(default=0, repr=False)
    _anchor_ind: float = field(default=None, repr=False)
    _anchor_vol: float = field(default=None, repr=False)

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {self.horizon}")
        for name in ("step_ind", "step_vol"):
            initial, final = getattr(self, f"{name}_initial"), getattr(self, f"{name}_final")
            if not initial >= final >= 0.0:
                raise ValueError(
                    f"{name}_initial >= {name}_final >= 0 required, got {initial} and {final}"
                )
        if self._anchor_ind is None:
            self._anchor_ind = self.step_ind_initial
        if self._anchor_vol is None:
            self._anchor_vol = self.step_vol_initial

    def at(self, t: int) -> tuple[float, float]:
        if t >= self.horizon:
            return self.step_ind_final, self.step_vol_final
        frac = (t - self._anchor_t) / (self.horizon - self._anchor_t)
        frac = min(max(frac, 0.0), 1.0)
        return (
            self._anchor_ind + (self.step_ind_final - self._anchor_ind) * frac,
            self._anchor_vol + (self.step_vol_final - self._anchor_vol) * frac,
        )

    def boost(self, tau: float, t: int) -> None:
        ind, vol = self.at(t)
        self._anchor_t = min(t, self.horizon)
        self._anchor_ind = ind * (1.0 + tau)
        self._anchor_vol = vol * (1.0 + tau)


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
