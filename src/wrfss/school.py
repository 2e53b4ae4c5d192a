"""School state and step schedule.

The school is stored as parallel arrays, one row per fish. ``School.accept``
applies the individual movement's acceptance decisions; the leader-aware
collective movements live in :mod:`wrfss.niching` and the weight feeding in
:mod:`wrfss.constraint_handling`. Steps decay linearly over the iteration
budget.

Movement deltas are stored improvement-positive: ``delta_f`` is (old score -
new score) under the active minimization objective, so a successful move has
a positive delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["School", "StepSchedule"]


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


@dataclass
class School:
    """Population state stored as parallel arrays (one row per fish)."""

    positions: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    delta_x: np.ndarray  # (n, d)
    delta_f: np.ndarray  # (n,)
    fitness: np.ndarray  # (n,)
    violation: np.ndarray  # (n,)
    prev_total_weight: float

    @classmethod
    def initial(
        cls,
        positions: np.ndarray,
        fitness: np.ndarray,
        violation: np.ndarray,
        w_scale: float,
    ) -> "School":
        positions = np.asarray(positions, dtype=float)
        n = positions.shape[0]
        weights = np.full(n, w_scale / 2.0)
        return cls(
            positions=positions,
            weights=weights,
            delta_x=np.zeros_like(positions),
            delta_f=np.zeros(n),
            fitness=np.asarray(fitness, dtype=float),
            violation=np.asarray(violation, dtype=float),
            prev_total_weight=float(weights.sum()),
        )

    def accept(
        self,
        accepted: np.ndarray,
        candidates: np.ndarray,
        fitness: np.ndarray,
        violation: np.ndarray,
        gain: np.ndarray,
    ) -> None:
        """Move the accepted fish to their candidates and record the deltas.

        ``gain`` is the improvement (current score - candidate score) under
        the active objective. A rejected fish keeps its position and
        evaluation, with zero deltas.
        """
        self.delta_f = np.where(accepted, gain, 0.0)
        self.delta_x = np.where(accepted[:, None], candidates - self.positions, 0.0)
        self.positions = np.where(accepted[:, None], candidates, self.positions)
        self.fitness = np.where(accepted, fitness, self.fitness)
        self.violation = np.where(accepted, violation, self.violation)

    def weight_gained(self) -> bool:
        """Whether the total weight grew since the previous call.

        Remembers the current total for the next call; the volitive movement
        contracts on a gain and expands otherwise.
        """
        total = float(self.weights.sum())
        gained = total > self.prev_total_weight
        self.prev_total_weight = total
        return gained
