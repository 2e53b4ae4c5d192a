"""Two-phase constrained search engine and its variant assembly.

Each iteration draws the random numbers of the individual movement, scores
the school together with its candidates in one batch, decides the active
phase from the feasible proportion (phase 1 minimizes the violation measure,
phase 2 the fitness), accepts candidates under the variant's rule, feeds
weights by normalizing the active objective against its running extremes,
then applies the leader-aware instinctive and volitive movements around the
link structure. Step sizes get a one-off boost at every phase 1 to phase 2
transition.

Variants share one code path so that degenerate parameter choices reproduce
the base behavior exactly (same random stream, same decisions): the epsilon
variant only swaps the acceptance comparison, the gradient variant only adds
a probability-gated probe, and the penalty variant only changes the phase-2
objective to fitness + violation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .constraint_handling import (
    EpsilonSchedule,
    RunningExtremes,
    best_index,
    epsilon_less_arrays,
    initial_epsilon,
    normalized_feeding,
)
from .gradient import forward_gradient, pick_direction
from .niching import (
    LinkGraph,
    leader_instinctive_step,
    leader_volitive_step,
    link_formator,
)
from .problem import EvaluationError, Problem, _reject_non_finite, evaluate_many, violation_many
from .school import StepSchedule, accept

__all__ = [
    "VARIANT_KINDS",
    "Variant",
    "EngineParams",
    "RunRecord",
    "decide_phase",
    "run",
]

VARIANT_KINDS = ("base", "epsilon", "gradient", "penalty")


@dataclass(frozen=True)
class Variant:
    """Which constraint-handling mechanism runs on top of the base engine.

    Each parameter is read, and range-checked, only by the kind it belongs
    to; a non-finite value is rejected in every kind.

    Epsilon: ``epsilon0`` fixes the starting tolerance; None derives it from
    the initial school violations. ``tc_fraction`` is the fraction of the
    iteration budget after which the tolerance is zero, and ``cp_min`` the
    lower bound of the decay exponent.

    Gradient: ``p_g`` is the per-fish probability of probing instead of the
    plain random move, and ``k_directions`` the number of random unit vectors
    sampled per probe. ``perturbation`` is the forward-difference step; None
    means 1e-6 of the per-dimension box range.
    """

    kind: str = "base"
    tc_fraction: float = 0.6
    cp_min: float = 3.0
    epsilon0: float | None = None
    k_directions: int = 200
    p_g: float = 0.1
    perturbation: float | None = None

    def __post_init__(self):
        _reject_non_finite(self)
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"variant kind must be one of {VARIANT_KINDS}, got {self.kind!r}")
        if self.kind == "epsilon":
            if not 0.0 < self.tc_fraction <= 1.0:
                raise ValueError(f"tc_fraction must lie in (0, 1], got {self.tc_fraction}")
            if not self.cp_min > 0.0:
                raise ValueError(f"cp_min must be positive, got {self.cp_min}")
            if self.epsilon0 is not None and self.epsilon0 < 0.0:
                raise ValueError(f"epsilon0 must be non-negative, got {self.epsilon0}")
        if self.kind == "gradient":
            if self.k_directions < 1:
                raise ValueError(f"k_directions must be >= 1, got {self.k_directions}")
            if not 0.0 <= self.p_g <= 1.0:
                raise ValueError(f"p_g must lie in [0, 1], got {self.p_g}")
            if self.perturbation is not None and not self.perturbation > 0.0:
                raise ValueError(f"perturbation must be positive, got {self.perturbation}")


@dataclass(frozen=True)
class EngineParams:
    """Engine parameters; step sizes are fractions of the per-dimension range.

    Every float parameter must be finite.
    """

    n_fish: int = 30
    iterations: int = 5000
    sigma: float = 0.05
    tau: float = 0.01
    w_scale: float = 5000.0
    step_ind_initial: float = 0.10
    step_ind_final: float = 0.0001
    step_vol_initial: float = 0.20
    step_vol_final: float = 0.0002
    sar_alpha0: float = 0.8
    sar_decay: float = 0.007

    def __post_init__(self):
        _reject_non_finite(self)
        if self.n_fish < 1:
            raise ValueError(f"n_fish must be >= 1, got {self.n_fish}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        if not self.w_scale >= 2.0:  # the start weight w_scale / 2 must lie in [1, w_scale]
            raise ValueError(f"w_scale must be >= 2, got {self.w_scale}")
        if not 0.0 <= self.sar_alpha0 <= 1.0:
            raise ValueError(f"sar_alpha0 must lie in [0, 1], got {self.sar_alpha0}")
        if self.sar_decay < 0.0:
            raise ValueError(f"sar_decay must be non-negative, got {self.sar_decay}")
        self.step_schedule()

    def step_schedule(self) -> StepSchedule:
        """The run's step schedule; it checks initial >= final >= 0 for both step pairs."""
        return StepSchedule(
            self.step_ind_initial, self.step_ind_final, self.step_vol_initial,
            self.step_vol_final, horizon=self.iterations,
        )


def decide_phase(violations: np.ndarray, sigma: float) -> int:
    """Phase 2 when the feasible proportion reaches ``sigma``, else phase 1."""
    violations = np.asarray(violations)
    feasible_fraction = np.count_nonzero(violations == 0.0) / violations.size
    return 2 if feasible_fraction >= sigma else 1


@dataclass
class RunRecord:
    """Per-iteration best-fish trace plus final statistics for one run.

    The trace has one row per iteration index 0..iterations, where row 0 is
    the initial school. The recorded best is the historical best under the
    feasibility rules, so the violation column is non-increasing and, once
    zero, the fitness column is non-increasing too.

    ``trace_feasible_count`` counts the feasible fish of the school as scored
    right after the individual movement, before the collective movements
    shift it; the next iteration's phase decision sees the re-scored school.

    ``eval_count`` is n_fish * (1 + 2 * iterations) plus D+1 per gradient
    probe; a batch re-scored after a phase change is not counted again. An
    aborted run's record covers exactly the batches it used before the
    failing call: the trace rows and best of the completed iterations, and
    the evaluations and probes of the calls that returned. A failing batch of
    school and candidates drops its school rows too.
    """

    seed: int
    variant_kind: str
    n_fish: int
    iterations: int
    trace_iteration: np.ndarray
    trace_best_fitness: np.ndarray
    trace_best_violation: np.ndarray
    trace_phase: np.ndarray
    trace_feasible_count: np.ndarray
    best_fitness: float
    best_violation: float
    best_position: np.ndarray
    eval_count: int
    probe_count: int
    wall_time: float
    aborted: bool = False
    error: str = ""

    @property
    def best_feasible(self) -> bool:
        return self.best_violation == 0.0


def _active_objective(
    fitness: np.ndarray, violation: np.ndarray, phase: int, variant: Variant
) -> np.ndarray:
    if phase == 1:
        return violation
    if variant.kind == "penalty":
        return fitness + violation
    return fitness


class _Moves(NamedTuple):
    """The random numbers of one individual movement, and its probe gradients.

    ``offsets`` holds the uniform [-1, 1) step of each plain fish (a zero row
    for a probing fish). For the p probing fish, ``probing`` holds their
    indices, ``gradient`` (p, D) their violation gradients, ``normals`` (p, K,
    D) their direction samples and ``fractions`` (p,) their step fractions.
    """

    offsets: np.ndarray
    probing: np.ndarray = np.empty(0, dtype=np.intp)
    gradient: np.ndarray | None = None
    normals: np.ndarray | None = None
    fractions: np.ndarray | None = None


def _probe_moves(
    rng: np.random.Generator,
    positions: np.ndarray,
    variant: Variant,
    problem: Problem,
    e: np.ndarray,
) -> _Moves:
    """The draws of the probability-gated probe, and the probes' gradients.

    A fish whose gate draw falls below the variant's ``p_g`` probes; every
    other fish takes the plain uniform step. The random numbers are drawn fish
    by fish, in index order, as if each fish were handled alone: one uniform
    block per run of plain fish, and the ``k_directions`` normal samples then
    the step fraction of each probing fish. No draw depends on a score, so the
    D+1 forward-difference rows (steps ``e``) of all p probing fish are scored
    afterwards in one ``violation_many`` call of p * (D+1) rows.
    """
    n, d = positions.shape
    probing = np.flatnonzero(rng.random(n) < variant.p_g)
    offsets = np.zeros((n, d))
    normals = np.empty((probing.size, variant.k_directions, d))
    fractions = np.empty(probing.size)
    start = 0  # first fish of the current run of plain fish; an empty run draws nothing
    for j, i in enumerate(probing):
        offsets[start:i] = rng.uniform(-1.0, 1.0, (i - start, d))
        rng.standard_normal(out=normals[j])
        fractions[j] = rng.random()
        start = i + 1
    offsets[start:] = rng.uniform(-1.0, 1.0, (n - start, d))
    score = partial(violation_many, problem)
    gradient = forward_gradient(score, positions[probing], e) if probing.size else None
    return _Moves(offsets, probing, gradient, normals, fractions)


def _candidates(
    positions: np.ndarray,
    moves: _Moves,
    phase: int,
    step_ind: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Individual-movement candidates, written into ``out`` and clipped into the box.

    A plain fish steps ``offsets * step_ind``. A probing fish steps
    step_ind * fraction along the direction its gradient picks among its
    normal samples (steepest descent in phase 1, flattest in phase 2).
    """
    np.multiply(moves.offsets, step_ind, out=out)
    out += positions
    if moves.probing.size:
        u = pick_direction(moves.gradient, moves.normals, phase)
        out[moves.probing] = positions[moves.probing] + step_ind * moves.fractions[:, None] * u
    np.maximum(out, lower, out=out)
    return np.minimum(out, upper, out=out)


def _merge_best(
    best: tuple[float, float, np.ndarray],
    fitness: np.ndarray,
    violation: np.ndarray,
    positions: np.ndarray,
) -> tuple[float, float, np.ndarray]:
    """The feasibility-rules best ``(f, v, x)`` of the incumbent and the school.

    The incumbent ranks ahead of the school, so a tie keeps it.
    """
    i = best_index(np.concatenate(([best[0]], fitness)), np.concatenate(([best[1]], violation)))
    if i == 0:
        return best
    return float(fitness[i - 1]), float(violation[i - 1]), positions[i - 1].copy()


def run(
    problem: Problem,
    variant: Variant = Variant(),
    params: EngineParams = EngineParams(),
    seed: int = 0,
    observer: Callable[..., None] | None = None,
) -> RunRecord:
    """Execute one seeded run and return its record.

    A fixed seed makes the whole run a deterministic function of the
    configuration. The school is held as local arrays, one row per fish:
    ``positions``, ``weights``, the last moves ``delta_x`` and ``delta_f``,
    and the ``fitness`` and ``violation`` of the last scoring.

    ``observer``, when given, is called at the end of every iteration as
    ``observer(t, positions, weights, fitness, violation, leader)``, with
    read-only views of the school after the collective movements (its scores
    are those after the individual movement) and of the follower-to-leader
    array (-1 for no leader). An evaluation error aborts the run and is
    reported on the record instead of raising.
    """
    t_start = time.perf_counter()
    rng = np.random.default_rng(seed)
    n, d = params.n_fish, problem.dimension
    lower, upper, width = problem.lower, problem.upper, problem.range_width

    schedule = params.step_schedule()
    extremes = {1: RunningExtremes(), 2: RunningExtremes()}
    use_probe = variant.kind == "gradient" and variant.p_g > 0.0
    if variant.perturbation is None:
        e_vec = 1e-6 * width
    else:
        e_vec = np.full(d, float(variant.perturbation))

    trace = []  # rows of (iteration, best fitness, best violation, phase, feasible count)
    best = (math.inf, math.inf, np.full(d, math.nan))  # the feasibility-rules best so far
    phase = 1  # so a school already feasible at t=0 gets one step boost
    eval_count = 0
    probe_count = 0
    aborted = False
    error = ""

    positions = lower + rng.random((n, d)) * width
    weights = np.full(n, params.w_scale / 2.0)
    # The volitive move contracts when the total weight grew since the
    # previous iteration, and expands otherwise; the first compares with the
    # start weights.
    total_weight = float(weights.sum())
    try:
        fitness, violation = evaluate_many(problem, positions)
        eval_count += n
        best = _merge_best(best, fitness, violation, positions)
        links = LinkGraph.empty(n)

        eps_schedule = None
        if variant.kind == "epsilon":
            eps0 = variant.epsilon0
            if eps0 is None:
                eps0 = initial_epsilon(violation)
            cutoff = int(round(variant.tc_fraction * params.iterations))
            eps_schedule = EpsilonSchedule(eps0=eps0, cutoff=cutoff, cp_min=variant.cp_min)

        trace.append((0, best[0], best[1], decide_phase(violation, params.sigma),
                      np.count_nonzero(violation == 0.0)))

        for t in range(params.iterations):
            # Individual movement: first every random number it draws, and the
            # gradient probes, which need no score of the school; then the
            # candidates for the previous iteration's phase and un-boosted step.
            if use_probe:
                moves = _probe_moves(rng, positions, variant, problem, e_vec)
                probe_count += moves.probing.size
                eval_count += moves.probing.size * (d + 1)
            else:
                moves = _Moves(rng.uniform(-1.0, 1.0, (n, d)))
            step_ind_frac, step_vol_frac = schedule.at(t)
            batch = np.empty((2 * n, d))
            batch[:n] = positions
            candidates = _candidates(
                positions, moves, phase, step_ind_frac * width, lower, upper, batch[n:]
            )
            # One call scores the school, unscored since the collective
            # movements of the previous iteration, and the candidates.
            batch_fitness, batch_violation = evaluate_many(problem, batch)
            eval_count += 2 * n
            fitness, violation = batch_fitness[:n], batch_violation[:n]
            best = _merge_best(best, fitness, violation, positions)

            new_phase = decide_phase(violation, params.sigma)
            if new_phase == 2 and phase == 1:
                schedule = schedule.boost(params.tau, t)
            if new_phase != phase and (new_phase == 2 or moves.probing.size):
                # Rebuild the candidates from the same draws for the new phase
                # (and step, boosted on a switch to phase 2), and re-score the
                # batch so they keep the rounding of a 2n-row call. A switch to
                # phase 1 with no probing fish boosts nothing and picks no
                # direction, so the candidates already scored stand.
                step_ind_frac, step_vol_frac = schedule.at(t)
                _candidates(
                    positions, moves, new_phase, step_ind_frac * width, lower, upper, candidates
                )
                batch_fitness, batch_violation = evaluate_many(problem, batch)
            phase = new_phase
            cand_fitness, cand_violation = batch_fitness[n:], batch_violation[n:]
            step_vol = step_vol_frac * width
            alpha = params.sar_alpha0 * math.exp(-params.sar_decay * t)
            eps = eps_schedule.value_at(t) if eps_schedule is not None else 0.0
            active = _active_objective(fitness, violation, phase, variant)

            cand_active = _active_objective(cand_fitness, cand_violation, phase, variant)
            if variant.kind == "epsilon":
                better = epsilon_less_arrays(cand_fitness, cand_violation, fitness, violation, eps)
            else:
                better = cand_active < active
            accepted = better | (rng.random(n) < alpha)
            positions, fitness, violation, delta_x, delta_f = accept(
                accepted, candidates, cand_fitness, cand_violation, active - cand_active,
                positions, fitness, violation,
            )
            best = _merge_best(best, fitness, violation, positions)

            # Feeding: normalize the active objective against its running extremes.
            active = _active_objective(fitness, violation, phase, variant)
            extremes[phase] = extremes[phase].update(active)
            weights = normalized_feeding(
                active, extremes[phase].min, extremes[phase].max, params.w_scale
            )

            # Collective movements around the links: the instinctive drift reads
            # the links of the previous iteration, the volitive move the fresh ones.
            positions = leader_instinctive_step(
                positions, delta_x, delta_f, links, t / params.iterations, lower, upper,
            )
            links = link_formator(weights, links, rng)
            previous_total, total_weight = total_weight, float(weights.sum())
            positions = leader_volitive_step(
                positions, weights, links, step_vol, total_weight > previous_total,
                rng.random((n, d)), lower, upper,
            )

            trace.append((t + 1, best[0], best[1], phase, np.count_nonzero(violation == 0.0)))
            if observer is not None:
                views = [a.view() for a in (positions, weights, fitness, violation, links.leader)]
                for view in views:
                    view.flags.writeable = False
                observer(t, *views)
    except EvaluationError as exc:
        aborted = True
        error = str(exc)

    iteration, trace_f, trace_v, trace_phase, feasible_count = zip(*trace) if trace else [()] * 5
    best_f, best_v, best_x = best if trace else (math.nan, math.nan, best[2])
    return RunRecord(
        seed=seed,
        variant_kind=variant.kind,
        n_fish=n,
        iterations=params.iterations,
        trace_iteration=np.array(iteration, dtype=np.int64),
        trace_best_fitness=np.array(trace_f, dtype=float),
        trace_best_violation=np.array(trace_v, dtype=float),
        trace_phase=np.array(trace_phase, dtype=np.int64),
        trace_feasible_count=np.array(feasible_count, dtype=np.int64),
        best_fitness=best_f,
        best_violation=best_v,
        best_position=best_x,
        eval_count=eval_count,
        probe_count=probe_count,
        wall_time=time.perf_counter() - t_start,
        aborted=aborted,
        error=error,
    )
