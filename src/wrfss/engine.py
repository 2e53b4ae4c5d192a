"""Two-phase constrained search engine and its variant assembly.

Each iteration first draws all of its random numbers in one call, then
scores the school together with its candidates in one batch, decides the
active phase from the feasible proportion (phase 1 minimizes the violation
measure, phase 2 the fitness), accepts candidates under the variant's rule,
feeds weights by normalizing the active objective against its running
extremes, then applies the leader-aware instinctive and volitive movements
around the link structure. Step sizes get a one-off boost at every phase 1
to phase 2 transition.

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
from typing import Callable, NamedTuple, Sequence

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
    "run_many",
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


def decide_phase(violations: np.ndarray, sigma: float) -> list[int]:
    """One phase per row of the (R, n) ``violations``, one school per run.

    A row is in phase 2 when its feasible proportion reaches ``sigma``, else
    in phase 1.
    """
    n = violations.shape[1]
    feasible = np.add.reduce(violations == 0.0, axis=1).tolist()
    return [2 if count / n >= sigma else 1 for count in feasible]


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
    The phases are held as int8 and the counts as int32, the iterations as
    int64: a record keeps five trace columns, and a batch keeps many records.

    ``eval_count`` is n_fish * (1 + 2 * iterations) plus D+1 per gradient
    probe; a batch re-scored after a phase change is not counted again. An
    aborted run's record covers exactly the batches it used before the
    failing call: the trace rows and best of the completed iterations, and
    the evaluations and probes of the calls that returned. A failing batch of
    school and candidates drops its school rows too.

    ``wall_time`` is the run's share of the elapsed time of the block of
    seeds it ran in (see ``run_many``): the block's time over its seed count,
    or the run's own time when it ran alone. ``harness.run_batch`` runs each
    worker's contiguous block of seeds as one stacked school; every other
    field is the same alone or in a block, as ``problem`` pads a one-row call
    with copies of the row, which then gets the bits it gets in a batch.
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
    fitness: np.ndarray, violation: np.ndarray, phase: int | np.ndarray, variant: Variant
) -> np.ndarray:
    """The objective the phase minimizes: the violation in phase 1, the fitness in phase 2.

    The penalty variant's phase-2 objective is fitness + violation. ``phase``
    is one phase, or an array of phases that broadcasts against the scores
    (one per run of a school).
    """
    per_run = isinstance(phase, np.ndarray)
    if not per_run and phase == 1:
        return violation
    phase2 = fitness + violation if variant.kind == "penalty" else fitness
    return np.where(phase == 1, violation, phase2) if per_run else phase2


class _Draws(NamedTuple):
    """Every random number of one iteration of a school of R runs of n fish.

    The first five arrays are buffers that ``_run_school`` allocates once and
    ``_draw`` refills: ``offsets`` (Rn, D) holds the uniform [-1, 1) step of
    each plain fish (a probing fish's row is left unused), ``sar`` (Rn,) the
    uniform [0, 1) draws of the stagnation-avoidance rule, ``partners`` (Rn,)
    each fish's stack-wide link peer (empty when n is 1), ``volitive`` (Rn, D)
    the uniform [0, 1) volitive steps and ``probes`` (R,) each run's number of
    probing fish. For the p probing fish, ``probing`` holds their indices,
    ``normals`` (p, K, D) their direction samples and ``fractions`` (p,) their
    step fractions.
    """

    offsets: np.ndarray
    sar: np.ndarray
    partners: np.ndarray
    volitive: np.ndarray
    probes: np.ndarray
    probing: np.ndarray = np.empty(0, dtype=np.intp)
    normals: np.ndarray | None = None
    fractions: np.ndarray | None = None

    @classmethod
    def empty(cls, runs: int, n: int, d: int) -> _Draws:
        """The buffers of a school of R runs of n fish in D dimensions."""
        size = runs * n
        # Zeros, as a probing fish's unused row is still scaled by its step.
        return cls(
            offsets=np.zeros((size, d)), sar=np.empty(size),
            partners=np.empty(size if n > 1 else 0, dtype=np.int64),
            volitive=np.empty((size, d)), probes=np.zeros(runs, dtype=np.int64),
        )


def _stack(blocks: list[np.ndarray]) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _draw(rngs: list[np.random.Generator], variant: Variant, out: _Draws) -> _Draws:
    """Draw every random number of one iteration into ``out``; return it with the probe draws.

    After the initial school, this is the only code that calls a run's
    generator. Run r draws from ``rngs[r]`` exactly what it draws alone, in
    this order:

    1. the individual movement. A variant that can probe (gradient, with
       ``p_g`` above 0) first draws n uniform gates, and a fish whose gate
       falls below ``p_g`` probes. Then, fish by fish in index order as if
       each were handled alone: one uniform [-1, 1) block per run of
       consecutive plain fish, and the ``k_directions`` x D standard normals
       then the uniform step fraction of each probing fish. A variant that
       cannot probe draws no gate, so its school takes one (n, D) block;
    2. n uniform draws of the stagnation-avoidance rule;
    3. n link partners, one integer in [0, n - 1) per fish that skips the
       fish itself, when n > 1;
    4. the (n, D) uniform draws of the volitive move.

    No draw depends on a score, so one call at the start of the iteration
    draws them all, and the stage functions draw nothing.
    """
    size, d = out.offsets.shape
    n = size // len(rngs)
    gate = variant.kind == "gradient" and variant.p_g > 0.0
    index = np.arange(n)
    probing, normals, fractions = [], [], []
    for r, g in enumerate(rngs):
        first, end = r * n, (r + 1) * n
        offsets = out.offsets[first:end]
        start = 0  # first fish of the current run of plain fish; an empty run draws nothing
        if gate:
            gated = (g.random(n) < variant.p_g).nonzero()[0]
            run_normals = np.empty((gated.size, variant.k_directions, d))
            run_fractions = np.empty(gated.size)
            for j, i in enumerate(gated.tolist()):
                offsets[start:i] = g.uniform(-1.0, 1.0, (i - start, d))
                g.standard_normal(out=run_normals[j])
                run_fractions[j] = g.random()
                start = i + 1
            out.probes[r] = gated.size
            if gated.size:
                probing.append(gated + first if r else gated)
                normals.append(run_normals)
                fractions.append(run_fractions)
        offsets[start:] = g.uniform(-1.0, 1.0, (n - start, d))
        g.random(out=out.sar[first:end])
        if n > 1:
            raw = g.integers(0, n - 1, size=n)
            raw += raw >= index
            if r:
                raw += first
            out.partners[first:end] = raw
        g.random(out=out.volitive[first:end])
    if not probing:
        return out
    return out._replace(
        probing=_stack(probing), normals=_stack(normals), fractions=_stack(fractions)
    )


def _probe(
    problem: Problem, positions: np.ndarray, probing: np.ndarray, e: np.ndarray
) -> np.ndarray | None:
    """The (p, D) violation gradients of the p probing fish, None when no fish probes.

    The D+1 forward-difference rows (steps ``e``) of all probing fish are
    scored in one ``violation_many`` call of p * (D+1) rows.
    """
    if not probing.size:
        return None
    return forward_gradient(partial(violation_many, problem), positions[probing], e)


def _candidates(
    positions: np.ndarray,
    draws: _Draws,
    gradient: np.ndarray | None,
    phase: int | np.ndarray,
    step_ind: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Individual-movement candidates, written into ``out`` and clipped into the box.

    A plain fish steps ``offsets * step_ind``. A probing fish steps
    step_ind * fraction along the direction its row of the (p, D)
    ``gradient`` picks among its normal samples (steepest descent in phase 1,
    flattest in phase 2). In a school of R runs of consecutive fish,
    ``phase`` may be an array of one phase per run and ``step_ind`` one (D,)
    row per run.
    """
    size, d = positions.shape
    if step_ind.ndim == 1:
        np.multiply(draws.offsets, step_ind, out=out)
    else:
        runs = len(step_ind)
        np.multiply(
            draws.offsets.reshape(runs, -1, d), step_ind[:, None], out=out.reshape(runs, -1, d)
        )
    out += positions
    probing = draws.probing
    if probing.size:
        if isinstance(phase, np.ndarray):
            phase = phase.reshape(-1)[probing // (size // phase.size)]
        u = pick_direction(gradient, draws.normals, phase)
        step = step_ind if step_ind.ndim == 1 else step_ind[probing // (size // len(step_ind))]
        out[probing] = positions[probing] + step * draws.fractions[:, None] * u
    np.maximum(out, lower, out=out)
    return np.minimum(out, upper, out=out)


def _steps(
    schedules: list[StepSchedule], t: int, width: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The individual and volitive steps at ``t``: each run's fractions times the box width.

    One (D,) row serves every run when they share one schedule, as they do
    until a phase switch boosts some runs and not others; else there is one
    row per run.
    """
    first = schedules[0]
    if schedules.count(first) == len(schedules):
        ind, vol = first.at(t)
        return ind * width, vol * width
    ind, vol = np.array([schedule.at(t) for schedule in schedules]).T
    return ind[:, None] * width, vol[:, None] * width


def _one_phase(phase: list[int]) -> int | np.ndarray:
    """The phase of every run when they share one, else a (R, 1) array of each run's phase."""
    first = phase[0]
    return first if phase.count(first) == len(phase) else np.array(phase)[:, None]


def _merge_best(
    best: tuple[np.ndarray, np.ndarray, np.ndarray],
    scored: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Merge each run's scored fish into its feasibility-rules best ``(f, v, x)``, in place.

    ``best`` holds the (R,), (R,) and (R, D) arrays of the R runs' incumbents.
    Each entry of ``scored`` is a (fitness, violation, positions) block of
    shapes (R, k), (R, k) and (R, k, D). The incumbent ranks first and the
    blocks follow in order, so a tie keeps the earliest: one merge over
    ``[incumbent, school, moved school]`` equals a merge of the school
    followed by a merge of the moved school.
    """
    best_f, best_v, best_x = best
    fitness = np.concatenate([best_f[:, None]] + [f for f, _, _ in scored], axis=1)
    violation = np.concatenate([best_v[:, None]] + [v for _, v, _ in scored], axis=1)
    index = best_index(fitness, violation)
    won = index.nonzero()[0]
    if not won.size:
        return
    at = (won, index[won])
    best_f[won], best_v[won] = fitness[at], violation[at]
    best_x[won] = np.concatenate([best_x[:, None]] + [x for _, _, x in scored], axis=1)[at]


def run(
    problem: Problem,
    variant: Variant = Variant(),
    params: EngineParams = EngineParams(),
    seed: int = 0,
    observer: Callable[..., None] | None = None,
) -> RunRecord:
    """Execute one seeded run and return its record: ``run_many`` of the one seed.

    A fixed seed makes the whole run a deterministic function of the
    configuration. ``observer``, when given, is called at the end of every
    iteration as ``observer(t, positions, weights, fitness, violation,
    leader)``, with read-only views of the school after the collective
    movements (its scores are those after the individual movement) and of
    the follower-to-leader array (-1 for no leader). An evaluation error
    aborts the run and is reported on the record instead of raising.
    """
    return run_many(problem, variant, params, [seed], observer)[0]


def run_many(
    problem: Problem,
    variant: Variant = Variant(),
    params: EngineParams = EngineParams(),
    seeds: Sequence[int] = (0,),
    observer: Callable[..., None] | None = None,
) -> list[RunRecord]:
    """Execute one seeded run per seed, all as one stacked school; one record per seed.

    Each run draws from its own ``default_rng(seed)`` exactly what it draws
    alone: the initial school, then per iteration the numbers ``_draw`` lists,
    in its order. It makes the same decisions on the same scores. So when the
    problem scores each row of a batch independently of the other rows, as
    every CEC 2010 problem here does, each record equals the record ``run``
    gives its seed alone in every field but ``wall_time``, the block's
    elapsed time over its seed count. This holds for one-fish runs too, as
    ``problem`` pads a one-row call with copies of the row. An
    evaluation error in a block of several seeds re-runs each seed alone, so
    an aborted record is the solo aborted record too. An ``observer`` (see
    ``run``) watches a block of one seed only.
    """
    seeds = list(seeds)
    if observer is not None and len(seeds) != 1:
        raise ValueError(f"an observer watches one run, got {len(seeds)} seeds")
    if not seeds:
        return []
    t_start = time.perf_counter()
    try:
        records = _run_school(problem, variant, params, seeds, observer)
    except EvaluationError:
        records = [_run_school(problem, variant, params, [seed], None)[0] for seed in seeds]
    share = (time.perf_counter() - t_start) / len(seeds)
    for record in records:
        record.wall_time = share
    return records


def _run_school(
    problem: Problem,
    variant: Variant,
    params: EngineParams,
    seeds: list[int],
    observer: Callable[..., None] | None,
) -> list[RunRecord]:
    """The loop of ``run_many``; an evaluation error stops a single run and propagates otherwise.

    The school of R runs of n fish is held as stacked local arrays, run r in
    rows r*n to (r+1)*n: ``positions``, ``weights``, the last moves
    ``delta_x`` and ``delta_f``, and the ``fitness`` and ``violation`` of the
    last scoring. The links hold stack-wide indices and never cross runs.
    Each run keeps its own phase, step and epsilon schedules, feeding
    extremes, total weight, best so far and counters.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    runs, n, d = len(seeds), params.n_fish, problem.dimension
    size = runs * n
    lower, upper, width = problem.lower, problem.upper, problem.range_width

    schedules = [params.step_schedule()] * runs
    # The running extremes of each run's active objective, in its current
    # phase and in the other one.
    extremes, other_extremes = RunningExtremes.empty(runs), RunningExtremes.empty(runs)
    if variant.perturbation is None:
        e_vec = 1e-6 * width
    else:
        e_vec = np.full(d, float(variant.perturbation))

    # Trace rows, one column per run: best fitness, best violation, phase and
    # feasible count.
    trace_f = np.empty((params.iterations + 1, runs))
    trace_v = np.empty((params.iterations + 1, runs))
    trace_phase = np.empty((params.iterations + 1, runs), dtype=np.int8)
    trace_feasible = np.empty((params.iterations + 1, runs), dtype=np.int32)
    rows = 0  # trace rows recorded
    batches = 0  # school-and-candidates batches scored
    scored = False  # this iteration's school is scored but not yet merged into the best
    best = (np.full(runs, math.inf), np.full(runs, math.inf), np.full((runs, d), math.nan))
    phase = [1] * runs  # so a school already feasible at t=0 gets one step boost
    shared = 1  # the phase of every run, or an array of each run's phase when they differ
    probe_count = np.zeros(runs, dtype=np.int64)
    aborted = False
    error = ""

    positions = lower + np.concatenate([g.random((n, d)) for g in rngs]) * width
    batch = np.empty((2 * size, d))  # the school, then its candidates, scored in one call
    candidates = batch[size:]
    batch_rows = np.arange(2 * size).reshape(2, runs, n)  # by half, run and fish
    buffers = _Draws.empty(runs, n, d)
    weights = np.full(size, params.w_scale / 2.0)
    # The volitive move contracts when a run's total weight grew since the
    # previous iteration, and expands otherwise; the first compares with the
    # start weights.
    total_weight = np.add.reduce(weights.reshape(runs, n), axis=1)
    try:
        fitness, violation = evaluate_many(problem, positions)
        school_v = violation.reshape(runs, n)
        _merge_best(best, [(fitness.reshape(runs, n), school_v, positions.reshape(runs, n, d))])
        links = LinkGraph.empty(size)

        eps_schedules = []
        if variant.kind == "epsilon":
            cutoff = int(round(variant.tc_fraction * params.iterations))
            for run_v in school_v:
                eps0 = variant.epsilon0
                if eps0 is None:
                    eps0 = initial_epsilon(run_v)
                eps_schedules.append(
                    EpsilonSchedule(eps0=eps0, cutoff=cutoff, cp_min=variant.cp_min)
                )

        trace_f[0], trace_v[0] = best[0], best[1]
        trace_phase[0] = decide_phase(school_v, params.sigma)
        trace_feasible[0] = (school_v == 0.0).sum(axis=1)
        rows = 1

        school_x = batch[:size].reshape(runs, n, d)
        for t in range(params.iterations):
            # Every random number of the iteration, then the gradient probes,
            # which need no score of the school, and the individual movement's
            # candidates for the previous iteration's phase and un-boosted step.
            draws = _draw(rngs, variant, buffers)
            gradient = _probe(problem, positions, draws.probing, e_vec)
            if gradient is not None:
                probe_count += draws.probes
            step_ind, step_vol = _steps(schedules, t, width)
            batch[:size] = positions
            _candidates(positions, draws, gradient, shared, step_ind, lower, upper, candidates)
            # One call scores the school, unscored since the collective
            # movements of the previous iteration, and the candidates.
            batch_fitness, batch_violation = evaluate_many(problem, batch)
            batches += 1
            scored = True
            fitness, cand_fitness = batch_fitness[:size], batch_fitness[size:]
            violation, cand_violation = batch_violation[:size], batch_violation[size:]
            school_f, school_v = fitness.reshape(runs, n), violation.reshape(runs, n)

            new_phase = decide_phase(school_v, params.sigma)
            if new_phase != phase:
                # Rebuild the candidates from the same draws for the new phase
                # (and step, boosted on a switch to phase 2), and re-score the
                # school and candidate rows of the runs that switched, in batch
                # order: the rows a run alone re-scores, and the whole batch
                # when every run switched. A switch to phase 1 with no probing
                # fish boosts nothing and picks no direction, so the candidates
                # already scored stand, as do those of every run whose phase
                # stays, which are rebuilt unchanged.
                changed = [r for r in range(runs) if new_phase[r] != phase[r]]
                switched = [r for r in changed if new_phase[r] == 2 or draws.probes[r]]
                for r in changed:
                    if new_phase[r] == 2:
                        schedules[r] = schedules[r].boost(params.tau, t)
                    for mine, others in ((extremes.min, other_extremes.min),
                                         (extremes.max, other_extremes.max)):
                        mine[r, 0], others[r, 0] = others[r, 0], mine[r, 0]
                shared = _one_phase(new_phase)
                if switched:
                    step_ind, step_vol = _steps(schedules, t, width)
                    _candidates(positions, draws, gradient, shared, step_ind, lower, upper,
                                candidates)
                    redo = batch_rows[:, switched].ravel()
                    batch_fitness[redo], batch_violation[redo] = evaluate_many(
                        problem, batch[redo]
                    )
            phase = new_phase
            active, cand_active = _active_objective(
                batch_fitness.reshape(2, runs, n), batch_violation.reshape(2, runs, n),
                shared, variant,
            ).reshape(2, size)
            if variant.kind == "epsilon":
                eps = [schedule.value_at(t) for schedule in eps_schedules]
                if eps.count(eps[0]) == runs:
                    better = epsilon_less_arrays(
                        cand_fitness, cand_violation, fitness, violation, eps[0]
                    )
                else:
                    better = epsilon_less_arrays(
                        cand_fitness.reshape(runs, n), cand_violation.reshape(runs, n),
                        school_f, school_v, np.array(eps)[:, None],
                    ).reshape(size)
            else:
                better = cand_active < active
            alpha = params.sar_alpha0 * math.exp(-params.sar_decay * t)
            accepted = better | (draws.sar < alpha)
            positions, fitness, violation, delta_x, delta_f = accept(
                accepted, candidates, cand_fitness, cand_violation, active - cand_active,
                positions, fitness, violation,
            )
            fitness_runs, violation_runs = fitness.reshape(runs, n), violation.reshape(runs, n)
            _merge_best(best, [
                (school_f, school_v, school_x),
                (fitness_runs, violation_runs, positions.reshape(runs, n, d)),
            ])
            scored = False

            # Feeding: normalize the active objective against its running extremes.
            active = _active_objective(fitness_runs, violation_runs, shared, variant)
            extremes = extremes.update(active)
            weights = normalized_feeding(
                active, extremes.min, extremes.max, params.w_scale
            ).reshape(size)

            # Collective movements around the links: the instinctive drift reads
            # the links of the previous iteration, the volitive move the fresh ones.
            positions = leader_instinctive_step(
                positions, delta_x, delta_f, links, t / params.iterations, lower, upper,
            )
            links = link_formator(weights, links, draws.partners)
            previous_total = total_weight
            total_weight = np.add.reduce(weights.reshape(runs, n), axis=1)
            positions = leader_volitive_step(
                positions, weights, links, step_vol, total_weight > previous_total,
                draws.volitive, lower, upper,
            )

            trace_f[t + 1], trace_v[t + 1] = best[0], best[1]
            trace_phase[t + 1] = phase
            trace_feasible[t + 1] = np.add.reduce(violation_runs == 0.0, axis=1)
            rows = t + 2
            if observer is not None:
                views = [a.view() for a in (positions, weights, fitness, violation, links.leader)]
                for view in views:
                    view.flags.writeable = False
                observer(t, *views)
    except EvaluationError as exc:
        if runs > 1:
            raise
        if scored:  # the school half of a batch that returned counts, also when its re-score fails
            _merge_best(best, [(school_f, school_v, school_x)])
        aborted = True
        error = str(exc)

    probes = probe_count.tolist()
    records = []
    for r, seed in enumerate(seeds):
        best_f, best_v = (float(best[0][r]), float(best[1][r])) if rows else (math.nan, math.nan)
        records.append(RunRecord(
            seed=seed,
            variant_kind=variant.kind,
            n_fish=n,
            iterations=params.iterations,
            trace_iteration=np.arange(rows, dtype=np.int64),
            trace_best_fitness=trace_f[:rows, r].copy(),
            trace_best_violation=trace_v[:rows, r].copy(),
            trace_phase=trace_phase[:rows, r].copy(),
            trace_feasible_count=trace_feasible[:rows, r].copy(),
            best_fitness=best_f,
            best_violation=best_v,
            best_position=best[2][r].copy(),
            # the initial school, the batches that returned, and the probes
            eval_count=(n if rows else 0) + 2 * n * batches + (d + 1) * probes[r],
            probe_count=probes[r],
            wall_time=0.0,
            aborted=aborted,
            error=error,
        ))
    return records
