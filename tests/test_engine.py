import ast
import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wrfss import engine
from wrfss.cec2010 import load_problem
from wrfss.engine import EngineParams, Variant, decide_phase, run, run_many
from wrfss.harness import paper_preset
from wrfss.problem import Problem, evaluate_many
from wrfss.school import StepSchedule

from oracles import draw_rest_of_iteration, is_forest, record_differences


def sphere(d=4, lo=-10.0, hi=10.0):
    return Problem(
        dimension=d,
        lower=np.full(d, lo),
        upper=np.full(d, hi),
        objective=lambda x: (np.asarray(x) ** 2).sum(axis=-1),
        name="sphere",
    )


def ring(d=3):
    # feasible only inside the unit ball around the origin
    return Problem(
        dimension=d,
        lower=np.full(d, -5.0),
        upper=np.full(d, 5.0),
        objective=lambda x: np.asarray(x)[..., 0],
        inequalities=(lambda x: (np.asarray(x) ** 2).sum(axis=-1) - 1.0,),
        name="ring",
    )


def hopeless(d=3):
    # equality sum((x+1)^2) + 1 = 0 has no solution: the school never turns
    # feasible, and the violation depends on every coordinate so distinct
    # positions never tie on it
    return Problem(
        dimension=d,
        lower=np.full(d, -5.0),
        upper=np.full(d, 5.0),
        objective=lambda x: (np.asarray(x) ** 2).sum(axis=-1),
        equalities=(lambda x: ((np.asarray(x) + 1.0) ** 2).sum(axis=-1) + 1.0,),
        delta=1e-4,
        name="hopeless",
    )


def records_equal(a, b):
    return (
        np.array_equal(a.trace_iteration, b.trace_iteration)
        and np.array_equal(a.trace_best_fitness, b.trace_best_fitness)
        and np.array_equal(a.trace_best_violation, b.trace_best_violation)
        and np.array_equal(a.trace_phase, b.trace_phase)
        and np.array_equal(a.trace_feasible_count, b.trace_feasible_count)
        and np.array_equal(a.best_position, b.best_position)
        and a.eval_count == b.eval_count
        and a.best_fitness == b.best_fitness
        and a.best_violation == b.best_violation
    )


class TestDecidePhase:
    def test_two_of_thirty_feasible_crosses_five_percent(self):
        violations = np.array([[0.0] * 2 + [1.0] * 28, [0.0] + [1.0] * 29])
        assert 2 / 30 >= 0.05 > 1 / 30
        assert decide_phase(violations, 0.05) == [2, 1]

    def test_no_feasible_fish_is_phase_one(self):
        assert decide_phase(np.ones((2, 30)), 0.05) == [1, 1]

    def test_zero_threshold_always_phase_two(self):
        assert decide_phase(np.ones((1, 30)), 0.0) == [2]

    def test_boundary_is_inclusive(self):
        violations = np.array([[0.0, 1.0, 1.0, 1.0]])  # exactly 25%
        assert decide_phase(violations, 0.25) == [2]


@pytest.fixture
def boosts(monkeypatch):
    """The (tau, t) of every StepSchedule.boost call; each call still boosts."""
    calls = []
    boost = StepSchedule.boost

    def counting_boost(schedule, tau, t):
        calls.append((tau, t))
        return boost(schedule, tau, t)

    monkeypatch.setattr(StepSchedule, "boost", counting_boost)
    return calls


# On ring() with sigma=0.5 this seed switches from phase 1 to phase 2 at
# several iterations after t=0, with or without step boosts.
SWITCHING_SEED = 2


def phase_switches(rec):
    """Iterations whose phase is 2 after a phase-1 iteration; the run starts in phase 1."""
    phase = rec.trace_phase[1:]  # row t + 1 holds the phase of iteration t
    before = np.concatenate([[1], phase[:-1]])
    return np.flatnonzero((phase == 2) & (before == 1)).tolist()


class TestPhaseBoost:
    def test_boost_applied_once_per_transition(self, boosts):
        params = EngineParams(n_fish=10, iterations=60, sigma=0.5, tau=0.3)
        rec = run(ring(), Variant("base"), params, seed=SWITCHING_SEED)
        switches = phase_switches(rec)
        # the run switches more than once, so it also flips back to phase 1
        assert len(switches) >= 2 and switches[0] > 0
        assert boosts == [(0.3, t) for t in switches]

    def test_tau_zero_is_identity(self, boosts, monkeypatch):
        steps = {}
        at = StepSchedule.at

        def recording_at(schedule, t):
            steps[t] = at(schedule, t)
            return steps[t]

        monkeypatch.setattr(StepSchedule, "at", recording_at)
        params = EngineParams(n_fish=10, iterations=60, sigma=0.5, tau=0.0)
        rec = run(ring(), Variant("base"), params, seed=SWITCHING_SEED)
        switches = phase_switches(rec)
        assert switches and boosts == [(0.0, t) for t in switches]
        plain = params.step_schedule()
        # a boost re-anchors the decay, which rounds differently in the last digits
        assert steps == {t: pytest.approx(at(plain, t), rel=1e-12) for t in range(60)}


class TestRun:
    def test_same_seed_is_deterministic(self):
        problem = ring()
        params = EngineParams(n_fish=10, iterations=120)
        a = run(problem, Variant("base"), params, seed=5)
        b = run(problem, Variant("base"), params, seed=5)
        assert records_equal(a, b)

    def test_different_seeds_differ(self):
        problem = sphere()
        params = EngineParams(n_fish=10, iterations=60)
        a = run(problem, Variant("base"), params, seed=5)
        b = run(problem, Variant("base"), params, seed=6)
        assert not records_equal(a, b)

    def test_zero_budget_returns_initial_best(self):
        problem = sphere()
        params = EngineParams(n_fish=8, iterations=0)
        rec = run(problem, Variant("base"), params, seed=3)
        assert rec.trace_iteration.tolist() == [0]
        assert rec.eval_count == 8
        assert rec.best_fitness == rec.trace_best_fitness[0]

    def test_eval_count_formula_base(self):
        problem = sphere()
        n, t = 12, 37
        rec = run(problem, Variant("base"), EngineParams(n_fish=n, iterations=t), seed=1)
        assert rec.eval_count == n * (1 + 2 * t)
        assert rec.probe_count == 0

    def test_eval_count_formula_gradient(self):
        problem = ring()
        n, t, d = 9, 25, 3
        variant = Variant("gradient", k_directions=8, p_g=0.4)
        rec = run(problem, variant, EngineParams(n_fish=n, iterations=t), seed=2)
        assert rec.probe_count > 0
        assert rec.eval_count == n * (1 + 2 * t) + (d + 1) * rec.probe_count

    def test_trace_shape_and_monotonicity(self):
        problem = ring()
        rec = run(problem, Variant("base"), EngineParams(n_fish=10, iterations=150), seed=7)
        assert rec.trace_iteration.tolist() == list(range(151))
        v = rec.trace_best_violation
        assert np.all(np.diff(v) <= 0.0)
        # once feasible, stays feasible and fitness is non-increasing
        zero = np.flatnonzero(v == 0.0)
        if zero.size:
            first = zero[0]
            assert np.all(v[first:] == 0.0)
            f = rec.trace_best_fitness[first:]
            assert np.all(np.diff(f) <= 0.0)

    def test_optimizes_unconstrained_sphere(self):
        problem = sphere()
        rec = run(problem, Variant("base"), EngineParams(n_fish=15, iterations=400), seed=11)
        assert rec.best_violation == 0.0
        assert rec.best_fitness < rec.trace_best_fitness[0] * 0.2

    def test_switch_to_phase_one_without_probes_is_not_rescored(self, monkeypatch):
        # One call per iteration, plus one re-score per switch from phase 1 to
        # phase 2 (boosted step). A switch back to phase 1 with no probing
        # fish rebuilds the same candidates, so its batch is not scored again.
        calls = []

        def counting(problem, points):
            calls.append(points.shape[0])
            return evaluate_many(problem, points)

        monkeypatch.setattr(engine, "evaluate_many", counting)
        problem = load_problem("C07").problem
        params = EngineParams(n_fish=10, iterations=200, sigma=0.5, tau=0.01)
        rec = run(problem, Variant("base"), params, seed=1000)
        phases = [1] + rec.trace_phase[1:].tolist()  # the loop starts in phase 1
        pairs = list(zip(phases, phases[1:]))
        assert pairs.count((2, 1)) > 0
        assert len(calls) == 1 + params.iterations + pairs.count((1, 2))

    def test_phase_flips_are_possible_and_not_latched(self):
        problem = ring()
        rec = run(
            problem,
            Variant("base"),
            EngineParams(n_fish=10, iterations=300, sigma=0.5),
            seed=13,
        )
        phases = rec.trace_phase[1:]
        assert set(np.unique(phases)) <= {1, 2}
        # the engine recomputes the phase from the school every iteration;
        # at least one switch is expected on this problem at sigma = 50%
        assert len(set(phases.tolist())) == 2

    def test_epsilon_zero_matches_base(self):
        problem = hopeless()
        params = EngineParams(n_fish=10, iterations=200)
        base = run(problem, Variant("base"), params, seed=21)
        eps = run(problem, Variant("epsilon", epsilon0=0.0), params, seed=21)
        assert records_equal(base, eps)

    def test_gradient_probability_zero_matches_base(self):
        problem = hopeless()
        params = EngineParams(n_fish=10, iterations=200)
        base = run(problem, Variant("base"), params, seed=22)
        grad = run(
            problem,
            Variant("gradient", k_directions=10, p_g=0.0),
            params,
            seed=22,
        )
        assert records_equal(base, grad)

    def test_penalty_matches_base_while_phase_one(self):
        # phase 2 never happens on an always-infeasible problem, and the
        # penalty variant only differs in phase 2
        problem = hopeless()
        params = EngineParams(n_fish=10, iterations=150)
        base = run(problem, Variant("base"), params, seed=23)
        pen = run(problem, Variant("penalty"), params, seed=23)
        assert np.all(base.trace_phase[1:] == 1)
        assert records_equal(base, pen)

    def test_epsilon_relaxation_changes_decisions(self):
        problem = ring()
        params = EngineParams(n_fish=10, iterations=200)
        base = run(problem, Variant("base"), params, seed=31)
        eps = run(problem, Variant("epsilon"), params, seed=31)
        assert not records_equal(base, eps)

    def test_aborted_run_records_diagnostic(self):
        bad = Problem(
            dimension=2,
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
            objective=lambda x: np.full(x.shape[0], np.nan),
        )
        rec = run(bad, Variant("base"), EngineParams(n_fish=4, iterations=10), seed=1)
        assert rec.aborted
        assert "objective" in rec.error
        # the initial evaluation failed: nothing was recorded or counted
        for trace in (rec.trace_iteration, rec.trace_best_fitness, rec.trace_best_violation,
                      rec.trace_phase, rec.trace_feasible_count):
            assert trace.size == 0
        assert math.isnan(rec.best_fitness)
        assert math.isnan(rec.best_violation)
        assert rec.best_position.shape == (2,)
        assert np.all(np.isnan(rec.best_position))
        assert rec.eval_count == 0
        assert rec.probe_count == 0

    def test_abort_mid_run_keeps_partial_trace(self):
        calls = {"n": 0}

        def objective(x):
            # One call per iteration scores the school and its candidates.
            # The school is feasible from the start, so iteration 0 switches
            # to phase 2 and re-scores its rebuilt batch: calls 2 and 3. The
            # fifth call is the batch of the third iteration.
            calls["n"] += 1
            if calls["n"] > 4:
                return np.full(x.shape[0], np.nan)
            return (x**2).sum(axis=-1)

        bad = Problem(
            dimension=2,
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
            objective=objective,
        )
        rec = run(bad, Variant("base"), EngineParams(n_fish=5, iterations=50), seed=1)
        assert rec.aborted
        assert "objective" in rec.error
        assert list(rec.trace_iteration) == [0, 1, 2]
        # the initial school, then 2n rows per completed iteration; the
        # re-scored batch of iteration 0 is not counted twice
        assert rec.eval_count == 5 * (1 + 2 * 2)

    def test_abort_on_candidate_half_drops_the_whole_batch(self):
        # Only the candidate rows of the third iteration's batch are
        # non-finite. The call raises, so its finite school rows are not
        # merged into the best either: the record ends as trace row 2 left it.
        n, batches = 5, []

        def objective(x):
            batches.append(x.copy())
            values = (x**2).sum(axis=-1)
            if len(batches) == 4:
                values[n:] = np.nan
            return values

        # never feasible (g = x0 + 2 > 0), so the phase stays 1 and each
        # iteration makes exactly one call
        bad = Problem(
            dimension=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0), objective=objective,
            inequalities=(lambda x: x[:, 0] + 2.0,),
        )
        rec = run(bad, Variant("base"), EngineParams(n_fish=n, iterations=50), seed=5)
        assert rec.aborted
        assert "objective" in rec.error
        assert [len(b) for b in batches] == [n, 2 * n, 2 * n, 2 * n]
        assert list(rec.trace_iteration) == [0, 1, 2]
        assert rec.eval_count == n * (1 + 2 * 2)
        assert rec.best_violation == rec.trace_best_violation[-1]
        assert rec.best_fitness == rec.trace_best_fitness[-1]
        # the dropped school half held a fish better than the recorded best
        assert (batches[-1][:n, 0] + 2.0).min() < rec.best_violation

    def test_aborted_gradient_run_counts_completed_calls(self):
        # every fish probes, so each iteration scores one probe batch of
        # n * (D+1) rows; a non-finite constraint in the second batch aborts
        # the run, and the counts cover exactly the calls that returned before
        # it. The school is never feasible (g = x0 + 10 > 0), so the phase
        # stays 1 and no batch is re-scored.
        d, n = 3, 6
        done = {"rows": 0, "batches": 0}

        def inequality(x):
            if x.shape[0] == n * (d + 1):
                if done["batches"] == 1:
                    return np.full(x.shape[0], np.nan)
                done["batches"] += 1
            done["rows"] += x.shape[0]
            return x[:, 0] + 10.0

        problem = Problem(
            dimension=d, lower=np.full(d, -5.0), upper=np.full(d, 5.0),
            objective=lambda x: (x**2).sum(axis=-1), inequalities=(inequality,),
        )
        variant = Variant("gradient", k_directions=4, p_g=1.0)
        rec = run(problem, variant, EngineParams(n_fish=n, iterations=50), seed=5)
        assert rec.aborted
        assert "inequality[0]" in rec.error
        assert list(rec.trace_iteration) == [0, 1]
        assert rec.probe_count == n
        assert rec.eval_count == done["rows"]

    def test_probe_rows_do_not_score_the_objective(self):
        # the objective is non-finite everywhere but at the initial n-row
        # batch and the 2n-row batches of school and candidates: the probe
        # scores only the constraints, so the run completes, and the
        # evaluation count formula still holds
        d, n, t = 3, 6, 20

        def objective(x):
            return (x**2).sum(axis=-1) if len(x) in (n, 2 * n) else np.full(len(x), np.nan)

        problem = Problem(
            dimension=d, lower=np.full(d, -5.0), upper=np.full(d, 5.0),
            objective=objective,
            inequalities=(lambda x: x[:, 0] - 1.0,),
        )
        variant = Variant("gradient", k_directions=4, p_g=1.0)
        rec = run(problem, variant, EngineParams(n_fish=n, iterations=t), seed=5)
        assert not rec.aborted, rec.error
        assert rec.probe_count == n * t
        assert rec.eval_count == n * (1 + 2 * t) + (d + 1) * rec.probe_count

    def test_observer_sees_every_iteration(self):
        seen = []
        problem = sphere()
        run(
            problem,
            Variant("base"),
            EngineParams(n_fish=6, iterations=25),
            seed=2,
            observer=lambda t, positions, weights, fitness, violation, leader: seen.append(
                (t, is_forest(leader))
            ),
        )
        assert [t for t, _ in seen] == list(range(25))
        assert all(ok for _, ok in seen)

    def test_observer_gets_read_only_arrays(self):
        problem = ring()
        params = EngineParams(n_fish=8, iterations=30)
        refused = []

        def write_into_each(t, *arrays):
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
            refused.append(len(arrays))

        observed = run(problem, Variant("epsilon"), params, seed=6, observer=write_into_each)
        assert refused == [5] * 30
        plain = run(problem, Variant("epsilon"), params, seed=6)
        for field in dataclasses.fields(plain):
            if field.name != "wall_time":
                a, b = getattr(observed, field.name), getattr(plain, field.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name

    def test_positions_stay_in_box(self):
        problem = ring()

        def check(t, positions, weights, fitness, violation, leader):
            assert np.all(positions >= problem.lower - 1e-15)
            assert np.all(positions <= problem.upper + 1e-15)
            assert np.all(weights >= 1.0)
            assert np.all(weights <= 5000.0)

        run(problem, Variant("base"), EngineParams(n_fish=8, iterations=60), seed=3,
            observer=check)

    def test_feasible_start_boosts_once_at_t0(self, boosts):
        # The run starts in phase 1, so a school that is feasible at t=0 gets
        # one (1 + tau) boost there although no switch happened.
        rec = run(sphere(), Variant("base"), EngineParams(n_fish=8, iterations=50, tau=0.3),
                  seed=4)
        assert np.all(rec.trace_phase[1:] == 2)
        assert boosts == [(0.3, 0)]

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            Variant("unknown")
        with pytest.raises(ValueError):
            Variant("epsilon", tc_fraction=0.0)
        with pytest.raises(ValueError):
            Variant("epsilon", epsilon0=-1.0)
        with pytest.raises(ValueError, match="cp_min"):
            Variant("epsilon", cp_min=0.0)
        # each kind checks only its own parameters
        Variant("gradient", tc_fraction=0.0, cp_min=0.0)
        Variant("epsilon", k_directions=0, p_g=2.0)
        with pytest.raises(ValueError):
            EngineParams(n_fish=0)
        with pytest.raises(ValueError):
            EngineParams(sigma=1.5)
        for w_scale in (1.0, 1.5, math.nan):
            # below 2 the start weight w_scale / 2 would fall under 1
            with pytest.raises(ValueError, match="w_scale"):
                EngineParams(w_scale=w_scale)
        EngineParams(w_scale=2.0)
        for bad in (dict(step_ind_final=0.5), dict(step_ind_final=-1e-3),
                    dict(step_vol_initial=0.0001), dict(step_vol_final=-1e-3)):
            with pytest.raises(ValueError, match="step_"):
                EngineParams(**bad)

    @pytest.mark.parametrize("cls, name, value", [
        (EngineParams, "w_scale", math.inf),
        (EngineParams, "sar_decay", math.inf),
        (EngineParams, "tau", math.nan),
        (EngineParams, "tau", math.inf),
        (EngineParams, "step_ind_initial", math.inf),
        (Variant, "epsilon0", math.inf),
        (Variant, "cp_min", math.inf),
        (Variant, "perturbation", math.inf),
        (Variant, "tc_fraction", math.nan),
    ])
    def test_non_finite_parameter_rejected(self, cls, name, value):
        # in every variant kind, not only the one that reads the parameter
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_flat_objective_keeps_first_fish(self, seed, monkeypatch):
        # every fish ties under the feasibility rules, so the incumbent, the
        # first fish of the initial school, is never replaced
        scored = []

        def scoring(problem, points):
            scored.append(np.array(points))
            return evaluate_many(problem, points)

        monkeypatch.setattr(engine, "evaluate_many", scoring)
        flat = Problem(dimension=3, lower=np.full(3, -1.0), upper=np.full(3, 1.0),
                       objective=lambda x: np.zeros(x.shape[0]))
        rec = run(flat, Variant("base"), EngineParams(n_fish=6, iterations=15), seed=seed)
        assert np.array_equal(rec.best_position, scored[0][0])
        assert (rec.best_fitness, rec.best_violation) == (0.0, 0.0)

    def test_gradient_variant_defaults_probe(self):
        v = Variant("gradient")
        assert v.k_directions == 200
        assert v.p_g == 0.1
        assert v.perturbation is None


# The four variant kinds on C01, C07 and C08 (surrogate data, desk preset at
# a short budget), the gradient variant at two probe probabilities, each at
# sigma 0.05 and 0.5.
ENSEMBLE_VARIANTS = [("wrfss", {}), ("wrfsse", {}), ("wrfssp", {}),
                     ("wrfssg", {"p_g": 0.1}), ("wrfssg", {"p_g": 0.5})]


def ensemble_setup(pid, name, extra, sigma, iterations=80):
    config = dataclasses.replace(
        paper_preset(pid, name, desk=True), data_source="surrogate", iterations=iterations,
        sigma=sigma, k_directions=20, **extra,
    )
    return config.load_problem(), config.engine_variant(), config.engine_params()


class TestRunMany:
    """A block of seeds run as one stacked school equals the solo runs."""

    @pytest.mark.parametrize("sigma", [0.05, 0.5])
    @pytest.mark.parametrize("name, extra", ENSEMBLE_VARIANTS)
    @pytest.mark.parametrize("pid", ["C01", "C07", "C08"])
    def test_blocks_equal_solo_runs(self, pid, name, extra, sigma):
        problem, variant, params = ensemble_setup(pid, name, extra, sigma)
        seeds = [40, 41, 42, 43, 44]
        alone = [run(problem, variant, params, seed=s) for s in seeds]
        for size in (1, 2, 3, 5):
            block = run_many(problem, variant, params, seeds[:size])
            assert [r.seed for r in block] == seeds[:size]
            for a, b in zip(alone, block):
                assert record_differences(a, b) == [], (size, a.seed)

    def test_runs_of_a_block_take_their_own_phases_and_steps(self):
        # The premise of the per-run state: in this block the runs are in
        # different phases at some iterations and switch at different ones,
        # so their boosted steps differ too.
        problem, variant, params = ensemble_setup("C07", "wrfssg", {"p_g": 0.5}, 0.5)
        block = run_many(problem, variant, params, [40, 41, 42])
        phases = np.array([r.trace_phase[1:] for r in block])
        assert (phases.min(axis=0) != phases.max(axis=0)).any()
        switches = [phase_switches(r) for r in block]
        assert len({tuple(s) for s in switches}) > 1

    @pytest.mark.parametrize("kind, seeds, where", [
        ("base", [7, 8, 9], "objective"),
        ("gradient", [8, 9, 10], "inequality"),
    ])
    def test_aborted_seed_in_a_block_equals_its_solo_record(self, kind, seeds, where):
        # A ball of the box where one function is not finite. Only the middle
        # seed of each block steps into it, mid-run; the whole block then
        # re-runs each seed alone.
        def bad(x):
            return ((x[:, 0] - 0.5) ** 2 + (x[:, 1] + 0.3) ** 2) < 0.02**2

        def objective(x):
            f = (x**2).sum(axis=-1)
            return np.where(bad(x), np.nan, f) if where == "objective" else f

        def inequality(x):
            g = x[:, 1] - 0.5
            return np.where(bad(x), np.nan, g) if where == "inequality" else g

        problem = Problem(dimension=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0),
                          objective=objective, inequalities=(inequality,))
        variant = Variant(kind, p_g=0.5, k_directions=5)
        params = EngineParams(n_fish=6, iterations=60, sigma=0.5)
        alone = [run(problem, variant, params, seed=s) for s in seeds]
        assert [r.aborted for r in alone] == [False, True, False]
        assert 1 < len(alone[1].trace_iteration) < params.iterations
        assert where in alone[1].error
        block = run_many(problem, variant, params, seeds)
        assert [record_differences(a, b) for a, b in zip(alone, block)] == [[]] * 3

    def test_wall_time_is_the_block_share(self, monkeypatch):
        ticks = iter([5.0, 11.0])
        monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        block = run_many(sphere(), Variant("base"), EngineParams(n_fish=4, iterations=3),
                         [1, 2, 3])
        assert [r.wall_time for r in block] == [2.0, 2.0, 2.0]

    def test_observer_watches_one_run(self):
        with pytest.raises(ValueError, match="observer"):
            run_many(sphere(), Variant("base"), EngineParams(n_fish=4, iterations=3), [1, 2],
                     observer=lambda *args: None)

    def test_no_seeds_no_records(self):
        assert run_many(sphere(), Variant("base"), EngineParams(n_fish=4, iterations=3), []) == []

    def test_a_switch_of_every_run_rescores_the_whole_batch_in_order(self, monkeypatch):
        # Every fish of the sphere is feasible, so at t=0 every run switches to
        # phase 2 and re-scores its boosted candidates: one call of all 2Rn
        # rows in batch order, which scores each row as the first call did
        # even on a problem whose rounding depends on the batch.
        calls = []

        def scoring(problem, points):
            calls.append(points.copy())
            return evaluate_many(problem, points)

        monkeypatch.setattr(engine, "evaluate_many", scoring)
        size = 3 * 4
        run_many(sphere(), Variant("base"), EngineParams(n_fish=4, iterations=1), [1, 2, 3])
        assert [len(points) for points in calls] == [size, 2 * size, 2 * size]
        assert np.array_equal(calls[2][:size], calls[1][:size])
        assert not np.array_equal(calls[2][size:], calls[1][size:])


def documented_draws(rng, variant, n, d):
    """One run's draws of one iteration, made one by one in the order ``_draw`` documents."""
    can_probe = variant.kind == "gradient" and variant.p_g > 0.0
    gate = rng.random(n) if can_probe else np.ones(n)
    offsets, probes = {}, []
    for i in range(n):
        if can_probe and gate[i] < variant.p_g:
            normals = rng.standard_normal((variant.k_directions, d))
            probes.append((i, normals, rng.random()))
        else:
            offsets[i] = rng.uniform(-1.0, 1.0, d)
    return (offsets, probes, *draw_rest_of_iteration(rng, n, d))


class TestDraw:
    """``engine._draw`` is the one owner of every run's random stream."""

    @pytest.mark.parametrize("variant, n", [
        (Variant("base"), 5),
        (Variant("gradient", k_directions=4, p_g=0.5), 6),
        (Variant("gradient", k_directions=4, p_g=1.0), 5),
        (Variant("base"), 1),
        (Variant("gradient", k_directions=4, p_g=0.5), 1),
    ])
    def test_each_run_makes_its_documented_draws_in_order(self, variant, n):
        seeds, d = [5, 6, 7, 8], 3
        rngs = [np.random.default_rng(seed) for seed in seeds]
        refs = [np.random.default_rng(seed) for seed in seeds]
        buffers = engine._Draws.empty(len(seeds), n, d)
        for _ in range(2):  # the second iteration refills the same buffers
            draws = engine._draw(rngs, variant, buffers)
            probing = []
            for r, (rng, ref) in enumerate(zip(rngs, refs)):
                offsets, probes, sar, partners, volitive = documented_draws(ref, variant, n, d)
                assert rng.bit_generator.state == ref.bit_generator.state
                first, end = r * n, (r + 1) * n
                for i, row in offsets.items():
                    assert np.array_equal(draws.offsets[first + i], row)
                assert draws.probes[r] == len(probes)
                probing += [(first + i, normals, fraction) for i, normals, fraction in probes]
                assert np.array_equal(draws.sar[first:end], sar)
                assert np.array_equal(draws.partners[first:end], partners + first)
                assert np.array_equal(draws.volitive[first:end], volitive)
            assert draws.probing.tolist() == [i for i, _, _ in probing]
            if probing:
                assert np.array_equal(draws.normals, np.array([x for _, x, _ in probing]))
                assert draws.fractions.tolist() == [f for _, _, f in probing]
        if variant.p_g == 0.5 and n > 1:
            assert 0 < len(probing) < len(seeds) * n  # plain and probing fish interleave

    def test_partners_are_other_fish_of_the_same_run(self):
        runs, n = 3, 4
        rngs = [np.random.default_rng(seed) for seed in range(runs)]
        buffers = engine._Draws.empty(runs, n, 2)
        fish = np.arange(runs * n)
        met = set()
        for _ in range(100):
            partners = engine._draw(rngs, Variant("base"), buffers).partners
            assert np.array_equal(partners // n, fish // n)
            assert not (partners == fish).any()
            met.update(zip(fish.tolist(), partners.tolist()))
        assert len(met) == runs * n * (n - 1)  # each fish meets every peer of its run


GENERATOR_NAMES = {"default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator"}
GENERATOR_METHODS = {
    name for name in dir(np.random.Generator) if not name.startswith("_")
} - {"bit_generator", "spawn"}


def random_draws(source):
    """The lines of ``source`` that reach a random generator.

    That is: an import of a random module, a generator type or factory by
    name, an attribute ``random`` (``np.random``, ``rng.random``), or a call
    of a ``Generator`` draw method on anything but the ``np`` and ``math``
    modules (``np.power`` is not a draw).
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any("random" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = "random" in (node.module or "") or any(
                alias.name in GENERATOR_NAMES | {"random"} for alias in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id in GENERATOR_NAMES
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "random" or node.attr in GENERATOR_NAMES
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            hit = node.func.attr in GENERATOR_METHODS and not (
                isinstance(owner, ast.Name) and owner.id in ("np", "math"))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_the_draw_guard_sees_draws():
    for source in ("import random", "from numpy.random import default_rng",
                   "x = np.random.default_rng(1)", "peers = g.integers(0, 5, size=5)",
                   "z = rng.standard_normal(out=buf)", "def f(rng: Generator): pass"):
        assert random_draws(source) == [1], source
    assert random_draws("y = np.power(x, 2) + np.minimum(x, x).max()") == []
    assert random_draws(Path(engine.__file__).read_text())  # the engine does draw


@pytest.mark.parametrize("module", ["niching", "school", "gradient", "constraint_handling"])
def test_stage_modules_draw_nothing(module):
    # engine._draw owns every run's stream; a stage that drew on its own would
    # change the stream order that the golden records pin.
    source = Path(engine.__file__).with_name(f"{module}.py").read_text()
    assert random_draws(source) == []
