import dataclasses

import numpy as np
import pytest

from wrfss import engine
from wrfss.constraint_handling import RunningExtremes, normalized_feeding
from wrfss.engine import EngineParams, Variant, run
from wrfss.niching import LinkGraph, leader_instinctive_step, leader_volitive_step
from wrfss.problem import Problem, evaluate_many
from wrfss.school import StepSchedule, accept


def box(d=2, lo=-10.0, hi=10.0, objective=None):
    return Problem(
        dimension=d,
        lower=np.full(d, lo),
        upper=np.full(d, hi),
        objective=objective or (lambda x: (np.asarray(x) ** 2).sum(axis=-1)),
    )


def ring(d=3):
    # feasible only inside the unit ball around the origin
    return Problem(
        dimension=d,
        lower=np.full(d, -5.0),
        upper=np.full(d, 5.0),
        objective=lambda x: np.asarray(x)[..., 0],
        inequalities=(lambda x: (np.asarray(x) ** 2).sum(axis=-1) - 1.0,),
    )


def feed(values, extremes, w_scale):
    """The engine's feeding stage: the widened running extremes, and the normalized weights."""
    extremes = extremes.update(values)
    return extremes, normalized_feeding(values, extremes.min, extremes.max, w_scale)


class TestStepSchedule:
    def test_endpoints(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        assert s.at(0) == (0.1, 0.2)
        assert s.at(100) == (0.0, 0.0)

    def test_midpoint_is_half(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        ind, vol = s.at(50)
        assert ind == pytest.approx(0.05)
        assert vol == pytest.approx(0.10)

    def test_past_horizon_clamps_to_final(self):
        s = StepSchedule(0.1, 0.01, 0.2, 0.02, horizon=10)
        assert s.at(10_000) == (0.01, 0.02)

    def test_boost_multiplies_current_value(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        s = s.boost(0.3, 0)
        ind, vol = s.at(0)
        assert ind == pytest.approx(0.13)
        assert vol == pytest.approx(0.26)

    def test_boost_keeps_decay_endpoint(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        s = s.boost(0.5, 50)  # current 0.05 -> 0.075, anchored at t=50
        ind, _ = s.at(50)
        assert ind == pytest.approx(0.075)
        ind75, _ = s.at(75)
        assert ind75 == pytest.approx(0.0375)  # halfway back down to 0
        assert s.at(100) == (0.0, 0.0)

    def test_zero_boost_is_identity(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        before = s.at(30)
        s = s.boost(0.0, 30)
        assert s.at(30) == pytest.approx(before)

    @pytest.mark.parametrize("horizon", [100, 5000, 80000])
    @pytest.mark.parametrize("tau", [0.0, 0.01, 0.3])
    def test_boost_at_any_iteration_keeps_final_floor(self, tau, horizon):
        # boost re-runs the initial >= final >= 0 check on the boosted values
        s = EngineParams(iterations=horizon, tau=tau).step_schedule()
        final = (s.step_ind_final, s.step_vol_final)
        for t in range(horizon):
            boosted = s.boost(tau, t)
            assert boosted.start == t
            for u in (t, horizon - 1):
                ind, vol = boosted.at(u)
                assert ind >= final[0] and vol >= final[1]
            assert boosted.at(horizon) == final
        ind, vol = s.boost(tau, horizon // 2).boost(tau, horizon - 1).at(horizon - 1)
        assert ind >= final[0] and vol >= final[1]

    def test_boost_returns_a_new_schedule(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        before = s.at(10)
        assert s.boost(0.3, 10).at(10) != before
        assert s.at(10) == before and s.start == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.start = 10

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(0.0, 0.1, 0.2, 0.0, horizon=10)  # initial < final
        with pytest.raises(ValueError):
            StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=-1)

    @pytest.mark.parametrize("start", [-1, 11])
    def test_start_must_lie_within_horizon(self, start):
        with pytest.raises(ValueError, match="start"):
            StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=10, start=start)

    def test_boost_at_horizon_holds_boosted_steps_before_it(self):
        s = EngineParams(iterations=100).step_schedule().boost(0.3, 100)
        assert s.start == 100
        boosted = (s.step_ind_initial, s.step_vol_initial)
        assert s.at(0) == s.at(50) == s.at(99) == boosted
        assert s.at(100) == (s.step_ind_final, s.step_vol_final)


class TestIndividualMovement:
    """Acceptance of the individual movement through accept()."""

    def step(self, positions, problem, candidates, sar_alpha, rng):
        fitness, violation = evaluate_many(problem, positions)
        cand_f, cand_v = evaluate_many(problem, candidates)
        accepted = (cand_f < fitness) | (rng.random(len(positions)) < sar_alpha)
        moved = accept(
            accepted, candidates, cand_f, cand_v, fitness - cand_f,
            positions, fitness, violation,
        )
        return accepted, fitness, moved

    def test_improving_candidate_accepted(self):
        problem = box(2)
        positions = np.array([[3.0, 4.0], [1.0, 1.0]])
        candidates = np.array([[2.0, 2.0], [3.0, 3.0]])
        accepted, fit0, (pos, fit, _, delta_x, delta_f) = self.step(
            positions, problem, candidates, 0.0, np.random.default_rng(1)
        )
        assert accepted.tolist() == [True, False]
        assert np.array_equal(pos, [candidates[0], positions[1]])
        assert np.array_equal(delta_x[0], candidates[0] - positions[0])
        assert fit.tolist() == [8.0, 2.0]
        assert delta_f[0] == pytest.approx(fit0[0] - 8.0)
        assert delta_f[0] > 0.0
        assert np.all(delta_x[1] == 0.0) and delta_f[1] == 0.0
        # the inputs are left as they were
        assert np.array_equal(positions, [[3.0, 4.0], [1.0, 1.0]])
        assert fit0.tolist() == [25.0, 2.0]

    def test_non_improving_rejected_without_sar(self):
        # every fish sits at the minimum: every candidate is worse
        problem = box(2)
        rng = np.random.default_rng(2)
        candidates = rng.uniform(-0.5, 0.5, (3, 2))
        accepted, _, (pos, fit, viol, delta_x, delta_f) = self.step(
            np.zeros((3, 2)), problem, candidates, 0.0, rng
        )
        assert not accepted.any()
        assert np.array_equal(pos, np.zeros((3, 2)))
        assert np.all(delta_x == 0.0)
        assert np.all(delta_f == 0.0)
        assert np.all(fit == 0.0) and np.all(viol == 0.0)

    def test_non_improving_accepted_with_full_sar(self):
        problem = box(2)
        rng = np.random.default_rng(3)
        candidates = rng.uniform(-0.5, 0.5, (3, 2))
        accepted, _, (pos, _, _, _, delta_f) = self.step(
            np.zeros((3, 2)), problem, candidates, 1.0, rng
        )
        assert accepted.all()
        assert np.array_equal(pos, candidates)
        assert np.all(delta_f < 0.0)  # accepted worsening moves

    def test_candidate_stays_in_box(self):
        # steps as wide as the box: every evaluated candidate must be clipped
        seen = {"lo": np.inf, "hi": -np.inf, "rows": 0}

        def objective(x):
            seen["lo"] = min(seen["lo"], float(x.min()))
            seen["hi"] = max(seen["hi"], float(x.max()))
            seen["rows"] += x.shape[0]
            return (x**2).sum(axis=-1)

        problem = box(2, lo=-1.0, hi=1.0, objective=objective)
        params = EngineParams(
            n_fish=6, iterations=20, step_ind_initial=1.0, step_ind_final=1.0,
            sar_alpha0=1.0, sar_decay=0.0,
        )
        rec = run(problem, Variant("base"), params, seed=4)
        # the school is feasible from the start: iteration 0 switches to phase
        # 2 and re-scores its 2n-row batch once, which eval_count does not count
        assert seen["rows"] == rec.eval_count + 2 * 6
        assert seen["lo"] >= -1.0 and seen["hi"] <= 1.0

    def test_sar_alpha_validated(self):
        with pytest.raises(ValueError, match="sar_alpha0"):
            EngineParams(sar_alpha0=1.5)
        with pytest.raises(ValueError, match="sar_alpha0"):
            EngineParams(sar_alpha0=-0.1)
        with pytest.raises(ValueError, match="sar_decay"):
            EngineParams(sar_decay=-1.0)
        EngineParams(sar_alpha0=0.0, sar_decay=0.0)
        EngineParams(sar_alpha0=1.0)


class TestFeeding:
    """The engine's feeding stage: running extremes, then normalized weights."""

    def test_hand_value(self):
        extremes, _ = feed(np.array([0.0, 4.0]), RunningExtremes(), 10.0)
        # the extremes seen before still bound the range: 10 - 9 * (2 - 0) / 4
        _, w = feed(np.array([2.0, 3.0]), extremes, 10.0)
        assert w.tolist() == [5.5, 3.25]

    def test_zero_deltas_leave_weights(self):
        # a school whose scores never change keeps the start weights, w_scale / 2
        extremes = RunningExtremes()
        for _ in range(5):
            extremes, w = feed(np.full(3, 7.0), extremes, 10.0)
            assert np.array_equal(w, np.full(3, 5.0))

    def test_cap_at_scale(self):
        extremes, _ = feed(np.array([1.0, 3.0]), RunningExtremes(), 10.0)
        _, w = feed(np.array([-5.0, 3.0]), extremes, 10.0)
        assert w[0] == 10.0  # a new best maps exactly onto the cap
        assert w[1] == 1.0

    def test_weights_stay_in_bounds_over_random_sequences(self):
        rng = np.random.default_rng(7)
        extremes = RunningExtremes()
        for _ in range(200):
            extremes, w = feed(rng.normal(size=6) * rng.exponential(5.0), extremes, 10.0)
            assert np.all(w >= 1.0)
            assert np.all(w <= 10.0)

    def test_empty_school_rejected(self):
        with pytest.raises(ValueError):
            feed(np.array([]), RunningExtremes(), 10.0)


class TestCollectiveInstinctive:
    """Whole-school leader-aware drift (the engine's instinctive stage)."""

    def test_weighted_average_hand_value(self):
        # fish 0 and 2 both follow fish 1; fish 1 has no leader
        problem = box(2)
        positions = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
        out = leader_instinctive_step(
            positions, np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), np.array([1.0, 3.0, 1.0]),
            LinkGraph(leader=np.array([1, -1, 1])), 1.0, problem.lower, problem.upper,
        )
        drift = out - positions
        assert np.allclose(drift[0], [0.25, 0.75])  # (1*[1,0] + 3*[0,1]) / 4
        assert np.allclose(drift[1], [0.0, 1.0])  # own delta only
        assert np.allclose(drift[2], [0.5, 1.25])  # (1*[2,2] + 3*[0,1]) / 4

    def test_zero_delta_sum_no_move(self):
        # a school whose moves were all rejected does not drift, links or not
        problem = box(2)
        positions = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 2.0]])
        for leader in ([-1, -1, -1], [1, 2, -1]):
            out = leader_instinctive_step(
                positions, np.zeros((3, 2)), np.zeros(3),
                LinkGraph(leader=np.array(leader)), 0.9, problem.lower, problem.upper,
            )
            assert np.array_equal(out, positions)

    def test_single_fish_moves_by_own_delta(self):
        problem = box(1)
        out = leader_instinctive_step(
            np.array([[1.0]]), np.array([[2.0]]), np.array([5.0]), LinkGraph.empty(1), 1.0,
            problem.lower, problem.upper,
        )
        assert out[0, 0] == pytest.approx(3.0)

    def test_positions_clamped(self):
        problem = box(1, lo=0.0, hi=4.0)
        out = leader_instinctive_step(
            np.array([[3.5], [0.5]]), np.array([[2.0], [-2.0]]), np.array([1.0, 1.0]),
            LinkGraph.empty(2), 1.0, problem.lower, problem.upper,
        )
        assert out[:, 0].tolist() == [4.0, 0.0]


class TestCollectiveVolitive:
    """Whole-school leader-aware volitive move (the engine's volitive stage)."""

    def move(self, positions, leader, gained):
        problem = box(1, lo=-100, hi=100)
        positions = np.asarray(positions, dtype=float)
        return leader_volitive_step(
            positions, np.ones(len(positions)), LinkGraph(leader=np.array(leader)), 0.5,
            gained, np.ones(positions.shape), problem.lower, problem.upper,
        )

    def test_attract_hand_value(self):
        # fish 0 follows fish 1; fish 2 has no leader
        out = self.move([[2.0], [0.0], [7.0]], [1, -1, -1], True)
        # pair barycenter 1.0; x=2 moves to 2 - 0.5 * 1 * (2-1)/1 = 1.5
        assert out[:, 0].tolist() == [1.5, 0.0, 7.0]

    def test_spread_hand_value(self):
        out = self.move([[2.0], [0.0], [7.0]], [1, -1, -1], False)
        assert out[:, 0].tolist() == [2.5, 0.0, 7.0]

    def test_updates_previous_total(self, monkeypatch):
        # The school's total weight is carried from one iteration to the next:
        # the volitive move contracts exactly when the total grew since the
        # previous iteration, the first comparing with the start weights,
        # w_scale / 2 per fish. The first fed total lies above that start
        # total for seed 8 and below it for seed 13.
        flags = []

        def volitive(positions, weights, links, step_vol, gained, *rest):
            flags.append(bool(gained))  # the engine passes one flag per run; this is one run
            return leader_volitive_step(positions, weights, links, step_vol, gained, *rest)

        monkeypatch.setattr(engine, "leader_volitive_step", volitive)
        params = EngineParams(n_fish=6, iterations=40, w_scale=10.0)
        for seed, first in ((8, True), (13, False)):
            flags.clear()
            totals = [6 * 5.0]
            run(ring(), Variant("base"), params, seed=seed,
                observer=lambda t, positions, weights, *_: totals.append(float(weights.sum())))
            assert flags == [b > a for a, b in zip(totals, totals[1:])]
            assert flags[0] is first and True in flags and False in flags
        # A flat objective feeds every fish w_scale / 2, so the total never
        # changes, and no change is not a gain.
        flags.clear()
        run(box(2, lo=-1.0, hi=1.0, objective=lambda x: np.zeros(len(x))), Variant("base"),
            params, seed=8)
        assert flags == [False] * 40


def test_school_initial_state(monkeypatch):
    # The initial school is n uniform draws in the box from the run's seeded
    # stream, scored once, and the first trace row records its best. Every
    # fish starts at weight w_scale / 2: the first volitive move compares the
    # first fed total with n * w_scale / 2.
    scored, moves = [], []

    def scoring(problem, points):
        scored.append(np.array(points))
        return evaluate_many(problem, points)

    def volitive(positions, weights, links, step_vol, gained, *rest):
        moves.append((float(weights.sum()), gained))
        return leader_volitive_step(positions, weights, links, step_vol, gained, *rest)

    monkeypatch.setattr(engine, "evaluate_many", scoring)
    monkeypatch.setattr(engine, "leader_volitive_step", volitive)
    problem = ring()
    rec = run(problem, Variant("base"), EngineParams(n_fish=4, iterations=1, w_scale=5000.0),
              seed=13)
    pts = problem.lower + np.random.default_rng(13).random((4, 3)) * problem.range_width
    assert np.array_equal(scored[0], pts)
    assert np.all(pts >= problem.lower) and np.all(pts <= problem.upper)
    f, v = evaluate_many(problem, pts)
    i = engine.best_index(f, v)
    assert (rec.trace_best_fitness[0], rec.trace_best_violation[0]) == (f[i], v[i])
    [(total, gained)] = moves
    assert gained == (total > 4 * 2500.0)
