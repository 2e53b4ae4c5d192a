import numpy as np
import pytest

from wrfss.constraint_handling import RunningExtremes, normalized_feeding
from wrfss.engine import EngineParams, Variant, run
from wrfss.niching import LinkGraph, leader_instinctive_step, leader_volitive_step
from wrfss.problem import Problem, evaluate_many
from wrfss.school import School, StepSchedule


def box(d=2, lo=-10.0, hi=10.0, objective=None):
    return Problem(
        dimension=d,
        lower=np.full(d, lo),
        upper=np.full(d, hi),
        objective=objective or (lambda x: (np.asarray(x) ** 2).sum(axis=-1)),
    )


def make_school(positions, weights, problem, delta_x=None, delta_f=None):
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    fitness, violation = evaluate_many(problem, positions)
    return School(
        positions=positions,
        weights=np.asarray(weights, dtype=float),
        delta_x=np.zeros_like(positions) if delta_x is None else np.asarray(delta_x, float),
        delta_f=np.zeros(n) if delta_f is None else np.asarray(delta_f, float),
        fitness=fitness,
        violation=violation,
        prev_total_weight=float(np.sum(weights)),
    )


def feed(values, extremes, w_scale):
    """The engine's feeding stage: running extremes, then normalized weights."""
    extremes.update(values)
    return normalized_feeding(values, extremes.min, extremes.max, w_scale)


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
        s.boost(0.3, 0)
        ind, vol = s.at(0)
        assert ind == pytest.approx(0.13)
        assert vol == pytest.approx(0.26)

    def test_boost_keeps_decay_endpoint(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        s.boost(0.5, 50)  # current 0.05 -> 0.075, anchored at t=50
        ind, _ = s.at(50)
        assert ind == pytest.approx(0.075)
        ind75, _ = s.at(75)
        assert ind75 == pytest.approx(0.0375)  # halfway back down to 0
        assert s.at(100) == (0.0, 0.0)

    def test_zero_boost_is_identity(self):
        s = StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=100)
        before = s.at(30)
        s.boost(0.0, 30)
        assert s.at(30) == pytest.approx(before)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(0.0, 0.1, 0.2, 0.0, horizon=10)  # initial < final
        with pytest.raises(ValueError):
            StepSchedule(0.1, 0.0, 0.2, 0.0, horizon=-1)


class TestIndividualMovement:
    """Acceptance of the individual movement through School.accept."""

    def step(self, school, problem, candidates, sar_alpha, rng):
        cand_f, cand_v = evaluate_many(problem, candidates)
        accepted = (cand_f < school.fitness) | (rng.random(len(school.positions)) < sar_alpha)
        before = school.positions.copy(), school.fitness.copy()
        school.accept(accepted, candidates, cand_f, cand_v, school.fitness - cand_f)
        return accepted, before

    def test_improving_candidate_accepted(self):
        problem = box(2)
        school = make_school([[3.0, 4.0], [1.0, 1.0]], [5.0, 5.0], problem)
        candidates = np.array([[2.0, 2.0], [3.0, 3.0]])
        accepted, (pos0, fit0) = self.step(
            school, problem, candidates, 0.0, np.random.default_rng(1)
        )
        assert accepted.tolist() == [True, False]
        assert np.array_equal(school.positions[0], candidates[0])
        assert np.array_equal(school.delta_x[0], candidates[0] - pos0[0])
        assert school.fitness[0] == 8.0
        assert school.delta_f[0] == pytest.approx(fit0[0] - 8.0)
        assert school.delta_f[0] > 0.0

    def test_non_improving_rejected_without_sar(self):
        # every fish sits at the minimum: every candidate is worse
        problem = box(2)
        school = make_school(np.zeros((3, 2)), np.full(3, 5.0), problem)
        rng = np.random.default_rng(2)
        candidates = rng.uniform(-0.5, 0.5, (3, 2))
        accepted, _ = self.step(school, problem, candidates, 0.0, rng)
        assert not accepted.any()
        assert np.array_equal(school.positions, np.zeros((3, 2)))
        assert np.all(school.delta_x == 0.0)
        assert np.all(school.delta_f == 0.0)
        assert np.all(school.fitness == 0.0)

    def test_non_improving_accepted_with_full_sar(self):
        problem = box(2)
        school = make_school(np.zeros((3, 2)), np.full(3, 5.0), problem)
        rng = np.random.default_rng(3)
        candidates = rng.uniform(-0.5, 0.5, (3, 2))
        accepted, _ = self.step(school, problem, candidates, 1.0, rng)
        assert accepted.all()
        assert np.array_equal(school.positions, candidates)
        assert np.all(school.delta_f < 0.0)  # accepted worsening moves

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
        assert seen["rows"] == rec.eval_count
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
        extremes = RunningExtremes()
        feed(np.array([0.0, 4.0]), extremes, 10.0)
        # the extremes seen before still bound the range: 10 - 9 * (2 - 0) / 4
        w = feed(np.array([2.0, 3.0]), extremes, 10.0)
        assert w.tolist() == [5.5, 3.25]

    def test_zero_deltas_leave_weights(self):
        # a school whose scores never change keeps its initial weights
        school = School.initial(np.zeros((3, 2)), np.full(3, 7.0), np.zeros(3), 10.0)
        extremes = RunningExtremes()
        for _ in range(5):
            assert np.array_equal(feed(school.fitness, extremes, 10.0), school.weights)

    def test_cap_at_scale(self):
        extremes = RunningExtremes()
        feed(np.array([1.0, 3.0]), extremes, 10.0)
        w = feed(np.array([-5.0, 3.0]), extremes, 10.0)
        assert w[0] == 10.0  # a new best maps exactly onto the cap
        assert w[1] == 1.0

    def test_weights_stay_in_bounds_over_random_sequences(self):
        rng = np.random.default_rng(7)
        extremes = RunningExtremes()
        for _ in range(200):
            w = feed(rng.normal(size=6) * rng.exponential(5.0), extremes, 10.0)
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
        school = make_school(
            [[0, 0], [5, 5], [1, 1]],
            [1.0, 4.0, 1.0],
            problem,
            delta_x=[[1, 0], [0, 1], [2, 2]],
            delta_f=[1.0, 3.0, 1.0],
        )
        links = LinkGraph(leader=np.array([1, -1, 1]))
        out = leader_instinctive_step(
            school.positions, school.delta_x, school.delta_f, links, 1.0,
            problem.lower, problem.upper,
        )
        drift = out - school.positions
        assert np.allclose(drift[0], [0.25, 0.75])  # (1*[1,0] + 3*[0,1]) / 4
        assert np.allclose(drift[1], [0.0, 1.0])  # own delta only
        assert np.allclose(drift[2], [0.5, 1.25])  # (1*[2,2] + 3*[0,1]) / 4

    def test_zero_delta_sum_no_move(self):
        # a school whose moves were all rejected does not drift, links or not
        problem = box(2)
        school = make_school([[0, 0], [5, 5], [1, 2]], [1.0, 2.0, 3.0], problem)
        for leader in ([-1, -1, -1], [1, 2, -1]):
            out = leader_instinctive_step(
                school.positions, school.delta_x, school.delta_f,
                LinkGraph(leader=np.array(leader)), 0.9, problem.lower, problem.upper,
            )
            assert np.array_equal(out, school.positions)

    def test_single_fish_moves_by_own_delta(self):
        problem = box(1)
        school = make_school([[1.0]], [1.0], problem, delta_x=[[2.0]], delta_f=[5.0])
        out = leader_instinctive_step(
            school.positions, school.delta_x, school.delta_f, LinkGraph.empty(1), 1.0,
            problem.lower, problem.upper,
        )
        assert out[0, 0] == pytest.approx(3.0)

    def test_positions_clamped(self):
        problem = box(1, lo=0.0, hi=4.0)
        school = make_school([[3.5], [0.5]], [1.0, 1.0], problem,
                             delta_x=[[2.0], [-2.0]], delta_f=[1.0, 1.0])
        out = leader_instinctive_step(
            school.positions, school.delta_x, school.delta_f, LinkGraph.empty(2), 1.0,
            problem.lower, problem.upper,
        )
        assert out[:, 0].tolist() == [4.0, 0.0]


class TestCollectiveVolitive:
    """Whole-school leader-aware volitive move (the engine's volitive stage)."""

    def move(self, school, problem, links, gained):
        return leader_volitive_step(
            school.positions, school.weights, links, 0.5, gained,
            np.ones(school.positions.shape), problem.lower, problem.upper,
        )

    def test_attract_hand_value(self):
        # fish 0 follows fish 1; fish 2 has no leader
        problem = box(1, lo=-100, hi=100)
        school = make_school([[2.0], [0.0], [7.0]], [1.0, 1.0, 1.0], problem)
        out = self.move(school, problem, LinkGraph(leader=np.array([1, -1, -1])), True)
        # pair barycenter 1.0; x=2 moves to 2 - 0.5 * 1 * (2-1)/1 = 1.5
        assert out[:, 0].tolist() == [1.5, 0.0, 7.0]

    def test_spread_hand_value(self):
        problem = box(1, lo=-100, hi=100)
        school = make_school([[2.0], [0.0], [7.0]], [1.0, 1.0, 1.0], problem)
        out = self.move(school, problem, LinkGraph(leader=np.array([1, -1, -1])), False)
        assert out[:, 0].tolist() == [2.5, 0.0, 7.0]

    def test_updates_previous_total(self):
        problem = box(1)
        school = make_school([[2.0], [0.0]], [1.0, 3.0], problem)
        school.prev_total_weight = 0.0
        assert school.weight_gained()
        assert school.prev_total_weight == 4.0
        assert not school.weight_gained()  # no change is not a gain
        school.weights = np.array([1.0, 2.0])
        assert not school.weight_gained()
        assert school.prev_total_weight == 3.0


def test_school_initial_state():
    problem = box(2)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-10, 10, (4, 2))
    f, v = evaluate_many(problem, pts)
    school = School.initial(pts, f, v, w_scale=5000.0)
    assert np.all(school.weights == 2500.0)
    assert school.prev_total_weight == 10000.0
    assert len(school.positions) == 4
    assert np.array_equal(school.positions[2], pts[2])
    assert np.all(school.delta_f == 0.0) and np.all(school.delta_x == 0.0)
    assert school.fitness[2] == f[2]
