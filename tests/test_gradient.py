import numpy as np
import pytest

from wrfss import engine
from wrfss.cec2010 import load_problem
from wrfss.engine import EngineParams, Variant, _candidates, _draw, _Draws, _probe, run
from wrfss.gradient import forward_gradient, pick_direction
from wrfss.problem import Problem, evaluate_many, violation_many
from wrfss.school import accept

from oracles import draw_rest_of_iteration, probe_candidates


def box(d, lo=-100.0, hi=100.0, **kw):
    return Problem(dimension=d, lower=np.full(d, lo), upper=np.full(d, hi), **kw)


def rows_of(fn):
    """Row function evaluating a per-point function on each row."""
    return lambda pts: np.array([fn(p) for p in pts])


def gradient_at(fn_rows, x, e):
    """forward_gradient at the single point ``x``."""
    return forward_gradient(fn_rows, np.asarray(x, float)[None, :], e)[0]


class TestForwardGradient:
    def test_linear_function_exact(self):
        grad = gradient_at(lambda P: P @ [2.0, 3.0], [5.0, -7.0], np.full(2, 1e-3))
        assert grad == pytest.approx([2.0, 3.0], rel=1e-9)

    def test_quadratic_truncation_by_hand(self):
        # ((1+e)^2 - 1) / e = 2 + e
        grad = gradient_at(lambda P: P[:, 0] ** 2, [1.0], np.array([1e-3]))
        assert grad[0] == pytest.approx(2.001, rel=1e-9)

    def test_constant_function_zero(self):
        grad = gradient_at(lambda P: np.full(len(P), 4.2), [1.0, 2.0, 3.0], np.full(3, 1e-4))
        assert np.all(grad == 0.0)

    def test_random_affine_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            a = rng.normal(size=d)
            b = rng.normal()
            x = rng.uniform(-5, 5, d)
            grad = gradient_at(rows_of(lambda p: float(a @ p + b)), x, np.full(d, 1e-3))
            assert np.allclose(grad, a, rtol=1e-8, atol=1e-8)

    def test_cost_is_dimension_plus_one(self):
        calls = []

        def fn(P):
            calls.append(P.copy())
            return P.sum(axis=1)

        x = np.arange(12.0).reshape(2, 6)
        e = np.linspace(1e-3, 6e-3, 6)
        grad = forward_gradient(fn, x, e)
        # one batch of D+1 rows per point: the point itself, then the point
        # with one coordinate shifted
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.vstack([x[0], x[0] + np.diag(e),
                                                   x[1], x[1] + np.diag(e)]))
        assert grad.shape == (2, 6)
        assert np.allclose(grad, 1.0)

    def test_error_scales_linearly_with_perturbation(self):
        # on a quadratic the forward-difference error per component is e*A_jj/2
        rng = np.random.default_rng(21)
        d = 4
        diag = rng.uniform(0.5, 2.0, d)
        x = rng.uniform(-1, 1, d)
        fn = lambda P: 0.5 * (diag * P * P).sum(axis=1)
        exact = diag * x
        errors = []
        for e in (1e-2, 1e-4):
            errors.append(np.abs(gradient_at(fn, x, np.full(d, e)) - exact).max())
        ratio = errors[0] / errors[1]
        assert ratio == pytest.approx(100.0, rel=0.5)

    def test_vector_perturbation(self):
        grad = gradient_at(lambda P: P @ [2.0, 3.0], np.zeros(2), np.array([1e-2, 1e-5]))
        assert grad == pytest.approx([2.0, 3.0], rel=1e-8)


class TestPickDirection:
    # the two sampled directions (1,0) and (0,-1), for two probes
    TWO_DIRECTIONS = np.array([[[1.0, 0.0], [0.0, -1.0]]] * 2)

    def test_phase1_minimizes_signed_derivative(self):
        u = pick_direction(np.array([[2.0, 3.0], [-2.0, 3.0]]), self.TWO_DIRECTIONS, 1)
        # derivatives: 2 and -3 -> steepest descent is (0,-1); then -2 and -3
        assert np.allclose(u, [[0.0, -1.0], [0.0, -1.0]])

    def test_phase2_minimizes_absolute_derivative(self):
        u = pick_direction(np.array([[2.0, 3.0], [4.0, 3.0]]), self.TWO_DIRECTIONS * 2.0, 2)
        # |2| < |-3| -> (1,0); then |4| > |-3| -> (0,-1), both normalized
        assert np.allclose(u, [[1.0, 0.0], [0.0, -1.0]])

    def test_zero_gradient_returns_first_sample(self):
        normals = np.random.default_rng(3).normal(size=(3, 7, 5))
        u = pick_direction(np.zeros((3, 5)), normals, 1)
        first = normals[:, 0] / np.linalg.norm(normals[:, 0], axis=1, keepdims=True)
        assert np.allclose(u, first)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = pick_direction(rng.normal(size=(4, 6)), rng.normal(size=(4, 11, 6)), 1)
            assert np.linalg.norm(u, axis=1) == pytest.approx(np.ones(4), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            pick_direction(np.ones((1, 2)), np.ones((1, 0, 2)), 1)
        with pytest.raises(ValueError):
            pick_direction(np.ones((1, 2)), np.ones((1, 3, 2)), 7)


def probe_candidates_of_engine(problem, positions, phase, step_ind, variant, e, rng):
    """The engine's probe-gated candidates: one iteration's draws and probes, then its candidates."""
    draws = _draw([rng], variant, _Draws.empty(1, *positions.shape))
    gradient = _probe(problem, positions, draws.probing, e)
    return _candidates(positions, draws, gradient, phase, step_ind, problem.lower, problem.upper,
                       np.empty_like(positions))


class TestProbeMove:
    """The engine's probe-gated candidates, accepted through accept()."""

    @staticmethod
    def candidates(problem, positions, phase, step, variant, rng):
        """The candidates, and the row count of every probe batch the engine scored."""
        calls = []

        def violation_rows(scored, rows):
            calls.append(rows.shape[0])
            return violation_many(scored, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "violation_many", violation_rows)
            out = probe_candidates_of_engine(
                problem, np.asarray(positions, float), phase, np.full(problem.dimension, step),
                variant, 1e-6 * problem.range_width, rng,
            )
        return out, calls

    def test_zero_probability_matches_plain_move(self):
        problem = box(3, objective=lambda x: (x**2).sum(axis=-1))
        positions = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]])
        variant = Variant("gradient", k_directions=5, p_g=0.0)
        rng = np.random.default_rng(77)
        out, calls = self.candidates(problem, positions, 1, 0.5, variant, rng)
        assert calls == []
        # no gate is drawn: the school takes one plain uniform block
        twin = np.random.default_rng(77)
        assert np.array_equal(out, positions + twin.uniform(-1.0, 1.0, (2, 3)) * 0.5)
        draw_rest_of_iteration(twin, 2, 3)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_probe_descends_linear_violation(self):
        # violation decreasing in x0: the probe should step toward lower x0
        problem = box(
            2,
            objective=lambda x: np.zeros(len(x)),
            inequalities=(lambda x: x[:, 0] + 50.0,),  # g > 0 over most of the box
        )
        start = np.array([[10.0, 0.0]])
        fitness, violation = evaluate_many(problem, start)
        variant = Variant("gradient", k_directions=64, p_g=1.0)
        cand, calls = self.candidates(problem, start, 1, 5.0, variant,
                                      np.random.default_rng(13))
        assert calls == [3]  # one probe of D+1 rows
        cand_f, cand_v = evaluate_many(problem, cand)
        # with many sampled directions the chosen one points down in x0
        assert cand[0, 0] < 10.0
        assert cand_v[0] < violation[0]
        positions, _, _, _, delta_f = accept(
            cand_v < violation, cand, cand_f, cand_v, violation - cand_v,
            start, fitness, violation,
        )
        assert np.array_equal(positions, cand)
        assert delta_f[0] > 0.0

    def test_rejection_keeps_position_and_zero_deltas(self):
        # violation already zero everywhere: no candidate can improve
        problem = box(2, objective=lambda x: np.zeros(len(x)))
        start = np.array([[1.0, 1.0], [-2.0, 3.0]])
        fitness, violation = evaluate_many(problem, start)
        variant = Variant("gradient", k_directions=4, p_g=1.0)
        cand, calls = self.candidates(problem, start, 1, 0.5, variant, np.random.default_rng(5))
        assert calls == [6]  # both probes of D+1 rows in one call
        cand_f, cand_v = evaluate_many(problem, cand)
        positions, _, _, delta_x, delta_f = accept(
            cand_v < violation, cand, cand_f, cand_v, violation - cand_v,
            start, fitness, violation,
        )
        assert np.array_equal(positions, start)
        assert np.all(delta_f == 0.0)
        assert np.all(delta_x == 0.0)

    def test_paper_scale_configuration_accepted(self):
        variant = Variant("gradient", k_directions=200, p_g=0.10)
        assert variant.k_directions == 200
        assert variant.p_g == 0.10

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k_directions"):
            Variant("gradient", k_directions=0, p_g=0.5)
        with pytest.raises(ValueError, match="p_g"):
            Variant("gradient", k_directions=5, p_g=1.5)
        with pytest.raises(ValueError, match="perturbation"):
            Variant("gradient", k_directions=5, p_g=0.5, perturbation=0.0)

    def test_default_perturbation_scales_with_range(self):
        # the forward-difference step run() uses, read off the probe rows:
        # with p_g = 1 every fish probes, so each probe batch has 4 * (D+1) rows
        steps = []

        def inequality(x):
            if x.shape[0] == 4 * 3:
                probes = x.reshape(4, 3, 2)
                steps.extend(np.diagonal(probes[:, 1:] - probes[:, :1], axis1=1, axis2=2))
            return np.zeros(x.shape[0])

        lower, upper = np.array([0.0, -50.0]), np.array([10.0, 50.0])
        problem = Problem(dimension=2, lower=lower, upper=upper,
                          objective=lambda x: np.zeros(x.shape[0]), inequalities=(inequality,))
        params = EngineParams(n_fish=4, iterations=2)
        run(problem, Variant("gradient", k_directions=5, p_g=1.0), params, seed=3)
        assert len(steps) == 8
        assert np.allclose(steps, [1e-5, 1e-4])
        steps.clear()
        fixed = Variant("gradient", k_directions=5, p_g=1.0, perturbation=1e-3)
        run(problem, fixed, params, seed=3)
        assert len(steps) == 8
        assert np.allclose(steps, 1e-3)


@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("p_g", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("pid", ["C01", "C06", "C07", "C08"])
def test_batched_probe_matches_per_fish_reference(pid, p_g, phase):
    # The batched candidates equal the per-fish reference bit for bit, and
    # both leave the generator in the same state after the iteration's draws.
    problem = load_problem(pid, source="surrogate").problem
    variant = Variant("gradient", k_directions=50, p_g=p_g)
    e = 1e-6 * problem.range_width
    violation_rows = lambda rows: violation_many(problem, rows)
    for seed in range(4):
        rng = np.random.default_rng([seed, int(p_g * 10), phase])
        positions = problem.lower + rng.random((30, problem.dimension)) * problem.range_width
        step_ind = rng.uniform(0.0, 0.2) * problem.range_width
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        batched = probe_candidates_of_engine(problem, positions, phase, step_ind, variant, e,
                                             ours)
        expected = probe_candidates(violation_rows, positions, phase, step_ind, variant, e, ref,
                                    problem.lower, problem.upper)
        draw_rest_of_iteration(ref, *positions.shape)
        assert np.array_equal(batched, expected)
        assert ours.bit_generator.state == ref.bit_generator.state
