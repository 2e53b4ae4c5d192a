import numpy as np
import pytest

from wrfss.engine import EngineParams, Variant, _probe_candidates, run
from wrfss.gradient import forward_gradient, pick_direction
from wrfss.problem import Problem, evaluate_many
from wrfss.school import accept


def box(d, lo=-100.0, hi=100.0, **kw):
    return Problem(dimension=d, lower=np.full(d, lo), upper=np.full(d, hi), **kw)


def rows_of(fn):
    """Row function evaluating a per-point function on each row."""
    return lambda pts: np.array([fn(p) for p in pts])


class TestForwardGradient:
    def test_linear_function_exact(self):
        grad = forward_gradient(lambda P: P @ [2.0, 3.0], np.array([5.0, -7.0]), np.full(2, 1e-3))
        assert grad == pytest.approx([2.0, 3.0], rel=1e-9)

    def test_quadratic_truncation_by_hand(self):
        # ((1+e)^2 - 1) / e = 2 + e
        grad = forward_gradient(lambda P: P[:, 0] ** 2, np.array([1.0]), np.array([1e-3]))
        assert grad[0] == pytest.approx(2.001, rel=1e-9)

    def test_constant_function_zero(self):
        grad = forward_gradient(lambda P: np.full(len(P), 4.2), np.array([1.0, 2.0, 3.0]),
                                np.full(3, 1e-4))
        assert np.all(grad == 0.0)

    def test_random_affine_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            a = rng.normal(size=d)
            b = rng.normal()
            x = rng.uniform(-5, 5, d)
            grad = forward_gradient(rows_of(lambda p: float(a @ p + b)), x, np.full(d, 1e-3))
            assert np.allclose(grad, a, rtol=1e-8, atol=1e-8)

    def test_cost_is_dimension_plus_one(self):
        calls = []

        def fn(P):
            calls.append(P.copy())
            return P.sum(axis=1)

        x = np.arange(6.0)
        e = np.linspace(1e-3, 6e-3, 6)
        forward_gradient(fn, x, e)
        # one batch of D+1 rows: x itself, then x with one coordinate shifted
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.vstack([x, x + np.diag(e)]))

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
            errors.append(np.abs(forward_gradient(fn, x, np.full(d, e)) - exact).max())
        ratio = errors[0] / errors[1]
        assert ratio == pytest.approx(100.0, rel=0.5)

    def test_vector_perturbation(self):
        grad = forward_gradient(lambda P: P @ [2.0, 3.0], np.zeros(2), np.array([1e-2, 1e-5]))
        assert grad == pytest.approx([2.0, 3.0], rel=1e-8)


class TestPickDirection:
    class TwoDirections:
        """Feeds exactly the two candidate directions (1,0) and (0,-1)."""

        def normal(self, size=None):
            return np.array([[1.0, 0.0], [0.0, -1.0]])

    def test_phase1_minimizes_signed_derivative(self):
        u = pick_direction(np.array([2.0, 3.0]), 2, 1, self.TwoDirections())
        # derivatives: 2 and -3 -> steepest descent is (0,-1)
        assert np.allclose(u, [0.0, -1.0])

    def test_phase2_minimizes_absolute_derivative(self):
        u = pick_direction(np.array([2.0, 3.0]), 2, 2, self.TwoDirections())
        # |2| < |-3| -> (1,0)
        assert np.allclose(u, [1.0, 0.0])

    def test_zero_gradient_returns_first_sample(self):
        rng = np.random.default_rng(3)
        first = None

        class Recording:
            def normal(self, size=None):
                nonlocal first
                draws = rng.normal(size=size)
                first = draws[0] / np.linalg.norm(draws[0])
                return draws

        u = pick_direction(np.zeros(5), 7, 1, Recording())
        assert np.allclose(u, first)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = pick_direction(rng.normal(size=6), 11, 1, rng)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            pick_direction(np.ones(2), 0, 1, rng)
        with pytest.raises(ValueError):
            pick_direction(np.ones(2), 3, 7, rng)


class TestProbeMove:
    """The engine's probe-gated candidates, accepted through accept()."""

    @staticmethod
    def candidates(problem, positions, phase, step, variant, rng):
        calls = []

        def violation_rows(rows):
            calls.append(rows.shape[0])
            return evaluate_many(problem, rows)[1]

        out = _probe_candidates(
            violation_rows, np.asarray(positions, float), phase, np.full(problem.dimension, step),
            variant, 1e-6 * problem.range_width, rng, problem.lower, problem.upper,
        )
        return out, calls

    def test_zero_probability_matches_plain_move(self):
        problem = box(3, objective=lambda x: (x**2).sum(axis=-1))
        positions = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]])
        variant = Variant("gradient", k_directions=5, p_g=0.0)
        out, calls = self.candidates(problem, positions, 1, 0.5, variant,
                                     np.random.default_rng(77))
        assert calls == []
        # after the gate draws, each fish takes the plain uniform step
        twin = np.random.default_rng(77)
        twin.random(2)
        for i in range(2):
            assert np.array_equal(out[i], positions[i] + twin.uniform(-1.0, 1.0, 3) * 0.5)

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
        assert calls == [3, 3]
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
        # the forward-difference step run() uses, read off the probe rows
        steps = []

        def objective(x):
            if x.shape[0] == 3:
                steps.append(np.diag(x[1:] - x[0]))
            return np.zeros(x.shape[0])

        lower, upper = np.array([0.0, -50.0]), np.array([10.0, 50.0])
        problem = Problem(dimension=2, lower=lower, upper=upper, objective=objective)
        params = EngineParams(n_fish=4, iterations=2)
        run(problem, Variant("gradient", k_directions=5, p_g=1.0), params, seed=3)
        assert len(steps) == 8
        assert np.allclose(steps, [1e-5, 1e-4])
        steps.clear()
        fixed = Variant("gradient", k_directions=5, p_g=1.0, perturbation=1e-3)
        run(problem, fixed, params, seed=3)
        assert len(steps) == 8
        assert np.allclose(steps, 1e-3)
