import numpy as np
import pytest

import wrfss
from wrfss import problem as problem_module
from wrfss.problem import EvaluationError, Problem, evaluate_many, feasible_many, violation_many


def box(d, lo, hi, **kw):
    return Problem(
        dimension=d,
        lower=np.full(d, float(lo)),
        upper=np.full(d, float(hi)),
        **kw,
    )


def zeros(x):
    return np.zeros(x.shape[0])


def at(problem, x):
    """(fitness, violation) of one point, scored as a one-row batch."""
    f, v = evaluate_many(problem, np.atleast_2d(np.asarray(x, dtype=float)))
    assert f.shape == v.shape == (1,)
    return float(f[0]), float(v[0])


@pytest.fixture
def simple():
    # f(x) = x0, one inequality active for x0 > 2, one equality x1 = 1.
    return box(
        2,
        -10,
        10,
        objective=lambda x: x[:, 0],
        inequalities=(lambda x: x[:, 0] - 2.0,),
        equalities=(lambda x: x[:, 1] - 1.0,),
        delta=1e-4,
    )


def test_feasible_point_has_zero_violation(simple):
    assert at(simple, [0.0, 1.0]) == (0.0, 0.0)


def test_single_inequality_linear_exponent():
    p = box(1, -10, 10, objective=zeros, inequalities=(lambda x: x[:, 0],))
    # g(x) = 3, p = 1 -> violation 3
    assert at(p, [3.0])[1] == 3.0


def test_single_equality_quadratic_exponent():
    p = box(
        1,
        -10,
        10,
        objective=zeros,
        equalities=(lambda x: x[:, 0],),
        delta=1e-4,
        violation_exponent=2.0,
    )
    # |h| - delta = 0.4999, squared by hand
    expected = (0.5 - 1e-4) ** 2
    assert expected == 0.24990001
    assert at(p, [0.5])[1] == pytest.approx(expected, abs=0.0)


def test_equality_within_tolerance_is_feasible():
    p = box(1, -1, 1, objective=zeros, equalities=(lambda x: x[:, 0],), delta=1e-4)
    assert at(p, [0.0])[1] == 0.0
    # boundary case |h| - delta = 0 counts as satisfied
    assert at(p, [1e-4])[1] == 0.0
    assert at(p, [2e-4])[1] > 0.0


def test_violation_nonnegative_and_monotone():
    p = box(1, -100, 100, objective=zeros, inequalities=(lambda x: x[:, 0],))
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-100, 100, 200))
    viols = [at(p, [x])[1] for x in xs]
    assert all(v >= 0.0 for v in viols)
    # increasing the breach never decreases the measure
    assert all(b >= a for a, b in zip(viols, viols[1:]))


def test_feasible_iff_zero_violation():
    # zero violation exactly where the constraint holds, g(x) = x0 <= 0
    p = box(1, -5, 5, objective=zeros, inequalities=(lambda x: x[:, 0],))
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.uniform(-5, 5, 100), [0.0]])
    _, v = evaluate_many(p, xs[:, None])
    assert np.array_equal(v == 0.0, xs <= 0.0)


@pytest.mark.parametrize("name, value", [
    ("delta", np.inf), ("delta", np.nan), ("violation_exponent", np.inf),
])
def test_non_finite_problem_parameter_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        box(1, -1, 1, objective=lambda x: x[:, 0], **{name: value})


def test_evaluate_is_pure(simple):
    x = [1.5, 0.4]
    assert at(simple, x) == at(simple, x)


def test_evaluation_error_carries_constraint_index():
    p = box(
        1,
        -1,
        1,
        objective=zeros,
        inequalities=(zeros, lambda x: np.full(x.shape[0], np.inf)),
    )
    with pytest.raises(EvaluationError) as err:
        at(p, [0.0])
    assert err.value.kind == "inequality"
    assert err.value.index == 1

    p2 = box(1, -1, 1, objective=lambda x: np.full(x.shape[0], np.nan))
    with pytest.raises(EvaluationError) as err2:
        at(p2, [0.0])
    assert err2.value.kind == "objective"
    assert err2.value.index is None


def test_evaluate_many_matches_per_point():
    # per-row oracle of the violation measure, written out for this problem
    def oracle(x, delta=1e-4, p=2.0):
        g = x[0] - 1.0
        h = x[1]
        return float(x @ x), max(0.0, g) ** p + max(0.0, abs(h) - delta) ** p

    p = box(
        3,
        -5,
        5,
        objective=lambda x: (x**2).sum(axis=-1),
        inequalities=(lambda x: x[:, 0] - 1.0,),
        equalities=(lambda x: x[:, 1],),
        violation_exponent=2.0,
    )
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 5, (40, 3))
    f, v = evaluate_many(p, pts)
    for i, row in enumerate(pts):
        fi, vi = oracle(row)
        assert f[i] == pytest.approx(fi, rel=1e-15)
        assert v[i] == pytest.approx(vi, rel=1e-12)
        # a row's values do not depend on the rest of the batch
        assert (f[i], v[i]) == at(p, row)


class TestShapeContract:
    """Every problem function must map an (n, D) batch to n values."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_per_point_callable_rejected(self, n):
        # x[0] is the first row of a batch; on a square batch it has n values
        p = box(3, -1, 1, objective=zeros, inequalities=(lambda x: x[0],))
        pts = np.arange(3.0 * n).reshape(n, 3) / 10.0
        with pytest.raises(ValueError, match=r"inequality\[0\].*returned shape \(3,\)") as err:
            evaluate_many(p, pts)
        expected = "(1, 3)" if n == 3 else f"({n}, 3)"
        assert f"points of shape {expected}" in str(err.value)

    def test_scalar_objective_rejected(self):
        p = box(2, -1, 1, objective=lambda x: 0.0)
        with pytest.raises(ValueError, match=r"objective .*returned shape \(\).*expected \(4,\)"):
            evaluate_many(p, np.zeros((4, 2)))

    def test_equality_with_column_shape_rejected(self):
        p = box(2, -1, 1, objective=zeros, equalities=(zeros, lambda x: x[:, :1]))
        with pytest.raises(ValueError, match=r"equality\[1\].*returned shape \(4, 1\)"):
            evaluate_many(p, np.zeros((4, 2)))

    def test_shape_error_is_not_an_evaluation_error(self):
        # run() reports an EvaluationError on the record; a broken contract raises
        p = box(2, -1, 1, objective=lambda x: np.full(2, np.nan))
        with pytest.raises(ValueError) as err:
            evaluate_many(p, np.zeros((2, 2)))
        assert not isinstance(err.value, EvaluationError)

    def test_square_batch_of_batch_function_accepted(self):
        calls = []

        def objective(x):
            calls.append(x.shape)
            return x[:, 0]

        p = box(3, -1, 1, objective=objective)
        pts = np.arange(9.0).reshape(3, 3) / 10.0
        f, _ = evaluate_many(p, pts)
        assert np.array_equal(f, pts[:, 0])
        # the square batch is also checked on its first point alone
        assert calls == [(3, 3), (1, 3)]
        calls.clear()
        evaluate_many(p, pts[:2])
        assert calls == [(2, 3)]


class TestViolationMany:
    """The violation column of evaluate_many, with the objective never called."""

    @staticmethod
    def never(x):
        raise AssertionError("the objective was called")

    def test_equals_evaluate_many_column(self, simple):
        pts = np.random.default_rng(6).uniform(-10, 10, (25, 2))
        assert np.array_equal(violation_many(simple, pts), evaluate_many(simple, pts)[1])

    def test_objective_is_not_called(self):
        p = box(1, -1, 1, objective=self.never, inequalities=(lambda x: x[:, 0],))
        assert violation_many(p, np.array([[-0.5], [0.25]])).tolist() == [0.0, 0.25]

    def test_unconstrained_rows_are_feasible(self):
        p = box(2, -1, 1, objective=self.never)
        assert violation_many(p, np.zeros((3, 2))).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros(2), np.zeros((1, 2, 2))])
    def test_points_shape_rejected(self, points):
        p = box(2, -1, 1, objective=self.never, inequalities=(zeros,))
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\)"):
            violation_many(p, points)

    def test_constraint_shape_rejected(self):
        p = box(2, -1, 1, objective=self.never, equalities=(zeros, lambda x: x[:, :1]))
        with pytest.raises(ValueError, match=r"equality\[1\].*returned shape \(4, 1\)"):
            violation_many(p, np.zeros((4, 2)))

    def test_per_point_constraint_rejected_on_square_batch(self):
        p = box(3, -1, 1, objective=self.never, inequalities=(lambda x: x[0],))
        with pytest.raises(ValueError, match=r"inequality\[0\].*points of shape \(1, 3\)"):
            violation_many(p, np.zeros((3, 3)))

    @pytest.mark.parametrize("kind", ["inequality", "equality"])
    def test_non_finite_constraint_is_an_evaluation_error(self, kind):
        bad = (zeros, lambda x: np.full(x.shape[0], np.nan))
        p = box(1, -1, 1, objective=self.never, **{kind[:-1] + "ies": bad})
        with pytest.raises(EvaluationError) as err:
            violation_many(p, np.zeros((2, 1)))
        assert (err.value.kind, err.value.index) == (kind, 1)


class TestFeasibleMany:
    """violation_many(...) == 0, with each constraint scored only on rows still feasible."""

    @staticmethod
    def four_constraints(exponent=1.0, calls=None):
        # Rows of [-1, 1]^2 fail at different constraints: x0 > 0.5, then
        # x1 > 0.5, then |x0 + x1 - 0.5| > 0.1, then |x0 - x1| > 0.1.
        def logged(j, fn):
            def constraint(x):
                if calls is not None:
                    calls.append((j, x.shape[0]))
                return fn(x)
            return constraint

        return box(
            2, -1, 1, objective=TestViolationMany.never, delta=0.1,
            violation_exponent=exponent,
            inequalities=(logged(0, lambda x: x[:, 0] - 0.5), logged(1, lambda x: x[:, 1] - 0.5)),
            equalities=(logged(2, lambda x: x[:, 0] + x[:, 1] - 0.5),
                        logged(3, lambda x: x[:, 0] - x[:, 1])),
        )

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 10, 2053])
    def test_equals_zero_violation(self, n, exponent):
        p = self.four_constraints(exponent)
        pts = np.random.default_rng([n, 7]).uniform(-1, 1, (n, 2))
        mask = feasible_many(p, pts)
        assert mask.dtype == bool
        assert np.array_equal(mask, violation_many(p, pts) == 0.0)

    def test_each_constraint_sees_only_rows_still_feasible(self):
        calls = []
        p = self.four_constraints(calls=calls)
        pts = np.array([[0.0, 0.0], [0.9, 0.0], [0.0, 0.9], [0.45, 0.05], [0.3, 0.25],
                        [0.25, 0.25]])
        # rejected by constraint 2, 0, 1 and 3, then two feasible rows
        assert feasible_many(p, pts).tolist() == [False, False, False, False, True, True]
        assert calls == [(0, 6), (1, 5), (2, 4), (3, 3)]
        assert (violation_many(p, pts) == 0.0).tolist() == [False] * 4 + [True] * 2

    def test_batch_passed_whole_while_every_row_is_feasible(self):
        seen = []
        p = box(1, -1, 1, objective=TestViolationMany.never,
                inequalities=(lambda x: seen.append(x) or x[:, 0] - 2.0,
                              lambda x: seen.append(x) or x[:, 0] - 0.5))
        pts = np.array([[0.0], [0.9], [0.2]])
        assert feasible_many(p, pts).tolist() == [True, False, True]
        assert seen[0] is pts and seen[1] is pts

    def test_stops_once_no_row_is_left(self):
        calls = []
        p = self.four_constraints(calls=calls)
        assert feasible_many(p, np.full((3, 2), 0.9)).tolist() == [False] * 3
        assert calls == [(0, 3)]

    def test_unconstrained_rows_are_feasible(self):
        p = box(2, -1, 1, objective=TestViolationMany.never)
        assert feasible_many(p, np.zeros((3, 2))).tolist() == [True, True, True]

    def test_non_finite_only_at_rejected_rows_raises_nothing(self):
        p = box(1, -1, 1, objective=TestViolationMany.never,
                inequalities=(lambda x: x[:, 0], lambda x: np.where(x[:, 0] > 0, np.nan, -1.0)))
        assert feasible_many(p, np.array([[-0.5], [0.5]])).tolist() == [True, False]
        with pytest.raises(EvaluationError):
            violation_many(p, np.array([[-0.5], [0.5]]))

    @pytest.mark.parametrize("kind", ["inequality", "equality"])
    def test_non_finite_at_a_feasible_row_is_an_evaluation_error(self, kind):
        bad = (zeros, lambda x: np.full(x.shape[0], np.nan))
        p = box(1, -1, 1, objective=TestViolationMany.never, **{kind[:-1] + "ies": bad})
        with pytest.raises(EvaluationError) as err:
            feasible_many(p, np.zeros((2, 1)))
        assert (err.value.kind, err.value.index) == (kind, 1)
        assert str(err.value) == f"non-finite value from {kind}[1]"

    @pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros(2), np.zeros((1, 2, 2))])
    def test_points_shape_rejected(self, points):
        p = box(2, -1, 1, objective=TestViolationMany.never, inequalities=(zeros,))
        with pytest.raises(ValueError, match=r"points must have shape \(n, 2\)"):
            feasible_many(p, points)

    def test_constraint_shape_rejected(self):
        p = box(2, -1, 1, objective=TestViolationMany.never,
                equalities=(zeros, lambda x: x[:, :1]))
        with pytest.raises(ValueError, match=r"equality\[1\].*returned shape \(4, 1\)"):
            feasible_many(p, np.zeros((4, 2)))


def test_removed_per_point_names_are_gone():
    for name in ("evaluate", "Evaluation", "relax_equalities"):
        assert not hasattr(problem_module, name)
        assert name not in wrfss.__all__
    assert "vectorized" not in Problem.__dataclass_fields__


def test_package_exports_the_library_api():
    # The stage functions are imported from their modules, not from wrfss.
    assert sorted(wrfss.__all__) == sorted([
        "__version__", "Problem", "EvaluationError", "evaluate_many", "violation_many",
        "Variant", "EngineParams", "RunRecord", "run",
    ])
    for name in wrfss.__all__:
        assert hasattr(wrfss, name)


def test_problem_validation():
    with pytest.raises(ValueError):
        box(0, 0, 1, objective=zeros)
    with pytest.raises(ValueError):
        Problem(
            dimension=1,
            lower=np.array([1.0]),
            upper=np.array([1.0]),
            objective=zeros,
        )
    with pytest.raises(ValueError):
        box(1, 0, 1, objective=zeros, equalities=(lambda x: x[:, 0],), delta=0.0)
    with pytest.raises(ValueError):
        box(1, 0, 1, objective=zeros, violation_exponent=0.0)
