import warnings

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


def test_single_equality_breach():
    p = box(1, -10, 10, objective=zeros, equalities=(lambda x: x[:, 0],), delta=1e-4)
    # h(x) = -0.5 -> violation |h| - delta = 0.4999
    assert at(p, [-0.5])[1] == 0.5 - 1e-4


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


@pytest.mark.parametrize("name, value", [("delta", np.inf), ("delta", np.nan)])
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
    def oracle(x, delta=1e-4):
        g = x[0] - 1.0
        h = x[1]
        return float(x @ x), max(0.0, g) + max(0.0, abs(h) - delta)

    p = box(
        3,
        -5,
        5,
        objective=lambda x: (x**2).sum(axis=-1),
        inequalities=(lambda x: x[:, 0] - 1.0,),
        equalities=(lambda x: x[:, 1],),
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
        # x[0] is the first row of a batch: D values, and the scored batch
        # never has D rows (a single point or D points get padding rows)
        p = box(3, -1, 1, objective=zeros, inequalities=(lambda x: x[0],))
        pts = np.arange(3.0 * n).reshape(n, 3) / 10.0
        with pytest.raises(ValueError, match=r"inequality\[0\].*returned shape \(3,\)") as err:
            evaluate_many(p, pts)
        m = {1: 2, 3: 4}.get(n, n)
        assert (f"points of shape ({n}, 3), scored as a batch of shape ({m}, 3); "
                f"expected ({m},)") in str(err.value)

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
        # the square batch is scored once, with a copy of its first point appended
        assert calls == [(4, 3)]
        calls.clear()
        evaluate_many(p, pts[:2])
        assert calls == [(2, 3)]


# (D, n) -> the rows each problem function is called on, for n in
# {1, 2, D - 1, D, D + 1}: a single point and D points are padded.
SCORED_ROWS = {
    (1, 0): 0, (1, 1): 2, (1, 2): 2,
    (2, 1): 3, (2, 2): 3, (2, 3): 3,
    (3, 1): 2, (3, 2): 2, (3, 3): 4, (3, 4): 4,
    (10, 1): 2, (10, 2): 2, (10, 9): 9, (10, 10): 11, (10, 11): 11,
}


@pytest.mark.parametrize("d,n", list(SCORED_ROWS))
def test_each_function_called_once_on_the_padded_batch(d, n):
    calls = []

    def counted(name, fn):
        def batch_fn(x):
            calls.append((name, x.shape))
            return fn(x)

        return batch_fn

    # g accepts every row and h rejects every row, so feasible_many scores both on all rows
    p = box(d, 0, 1, objective=counted("f", lambda x: x.sum(axis=1)),
            inequalities=(counted("g", lambda x: -x[:, 0]),),
            equalities=(counted("h", lambda x: x[:, -1]),))
    pts = np.random.default_rng([d, n]).uniform(0.1, 0.9, (n, d))
    scored = (SCORED_ROWS[d, n], d)
    f, v = evaluate_many(p, pts)
    assert calls == [("f", scored), ("g", scored), ("h", scored)]
    assert np.array_equal(f, pts.sum(axis=1))
    assert np.array_equal(v, pts[:, -1] - p.delta)
    calls.clear()
    assert np.array_equal(violation_many(p, pts), v)
    assert calls == [("g", scored), ("h", scored)]
    calls.clear()
    assert feasible_many(p, pts).tolist() == [False] * n
    assert calls == [("g", scored), ("h", scored)]


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
        match = r"inequality\[0\].*points of shape \(3, 3\), scored as a batch of shape \(4, 3\)"
        with pytest.raises(ValueError, match=match):
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
    def four_constraints(calls=None):
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
            inequalities=(logged(0, lambda x: x[:, 0] - 0.5), logged(1, lambda x: x[:, 1] - 0.5)),
            equalities=(logged(2, lambda x: x[:, 0] + x[:, 1] - 0.5),
                        logged(3, lambda x: x[:, 0] - x[:, 1])),
        )

    # The spread of the rows sets where they fail: at 0.5 every row passes
    # both inequalities, so the equalities see the whole batch; at 2 most
    # rows fail an inequality.
    @pytest.mark.parametrize("spread", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 10, 2053])
    def test_equals_zero_violation(self, n, spread):
        p = self.four_constraints()
        pts = np.random.default_rng([n, 7]).uniform(-spread, spread, (n, 2))
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


class TestViolationSum:
    """The violation sums finite terms; a sum that overflows is an evaluation error."""

    @staticmethod
    def huge():
        # Two finite terms near the float maximum, whose sum is infinite.
        return box(2, -1, 1, objective=lambda x: x[:, 0], inequalities=(
            lambda x: np.full(x.shape[0], 1e308), lambda x: 1e308 * (1.0 + 0.5 * x[:, 0] ** 2),
        ))

    @pytest.mark.parametrize("scorer", [evaluate_many, violation_many])
    def test_overflow_is_an_evaluation_error(self, scorer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as err:
                scorer(self.huge(), np.array([[0.0, 0.0], [0.5, -0.5]]))
        assert (err.value.kind, err.value.index) == ("violation", None)
        assert str(err.value) == "non-finite value from violation"

    def test_feasible_many_forms_no_sum(self):
        assert feasible_many(self.huge(), np.zeros((3, 2))).tolist() == [False] * 3

    def test_run_aborts_with_the_named_error(self):
        from wrfss.engine import EngineParams, run

        record = run(self.huge(), params=EngineParams(n_fish=4, iterations=5), seed=1)
        assert record.aborted
        assert record.error == "non-finite value from violation"
        assert record.eval_count == 0 and record.trace_iteration.size == 0

    @pytest.mark.parametrize("count", [1, 2])
    def test_negative_zero_terms_sum_to_positive_zero(self, count):
        negative_zero = lambda x: np.full(x.shape[0], -0.0)
        p = box(1, -1, 1, objective=zeros, inequalities=(negative_zero,) * count)
        v = violation_many(p, np.zeros((3, 1)))
        assert v.tolist() == [0.0] * 3 and not np.signbit(v).any()


class TestOneRowPadding:
    """A row gets the same bits alone as in a batch, also through a matrix
    product, which numpy computes for a single row with another BLAS kernel."""

    M = np.random.default_rng(11).normal(size=(10, 10))
    X = np.random.default_rng(12).uniform(-1, 1, (200, 10))

    def problem(self, c=0.0):
        # feasible exactly where the first column of x @ M equals c
        def column(x):
            return (x @ self.M)[:, 0]

        return box(10, -1, 1, objective=lambda x: (x @ self.M)[:, 1],
                   inequalities=(lambda x: column(x) - c, lambda x: c - column(x)))

    def test_scores_alone_equal_the_batch(self):
        p = self.problem()
        f, v = evaluate_many(p, self.X)
        alone = [evaluate_many(p, row[None]) for row in self.X]
        assert np.concatenate([a for a, _ in alone]).tobytes() == f.tobytes()
        assert np.concatenate([a for _, a in alone]).tobytes() == v.tobytes()
        alone_v = np.concatenate([violation_many(p, row[None]) for row in self.X])
        assert alone_v.tobytes() == violation_many(p, self.X).tobytes()

    def test_feasibility_alone_equals_the_batch(self):
        column = (self.X @ self.M)[:, 0]
        for i in range(0, 200, 4):
            p = self.problem(column[i])  # row i lies exactly on the constraint in a batch
            assert feasible_many(p, self.X)[i]
            assert feasible_many(p, self.X[i:i + 1]).tolist() == [True]


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
