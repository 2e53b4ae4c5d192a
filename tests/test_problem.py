import numpy as np
import pytest

from wrfss.problem import (
    Evaluation,
    EvaluationError,
    Problem,
    evaluate,
    evaluate_many,
    relax_equalities,
)


def box(d, lo, hi, **kw):
    return Problem(
        dimension=d,
        lower=np.full(d, float(lo)),
        upper=np.full(d, float(hi)),
        **kw,
    )


@pytest.fixture
def simple():
    # f(x) = x0, one inequality active for x0 > 2, one equality x1 = 1.
    return box(
        2,
        -10,
        10,
        objective=lambda x: x[0],
        inequalities=(lambda x: x[0] - 2.0,),
        equalities=(lambda x: x[1] - 1.0,),
        delta=1e-4,
    )


def test_feasible_point_has_zero_violation(simple):
    ev = evaluate(simple, [0.0, 1.0])
    assert ev.violation == 0.0
    assert ev.feasible
    assert ev.fitness == 0.0


def test_single_inequality_linear_exponent():
    p = box(1, -10, 10, objective=lambda x: 0.0, inequalities=(lambda x: x[0],))
    # g(x) = 3, p = 1 -> violation 3
    assert evaluate(p, [3.0]).violation == 3.0


def test_single_equality_quadratic_exponent():
    p = box(
        1,
        -10,
        10,
        objective=lambda x: 0.0,
        equalities=(lambda x: x[0],),
        delta=1e-4,
        violation_exponent=2.0,
    )
    # |h| - delta = 0.4999, squared by hand
    expected = (0.5 - 1e-4) ** 2
    assert expected == 0.24990001
    assert evaluate(p, [0.5]).violation == pytest.approx(expected, abs=0.0)


def test_equality_within_tolerance_is_feasible():
    p = box(1, -1, 1, objective=lambda x: 0.0, equalities=(lambda x: x[0],), delta=1e-4)
    assert evaluate(p, [0.0]).feasible
    # boundary case |h| - delta = 0 counts as satisfied
    assert evaluate(p, [1e-4]).feasible
    assert not evaluate(p, [2e-4]).feasible


def test_violation_nonnegative_and_monotone():
    p = box(1, -100, 100, objective=lambda x: 0.0, inequalities=(lambda x: x[0],))
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-100, 100, 200))
    viols = [evaluate(p, [x]).violation for x in xs]
    assert all(v >= 0.0 for v in viols)
    # increasing the breach never decreases the measure
    assert all(b >= a for a, b in zip(viols, viols[1:]))


def test_feasible_iff_zero_violation():
    p = box(1, -5, 5, objective=lambda x: 0.0, inequalities=(lambda x: x[0],))
    rng = np.random.default_rng(4)
    for x in rng.uniform(-5, 5, 100):
        ev = evaluate(p, [x])
        assert ev.feasible == (ev.violation == 0.0)


def test_evaluate_is_pure(simple):
    x = [1.5, 0.4]
    first = evaluate(simple, x)
    second = evaluate(simple, x)
    assert first == second


def test_evaluation_error_carries_constraint_index():
    p = box(
        1,
        -1,
        1,
        objective=lambda x: 0.0,
        inequalities=(lambda x: 0.0, lambda x: float("inf")),
    )
    with pytest.raises(EvaluationError) as err:
        evaluate(p, [0.0])
    assert err.value.kind == "inequality"
    assert err.value.index == 1

    p2 = box(1, -1, 1, objective=lambda x: float("nan"))
    with pytest.raises(EvaluationError) as err2:
        evaluate(p2, [0.0])
    assert err2.value.kind == "objective"
    assert err2.value.index is None


def test_relax_equalities_structure_and_boundary():
    p = box(1, -1, 1, objective=lambda x: 0.0, equalities=(lambda x: x[0],), delta=1e-4)
    relaxed = relax_equalities(p, 1e-4)
    assert relaxed.n_equalities == 0
    assert relaxed.n_inequalities == 1
    assert evaluate(relaxed, [0.0]).feasible
    # |h| - delta = 0 at the boundary -> still feasible
    assert evaluate(relaxed, [1e-4]).feasible
    assert not evaluate(relaxed, [2e-4]).feasible
    with pytest.raises(ValueError):
        relax_equalities(p, 0.0)


def test_relaxed_violation_matches_original(simple):
    relaxed = relax_equalities(simple, simple.delta)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-10, 10, 2)
        assert evaluate(relaxed, x).violation == pytest.approx(
            evaluate(simple, x).violation, rel=0, abs=0
        )


def test_evaluate_many_matches_per_point():
    p = box(
        3,
        -5,
        5,
        objective=lambda x: (np.asarray(x) ** 2).sum(axis=-1),
        inequalities=(lambda x: np.asarray(x)[..., 0] - 1.0,),
        equalities=(lambda x: np.asarray(x)[..., 1],),
        vectorized=True,
    )
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 5, (40, 3))
    f, v = evaluate_many(p, pts)
    for i, row in enumerate(pts):
        ev = evaluate(p, row)
        assert f[i] == ev.fitness
        assert v[i] == ev.violation


def test_evaluate_many_loop_fallback():
    p = box(2, -5, 5, objective=lambda x: x[0] + x[1], inequalities=(lambda x: x[0],))
    pts = np.array([[1.0, 2.0], [-1.0, 0.5]])
    f, v = evaluate_many(p, pts)
    assert np.allclose(f, [3.0, -0.5])
    assert np.allclose(v, [1.0, 0.0])


def test_problem_validation():
    with pytest.raises(ValueError):
        box(0, 0, 1, objective=lambda x: 0.0)
    with pytest.raises(ValueError):
        Problem(
            dimension=1,
            lower=np.array([1.0]),
            upper=np.array([1.0]),
            objective=lambda x: 0.0,
        )
    with pytest.raises(ValueError):
        box(1, 0, 1, objective=lambda x: 0.0, equalities=(lambda x: x[0],), delta=0.0)
    with pytest.raises(ValueError):
        box(1, 0, 1, objective=lambda x: 0.0, violation_exponent=0.0)


def test_evaluation_feasible_property():
    assert Evaluation(1.0, 0.0).feasible
    assert not Evaluation(1.0, 1e-12).feasible
