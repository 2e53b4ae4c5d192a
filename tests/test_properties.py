"""Engine invariants checked over random batch problems through the real run()."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrfss.engine import VARIANT_KINDS, EngineParams, Variant, run, run_many
from wrfss.problem import Problem, evaluate_many

from oracles import is_forest, record_differences

unit = st.floats(0.0, 1.0)


def _linear(w, b):
    return lambda x: x @ w - b


@st.composite
def problems(draw):
    """A quadratic objective with 0-2 linear inequalities and 0-1 linear equalities."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.uniform(-50.0, 10.0, d)
    upper = lower + rng.uniform(0.5, 60.0, d)
    center, scale = rng.uniform(lower, upper), rng.uniform(0.0, 3.0, d)
    inequalities = tuple(
        _linear(rng.normal(size=d), rng.normal()) for _ in range(draw(st.integers(0, 2)))
    )
    equalities = tuple(
        _linear(rng.normal(size=d), rng.normal()) for _ in range(draw(st.integers(0, 1)))
    )
    return Problem(
        dimension=d, lower=lower, upper=upper,
        objective=lambda x: (scale * (x - center) ** 2).sum(axis=1),
        inequalities=inequalities, equalities=equalities,
        delta=draw(st.sampled_from([1e-4, 0.1, 1.0])),
    )


@st.composite
def engine_params(draw):
    step_ind, step_vol = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
    return EngineParams(
        n_fish=draw(st.integers(1, 8)),
        iterations=draw(st.integers(0, 12)),
        sigma=draw(unit),
        tau=draw(st.floats(0.0, 1.0)),
        w_scale=draw(st.floats(2.0, 1e4)),
        step_ind_initial=step_ind,
        step_ind_final=step_ind * draw(unit),
        step_vol_initial=step_vol,
        step_vol_final=step_vol * draw(unit),
        sar_alpha0=draw(unit),
        sar_decay=draw(st.floats(0.0, 1.0)),
    )


def variants(kind):
    return st.builds(
        Variant,
        kind=st.just(kind),
        tc_fraction=st.floats(0.05, 1.0),
        cp_min=st.floats(0.5, 8.0),
        epsilon0=st.none() | st.floats(0.0, 10.0),
        k_directions=st.integers(1, 4),
        p_g=unit,
    )


@pytest.mark.parametrize("kind", VARIANT_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_invariants(kind, data):
    problem = data.draw(problems())
    params = data.draw(engine_params())
    variant = data.draw(variants(kind))
    seed = data.draw(st.integers(0, 2**32 - 1))
    seen = []

    def observe(t, positions, weights, fitness, violation, leader):
        seen.append(t)
        assert np.all(positions >= problem.lower)
        assert np.all(positions <= problem.upper)
        assert np.all(weights >= 1.0) and np.all(weights <= params.w_scale)
        assert is_forest(leader)

    rec = run(problem, variant, params, seed=seed, observer=observe)
    assert not rec.aborted
    assert seen == list(range(params.iterations))
    assert np.all(rec.best_position >= problem.lower)
    assert np.all(rec.best_position <= problem.upper)
    # the best-so-far violation never grows; once zero, neither does the fitness
    v, f = rec.trace_best_violation, rec.trace_best_fitness
    assert np.all(np.diff(v) <= 0.0)
    feasible = v[:-1] == 0.0
    assert np.all(np.diff(f)[feasible] <= 0.0)
    assert rec.eval_count == (
        params.n_fish * (1 + 2 * params.iterations) + (problem.dimension + 1) * rec.probe_count
    )
    if kind != "gradient":
        assert rec.probe_count == 0


def beats(f, v, best_f, best_v):
    """Feasibility rules: fitness decides between feasible pairs, violation otherwise."""
    if v == 0.0 and best_v == 0.0:
        return f < best_f
    return v < best_v


@pytest.mark.parametrize("kind", VARIANT_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_trace_rows_follow_feasibility_rules(kind, data):
    problem = data.draw(problems())
    params = data.draw(engine_params())
    variant = data.draw(variants(kind))
    seed = data.draw(st.integers(0, 2**32 - 1))
    # per iteration: the school's scores after acceptance, and its positions
    # after the collective moves, which the next iteration starts by re-scoring
    accepted, moved = [], []

    def observe(t, positions, weights, fitness, violation, leader):
        accepted.append((fitness.copy(), violation.copy()))
        moved.append(positions.copy())

    rec = run(problem, variant, params, seed=seed, observer=observe)
    rows = list(zip(rec.trace_best_fitness, rec.trace_best_violation))
    # iteration 0 re-scores the initial school, whose best already is row 0.
    # run() scores the school as the first n rows of a 2n-row batch with its
    # candidates; the functions here are BLAS products (x @ w), whose rounding
    # depends on the batch size, so the oracle scores a 2n-row batch too.
    n = params.n_fish
    starts = [((), ())] + [
        tuple(a[:n] for a in evaluate_many(problem, np.concatenate([x, x]))) for x in moved[:-1]
    ]
    for t in range(params.iterations):
        best = rows[t]
        for fitness, violation in (starts[t], accepted[t]):
            for f, v in zip(fitness, violation):
                if beats(f, v, *best):
                    best = (f, v)
        assert rows[t + 1] == best, t


@pytest.mark.parametrize("kind", VARIANT_KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_equals_solo_runs(kind, data):
    problem = data.draw(problems())
    params = data.draw(engine_params())
    variant = data.draw(variants(kind))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    block = run_many(problem, variant, params, seeds)
    for seed, record in zip(seeds, block):
        assert record_differences(run(problem, variant, params, seed=seed), record) == []
