"""Desk-scale acceptance suite.

Each test covers one acceptance criterion end to end and prints a PASS line
(run with ``pytest -s`` to see them). The benchmark batches use the published
per-problem protocol parameters scaled down to 5000 iterations over 25 seeds,
on the built-in surrogate data unless official data files are supplied via
WRFSS_CEC2010_DATA.
"""

import math
import os

import numpy as np
import pytest

from wrfss import cec2010
from wrfss.cli import main as cli_main
from wrfss.constraint_handling import (
    EpsilonSchedule,
    best_index,
    epsilon_less_arrays,
    initial_epsilon,
    normalized_feeding,
)
from wrfss.engine import EngineParams, Variant, run
from wrfss.gradient import forward_gradient
from wrfss.harness import paper_preset, run_batch
from wrfss.niching import LinkGraph, link_formator
from wrfss.problem import Problem
from wrfss.school import StepSchedule

from oracles import is_forest

SEED_BASE = 20100
RUNS = 25
JOBS = 2


def report(criterion: str, detail: str):
    print(f"PASS  {criterion}: {detail}")


@pytest.fixture(scope="module")
def c01_base_batch():
    config = paper_preset("C01", "wrfss", desk=True, run_count=RUNS, base_seed=SEED_BASE)
    return run_batch(config, n_jobs=JOBS)


@pytest.fixture(scope="module")
def c07_c08_batches():
    out = {}
    for pid in ("C07", "C08"):
        for variant in ("wrfss", "wrfsse", "wrfssg", "wrfssp"):
            config = paper_preset(pid, variant, desk=True, run_count=RUNS, base_seed=SEED_BASE)
            out[(pid, variant)] = run_batch(config, n_jobs=JOBS)
    return out


def test_criterion_01_c01_always_ends_feasible(c01_base_batch):
    stats, records = c01_base_batch
    assert stats.failed_runs == 0
    assert stats.feasible_runs == RUNS, (
        f"only {stats.feasible_runs}/{RUNS} runs ended feasible on C01"
    )
    report("criterion 01", f"C01 base variant: {stats.feasible_runs}/{RUNS} runs feasible")


def test_criterion_02_c01_fitness_plausible(c01_base_batch):
    stats, _ = c01_base_batch
    assert stats.fitness_mean <= -0.30, (
        f"mean best fitness {stats.fitness_mean:.4f} above the -0.30 bar"
    )
    report("criterion 02", f"C01 mean best fitness {stats.fitness_mean:.4f} <= -0.30")


def test_criterion_03_c07_c08_always_feasible(c07_c08_batches):
    for (pid, variant), (stats, _) in c07_c08_batches.items():
        assert stats.failed_runs == 0
        assert stats.feasible_runs == RUNS, (
            f"{pid}/{variant}: only {stats.feasible_runs}/{RUNS} feasible"
        )
    report(
        "criterion 03",
        f"C07+C08 x 4 variants: {len(c07_c08_batches) * RUNS} runs, all feasible",
    )


def test_criterion_04_c04_equality_hardness():
    config = paper_preset("C04", "wrfss", desk=True, run_count=RUNS, base_seed=SEED_BASE)
    stats, records = run_batch(config, n_jobs=JOBS)
    assert stats.failed_runs == 0
    infeasible = sum(1 for r in records if r.best_violation > 0.0)
    assert infeasible > RUNS // 2, (
        f"expected a majority of infeasible finals on C04, got {infeasible}/{RUNS}"
    )
    for r in records:
        assert np.all(np.diff(r.trace_best_violation) <= 0.0)
    report(
        "criterion 04",
        f"C04 base variant: {infeasible}/{RUNS} infeasible finals, "
        "all best-violation traces non-increasing",
    )


def _random_evaluations(rng, n):
    fitness = rng.normal(size=n) * 10.0
    violation = np.where(rng.random(n) < 0.4, 0.0, rng.exponential(2.0, n))
    return fitness, violation


def _feasibility_rules(f1, v1, f2, v2):
    """Deb's rules written out case by case: the oracle for eps = 0."""
    feas1, feas2 = v1 == 0.0, v2 == 0.0
    return np.where(feas1 & feas2, f1 < f2, np.where(feas1 != feas2, feas1, v1 < v2))


def test_criterion_05_comparator_laws():
    rng = np.random.default_rng(97)
    fitness, violation = _random_evaluations(rng, 400)

    def draw(k):
        idx = rng.integers(0, fitness.size, (k, 10_000))
        return [(fitness[i], violation[i]) for i in idx]

    def better(x, y):
        return epsilon_less_arrays(*x, *y, 0.0)

    a, b = draw(2)
    assert np.array_equal(epsilon_less_arrays(*a, *b, math.inf), a[0] < b[0])
    assert np.array_equal(better(a, b), _feasibility_rules(*a, *b))
    assert not (better(a, b) & better(b, a)).any()
    checked_pairs = a[0].size

    a, b, c = draw(3)
    ab, ba, bc, cb, ac, ca = (
        better(x, y) for x, y in ((a, b), (b, a), (b, c), (c, b), (a, c), (c, a))
    )
    assert not better(a, a).any()
    assert not (ab & bc & ~ac).any()
    assert not (~ab & ~ba & ~bc & ~cb & (ac | ca)).any()
    checked_triples = a[0].size

    # the engine's best of a school is never beaten under the same rules
    populations = rng.integers(0, fitness.size, (1000, 30))
    f, v = fitness[populations], violation[populations]
    picked = np.arange(len(populations)), best_index(f, v)
    assert not better((f, v), (f[picked][:, None], v[picked][:, None])).any()
    report(
        "criterion 05",
        f"{checked_pairs} pairs, {checked_triples} triples and "
        f"{len(populations)} best-of-school picks, zero failures",
    )


def test_criterion_06_schedules():
    schedule = EpsilonSchedule(eps0=6.3, cutoff=6000, cp_min=3.0)
    grid = np.arange(0, 10_000)
    values = np.array([schedule.value_at(int(t)) for t in grid])
    assert np.all(np.diff(values) <= 0.0)
    assert np.all(values[6000:] == 0.0)
    assert values[0] == 6.3

    steps = StepSchedule(0.10, 0.0001, 0.20, 0.0002, horizon=5000)
    assert steps.at(0) == (0.10, 0.20)
    assert steps.at(5000) == (0.0001, 0.0002)

    assert initial_epsilon(np.array([2.0, 4.0])) == 2.5
    report("criterion 06", "epsilon schedule monotone and zero past cutoff on a "
                           "10^4 grid; step endpoints exact; eps0([2,4]) = 2.5")


def test_criterion_07_feeding_bounds():
    rng = np.random.default_rng(193)
    calls = 0
    for _ in range(100_000):
        lo = float(rng.normal() * 5.0)
        hi = lo + float(rng.exponential(3.0)) + 1e-12
        w_scale = 1.0 + float(rng.exponential(2000.0)) + 1e-9
        value = lo + (hi - lo) * float(rng.random())
        w = normalized_feeding(np.array([value, lo, hi]), lo, hi, w_scale)
        assert np.all(w >= 1.0) and np.all(w <= w_scale)
        assert w[1] == w_scale  # running minimum maps to the top weight
        assert w[2] == 1.0  # running maximum maps to the bottom weight
        calls += 1
    report("criterion 07", f"{calls} normalized feeding calls inside [1, w_scale], "
                           "extremes exact")


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(211)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        a = rng.normal(size=d) * rng.uniform(0.5, 5.0)
        b = float(rng.normal())
        x = rng.uniform(-3.0, 3.0, d)
        grad = forward_gradient(lambda P: P @ a + b, x[None, :], np.full(d, 1e-3))
        assert np.allclose(grad[0], a, rtol=1e-7, atol=1e-7)

    d = 5
    diag = rng.uniform(0.5, 2.0, d)
    x = rng.uniform(-1.0, 1.0, d)
    quad = lambda P: 0.5 * (diag * P * P).sum(axis=1)
    exact = diag * x
    errors = []
    for e in (1e-2, 1e-4, 1e-6):
        errors.append(np.abs(forward_gradient(quad, x[None, :], np.full(d, e))[0] - exact).max())
    for worse, better in zip(errors, errors[1:]):
        ratio = worse / better
        assert 50.0 <= ratio <= 200.0, f"error ratio {ratio} not within 2x of 100"
    report("criterion 08", "100 affine gradients exact; quadratic error scales "
                           f"linearly across e (ratios {errors[0]/errors[1]:.1f}, "
                           f"{errors[1]/errors[2]:.1f})")


def _records_identical(a, b):
    return (
        np.array_equal(a.trace_iteration, b.trace_iteration)
        and np.array_equal(a.trace_best_fitness, b.trace_best_fitness)
        and np.array_equal(a.trace_best_violation, b.trace_best_violation)
        and np.array_equal(a.trace_phase, b.trace_phase)
        and np.array_equal(a.trace_feasible_count, b.trace_feasible_count)
        and np.array_equal(a.best_position, b.best_position)
        and a.eval_count == b.eval_count
    )


def test_criterion_09_variant_degeneracy():
    # a run that never turns feasible keeps every acceptance decision aligned
    bench = cec2010.load_problem("C03")
    params = EngineParams(n_fish=30, iterations=600)
    base = run(bench.problem, Variant("base"), params, seed=SEED_BASE)
    eps = run(bench.problem, Variant("epsilon", epsilon0=0.0), params, seed=SEED_BASE)
    grad = run(
        bench.problem,
        Variant("gradient", k_directions=50, p_g=0.0),
        params,
        seed=SEED_BASE,
    )
    assert np.all(base.trace_best_violation > 0.0)
    assert _records_identical(base, eps)
    assert _records_identical(base, grad)

    # an unconstrained run exercises the same equality in pure phase 2
    sphere = Problem(
        dimension=6,
        lower=np.full(6, -10.0),
        upper=np.full(6, 10.0),
        objective=lambda x: (np.asarray(x) ** 2).sum(axis=-1),
    )
    params2 = EngineParams(n_fish=20, iterations=400)
    base2 = run(sphere, Variant("base"), params2, seed=SEED_BASE + 1)
    eps2 = run(sphere, Variant("epsilon", epsilon0=0.0), params2, seed=SEED_BASE + 1)
    grad2 = run(
        sphere,
        Variant("gradient", k_directions=50, p_g=0.0),
        params2,
        seed=SEED_BASE + 1,
    )
    assert np.all(base2.trace_phase[1:] == 2)
    assert _records_identical(base2, eps2)
    assert _records_identical(base2, grad2)
    report("criterion 09", "epsilon(0) and probe(p_g=0) traces bitwise equal to "
                           "the base variant in phase-1-only and phase-2-only runs")


def test_criterion_10_published_ratio_reproduction():
    data_dir = os.environ.get(cec2010.DATA_ENV_VAR)
    if not data_dir or not os.path.isdir(data_dir):
        pytest.skip(
            "official shift data not available: set "
            f"{cec2010.DATA_ENV_VAR} to the converted data directory to enable "
            "the published feasible-ratio reproduction"
        )
    for pid in cec2010.PROBLEM_IDS:
        bench = cec2010.load_problem(pid, data_dir=data_dir)
        est = cec2010.feasible_ratio(bench.problem, samples=1_000_000, seed=5)
        if bench.published_ratio == 0.0:
            assert est == 0.0, f"{pid}: expected measure-zero feasible set, got {est}"
        else:
            assert abs(est - bench.published_ratio) <= 0.01, (
                f"{pid}: estimate {est:.6f} vs published {bench.published_ratio:.6f}"
            )
    report("criterion 10", "all seven feasible-region ratios reproduced within 0.01")


def test_criterion_11_cli_determinism(tmp_path):
    args = [
        "run", "--problem", "C01", "--variant", "wrfss",
        "--iterations", "300", "--seed", "123",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("trace_run000.csv", "summary.json", "summary.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical invocations"
    report("criterion 11", "repeated run invocations produce byte-identical "
                           "trace and summary files")


def test_criterion_12_niching_structure():
    # the graph stays a forest after every engine iteration
    checked = {"iterations": 0}

    def observer(t, positions, weights, fitness, violation, leader):
        assert is_forest(leader)
        assert np.all(np.bincount(leader[leader >= 0], minlength=len(leader)) >= 0)
        checked["iterations"] += 1

    for pid, seed in (("C01", 1), ("C03", 2)):
        bench = cec2010.load_problem(pid)
        run(
            bench.problem,
            Variant("base"),
            EngineParams(n_fish=20, iterations=300),
            seed=seed,
            observer=observer,
        )
    assert checked["iterations"] == 600

    # with equal weights held fixed (feeding disabled), no links ever form,
    # whichever peer each fish meets
    rng = np.random.default_rng(3)
    links = LinkGraph.empty(20)
    weights = np.full(20, 7.0)
    for _ in range(300):
        partners = (np.arange(20) + rng.integers(1, 20, 20)) % 20
        links = link_formator(weights, links, partners)
        assert np.all(links.leader == -1)
    report("criterion 12", f"forest invariant over {checked['iterations']} engine "
                           "iterations; no links under equal weights")
