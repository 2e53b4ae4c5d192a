import json
import threading

import numpy as np
import pytest

from wrfss import cec2010
from wrfss.cec2010 import (
    DIMENSION,
    PROBLEM_IDS,
    BenchDataError,
    feasible_ratio,
    known_reference_values,
    load_problem,
    write_data_dir,
)
from wrfss.problem import EvaluationError, Problem, evaluate_many, feasible_many, violation_many

from oracles import feasible_ratio_reference


def at(problem, x):
    """(fitness, violation) of one point, scored as a one-row batch."""
    f, v = evaluate_many(problem, np.asarray(x, dtype=float)[None, :])
    return float(f[0]), float(v[0])


TABLE1_EXPECTED = {
    # id: (lower, upper, equalities, inequalities, published ratio)
    "C01": (0.0, 10.0, 0, 2, 0.997689),
    "C03": (-1000.0, 1000.0, 1, 0, 0.0),
    "C04": (-50.0, 50.0, 4, 0, 0.0),
    "C06": (-600.0, 600.0, 2, 0, 0.0),
    "C07": (-140.0, 140.0, 0, 1, 0.505123),
    "C08": (-140.0, 140.0, 0, 1, 0.379512),
    "C09": (-500.0, 500.0, 1, 0, 0.0),
}


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_metadata_matches_published_table(pid):
    bench = load_problem(pid)
    lo, hi, n_eq, n_ineq, ratio = TABLE1_EXPECTED[pid]
    assert bench.problem.dimension == DIMENSION
    assert np.all(bench.problem.lower == lo)
    assert np.all(bench.problem.upper == hi)
    assert bench.published_ratio == ratio
    assert bench.problem.n_equalities == n_eq
    assert bench.problem.n_inequalities == n_ineq
    assert bench.problem.delta == 1e-4


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="C05"):
        load_problem("C05")


def test_surrogate_is_deterministic():
    a = load_problem("C06")
    b = load_problem("C06")
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)
    assert a.data_source == "surrogate"


def test_rotation_is_orthogonal():
    for pid in ("C06", "C08"):
        bench = load_problem(pid)
        m = bench.rotation
        assert np.allclose(m @ m.T, np.eye(DIMENSION), atol=1e-12)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_evaluation_finite_over_box(pid):
    bench = load_problem(pid)
    rng = np.random.default_rng(1)
    pts = bench.problem.lower + rng.random((256, DIMENSION)) * bench.problem.range_width
    f, v = evaluate_many(bench.problem, pts)
    assert np.all(np.isfinite(f))
    assert np.all(np.isfinite(v))
    assert np.all(v >= 0.0)


class TestZeroModeAnalyticPoints:
    """Structural identities that hold with zero shift (identity rotation)."""

    def test_c03_equal_coordinates_are_feasible(self):
        bench = load_problem("C03", source="zero")
        x = np.full(DIMENSION, 7.31)
        assert at(bench.problem, x)[1] == 0.0
        # the objective minimum over that line sits at all-ones with value 0
        assert at(bench.problem, np.ones(DIMENSION))[0] == 0.0

    def test_c04_origin_is_feasible_with_zero_objective(self):
        bench = load_problem("C04", source="zero")
        assert at(bench.problem, np.zeros(DIMENSION)) == (0.0, 0.0)

    def test_c09_origin_is_feasible(self):
        bench = load_problem("C09", source="zero")
        assert at(bench.problem, np.zeros(DIMENSION))[1] == 0.0

    def test_c01_constraint_boundary(self):
        bench = load_problem("C01", source="zero")
        x = np.ones(DIMENSION)
        x[0] = 0.75  # product exactly 0.75: first constraint active but satisfied
        assert at(bench.problem, x)[1] == 0.0
        x[0] = 0.74
        assert at(bench.problem, x)[1] > 0.0

    def test_c01_sum_constraint(self):
        bench = load_problem("C01", source="zero")
        x = np.full(DIMENSION, 7.6)  # sum 76 > 75
        assert at(bench.problem, x)[1] > 0.0

    def test_c06_rotated_fixed_point_is_feasible(self):
        bench = load_problem("C06", source="zero")
        # with identity rotation the pre/post offsets cancel: both equality
        # terms vanish at the origin
        assert at(bench.problem, np.zeros(DIMENSION))[1] == 0.0

    def test_c07_c08_agree_under_identity_rotation(self):
        c07 = load_problem("C07", source="zero")
        c08 = load_problem("C08", source="zero")
        rng = np.random.default_rng(2)
        pts = rng.uniform(-140, 140, (64, DIMENSION))
        f7, v7 = evaluate_many(c07.problem, pts)
        f8, v8 = evaluate_many(c08.problem, pts)
        assert np.allclose(f7, f8)
        assert np.allclose(v7, v8)

    def test_c04_split_equalities_change_with_halves(self):
        bench = load_problem("C04", source="zero")
        x = np.zeros(DIMENSION)
        x[0] = 1.0
        x[1] = 3.0
        # h2 couples the first half: (z0 - z1)^2 = 4 contributes
        assert at(bench.problem, x)[1] > 0.0
        y = np.zeros(DIMENSION)
        y[5] = 2.0  # second-half term (z5^2 - z6)^2 = 16
        assert at(bench.problem, y)[1] > 0.0


class TestFeasibleRatio:
    def test_unconstrained_box_is_one(self):
        p = Problem(
            dimension=3,
            lower=np.zeros(3),
            upper=np.ones(3),
            objective=lambda x: np.zeros(x.shape[0]),
        )
        assert feasible_ratio(p, samples=1000, seed=1) == 1.0

    def test_equality_constrained_is_exactly_zero(self):
        for pid in ("C03", "C04", "C06", "C09"):
            bench = load_problem(pid)
            assert feasible_ratio(bench.problem, samples=4000, seed=3) == 0.0

    def test_deterministic_given_seed(self):
        bench = load_problem("C07")
        a = feasible_ratio(bench.problem, samples=20000, seed=9)
        b = feasible_ratio(bench.problem, samples=20000, seed=9)
        assert a == b

    def test_zero_mode_c01_ratio_near_published(self):
        # zero-shift estimate computed independently by direct sampling:
        # around 0.9969 (published with official shifts: 0.997689)
        bench = load_problem("C01", source="zero")
        est = feasible_ratio(bench.problem, samples=200_000, seed=11)
        assert est == pytest.approx(0.9969, abs=5e-3)

    def test_zero_mode_c07_ratio_near_published(self):
        bench = load_problem("C07", source="zero")
        est = feasible_ratio(bench.problem, samples=200_000, seed=12)
        assert est == pytest.approx(0.5054, abs=5e-3)

    def test_samples_scored_in_fixed_batches(self, monkeypatch):
        # The blocks are scored in worker threads, so they may finish in any order.
        rows = []

        def counting(problem, points):
            rows.append(points.shape[0])
            return feasible_many(problem, points)

        monkeypatch.setattr(cec2010, "feasible_many", counting)
        p = Problem(dimension=1, lower=np.zeros(1), upper=np.ones(1),
                    objective=lambda x: np.zeros(x.shape[0]))
        block = cec2010._SAMPLE_BATCH
        assert feasible_ratio(p, samples=2 * block + 5, seed=1) == 1.0
        assert sorted(rows) == [5, block, block]

    def test_objective_is_never_scored(self):
        # A decision, pinned: sampling scores only the constraints, so an
        # objective that is non-finite everywhere still gives a ratio.
        p = Problem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                    objective=lambda x: np.full(x.shape[0], np.nan),
                    inequalities=(lambda x: x[:, 0] - 0.5,))
        assert feasible_ratio(p, samples=4000, seed=2) == pytest.approx(0.5, abs=0.03)

    def test_sample_validation(self):
        bench = load_problem("C01")
        with pytest.raises(ValueError):
            feasible_ratio(bench.problem, samples=0)

    def test_non_finite_only_at_rejected_samples_gives_a_ratio(self):
        # A decision, pinned: a constraint is scored only where every earlier
        # one accepted the sample, so a constraint that is non-finite only
        # where the sample is already infeasible is not reported.
        p = Problem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                    objective=lambda x: np.zeros(x.shape[0]), name="p",
                    inequalities=(lambda x: x[:, 0] - 0.5,
                                  lambda x: np.where(x[:, 0] > 0.5, np.inf, x[:, 1] - 0.5)))
        assert feasible_ratio(p, samples=5000, seed=4) == pytest.approx(0.25, abs=0.03)

    def test_non_finite_at_an_accepted_sample_raises(self):
        p = Problem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                    objective=lambda x: np.zeros(x.shape[0]), name="p",
                    inequalities=(lambda x: x[:, 0] - 0.5,
                                  lambda x: np.where(x[:, 1] > 0.99, np.nan, x[:, 1] - 0.5)))
        with pytest.raises(EvaluationError) as err:
            feasible_ratio(p, samples=5000, seed=4)
        assert (err.value.kind, err.value.index) == ("inequality", 1)
        assert str(err.value) == "non-finite value from inequality[1] of problem 'p'"

    @staticmethod
    def failing_in_blocks(failures, blocks=5, seed=3):
        """A problem whose constraint raises ``failures[k]`` on sample block k."""
        block = cec2010._SAMPLE_BATCH
        pts = np.random.default_rng(seed).random((blocks * block, 2))

        def constraint(x):
            for k, exc in failures.items():
                if np.array_equal(x, pts[k * block:(k + 1) * block]):
                    raise exc
            return x[:, 0] - 0.5

        return Problem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                       objective=lambda x: np.zeros(x.shape[0]), name="p",
                       inequalities=(constraint,)), blocks * block

    def test_error_in_a_middle_block_reaches_the_caller_unchanged(self):
        # Blocks 2 and 3 fail; the first in sample order is raised as it was.
        problem, samples = self.failing_in_blocks(
            {2: KeyError("block 2"), 3: ValueError("block 3")})
        with pytest.raises(KeyError) as err:
            feasible_ratio(problem, samples, seed=3)
        assert err.value.args == ("block 2",)

    def test_worker_threads_end_with_the_call(self):
        baseline = threading.active_count()
        problem = load_problem("C07").problem
        assert feasible_ratio(problem, samples=20000, seed=1) > 0.0
        assert threading.active_count() == baseline
        failing, samples = self.failing_in_blocks({1: ValueError("block 1")})
        with pytest.raises(ValueError, match="block 1"):
            feasible_ratio(failing, samples, seed=3)
        assert threading.active_count() == baseline

    def test_at_most_two_blocks_per_worker_in_flight(self, monkeypatch):
        # Blocks are drawn only as workers free up, never all up front.
        lock = threading.Lock()
        state = {"submitted": 0, "scored": 0, "most": 0}

        class Counting(cec2010.ThreadPoolExecutor):
            def submit(self, fn, *args):
                with lock:
                    state["submitted"] += 1
                    state["most"] = max(state["most"], state["submitted"] - state["scored"])
                return super().submit(fn, *args)

        def scoring(problem, points):
            mask = feasible_many(problem, points)
            with lock:
                state["scored"] += 1
            return mask

        monkeypatch.setattr(cec2010, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(cec2010, "feasible_many", scoring)
        monkeypatch.setattr(cec2010, "_sampling_workers", lambda: 2)
        problem = load_problem("C07").problem
        got = feasible_ratio(problem, 30 * cec2010._SAMPLE_BATCH, seed=2)
        assert state["submitted"] == state["scored"] == 30
        assert state["most"] <= 4
        assert repr(got) == repr(feasible_ratio_reference(problem, 30 * 2048, 2))

    @pytest.mark.parametrize("source", ["surrogate", "zero"])
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_matches_sequential_reference(self, pid, source):
        problem = load_problem(pid, source=source).problem
        for seed in range(3):
            for samples in (1, 2047, 2049, 3 * 2048 + 5):
                got = feasible_ratio(problem, samples, seed)
                assert repr(got) == repr(feasible_ratio_reference(problem, samples, seed)), (
                    seed, samples)


class TestFeasibleMany:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 10, 2053])
    def test_equals_zero_violation(self, pid, n):
        problem = load_problem(pid).problem
        rng = np.random.default_rng([n, PROBLEM_IDS.index(pid), 1])
        pts = problem.lower + rng.random((n, DIMENSION)) * problem.range_width
        mask = feasible_many(problem, pts)
        assert np.array_equal(mask, violation_many(problem, pts) == 0.0)
        if pid in ("C01", "C07", "C08") and n == 2053:
            assert 0 < np.count_nonzero(mask) < n


class TestViolationMany:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    @pytest.mark.parametrize("n", [1, 11, 30, cec2010._SAMPLE_BATCH + 5])
    def test_equals_evaluate_many_bit_for_bit(self, pid, n):
        problem = load_problem(pid).problem
        rng = np.random.default_rng([n, PROBLEM_IDS.index(pid)])
        pts = problem.lower + rng.random((n, DIMENSION)) * problem.range_width
        assert np.array_equal(violation_many(problem, pts), evaluate_many(problem, pts)[1])

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_row_value_does_not_depend_on_its_block(self, pid):
        # The constraints are elementwise and row-wise, plus the rotation
        # product of C06 and C08, so every split gives the same bits. numpy
        # multiplies a single row by the matrix through another BLAS kernel,
        # which rounds differently, so the rotation pads a one-row block to two.
        problem = load_problem(pid).problem
        rng = np.random.default_rng(PROBLEM_IDS.index(pid))
        pts = problem.lower + rng.random((3000, DIMENSION)) * problem.range_width
        whole = violation_many(problem, pts)
        for block in (1, 2, 7, 1024, 2048):
            parts = [violation_many(problem, pts[i:i + block]) for i in range(0, 3000, block)]
            assert np.array_equal(np.concatenate(parts), whole), block

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30])
    def test_school_and_candidates_batch_equals_its_halves(self, pid, n):
        # The engine scores the school and its candidates in one 2n-row call;
        # each half must get the bits it gets alone.
        problem = load_problem(pid).problem
        rng = np.random.default_rng([n, PROBLEM_IDS.index(pid)])
        for _ in range(25):
            pts = problem.lower + rng.random((2 * n, DIMENSION)) * problem.range_width
            fitness, violation = evaluate_many(problem, pts)
            for half in (slice(0, n), slice(n, 2 * n)):
                alone = evaluate_many(problem, pts[half])
                assert np.array_equal(alone[0], fitness[half])
                assert np.array_equal(alone[1], violation[half])

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_probe_batch_equals_its_probe_slices(self, pid, p):
        # The engine scores the forward-difference rows [x, x + diag(e)] of
        # all p probing fish in one call; each probe's D+1 rows must get the
        # bits they get alone. A probe batch never has fewer than D+1 rows.
        problem = load_problem(pid).problem
        rng = np.random.default_rng([p, PROBLEM_IDS.index(pid)])
        e = 1e-6 * problem.range_width
        rows_per_probe = DIMENSION + 1
        for _ in range(25):
            x = problem.lower + rng.random((p, 1, DIMENSION)) * problem.range_width
            rows = np.concatenate([x, x + np.diag(e)], axis=1).reshape(-1, DIMENSION)
            parts = [violation_many(problem, rows[i:i + rows_per_probe])
                     for i in range(0, len(rows), rows_per_probe)]
            assert np.array_equal(np.concatenate(parts), violation_many(problem, rows))


    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_scores_do_not_depend_on_the_batch_size(self, pid):
        # A stacked school of R runs of n fish scores the R schools and then
        # the R candidate sets in one 2Rn-row call; a run alone scores its 2n
        # rows, and a phase switch re-scores the school and candidate rows of
        # the runs that switched. Every row must get the same bits in each.
        problem = load_problem(pid).problem
        runs, n = 25, 30
        rng = np.random.default_rng([runs, n, PROBLEM_IDS.index(pid)])
        pts = problem.lower + rng.random((2 * runs * n, DIMENSION)) * problem.range_width
        whole = evaluate_many(problem, pts)
        assert np.array_equal(violation_many(problem, pts), whole[1])
        for size in (60, 120, 240):
            for start in range(0, len(pts), size):
                part = slice(start, start + size)
                for got, want in zip(evaluate_many(problem, pts[part]), whole):
                    assert np.array_equal(got, want[part]), (size, start)
                assert np.array_equal(violation_many(problem, pts[part]), whole[1][part])
        switched = np.array([0, 3, 4, 11, 24])
        school = (np.arange(n) + n * switched[:, None]).ravel()
        rows = np.concatenate([school, school + runs * n])
        for got, want in zip(evaluate_many(problem, pts[rows]), whole):
            assert np.array_equal(got, want[rows])
        assert np.array_equal(violation_many(problem, pts[rows]), whole[1][rows])


class TestDataFiles:
    def test_round_trip_through_files(self, tmp_path):
        data = write_data_dir(tmp_path / "data", source="surrogate")
        builtin = load_problem("C08")
        from_files = load_problem("C08", data_dir=data)
        assert from_files.data_source == f"files:{data}"
        assert np.allclose(from_files.shift, builtin.shift)
        assert np.allclose(from_files.rotation, builtin.rotation)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-140, 140, (32, DIMENSION))
        fa, va = evaluate_many(builtin.problem, pts)
        fb, vb = evaluate_many(from_files.problem, pts)
        assert np.allclose(fa, fb)
        assert np.allclose(va, vb)

    def test_missing_file_names_the_file(self, tmp_path):
        with pytest.raises(BenchDataError, match="C03.txt"):
            load_problem("C03", data_dir=tmp_path)

    def test_corrupt_file_names_the_file(self, tmp_path):
        (tmp_path / "C01.txt").write_text("not numbers at all\n")
        with pytest.raises(BenchDataError, match="C01.txt"):
            load_problem("C01", data_dir=tmp_path)

    def test_wrong_count_is_corrupt(self, tmp_path):
        (tmp_path / "C01.txt").write_text("1.0 2.0 3.0\n")
        with pytest.raises(BenchDataError, match="C01.txt"):
            load_problem("C01", data_dir=tmp_path)

    def test_non_finite_number_is_corrupt(self, tmp_path):
        (tmp_path / "C07.txt").write_text(" ".join(["nan"] * DIMENSION) + "\n")
        with pytest.raises(BenchDataError, match="C07.txt"):
            load_problem("C07", data_dir=tmp_path)

    def test_checksum_mismatch_detected(self, tmp_path):
        data = write_data_dir(tmp_path / "data", source="zero")
        target = data / "C01.txt"
        target.write_text(target.read_text().replace("0.0", "0.1", 1))
        with pytest.raises(BenchDataError, match="checksum"):
            load_problem("C01", data_dir=data)

    def test_env_variable_supplies_directory(self, tmp_path, monkeypatch):
        data = write_data_dir(tmp_path / "data", source="zero")
        monkeypatch.setenv("WRFSS_CEC2010_DATA", str(data))
        bench = load_problem("C01")
        assert bench.data_source == f"files:{data}"
        assert np.all(bench.shift == 0.0)

    def test_explicit_zero_source_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WRFSS_CEC2010_DATA", str(tmp_path / "nonexistent"))
        bench = load_problem("C01", source="zero")
        assert bench.data_source == "zero"


class TestReferenceValues:
    def test_c01_external_reference(self):
        ref = known_reference_values("C01")
        assert ref["eDEg"]["mean"] == pytest.approx(-7.47e-01)
        assert ref["eDEg"]["sd"] == pytest.approx(1.32e-03)

    def test_c06_epsilon_variant_reference(self):
        assert known_reference_values("C06")["wrFSSe"]["mean"] == pytest.approx(-5.65e02)

    def test_c08_swarm_reference(self):
        assert known_reference_values("C08")["Co-CLPSO"]["mean"] == pytest.approx(6.09e-01)

    def test_all_problems_have_all_algorithms(self):
        for pid in PROBLEM_IDS:
            ref = known_reference_values(pid)
            assert set(ref) == {
                "wrFSS", "wrFSSe", "wrFSSg", "wrFSSp", "eDEg", "Co-CLPSO", "E-ABC"
            }

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            known_reference_values("C02")
