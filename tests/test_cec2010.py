import json

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
from wrfss.problem import Problem, evaluate_many, violation_many


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
        rows = []

        def counting(problem, points):
            rows.append(points.shape[0])
            return violation_many(problem, points)

        monkeypatch.setattr(cec2010, "violation_many", counting)
        p = Problem(dimension=1, lower=np.zeros(1), upper=np.ones(1),
                    objective=lambda x: np.zeros(x.shape[0]))
        block = cec2010._SAMPLE_BATCH
        assert feasible_ratio(p, samples=2 * block + 5, seed=1) == 1.0
        assert rows == [block, block, 5]

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
        # product of C06 and C08, so every split gives the same bits. A
        # one-row block is left out: numpy multiplies a single row by the
        # matrix through another BLAS kernel, which may round differently.
        problem = load_problem(pid).problem
        rng = np.random.default_rng(PROBLEM_IDS.index(pid))
        pts = problem.lower + rng.random((3000, DIMENSION)) * problem.range_width
        whole = violation_many(problem, pts)
        for block in (2, 7, 1024, 2048):
            parts = [violation_many(problem, pts[i:i + block]) for i in range(0, 3000, block)]
            assert np.array_equal(np.concatenate(parts), whole), block


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
