import dataclasses
import json
import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from wrfss import engine
from wrfss.cec2010 import PROBLEM_IDS, BenchDataError
from wrfss.engine import EngineParams, RunRecord, Variant, run
from wrfss.harness import (
    VARIANT_NAMES,
    ExperimentConfig,
    SummaryStats,
    emit_reports,
    list_presets,
    paper_preset,
    prepare_output_dir,
    read_config,
    run_batch,
    run_single,
)
from wrfss.problem import Problem

from oracles import record_differences


def tiny_config(tmp_path, **kw):
    defaults = dict(
        problem_id="C01",
        variant="wrfss",
        run_count=3,
        base_seed=501,
        output_dir=str(tmp_path / "out"),
        iterations=40,
        n_fish=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestPresets:
    def test_grid_has_all_pairs(self):
        presets = list_presets()
        assert len(presets) == len(PROBLEM_IDS) * len(VARIANT_NAMES)
        pairs = {(c.problem_id, c.variant) for c in presets}
        assert len(pairs) == 28

    def test_paper_budget_and_desk_scaling(self):
        assert paper_preset("C01", "wrfss").iterations == 80000
        assert paper_preset("C01", "wrfss", desk=True).iterations == 5000

    def test_epsilon_preset_for_heavily_constrained(self):
        c = paper_preset("C03", "wrfsse")
        assert c.tc_fraction == 0.60
        assert c.cp_min == 8
        assert c.sigma == 0.05
        assert c.tau == 0.30

    def test_epsilon_preset_for_loosely_constrained(self):
        assert paper_preset("C01", "wrfsse").cp_min == 3
        assert paper_preset("C07", "wrfsse").cp_min == 3

    def test_gradient_preset(self):
        c = paper_preset("C01", "wrfssg")
        assert c.p_g == 0.10
        assert c.k_directions == 200
        assert c.sigma == 0.50
        assert c.tau == 0.01
        assert paper_preset("C03", "wrfssg").k_directions == 50

    def test_base_and_penalty_presets(self):
        c = paper_preset("C04", "wrfss")
        assert (c.sigma, c.tau) == (0.05, 0.01)
        p = paper_preset("C04", "wrfssp")
        assert (p.sigma, p.tau) == (0.05, 0.30)

    @pytest.mark.parametrize("pid", ["C03", "C04", "C06", "C09"])
    def test_penalty_matches_base_without_phase_two(self, pid):
        # The penalty variant changes only the phase-2 objective, and its
        # larger tau acts only on a switch to phase 2. On the equality-
        # constrained problems no desk run reaches phase 2, so wrfssp
        # reproduces wrfss: the decision is that this identity is intended.
        def record(variant):
            config = dataclasses.replace(
                paper_preset(pid, variant, desk=True), iterations=300, data_source="surrogate"
            )
            return run_single(config, 1000)

        base, penalty = record("wrfss"), record("wrfssp")
        assert np.all(base.trace_phase == 1)
        for field in dataclasses.fields(RunRecord):
            name = field.name
            if name not in ("wall_time", "variant_kind"):
                assert np.array_equal(getattr(penalty, name), getattr(base, name)), name

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            paper_preset("C02", "wrfss")
        with pytest.raises(ValueError):
            paper_preset("C01", "nope")


class TestSummaryStats:
    @staticmethod
    def record(fitness, violation, seed=0, aborted=False):
        empty_i = np.array([], dtype=np.int64)
        empty_f = np.array([])
        return RunRecord(
            seed=seed,
            variant_kind="base",
            n_fish=1,
            iterations=0,
            trace_iteration=empty_i,
            trace_best_fitness=empty_f,
            trace_best_violation=empty_f,
            trace_phase=empty_i,
            trace_feasible_count=empty_i,
            best_fitness=fitness,
            best_violation=violation,
            best_position=np.zeros(1),
            eval_count=0,
            probe_count=0,
            wall_time=0.0,
            aborted=aborted,
        )

    def test_hand_statistics(self):
        stats = SummaryStats.from_records(
            [self.record(1.0, 0.0), self.record(2.0, 0.0), self.record(3.0, 1.0)]
        )
        assert stats.fitness_mean == 2.0
        assert stats.fitness_min == 1.0
        assert stats.fitness_max == 3.0
        assert stats.feasible_runs == 2
        assert stats.completed_runs == 3
        assert stats.fitness_sd == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_single_run_collapses(self):
        stats = SummaryStats.from_records([self.record(4.2, 0.0)])
        assert stats.fitness_mean == stats.fitness_min == stats.fitness_max == 4.2
        assert stats.fitness_sd == 0.0

    def test_failed_runs_excluded(self):
        stats = SummaryStats.from_records(
            [self.record(1.0, 0.0), self.record(math.nan, math.nan, aborted=True)]
        )
        assert stats.completed_runs == 1
        assert stats.failed_runs == 1
        assert stats.fitness_mean == 1.0

    def test_ordering_invariant(self):
        stats = SummaryStats.from_records(
            [self.record(x, 0.0) for x in (5.0, -1.0, 2.0)]
        )
        assert stats.fitness_min <= stats.fitness_mean <= stats.fitness_max
        assert stats.fitness_sd >= 0.0


class TestRunBatch:
    def test_seeds_are_consecutive(self, tmp_path):
        config = tiny_config(tmp_path)
        _, records = run_batch(config)
        assert [r.seed for r in records] == [501, 502, 503]

    def test_batch_is_deterministic(self, tmp_path):
        config = tiny_config(tmp_path)
        stats_a, _ = run_batch(config)
        stats_b, _ = run_batch(config)
        assert stats_a == stats_b

    def test_parallel_matches_sequential(self, tmp_path):
        # n_jobs 1, 2 and 3 cut the 5 seeds into blocks of 5; 3 and 2; 2, 2
        # and 1. Every record equals its seed's solo run in every field but
        # wall_time, so the statistics and every report file are the same.
        for variant in ("wrfsse", "wrfssg"):
            config = tiny_config(tmp_path, variant=variant, run_count=5, sigma=0.5, p_g=0.5,
                                 k_directions=8)
            problem = config.load_problem()
            alone = [run(problem, config.engine_variant(), config.engine_params(), seed=s)
                     for s in range(501, 506)]
            stats_seq, rec_seq = run_batch(config, n_jobs=1)
            seq_dir = tmp_path / variant / "seq"
            seq = emit_reports(config, stats_seq, rec_seq, out_dir=seq_dir)
            for jobs in (1, 2, 3):
                stats_par, rec_par = run_batch(config, n_jobs=jobs)
                assert stats_seq == stats_par
                assert [record_differences(a, b) for a, b in zip(alone, rec_par)] == [[]] * 5
                par_dir = tmp_path / variant / f"par{jobs}"
                par = emit_reports(config, stats_par, rec_par, out_dir=par_dir)
                assert sorted(p.name for p in seq_dir.iterdir()) == sorted(
                    p.name for p in par_dir.iterdir()
                )
                for key in seq:
                    assert seq[key].read_bytes() == par[key].read_bytes(), (variant, jobs, key)

    def test_block_wall_times_share_its_elapsed_time(self, tmp_path, monkeypatch):
        # The clock reads 10.0 when a block starts and 13.0 when it ends: each
        # of its records gets 3.0 / 3 and the shares add up to the 3.0.
        config = tiny_config(tmp_path, run_count=5)
        ticks = iter([10.0, 13.0, 20.0, 22.0])
        monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        _, records = run_batch(config, problem=config.load_problem(), n_jobs=2)
        assert [r.wall_time for r in records] == [1.0, 1.0, 1.0, 1.0, 1.0]
        # Measured, a block's shares are equal and add up to at most the batch time.
        monkeypatch.undo()
        for jobs, blocks in ((1, [range(5)]), (2, [range(3), range(3, 5)])):
            start = time.perf_counter()
            _, records = run_batch(config, n_jobs=jobs)
            elapsed = time.perf_counter() - start
            for block in blocks:
                assert len({records[i].wall_time for i in block}) == 1
            assert 0.0 < sum(r.wall_time for r in records) <= jobs * elapsed

    def test_job_count_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="n_jobs"):
            run_batch(tiny_config(tmp_path), n_jobs=0)

    def test_custom_problem_and_failures_reported(self, tmp_path):
        calls = {"n": 0}

        def objective(x):
            # Both seeds run in one stacked block: it scores the initial
            # schools, one batch per iteration, and once more the candidates
            # of iteration 0, which switches both runs to phase 2. The 5th
            # call (iteration 2) fails, so the block re-runs each seed alone.
            # A solo run makes 1 + 20 + 1 calls: the first takes calls 6-27,
            # and the 37th falls in iteration 7 of the second.
            calls["n"] += 1
            if calls["n"] in (5, 37):
                return np.full(x.shape[0], np.nan)
            return (x**2).sum(axis=-1)

        problem = Problem(
            dimension=2,
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
            objective=objective,
        )
        config = tiny_config(tmp_path, run_count=2, iterations=20, n_fish=5)
        stats, records = run_batch(config, problem=problem)
        assert calls["n"] == 37
        assert stats.failed_runs == 1
        assert stats.completed_runs == 1
        assert [r.aborted for r in records] == [False, True]
        assert "objective" in records[1].error
        assert list(records[1].trace_iteration) == list(range(8))
        # the failed run is excluded from the statistics
        assert stats.fitness_mean == records[0].best_fitness
        # the sibling completed as its solo run does
        healthy = dataclasses.replace(problem, objective=lambda x: (x**2).sum(axis=-1))
        alone = run(healthy, config.engine_variant(), config.engine_params(), seed=501)
        assert record_differences(records[0], alone) == []


class TestReports:
    def test_all_runs_aborted_writes_strict_json(self, tmp_path):
        # a missing statistic is null, as a per-run value is, so a strict
        # parser reads the summary
        problem = Problem(dimension=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0),
                          objective=lambda x: np.full(x.shape[0], np.nan))
        config = tiny_config(tmp_path, run_count=2)
        stats, records = run_batch(config, problem=problem)
        assert stats.completed_runs == 0
        paths = emit_reports(config, stats, records)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for name in ("summary_json", "manifest"):
            json.loads(paths[name].read_text(), parse_constant=reject)
        summary = json.loads(paths["summary_json"].read_text())
        assert summary["stats"]["fitness_mean"] is None
        assert summary["stats"]["violation_max"] is None
        assert summary["runs"][0]["best_fitness"] is None
        assert summary["runs"][0]["feasible"] is False

    def test_emitted_files(self, tmp_path):
        config = tiny_config(tmp_path)
        stats, records = run_batch(config)
        paths = emit_reports(config, stats, records)
        assert paths["summary_txt"].is_file()
        assert paths["summary_json"].is_file()
        assert paths["manifest"].is_file()
        for i in range(3):
            assert paths[f"trace_run{i:03d}"].is_file()

    def test_trace_file_shape(self, tmp_path):
        config = tiny_config(tmp_path, run_count=1)
        stats, records = run_batch(config)
        paths = emit_reports(config, stats, records)
        lines = paths["trace_run000"].read_text().splitlines()
        assert lines[0] == "iteration,best_fitness,best_violation,phase,feasible_count"
        rows = [line.split(",") for line in lines[1:]]
        iterations = [int(r[0]) for r in rows]
        assert iterations[0] == 0  # first row is the initial state
        assert iterations == list(range(len(rows)))  # strictly increasing, no gaps

    def test_summary_recompute_matches(self, tmp_path):
        config = tiny_config(tmp_path)
        stats, records = run_batch(config)
        paths = emit_reports(config, stats, records)
        data = json.loads(paths["summary_json"].read_text())
        finals = [r for r in data["runs"] if not r["aborted"]]
        fit = np.array([r["best_fitness"] for r in finals])
        assert data["stats"]["fitness_mean"] == pytest.approx(fit.mean())
        assert data["stats"]["fitness_sd"] == pytest.approx(fit.std())
        assert data["stats"]["feasible_runs"] == sum(r["feasible"] for r in finals)

    def test_reference_column_included(self, tmp_path):
        config = tiny_config(tmp_path, run_count=1)
        stats, records = run_batch(config)
        paths = emit_reports(config, stats, records)
        data = json.loads(paths["summary_json"].read_text())
        assert data["reference_fitness"]["eDEg"]["mean"] == pytest.approx(-0.747)
        assert "eDEg" in paths["summary_txt"].read_text()

    def test_byte_identical_on_rerun(self, tmp_path):
        config = tiny_config(tmp_path)
        stats, records = run_batch(config)
        paths_a = emit_reports(config, stats, records, out_dir=tmp_path / "a")
        stats2, records2 = run_batch(config)
        paths_b = emit_reports(config, stats2, records2, out_dir=tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes(), key

    def test_manifest_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        stats, records = run_batch(config)
        paths = emit_reports(config, stats, records)
        restored = ExperimentConfig(**read_config(paths["manifest"]))
        assert restored == config
        stats2, _ = run_batch(restored)
        assert stats2 == stats

    def test_data_source_errors(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path, run_count=1)
        stats, records = run_batch(config)

        def fail_with(exc):
            def resolved_data_source(self):
                raise exc
            monkeypatch.setattr(ExperimentConfig, "resolved_data_source", resolved_data_source)

        # unreadable benchmark data is reported, not fatal
        fail_with(BenchDataError("missing benchmark data file: C01.txt"))
        paths = emit_reports(config, stats, records)
        assert json.loads(paths["summary_json"].read_text())["data_source"] == "unavailable"
        # any other error propagates
        fail_with(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            emit_reports(config, stats, records)
        # a problem outside the benchmark set has no data source to resolve
        custom = tiny_config(tmp_path, run_count=1, problem_id="custom")
        paths = emit_reports(custom, stats, records)
        data = json.loads(paths["summary_json"].read_text())
        assert data["data_source"] == "unavailable"
        assert data["reference_fitness"] == {}

    def test_data_source_resolves_without_reading_data(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WRFSS_CEC2010_DATA", raising=False)
        empty = tmp_path / "empty"
        config = tiny_config(tmp_path, data_dir=str(empty))
        assert config.resolved_data_source() == f"files:{empty}"
        assert tiny_config(tmp_path).resolved_data_source() == "surrogate"
        assert tiny_config(tmp_path, data_source="zero").resolved_data_source() == "zero"
        with pytest.raises(BenchDataError, match="no benchmark data directory"):
            tiny_config(tmp_path, data_source="files").resolved_data_source()

    def test_unusable_output_path_rejected_upfront(self, tmp_path):
        # a plain file where the directory should go fails before any run
        blocked = tmp_path / "blocked"
        blocked.write_text("occupied")
        with pytest.raises(OSError):
            prepare_output_dir(blocked)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


class TestConfigFile:
    def test_round_trip_of_values(self, tmp_path):
        path = write_json(tmp_path / "exp.json", {
            "problem_id": "C07", "delta": 1e-4, "n_fish": 12, "iterations": 77, "sigma": 0.1,
            "variant": "wrfsse", "tc_fraction": 0.5, "cp_min": 4, "run_count": 2,
            "base_seed": 99, "output_dir": "results",
        })
        config = ExperimentConfig(**read_config(path))
        assert config.problem_id == "C07"
        assert config.variant == "wrfsse"
        assert config.n_fish == 12
        assert config.iterations == 77
        assert config.sigma == 0.1
        assert config.tc_fraction == 0.5
        assert config.cp_min == 4
        assert config.run_count == 2
        assert config.base_seed == 99
        assert config.output_dir == "results"

    def test_null_only_for_optional_fields(self, tmp_path):
        optional = {"data_dir", "data_source", "epsilon0", "perturbation"}
        nulls = write_json(tmp_path / "nulls.json", dict.fromkeys(optional))
        assert read_config(nulls) == dict.fromkeys(optional)
        for name in {f.name for f in dataclasses.fields(ExperimentConfig)} - optional:
            bad = write_json(tmp_path / "bad.json", {name: None})
            with pytest.raises(ValueError, match=rf"'{name}' in .*bad\.json.*got null"):
                read_config(bad)

    def test_unknown_key_rejected(self, tmp_path):
        # the renamed keys and the sections of the former INI format included
        for key in ["warp_speed", "id", "name", "directory", "problem", "engine", "batch"]:
            config = write_json(tmp_path / "exp.json", {key: 9})
            with pytest.raises(ValueError, match=rf"unknown key '{key}' in .*exp\.json"):
                read_config(config)

    def test_sectioned_object_rejected(self, tmp_path):
        config = write_json(tmp_path / "exp.json", {"variant": {"k_directions": 3}})
        with pytest.raises(ValueError, match=r"'variant' in .*exp\.json: expected str"):
            read_config(config)

    def test_bad_value_names_key_and_file(self, tmp_path):
        for value in [3.5, True, "3", [3]]:
            config = write_json(tmp_path / "exp.json", {"n_fish": value})
            with pytest.raises(ValueError, match=r"'n_fish' in .*exp\.json: expected int"):
                read_config(config)

    @pytest.mark.parametrize("text, match", [
        ('{"p_g": 0.1, "p_g": 0.2}', "duplicate key 'p_g'"),
        ('{"config": {"p_g": 0.1, "p_g": 0.2}}', "duplicate key 'p_g'"),
        ('{"p_g": 0.1', "Expecting"),
        ("[]", "JSON object"),
        ('{"config": [], "seeds": []}', "JSON object"),
        ('"C01"', "JSON object"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, match):
        (tmp_path / "exp.json").write_text(text)
        with pytest.raises(ValueError, match=match) as exc:
            read_config(tmp_path / "exp.json")
        assert "exp.json" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="nope.json"):
            read_config(tmp_path / "nope.json")


# Every config key with a value of its field's type.
EVERY_CONFIG_KEY = {
    "problem_id": "C07",
    "variant": "wrfssg",
    "run_count": 2,
    "base_seed": 99,
    "output_dir": "results",
    "data_dir": "data",
    "data_source": "surrogate",
    "delta": 2e-4,
    "n_fish": 12,
    "iterations": 77,
    "sigma": 0.1,
    "tau": 0.2,
    "w_scale": 100.0,
    "step_ind_initial": 0.3,
    "step_ind_final": 0.01,
    "step_vol_initial": 0.4,
    "step_vol_final": 0.02,
    "sar_alpha0": 0.5,
    "sar_decay": 0.01,
    "tc_fraction": 0.5,
    "cp_min": 4.0,
    "epsilon0": 1e-3,
    "p_g": 0.2,
    "k_directions": 30,
    "perturbation": 1e-5,
}


class TestParameterSurface:
    def test_every_config_key(self, tmp_path):
        kwargs = read_config(write_json(tmp_path / "every.json", EVERY_CONFIG_KEY))
        assert kwargs == EVERY_CONFIG_KEY
        assert {k: type(v) for k, v in kwargs.items()} == {
            k: type(v) for k, v in EVERY_CONFIG_KEY.items()}
        assert set(kwargs) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dataclasses.asdict(ExperimentConfig(**kwargs)) == EVERY_CONFIG_KEY

    def test_integers_are_read_as_floats_for_float_fields(self, tmp_path):
        # so a manifest written from a file matches one written from flags
        kwargs = read_config(write_json(tmp_path / "ints.json", {"w_scale": 100, "cp_min": 8}))
        assert kwargs == {"w_scale": 100.0, "cp_min": 8.0}
        assert {type(v) for v in kwargs.values()} == {float}
        # an integer beyond the float range is a bad value, not an OverflowError
        with pytest.raises(ValueError, match="'sigma' in .*huge.json: expected float"):
            read_config(write_json(tmp_path / "huge.json", {"sigma": 10**400}))

    def test_no_other_ini_key(self, tmp_path):
        # no spelling of the former INI format is a key: its section names,
        # its keys that differ from the field names, nor a dotted section.key
        ini_keys = {
            "problem": ["id", "delta", "violation_exponent", "data_dir", "data_source"],
            "engine": ["n_fish", "iterations", "sigma", "tau", "w_scale", "sar_decay"],
            "variant": ["name", "tc_fraction", "cp_min", "p_g", "k_directions"],
            "batch": ["run_count", "base_seed"],
            "output": ["directory"],
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        candidates = {f"{section}.{key}" for section, keys in ini_keys.items() for key in keys}
        candidates |= ({key for keys in ini_keys.values() for key in keys} | set(ini_keys)) - fields
        # the manifest's own keys belong beside "config", not inside it
        candidates |= {"seeds", "resolved_data_source"}
        path = tmp_path / "misplaced.json"
        for key in sorted(candidates):
            write_json(path, {key: 1})
            with pytest.raises(ValueError, match=rf"unknown key '{re.escape(key)}'"):
                read_config(path)
        # and a field name beside a manifest's "config" is not a manifest key
        for key in sorted(fields):
            write_json(path, {"config": {}, key: EVERY_CONFIG_KEY[key]})
            with pytest.raises(ValueError, match=rf"unknown manifest key '{key}'"):
                read_config(path)

    def test_manifest_config_keys_load(self, tmp_path):
        config = {
            "problem_id": "C03", "variant": "wrfssg", "run_count": 30, "base_seed": 1000,
            "output_dir": "out", "data_dir": None, "data_source": None, "delta": 0.0001,
            "n_fish": 30, "iterations": 5000, "sigma": 0.5,
            "tau": 0.01, "w_scale": 5000.0, "step_ind_initial": 0.1, "step_ind_final": 0.0001,
            "step_vol_initial": 0.2, "step_vol_final": 0.0002, "sar_alpha0": 0.8,
            "sar_decay": 0.007, "tc_fraction": 0.6, "cp_min": 8.0, "epsilon0": None,
            "p_g": 0.1, "k_directions": 50, "perturbation": None,
        }
        manifest = write_json(
            tmp_path / "manifest.json",
            {"config": config, "seeds": [1000], "resolved_data_source": "surrogate"},
        )
        assert read_config(manifest) == config
        assert dataclasses.asdict(ExperimentConfig(**read_config(manifest))) == config
        # a manifest written while the violation exponent was a field is refused
        write_json(manifest, {"config": dict(config, violation_exponent=1.0), "seeds": [1000],
                              "resolved_data_source": "surrogate"})
        with pytest.raises(ValueError, match="unknown key 'violation_exponent' in .*manifest"):
            read_config(manifest)

    @pytest.mark.parametrize("name", sorted(VARIANT_NAMES))
    def test_default_config_builds_engine_defaults(self, name):
        config = ExperimentConfig(problem_id="C01", variant=name)
        assert config.engine_params() == EngineParams()
        assert config.engine_variant() == Variant(VARIANT_NAMES[name])


def test_run_single_uses_engine(tmp_path):
    config = tiny_config(tmp_path, run_count=1)
    rec = run_single(config, seed=7)
    assert rec.seed == 7
    assert rec.iterations == 40
    assert rec.eval_count == 8 * (1 + 2 * 40)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problem_id="C01", variant="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(problem_id="C01", variant="wrfss", run_count=0)
    # numpy seeds must be non-negative; the config says so before any run
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentConfig(problem_id="C01", variant="wrfss", base_seed=-1)
    ExperimentConfig(problem_id="C01", variant="wrfss", base_seed=0)
    # engine and probe parameters are checked when the config is built
    with pytest.raises(ValueError, match="sar_alpha0"):
        ExperimentConfig(problem_id="C01", variant="wrfss", sar_alpha0=1.5)
    with pytest.raises(ValueError, match="p_g"):
        ExperimentConfig(problem_id="C01", variant="wrfssg", p_g=2.0)
