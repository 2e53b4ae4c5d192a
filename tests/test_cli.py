import argparse
import json

import pytest

from wrfss import cec2010
from wrfss.cli import _build_parser, main


def run_cli(args):
    return main(args)


class TestRunCommand:
    def test_minimal_run_produces_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli([
            "run", "--problem", "C01", "--variant", "wrfss",
            "--iterations", "30", "--n-fish", "6", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "trace_run000.csv").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "manifest.json").is_file()
        assert "feasible runs" in capsys.readouterr().out

    def test_preset_parameters_reach_the_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "run", "--problem", "C01", "--variant", "wrfssp", "--preset", "paper",
            "--desk", "--iterations", "25", "--n-fish", "5", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the published penalty-variant protocol: sigma 5%, tau 30%
        assert manifest["config"]["sigma"] == 0.05
        assert manifest["config"]["tau"] == 0.30
        assert manifest["config"]["iterations"] == 25  # flag overrides preset

    def test_repeat_is_byte_identical(self, tmp_path):
        args = [
            "run", "--problem", "C07", "--variant", "wrfsse",
            "--iterations", "40", "--n-fish", "6", "--seed", "11",
        ]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        # trace and summaries depend only on config and seed
        for name in ("trace_run000.csv", "summary.json", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # a literal repeat reproduces every file, manifest included
        before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        after = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert before == after

    def test_missing_problem_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--variant", "wrfss", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_variant_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "C01", "--variant", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, config", [
        (["--sar-alpha0", "1.5"], ""),
        (["--sar-decay", "-1.0"], ""),
        ([], '{"sar_alpha0": 1.5, "sar_decay": -1.0}'),
        (["--step-ind-final", "0.5"], ""),
        (["--step-vol-final", "-0.1"], ""),
        (["--variant", "wrfsse", "--cp-min", "0"], ""),
        ([], '{"step_vol_initial": 0.0001}'),
        (["--variant", "wrfsse"], '{"cp_min": 0}'),
        (["--variant", "wrfssg"], '{"k_directions": 0}'),
        (["--w-scale", "inf"], ""),
        ([], '{"tau": Infinity}'),
    ])
    def test_bad_engine_parameter_is_usage_error(self, tmp_path, capsys, flags, config):
        args = ["run", "--problem", "C01", "--variant", "wrfss", "--iterations", "5",
                "--out", str(tmp_path / "x")] + flags
        if config:
            (tmp_path / "exp.json").write_text(config)
            args += ["--config", str(tmp_path / "exp.json")]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        # the message names one of the parameters the case sets
        named = {a[2:].replace("-", "_") for a in flags if a.startswith("--")} - {"variant"}
        named |= set(json.loads(config or "{}"))
        err = capsys.readouterr().err
        assert any(name in err for name in named), err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("config, named", [
        ('{"k_directions": 3.5}', ["'k_directions'", "3.5"]),
        ('{"sigma": "lots"}', ["'sigma'", "lots"]),
        ('{"n_fish": true}', ["'n_fish'", "true"]),
        ('{"warp_speed": 9}', ["'warp_speed'"]),
        ('{"variant": {"k_directions": 3}}', ["'variant'"]),
        ('{"k_directions": 3,}', ["line 1 column"]),
        ('{"p_g": 0.1, "p_g": 0.2}', ["'p_g'", "duplicate"]),
        ('[{"p_g": 0.1}]', ["JSON object"]),
        ('{"sigma": null}', ["'sigma'", "null"]),
        ('{"config": {"n_fish": "4"}, "seeds": [1000]}', ["'n_fish'", '"4"']),
        ('{"config": {"warp_speed": 9}, "seeds": [1000]}', ["'warp_speed'"]),
        ('{"config": {"n_fish": 4}, "seeds": [1000], "iterations": 9}', ["'iterations'"]),
        ('{"seeds": [1000], "resolved_data_source": "surrogate"}', ["'seeds'"]),
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, config, named):
        (tmp_path / "exp.json").write_text(config)
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "C01", "--variant", "wrfssg", "--iterations", "5",
                     "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wrfss run "), err
        for word in named + ["exp.json"]:
            assert word in err, err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli(["run", "--problem", "C01", "--variant", "wrfss", "--config", str(missing),
                        "--out", str(tmp_path / "x")]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [
        ["run", "--seed", "-1"],
        ["batch", "--runs", "2", "--base-seed", "-2"],
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, args):
        args = args + ["--problem", "C01", "--variant", "wrfss", "--iterations", "3",
                       "--out", str(tmp_path / "negs")]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: wrfss {args[0]} ") and "base_seed" in err, err
        assert not (tmp_path / "negs").exists()

    def test_problem_loaded_once(self, tmp_path, monkeypatch):
        loaded = []
        load = cec2010.load_problem

        def counting_load(pid, *args, **kwargs):
            loaded.append(pid)
            return load(pid, *args, **kwargs)

        monkeypatch.setattr(cec2010, "load_problem", counting_load)
        assert run_cli([
            "run", "--problem", "C08", "--variant", "wrfss", "--iterations", "3",
            "--n-fish", "4", "--out", str(tmp_path / "out"),
        ]) == 0
        assert loaded == ["C08"]

    @pytest.mark.parametrize("command, flags, config", [
        ("run", ["--delta", "-1"], ""),
        ("run", ["--violation-exponent", "0"], ""),
        ("run", [], '{"delta": -1}'),
        ("run", [], '{"violation_exponent": 0}'),
        ("batch", ["--delta", "-1"], ""),
    ])
    def test_bad_problem_parameter_leaves_no_output(self, tmp_path, capsys, command, flags, config):
        args = [command, "--problem", "C01", "--variant", "wrfss", "--iterations", "5",
                "--out", str(tmp_path / "x")] + flags
        if config:
            (tmp_path / "exp.json").write_text(config)
            args += ["--config", str(tmp_path / "exp.json")]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert "delta" in err or "violation_exponent" in err, err
        assert not (tmp_path / "x").exists()

    def test_unknown_problem_is_runtime_error(self, tmp_path, capsys):
        code = run_cli([
            "run", "--problem", "C99", "--variant", "wrfss",
            "--iterations", "5", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_data_dir_is_runtime_error(self, tmp_path, capsys):
        code = run_cli([
            "run", "--problem", "C01", "--variant", "wrfss",
            "--iterations", "5", "--data-dir", str(tmp_path / "nodata"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "C01.txt" in capsys.readouterr().err

    def test_config_file_supplies_experiment(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text('{"problem_id": "C01", "variant": "wrfss", "iterations": 20, "n_fish": 5}')
        out = tmp_path / "out"
        code = run_cli(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["problem_id"] == "C01"
        assert manifest["config"]["iterations"] == 20


class TestConfigFilePrecedence:
    """A value comes from its flag, else the config file, else the default."""

    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        # A value that ignored the file would write to ./out.
        monkeypatch.chdir(tmp_path)

    @pytest.fixture
    def config(self, tmp_path):
        config = tmp_path / "b.json"
        config.write_text(json.dumps(
            {"base_seed": 7, "run_count": 2, "output_dir": str(tmp_path / "fromfile")}
        ))
        return str(config)

    @staticmethod
    def manifest(out):
        return json.loads((out / "manifest.json").read_text())

    def test_batch_takes_seeds_runs_and_directory_from_file(self, tmp_path, config):
        assert run_cli(["batch", "--problems", "C01", "--variants", "wrfss", "--iterations", "3",
                        "--n-fish", "4", "--config", config]) == 0
        manifest = self.manifest(tmp_path / "fromfile")
        assert manifest["seeds"] == [7, 8]
        assert (manifest["config"]["run_count"], manifest["config"]["base_seed"]) == (2, 7)
        assert not (tmp_path / "out").exists()

    def test_batch_grid_puts_pairs_under_file_directory(self, tmp_path, config):
        assert run_cli(["batch", "--problems", "C01,C07", "--variants", "wrfss",
                        "--iterations", "3", "--n-fish", "4", "--config", config]) == 0
        for pair in ("C01_wrfss", "C07_wrfss"):
            assert self.manifest(tmp_path / "fromfile" / pair)["seeds"] == [7, 8]

    def test_flags_override_file(self, tmp_path, config):
        out = tmp_path / "flagged"
        assert run_cli(["batch", "--problems", "C01", "--variants", "wrfss", "--iterations", "3",
                        "--n-fish", "4", "--config", config, "--runs", "3", "--base-seed", "20",
                        "--out", str(out)]) == 0
        assert self.manifest(out)["seeds"] == [20, 21, 22]
        assert not (tmp_path / "fromfile").exists()

    def test_run_takes_seed_and_directory_from_file(self, tmp_path, config):
        assert run_cli(["run", "--problem", "C01", "--variant", "wrfss", "--iterations", "3",
                        "--n-fish", "4", "--config", config]) == 0
        # run is one seed, whatever the file's run_count
        assert self.manifest(tmp_path / "fromfile")["seeds"] == [7]

    def test_defaults_without_flags_or_file(self, tmp_path):
        assert run_cli(["run", "--problem", "C01", "--variant", "wrfss", "--iterations", "3",
                        "--n-fish", "4"]) == 0
        assert self.manifest(tmp_path / "out")["seeds"] == [1000]
        assert run_cli(["batch", "--problems", "C01,C07", "--variants", "wrfss",
                        "--iterations", "3", "--n-fish", "4", "--runs", "2"]) == 0
        assert self.manifest(tmp_path / "out" / "C07_wrfss")["seeds"] == [1000, 1001]

    def test_batch_takes_pair_from_file(self, tmp_path):
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"problem_id": "C07", "variant": "wrfsse", "run_count": 2,
                                      "iterations": 3, "n_fish": 4}))
        assert run_cli(["batch", "--config", str(config)]) == 0
        manifest = self.manifest(tmp_path / "out")
        assert (manifest["config"]["problem_id"], manifest["config"]["variant"]) == ("C07", "wrfsse")
        assert manifest["seeds"] == [1000, 1001]

    def test_batch_grid_names_pairs_with_file_values(self, tmp_path):
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"problem_id": "C07", "iterations": 3, "n_fish": 4}))
        assert run_cli(["batch", "--config", str(config), "--variants", "wrfss,wrfsse",
                        "--runs", "1"]) == 0
        for variant in ("wrfss", "wrfsse"):
            assert self.manifest(tmp_path / "out" / f"C07_{variant}")["config"]["variant"] == variant


    def test_preset_takes_pair_from_file(self, tmp_path):
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"problem_id": "C01", "variant": "wrfsse", "iterations": 3,
                                      "n_fish": 4}))
        assert run_cli(["run", "--config", str(config), "--preset", "paper", "--desk"]) == 0
        manifest = self.manifest(tmp_path / "out")["config"]
        assert (manifest["problem_id"], manifest["variant"]) == ("C01", "wrfsse")
        assert manifest["tau"] == 0.30  # from the wrfsse preset
        assert manifest["iterations"] == 3  # the file overrides the preset

    @pytest.mark.parametrize("pair,message", [
        ({}, "--preset paper requires a problem and a variant"),
        ({"problem_id": "C01", "variant": "wrfsz"}, "variant must be one of"),
    ])
    def test_preset_without_valid_pair_is_usage_error(self, tmp_path, capsys, pair, message):
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"iterations": 3, **pair}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(config), "--preset", "paper", "--desk"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBatchCommand:
    def test_grid_writes_one_directory_per_pair(self, tmp_path):
        out = tmp_path / "grid"
        code = run_cli([
            "batch", "--problems", "C01,C07", "--variants", "wrfss",
            "--runs", "2", "--iterations", "15", "--n-fish", "5",
            "--base-seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert (out / "C01_wrfss" / "summary.json").is_file()
        assert (out / "C07_wrfss" / "summary.json").is_file()

    def test_single_pair_writes_flat(self, tmp_path):
        out = tmp_path / "flat"
        code = run_cli([
            "batch", "--problems", "C01", "--variants", "wrfss",
            "--runs", "2", "--iterations", "15", "--n-fish", "5", "--out", str(out),
        ])
        assert code == 0
        assert (out / "summary.json").is_file()

    def test_from_manifest_reproduces_stats(self, tmp_path):
        # --config <manifest> replays the batch: every report byte for byte,
        # and the same manifest apart from the output directory.
        first = tmp_path / "first"
        assert run_cli([
            "batch", "--problems", "C01", "--variants", "wrfsse", "--runs", "3",
            "--iterations", "15", "--n-fish", "5", "--sigma", "0.2", "--base-seed", "40",
            "--out", str(first),
        ]) == 0
        replay = tmp_path / "replay"
        assert run_cli(["batch", "--config", str(first / "manifest.json"), "--out", str(replay)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        assert [n for n in names if n.startswith("trace_run")] == [
            "trace_run000.csv", "trace_run001.csv", "trace_run002.csv"]
        for name in set(names) - {"manifest.json"}:
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name
        a = json.loads((first / "manifest.json").read_text())
        b = json.loads((replay / "manifest.json").read_text())
        assert b["config"].pop("output_dir") == str(replay)
        assert a["config"].pop("output_dir") == str(first)
        assert a == b

    def test_manifest_replay_honours_flags(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli(["batch", "--problems", "C01", "--variants", "wrfss", "--runs", "1",
                        "--iterations", "3", "--n-fish", "4", "--out", str(first)]) == 0
        replay = tmp_path / "r"
        assert run_cli(["batch", "--config", str(first / "manifest.json"), "--iterations", "7",
                        "--problems", "C07", "--out", str(replay)]) == 0
        config = json.loads((replay / "manifest.json").read_text())["config"]
        assert (config["iterations"], config["problem_id"], config["n_fish"]) == (7, "C07", 4)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "batch", "--problems", "C01", "--variants", "wrfss", "--runs", "2",
                "--iterations", "5", "--n-fish", "4", "--jobs", jobs, "--out", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wrfss batch ") and "--jobs" in err, err
        assert not out.exists()

    def test_batch_without_selection_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["batch", "--runs", "2"])
        assert exc.value.code == 2


# Every ExperimentConfig field except the seven selection fields has one
# override flag on `run` and `batch`: "--" + the field name with dashes.
OVERRIDE_FLAGS = {
    "--delta": float,
    "--violation-exponent": float,
    "--n-fish": int,
    "--iterations": int,
    "--sigma": float,
    "--tau": float,
    "--w-scale": float,
    "--step-ind-initial": float,
    "--step-ind-final": float,
    "--step-vol-initial": float,
    "--step-vol-final": float,
    "--sar-alpha0": float,
    "--sar-decay": float,
    "--tc-fraction": float,
    "--cp-min": float,
    "--epsilon0": float,
    "--p-g": float,
    "--k-directions": int,
    "--perturbation": float,
}
COMMON_FLAGS = {
    "-h", "--help", "--problem", "--variant", "--preset", "--desk", "--config",
    "--data-dir", "--data-source", "--out",
}


class TestParameterSurface:
    @pytest.mark.parametrize("command, own", [
        ("run", {"--seed"}),
        ("batch", {"--problems", "--variants", "--runs", "--base-seed", "--jobs"}),
    ])
    def test_override_flags(self, command, own):
        parser = _build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        types = {o: a.type for a in subs.choices[command]._actions for o in a.option_strings}
        assert set(types) == COMMON_FLAGS | own | set(OVERRIDE_FLAGS)
        assert {flag: types[flag] for flag in OVERRIDE_FLAGS} == OVERRIDE_FLAGS

    def test_override_flags_parse_by_type(self):
        parser = _build_parser()
        args = parser.parse_args(["run", "--epsilon0", "1e-3", "--k-directions", "3"])
        assert (args.epsilon0, args.k_directions) == (1e-3, 3)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["batch", "--k-directions", "3.5"])
        assert exc.value.code == 2


TABLE1_SEED7 = """\
problem    estimated   published    abs diff  data source
C01         0.994850    0.997689    0.002839  surrogate
C03         0.000000    0.000000    0.000000  surrogate
C04         0.000000    0.000000    0.000000  surrogate
C06         0.000000    0.000000    0.000000  surrogate
C07         0.487400    0.505123    0.017723  surrogate
C08         0.376850    0.379512    0.002662  surrogate
C09         0.000000    0.000000    0.000000  surrogate
note: fallback data in use; published ratios assume the official data files
"""


class TestInformational:
    def test_presets_lists_full_grid(self, capsys):
        assert run_cli(["presets"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("problem")]
        assert len(lines) == 28
        assert any("C03" in l and "wrfsse" in l for l in lines)

    def test_table1_output_is_pinned(self, capsys):
        # Literal output of the sampler that scored the objective too, in
        # 65536-row blocks: neither change may move a ratio.
        assert run_cli(["table1", "--samples", "20000", "--seed", "7",
                        "--data-source", "surrogate"]) == 0
        assert capsys.readouterr().out == TABLE1_SEED7

    def test_table1_reports_ratios(self, capsys):
        assert run_cli(["table1", "--samples", "2000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        for pid in ("C01", "C03", "C09"):
            assert pid in out
        assert "fallback" in out

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--samples", "0")])
    def test_bad_table1_argument_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table1", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: wrfss table1 ") and flag in err, err

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2
