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

    @pytest.mark.parametrize("flags, ini", [
        (["--sar-alpha0", "1.5"], ""),
        (["--sar-decay", "-1.0"], ""),
        ([], "[engine]\nsar_alpha0 = 1.5\nsar_decay = -1.0\n"),
        (["--step-ind-final", "0.5"], ""),
        (["--step-vol-final", "-0.1"], ""),
        (["--variant", "wrfsse", "--cp-min", "0"], ""),
        ([], "[engine]\nstep_vol_initial = 0.0001\n"),
        (["--variant", "wrfsse"], "[variant]\ncp_min = 0\n"),
        (["--variant", "wrfssg"], "[variant]\nk_directions = 0\n"),
    ])
    def test_bad_engine_parameter_is_usage_error(self, tmp_path, capsys, flags, ini):
        args = ["run", "--problem", "C01", "--variant", "wrfss", "--iterations", "5",
                "--out", str(tmp_path / "x")] + flags
        if ini:
            (tmp_path / "exp.ini").write_text(ini)
            args += ["--config", str(tmp_path / "exp.ini")]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        # the message names one of the parameters the case sets
        named = {a[2:].replace("-", "_") for a in flags if a.startswith("--")} - {"variant"}
        named |= {line.split(" = ")[0] for line in ini.splitlines() if " = " in line}
        err = capsys.readouterr().err
        assert any(name in err for name in named), err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("ini, named", [
        ("[variant]\nk_directions = 3.5\n", ["'k_directions'", "[variant]", "3.5"]),
        ("[engine]\nsigma = lots\n", ["'sigma'", "[engine]", "lots"]),
        ("[variant]\nwarp_speed = 9\n", ["'warp_speed'", "[variant]"]),
        ("[mystery]\nx = 1\n", ["[mystery]"]),
        ("k_directions = 3\n", ["section header"]),
        ("[variant]\np_g = 0.1\np_g = 0.2\n", ["'p_g'", "'variant'"]),
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, ini, named):
        (tmp_path / "exp.ini").write_text(ini)
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "C01", "--variant", "wrfssg", "--iterations", "5",
                     "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wrfss run "), err
        for word in named + ["exp.ini"]:
            assert word in err, err
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

    @pytest.mark.parametrize("command, flags, ini", [
        ("run", ["--delta", "-1"], ""),
        ("run", ["--violation-exponent", "0"], ""),
        ("run", [], "[problem]\ndelta = -1\n"),
        ("run", [], "[problem]\nviolation_exponent = 0\n"),
        ("batch", ["--delta", "-1"], ""),
    ])
    def test_bad_problem_parameter_leaves_no_output(self, tmp_path, capsys, command, flags, ini):
        args = [command, "--problem", "C01", "--variant", "wrfss", "--iterations", "5",
                "--out", str(tmp_path / "x")] + flags
        if ini:
            (tmp_path / "exp.ini").write_text(ini)
            args += ["--config", str(tmp_path / "exp.ini")]
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
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[problem]\nid = C01\n\n[variant]\nname = wrfss\n\n"
            "[engine]\niterations = 20\nn_fish = 5\n"
        )
        out = tmp_path / "out"
        code = run_cli(["run", "--config", str(ini), "--out", str(out)])
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
    def ini(self, tmp_path):
        ini = tmp_path / "b.ini"
        ini.write_text("[batch]\nbase_seed = 7\nrun_count = 2\n\n"
                       f"[output]\ndirectory = {tmp_path / 'fromini'}\n")
        return str(ini)

    @staticmethod
    def manifest(out):
        return json.loads((out / "manifest.json").read_text())

    def test_batch_takes_seeds_runs_and_directory_from_ini(self, tmp_path, ini):
        assert run_cli(["batch", "--problems", "C01", "--variants", "wrfss", "--iterations", "3",
                        "--n-fish", "4", "--config", ini]) == 0
        manifest = self.manifest(tmp_path / "fromini")
        assert manifest["seeds"] == [7, 8]
        assert (manifest["config"]["run_count"], manifest["config"]["base_seed"]) == (2, 7)
        assert not (tmp_path / "out").exists()

    def test_batch_grid_puts_pairs_under_ini_directory(self, tmp_path, ini):
        assert run_cli(["batch", "--problems", "C01,C07", "--variants", "wrfss",
                        "--iterations", "3", "--n-fish", "4", "--config", ini]) == 0
        for pair in ("C01_wrfss", "C07_wrfss"):
            assert self.manifest(tmp_path / "fromini" / pair)["seeds"] == [7, 8]

    def test_flags_override_ini(self, tmp_path, ini):
        out = tmp_path / "flagged"
        assert run_cli(["batch", "--problems", "C01", "--variants", "wrfss", "--iterations", "3",
                        "--n-fish", "4", "--config", ini, "--runs", "3", "--base-seed", "20",
                        "--out", str(out)]) == 0
        assert self.manifest(out)["seeds"] == [20, 21, 22]
        assert not (tmp_path / "fromini").exists()

    def test_run_takes_seed_and_directory_from_ini(self, tmp_path, ini):
        assert run_cli(["run", "--problem", "C01", "--variant", "wrfss", "--iterations", "3",
                        "--n-fish", "4", "--config", ini]) == 0
        # run is one seed, whatever the file's run_count
        assert self.manifest(tmp_path / "fromini")["seeds"] == [7]

    def test_defaults_without_flags_or_ini(self, tmp_path):
        assert run_cli(["run", "--problem", "C01", "--variant", "wrfss", "--iterations", "3",
                        "--n-fish", "4"]) == 0
        assert self.manifest(tmp_path / "out")["seeds"] == [1000]
        assert run_cli(["batch", "--problems", "C01,C07", "--variants", "wrfss",
                        "--iterations", "3", "--n-fish", "4", "--runs", "2"]) == 0
        assert self.manifest(tmp_path / "out" / "C07_wrfss")["seeds"] == [1000, 1001]


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
        out = tmp_path / "first"
        assert run_cli([
            "batch", "--problems", "C01", "--variants", "wrfss",
            "--runs", "2", "--iterations", "15", "--n-fish", "5", "--out", str(out),
        ]) == 0
        replay = tmp_path / "replay"
        assert run_cli([
            "batch", "--from-manifest", str(out / "manifest.json"), "--out", str(replay),
        ]) == 0
        a = json.loads((out / "summary.json").read_text())
        b = json.loads((replay / "summary.json").read_text())
        assert a["stats"] == b["stats"]

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
        ("batch", {"--problems", "--variants", "--runs", "--base-seed", "--jobs",
                   "--from-manifest"}),
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
