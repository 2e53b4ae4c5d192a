"""Command-line interface.

Subcommands:
    run      one experiment (single seed) from flags and/or a config file
    batch    a grid of problems x variants, many seeds each
    table1   Monte Carlo estimate of the feasible-region ratios
    presets  list the published per-problem protocol parameters

A config file (``--config``) is a JSON object keyed by ExperimentConfig field
names, or a batch's manifest.json, so ``batch --config out/manifest.json``
replays that batch.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import cec2010, harness

# ExperimentConfig fields set through the selection flags (--problem,
# --variant, --runs, --seed/--base-seed, --out, --data-dir, --data-source).
# Every other field has an override flag: "--" + its name with dashes.
_SELECTION_FIELDS = {
    "problem_id", "variant", "run_count", "base_seed", "output_dir", "data_dir", "data_source",
}
_OVERRIDE_FIELDS = [name for name in harness.FIELD_TYPES if name not in _SELECTION_FIELDS]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", help="problem id, e.g. C01")
    sub.add_argument(
        "--variant", choices=sorted(harness.VARIANT_NAMES), help="algorithm variant"
    )
    sub.add_argument("--preset", choices=["paper"], help="use the published protocol parameters")
    sub.add_argument(
        "--desk", action="store_true", help="scale the preset budget down to 5000 iterations"
    )
    sub.add_argument(
        "--config",
        help="JSON experiment file (ExperimentConfig fields, or a manifest.json); "
        "flags override its values",
    )
    sub.add_argument("--data-dir", help="benchmark data directory (official files)")
    sub.add_argument(
        "--data-source",
        choices=cec2010.DATA_SOURCES,
        help="where shift/rotation data comes from (default: files if a directory is known, else surrogate)",
    )
    sub.add_argument("--out", help="output directory (default: config file, else out)")
    for name in _OVERRIDE_FIELDS:
        sub.add_argument("--" + name.replace("_", "-"), type=harness.FIELD_TYPES[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrfss",
        description="Fish-school search for constrained optimization, with a benchmark harness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # Each subcommand's parser reports the usage errors found after parsing.
    p_run = subs.add_parser("run", help="run one experiment with a single seed")
    p_run.set_defaults(parser=p_run)
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, help="run seed (default: config file, else 1000)")

    p_batch = subs.add_parser("batch", help="run a problem x variant grid")
    p_batch.set_defaults(parser=p_batch)
    _add_common(p_batch)
    p_batch.add_argument("--problems", help="comma-separated problem ids (overrides --problem)")
    p_batch.add_argument("--variants", help="comma-separated variants (overrides --variant)")
    p_batch.add_argument("--runs", type=int, help="runs per pair (default: config file, else 30)")
    p_batch.add_argument(
        "--base-seed", type=int, help="seed of the first run (default: config file, else 1000)"
    )
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes per batch")

    p_table = subs.add_parser("table1", help="estimate feasible-region ratios by sampling")
    p_table.set_defaults(parser=p_table)
    p_table.add_argument("--samples", type=int, default=1_000_000)
    p_table.add_argument("--seed", type=int, default=7)
    p_table.add_argument("--data-dir")
    p_table.add_argument("--data-source", choices=cec2010.DATA_SOURCES)

    subs.add_parser("presets", help="list the published protocol parameters")
    return parser


def _merge_config(
    args: argparse.Namespace, given: dict, grid: bool = False
) -> harness.ExperimentConfig:
    """The experiment of one run or batch pair.

    Each field comes from its flag, else the config file, else the preset,
    else the ExperimentConfig default. ``given`` maps the selection fields to
    the values of the subcommand's own flags, None when not given. With
    ``grid``, the pair's ``<problem>_<variant>`` subdirectory is appended to
    the output directory.
    """
    from_file: dict = {}
    if args.config:
        try:
            from_file = harness.read_config(args.config)
        except ValueError as exc:
            args.parser.error(str(exc))
    kwargs: dict = {}
    if args.preset == "paper":
        # The preset's pair comes from the flags, else the config file.
        problem_id = given["problem_id"] or from_file.get("problem_id")
        variant = given["variant"] or from_file.get("variant")
        if not problem_id or not variant:
            args.parser.error(
                "--preset paper requires a problem and a variant (flags or config file)"
            )
        try:
            preset = harness.paper_preset(problem_id, variant, desk=args.desk)
        except ValueError as exc:
            args.parser.error(str(exc))
        kwargs.update(dataclasses.asdict(preset))
    kwargs.update(from_file)
    flags = dict(given, data_dir=args.data_dir, data_source=args.data_source)
    flags.update((name, getattr(args, name)) for name in _OVERRIDE_FIELDS)
    kwargs.update({name: value for name, value in flags.items() if value is not None})
    if not kwargs.get("problem_id") or not kwargs.get("variant"):
        args.parser.error("a problem and a variant are required (flags, preset, or config file)")
    if grid:
        pair = f"{kwargs['problem_id']}_{kwargs['variant']}"
        default = harness.ExperimentConfig.output_dir
        kwargs["output_dir"] = str(Path(kwargs.get("output_dir", default)) / pair)
    try:
        return harness.ExperimentConfig(**kwargs)
    except ValueError as exc:
        args.parser.error(str(exc))


def _execute_batch(config: harness.ExperimentConfig, jobs: int) -> None:
    problem = config.load_problem()  # bad problem parameters fail before the output directory exists
    harness.prepare_output_dir(config.output_dir)
    # Worker processes rebuild the problem from the config.
    in_process = jobs == 1 or config.run_count == 1
    stats, records = harness.run_batch(config, problem if in_process else None, n_jobs=jobs)
    paths = harness.emit_reports(config, stats, records)
    print(paths["summary_txt"].read_text(), end="")
    print(f"reports written to {Path(config.output_dir).resolve()}")


def _cmd_run(args) -> int:
    config = _merge_config(args, dict(
        problem_id=args.problem, variant=args.variant,
        run_count=1, base_seed=args.seed, output_dir=args.out,
    ))
    _execute_batch(config, jobs=1)
    return 0


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        args.parser.error(f"--jobs must be >= 1, got {args.jobs}")
    # Without its flags, a problem or variant comes from the config file (None).
    problems = [p.strip() for p in (args.problems or args.problem or "").split(",") if p.strip()]
    variants = [v.strip() for v in (args.variants or args.variant or "").split(",") if v.strip()]
    problems, variants = problems or [None], variants or [None]
    grid = len(problems) * len(variants) > 1
    for pid in problems:
        for variant in variants:
            config = _merge_config(args, dict(
                problem_id=pid, variant=variant,
                run_count=args.runs, base_seed=args.base_seed, output_dir=args.out,
            ), grid)
            _execute_batch(config, jobs=args.jobs)
    return 0


def _cmd_table1(args) -> int:
    if args.samples < 1:
        args.parser.error(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        args.parser.error(f"--seed must be >= 0, got {args.seed}")
    print(f"{'problem':<8}{'estimated':>12}{'published':>12}{'abs diff':>12}  data source")
    used_fallback = False
    for pid in cec2010.PROBLEM_IDS:
        bench = cec2010.load_problem(pid, data_dir=args.data_dir, source=args.data_source)
        used_fallback = used_fallback or not bench.data_source.startswith("files")
        est = cec2010.feasible_ratio(bench.problem, samples=args.samples, seed=args.seed)
        diff = abs(est - bench.published_ratio)
        print(
            f"{pid:<8}{est:>12.6f}{bench.published_ratio:>12.6f}{diff:>12.6f}  {bench.data_source}"
        )
    if used_fallback:
        print("note: fallback data in use; published ratios assume the official data files")
    return 0


def _cmd_presets() -> int:
    print(
        f"{'problem':<8}{'variant':<8}{'sigma':>7}{'tau':>7}{'Tc':>7}{'cp_min':>8}"
        f"{'P_g':>7}{'K':>6}  iterations"
    )
    for config in harness.list_presets():
        kind = harness.VARIANT_NAMES[config.variant]
        tc = f"{config.tc_fraction:.2f}" if kind == "epsilon" else "-"
        cp = f"{config.cp_min:g}" if kind == "epsilon" else "-"
        pg = f"{config.p_g:.2f}" if kind == "gradient" else "-"
        k = f"{config.k_directions}" if kind == "gradient" else "-"
        print(
            f"{config.problem_id:<8}{config.variant:<8}{config.sigma:>7.2f}{config.tau:>7.2f}"
            f"{tc:>7}{cp:>8}{pg:>7}{k:>6}  {config.iterations}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "batch":
            return _cmd_batch(args)
        if args.command == "table1":
            return _cmd_table1(args)
        return _cmd_presets()  # argparse requires one of the four commands
    except (cec2010.BenchDataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
