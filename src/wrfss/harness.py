"""Batch runner, presets, statistics and report files.

An experiment is a problem/variant pair plus every engine parameter, executed
over ``run_count`` independent seeded runs (seed = base_seed + run index).
Reports are a per-run convergence trace CSV, a human-readable and a
machine-readable summary including published reference values, and a manifest
from which the whole batch can be reproduced byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import cec2010
from .engine import EngineParams, RunRecord, Variant, run
from .problem import Problem

__all__ = [
    "VARIANT_NAMES",
    "ExperimentConfig",
    "FIELD_TYPES",
    "SummaryStats",
    "paper_preset",
    "list_presets",
    "prepare_output_dir",
    "run_single",
    "run_batch",
    "emit_reports",
    "read_config",
]

# CLI/report variant names mapped onto engine variant kinds.
VARIANT_NAMES = {
    "wrfss": "base",
    "wrfsse": "epsilon",
    "wrfssg": "gradient",
    "wrfssp": "penalty",
}

PAPER_ITERATIONS = 80000
DESK_ITERATIONS = 5000

# The equality-constrained problems get a sharper epsilon decay (cp_min 8
# instead of 3) and fewer probe directions (50 instead of 200).
_EQUALITY_CONSTRAINED = {"C03", "C04", "C06", "C09"}
# (sigma, tau) per variant.
_PRESET_SIGMA_TAU = {
    "wrfss": (0.05, 0.01),
    "wrfsse": (0.05, 0.30),
    "wrfssg": (0.50, 0.01),
    "wrfssp": (0.05, 0.30),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a batch; all fields are primitives.

    The field names are the manifest schema and the keys of a ``--config``
    file. Each engine or problem field carries the name and the default of
    the ``EngineParams``, ``Variant`` or ``Problem`` field it feeds, and the
    CLI flags are derived from the field names.
    """

    problem_id: str
    variant: str
    run_count: int = 30
    base_seed: int = 1000
    output_dir: str = "out"
    data_dir: str | None = None
    data_source: str | None = None
    delta: float = Problem.delta
    violation_exponent: float = Problem.violation_exponent
    n_fish: int = EngineParams.n_fish
    iterations: int = EngineParams.iterations
    sigma: float = EngineParams.sigma
    tau: float = EngineParams.tau
    w_scale: float = EngineParams.w_scale
    step_ind_initial: float = EngineParams.step_ind_initial
    step_ind_final: float = EngineParams.step_ind_final
    step_vol_initial: float = EngineParams.step_vol_initial
    step_vol_final: float = EngineParams.step_vol_final
    sar_alpha0: float = EngineParams.sar_alpha0
    sar_decay: float = EngineParams.sar_decay
    tc_fraction: float = Variant.tc_fraction
    cp_min: float = Variant.cp_min
    epsilon0: float | None = Variant.epsilon0
    p_g: float = Variant.p_g
    k_directions: int = Variant.k_directions
    perturbation: float | None = Variant.perturbation

    def __post_init__(self):
        if self.variant not in VARIANT_NAMES:
            raise ValueError(
                f"variant must be one of {sorted(VARIANT_NAMES)}, got {self.variant!r}"
            )
        if self.run_count < 1:
            raise ValueError(f"run_count must be >= 1, got {self.run_count}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        # Reject bad engine and variant parameters before any run starts.
        self.engine_params()
        self.engine_variant()

    def engine_params(self) -> EngineParams:
        return _from_fields(EngineParams, self)

    def engine_variant(self) -> Variant:
        return _from_fields(Variant, self, kind=VARIANT_NAMES[self.variant])

    def load_problem(self) -> Problem:
        bench = cec2010.load_problem(
            self.problem_id,
            data_dir=self.data_dir,
            source=self.data_source,
            delta=self.delta,
            violation_exponent=self.violation_exponent,
        )
        return bench.problem

    def resolved_data_source(self) -> str:
        return cec2010.resolve_source(self.data_dir, self.data_source)[0]


def _from_fields(cls, config: ExperimentConfig, **given):
    """``cls`` built from the config fields of the same names, plus ``given``."""
    taken = {
        f.name: getattr(config, f.name) for f in dataclasses.fields(cls) if f.name not in given
    }
    return cls(**taken, **given)


_HINTS = typing.get_type_hints(ExperimentConfig)
# The type a flag or config-file value of each ExperimentConfig field is
# parsed as: the field's annotation without None.
FIELD_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in _HINTS.items()
}
# The Optional fields, the only ones a config file may set to null.
_NULLABLE = {name for name, hint in _HINTS.items() if type(None) in typing.get_args(hint)}


def paper_preset(
    problem_id: str,
    variant: str,
    desk: bool = False,
    run_count: int = ExperimentConfig.run_count,
    base_seed: int = ExperimentConfig.base_seed,
    output_dir: str = ExperimentConfig.output_dir,
) -> ExperimentConfig:
    """Published protocol parameters for one problem/variant pair.

    ``desk`` scales the iteration budget from 80000 down to 5000 so a batch
    finishes in minutes.
    """
    if variant not in VARIANT_NAMES:
        raise ValueError(f"variant must be one of {sorted(VARIANT_NAMES)}, got {variant!r}")
    if problem_id not in cec2010.PROBLEM_IDS:
        raise ValueError(
            f"unknown problem id {problem_id!r}; choose one of {cec2010.PROBLEM_IDS}"
        )
    sigma, tau = _PRESET_SIGMA_TAU[variant]
    cp_min, k_directions = (8.0, 50) if problem_id in _EQUALITY_CONSTRAINED else (3.0, 200)
    return ExperimentConfig(
        problem_id=problem_id,
        variant=variant,
        run_count=run_count,
        base_seed=base_seed,
        output_dir=output_dir,
        iterations=DESK_ITERATIONS if desk else PAPER_ITERATIONS,
        sigma=sigma,
        tau=tau,
        tc_fraction=0.60,
        cp_min=cp_min,
        p_g=0.10,
        k_directions=k_directions,
    )


def list_presets() -> list[ExperimentConfig]:
    """All problem/variant preset combinations."""
    return [paper_preset(pid, variant) for pid in cec2010.PROBLEM_IDS for variant in VARIANT_NAMES]


@dataclass(frozen=True)
class SummaryStats:
    """Batch statistics over the completed runs' final best fish."""

    fitness_mean: float
    fitness_sd: float
    fitness_min: float
    fitness_max: float
    violation_mean: float
    violation_sd: float
    violation_min: float
    violation_max: float
    feasible_runs: int
    completed_runs: int
    failed_runs: int

    @classmethod
    def from_records(cls, records: list[RunRecord]) -> "SummaryStats":
        done = [r for r in records if not r.aborted]
        failed = len(records) - len(done)
        if not done:
            nan = math.nan
            return cls(nan, nan, nan, nan, nan, nan, nan, nan, 0, 0, failed)
        f = np.array([r.best_fitness for r in done])
        v = np.array([r.best_violation for r in done])
        return cls(
            fitness_mean=float(f.mean()),
            fitness_sd=float(f.std()),
            fitness_min=float(f.min()),
            fitness_max=float(f.max()),
            violation_mean=float(v.mean()),
            violation_sd=float(v.std()),
            violation_min=float(v.min()),
            violation_max=float(v.max()),
            feasible_runs=int((v == 0.0).sum()),
            completed_runs=len(done),
            failed_runs=failed,
        )


def prepare_output_dir(path: str | Path) -> Path:
    """Create the output directory and fail fast when it is not writable."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory is not writable: {out}")
    return out


def run_single(
    config: ExperimentConfig, seed: int, problem: Problem | None = None
) -> RunRecord:
    """One seeded run of the configured experiment."""
    if problem is None:
        problem = config.load_problem()
    return run(
        problem,
        variant=config.engine_variant(),
        params=config.engine_params(),
        seed=seed,
    )


def _batch_worker(config: ExperimentConfig, seed: int) -> RunRecord:
    # Module-level, so that the pool can pickle it; it reads run_single at call time.
    return run_single(config, seed)


def run_batch(
    config: ExperimentConfig,
    problem: Problem | None = None,
    n_jobs: int = 1,
) -> tuple[SummaryStats, list[RunRecord]]:
    """Execute the batch and aggregate statistics.

    Runs are independent; with ``n_jobs`` > 1 they execute in worker
    processes (the problem is then rebuilt from the config in each worker, so
    a custom ``problem`` object forces single-process execution). Failed runs
    are excluded from the statistics and counted in ``failed_runs``.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    seeds = [config.base_seed + i for i in range(config.run_count)]
    if n_jobs > 1 and problem is None and config.run_count > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(partial(_batch_worker, config), seeds))
    else:
        if problem is None:
            problem = config.load_problem()
        records = [run_single(config, s, problem=problem) for s in seeds]
    return SummaryStats.from_records(records), records


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_trace(path: Path, record: RunRecord) -> None:
    lines = ["iteration,best_fitness,best_violation,phase,feasible_count"]
    for i in range(record.trace_iteration.shape[0]):
        lines.append(
            f"{record.trace_iteration[i]},{_fmt(record.trace_best_fitness[i])},"
            f"{_fmt(record.trace_best_violation[i])},{record.trace_phase[i]},"
            f"{record.trace_feasible_count[i]}"
        )
    path.write_text("\n".join(lines) + "\n")


def _finite(obj):
    """``obj`` with every non-finite float inside its dicts and lists replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as strict JSON, a non-finite float as null."""
    path.write_text(json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


def emit_reports(
    config: ExperimentConfig,
    stats: SummaryStats,
    records: list[RunRecord],
    out_dir: str | Path | None = None,
) -> dict[str, Path]:
    """Write trace files, both summary flavors, and the batch manifest.

    All emitted files are deterministic functions of the configuration and
    seeds (no timestamps), so re-running the same batch reproduces them
    byte-for-byte.
    """
    out = prepare_output_dir(config.output_dir if out_dir is None else out_dir)
    paths: dict[str, Path] = {}

    for i, record in enumerate(records):
        trace_path = out / f"trace_run{i:03d}.csv"
        _write_trace(trace_path, record)
        paths[f"trace_run{i:03d}"] = trace_path

    data_source, reference = "unavailable", {}
    if config.problem_id in cec2010.PROBLEM_IDS:
        reference = cec2010.known_reference_values(config.problem_id)
        try:
            data_source = config.resolved_data_source()
        except cec2010.BenchDataError:
            pass

    summary = {
        "problem": config.problem_id,
        "variant": config.variant,
        "data_source": data_source,
        "stats": dataclasses.asdict(stats),
        "runs": [
            {
                "seed": r.seed,
                "best_fitness": r.best_fitness,
                "best_violation": r.best_violation,
                "feasible": r.best_feasible,
                "eval_count": r.eval_count,
                "probe_count": r.probe_count,
                "aborted": r.aborted,
                "error": r.error,
            }
            for r in records
        ],
        "reference_fitness": reference,
    }
    summary_json = out / "summary.json"
    _write_json(summary_json, summary)
    paths["summary_json"] = summary_json

    lines = [
        f"problem {config.problem_id}  variant {config.variant}  "
        f"runs {config.run_count}  iterations {config.iterations}  fish {config.n_fish}",
        f"data source: {data_source}"
        + (
            ""
            if data_source.startswith("files")
            else "  [fallback data: results not comparable to published values]"
        ),
        "",
        f"final best fitness   mean {stats.fitness_mean:.6g}  sd {stats.fitness_sd:.6g}  "
        f"min {stats.fitness_min:.6g}  max {stats.fitness_max:.6g}",
        f"final best violation mean {stats.violation_mean:.6g}  sd {stats.violation_sd:.6g}  "
        f"min {stats.violation_min:.6g}  max {stats.violation_max:.6g}",
        f"feasible runs {stats.feasible_runs}/{stats.completed_runs}"
        + (f"  (failed: {stats.failed_runs})" if stats.failed_runs else ""),
    ]
    if reference:
        lines += ["", "reference fitness means (published, full-scale protocol):"]
        for algo, ref in reference.items():
            lines.append(f"  {algo:<9} mean {ref['mean']:.3e}  sd {ref['sd']:.3e}")
    summary_txt = out / "summary.txt"
    summary_txt.write_text("\n".join(lines) + "\n")
    paths["summary_txt"] = summary_txt

    manifest = {
        "config": dataclasses.asdict(config),
        "seeds": [r.seed for r in records],
        "resolved_data_source": data_source,
    }
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, manifest)
    paths["manifest"] = manifest_path
    return paths


# The entries of manifest.json. Only "config" is read back; the seeds and the
# resolved data source follow from it.
_MANIFEST_KEYS = {"config", "seeds", "resolved_data_source"}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_config(path: str | Path) -> dict:
    """ExperimentConfig keyword arguments from a JSON experiment file.

    The file holds one object whose keys are ExperimentConfig field names, or
    a batch manifest, whose ``config`` entry is that object. Every key is
    optional. An unknown or repeated key, a value that is not of its field's
    type (an int field takes only an integer, a float field any number) and
    null outside the Optional fields raise ValueError naming the file and
    the key. Float fields are stored as floats.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSON syntax or a repeated key
        raise ValueError(f"bad config file {path}: {exc}") from None
    if isinstance(data, dict) and "config" in data:
        unknown = sorted(data.keys() - _MANIFEST_KEYS)
        if unknown:
            raise ValueError(f"unknown manifest key {unknown[0]!r} in {path}")
        data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object of ExperimentConfig fields")
    kwargs: dict = {}
    for key, value in data.items():
        kind = FIELD_TYPES.get(key)
        if kind is None:
            raise ValueError(f"unknown key {key!r} in {path}")
        if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)
        if type(value) is not kind and not (value is None and key in _NULLABLE):
            raise ValueError(
                f"bad value for key {key!r} in {path}: expected {kind.__name__}, "
                f"got {json.dumps(value)}"
            )
        kwargs[key] = value
    return kwargs
