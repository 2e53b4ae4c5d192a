"""Workloads, metrics and output pins of the wrfss benchmark.

Imported by bench.py once the thread variables are fixed and the checkout's
``src/`` is first on ``sys.path``. The package is driven only through its
public calls: ``harness.paper_preset``, ``run_batch``, ``run_single``,
``emit_reports``, ``cec2010.load_problem`` and ``cec2010.feasible_ratio``.

Every workload is a closed loop over units of work (the next unit starts when
the previous one has finished), fed from a fixed pool of seeds whose outputs
are pinned by sha256 in pins.json. ``--seed`` picks where in the pool the loop
starts, so the same seed gives the same inputs and every input has a pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wrfss import cec2010, harness
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

BLOCK = 4  # seeds per desk-batch run_batch call
DESK_SEED0 = 1000
PROBE_SEED0 = 2000
clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """How big each unit is and how many pinned inputs each pool holds."""

    name: str
    iterations: int | None  # None keeps the desk preset's budget
    samples: int  # sampled points per problem per sweep
    pools: dict
    setup_repeats: int


FULL = Scale(
    "full", None, 4 * 65536,
    {"desk-batch": 12, "gradient-probe": 24, "feasibility-sampling": 48}, 9,
)
SMOKE = Scale(
    "smoke", 30, 4096,
    {"desk-batch": 2, "gradient-probe": 2, "feasibility-sampling": 2}, 1,
)


@dataclass
class Unit:
    """One closed-loop unit of work: its timed part and what to verify."""

    key: str  # pool entry, as keyed in pins.json
    attempted: int
    seconds: float = 0.0
    run_seconds: list = field(default_factory=list)
    points: int = 0
    fish_iters: int = 0
    records: list = field(default_factory=list)
    ratios: dict = field(default_factory=dict)
    out_dir: Path | None = None
    report_paths: dict = field(default_factory=dict)
    batch_s: float = 0.0
    emit_s: float = 0.0
    jobs: int = 1
    error: str = ""
    failed: int = 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class DeskBatch:
    """C08 x wrfsse, desk preset: a block of seeds through run_batch, then emit_reports."""

    name = "desk-batch"
    per_unit = BLOCK
    setup_args = ("C08", "wrfsse")

    def __init__(self, scale: Scale):
        preset = harness.paper_preset("C08", "wrfsse", desk=True, run_count=BLOCK)
        self.config = dataclasses.replace(
            preset,
            data_source="surrogate",
            iterations=scale.iterations or preset.iterations,
        )

    def data_source(self) -> str:
        return self.config.resolved_data_source()

    def key(self, index: int) -> str:
        return str(DESK_SEED0 + BLOCK * index)

    def run(self, key: str, jobs: int, out_dir: Path) -> Unit:
        config = dataclasses.replace(self.config, base_seed=int(key), output_dir=str(out_dir))
        unit = Unit(key, attempted=self.per_unit, out_dir=out_dir, jobs=jobs)
        t0 = clock()
        stats, records = harness.run_batch(config, n_jobs=jobs)
        t1 = clock()
        unit.report_paths = harness.emit_reports(config, stats, records, out_dir=out_dir)
        t2 = clock()
        unit.batch_s, unit.emit_s, unit.seconds = t1 - t0, t2 - t1, t2 - t0
        unit.records = records
        unit.run_seconds = [r.wall_time for r in records]
        unit.points = sum(r.eval_count for r in records)
        unit.fish_iters = sum(r.n_fish * r.iterations for r in records)
        return unit

    def digest(self, unit: Unit) -> dict:
        paths = unit.report_paths
        return {
            "summary": _sha(paths["summary_json"].read_bytes()),
            "traces": [_sha(paths[f"trace_run{i:03d}"].read_bytes()) for i in range(BLOCK)],
        }

    def count_failed(self, unit: Unit, digest: dict, pin: dict) -> int:
        if digest["summary"] != pin["summary"]:
            return unit.attempted
        return sum(
            r.aborted or got != want
            for r, got, want in zip(unit.records, digest["traces"], pin["traces"])
        )


class GradientProbe:
    """C07 x wrfssg, desk preset: sequential seeds through run_single in one process."""

    name = "gradient-probe"
    per_unit = 1
    setup_args = ("C07", "wrfssg")

    def __init__(self, scale: Scale):
        preset = harness.paper_preset("C07", "wrfssg", desk=True, run_count=1)
        self.config = dataclasses.replace(
            preset,
            data_source="surrogate",
            iterations=scale.iterations or preset.iterations,
        )
        self.problem = self.config.load_problem()

    def data_source(self) -> str:
        return self.config.resolved_data_source()

    def key(self, index: int) -> str:
        return str(PROBE_SEED0 + index)

    def run(self, key: str, jobs: int, out_dir: Path) -> Unit:
        unit = Unit(key, attempted=self.per_unit, out_dir=out_dir)
        t0 = clock()
        record = harness.run_single(self.config, int(key), problem=self.problem)
        unit.seconds = clock() - t0
        unit.records = [record]
        unit.run_seconds = [unit.seconds]
        unit.points = record.eval_count
        unit.fish_iters = record.n_fish * record.iterations
        return unit

    def digest(self, unit: Unit) -> dict:
        # Reports are written here, outside the timed part, only to pin them.
        config = dataclasses.replace(self.config, base_seed=int(unit.key))
        stats = harness.SummaryStats.from_records(unit.records)
        paths = harness.emit_reports(config, stats, unit.records, out_dir=unit.out_dir)
        return {
            "summary": _sha(paths["summary_json"].read_bytes()),
            "trace": _sha(paths["trace_run000"].read_bytes()),
        }

    def count_failed(self, unit: Unit, digest: dict, pin: dict) -> int:
        return int(unit.records[0].aborted or digest != pin)


class FeasibilitySampling:
    """feasible_ratio over all seven problems in 65536-row batches: one sweep per unit."""

    name = "feasibility-sampling"
    per_unit = len(cec2010.PROBLEM_IDS)
    setup_args = ("sampling",)

    def __init__(self, scale: Scale):
        self.samples = scale.samples
        self.bench = {
            pid: cec2010.load_problem(pid, source="surrogate") for pid in cec2010.PROBLEM_IDS
        }
        self.problems = {pid: b.problem for pid, b in self.bench.items()}

    def data_source(self) -> str:
        return ",".join(sorted({b.data_source for b in self.bench.values()}))

    def key(self, index: int) -> str:
        return str(index)

    def run(self, key: str, jobs: int, out_dir: Path) -> Unit:
        unit = Unit(key, attempted=self.per_unit)
        seed = int(key)
        for pid, problem in self.problems.items():
            t0 = clock()
            unit.ratios[pid] = cec2010.feasible_ratio(problem, self.samples, seed)
            dt = clock() - t0
            unit.run_seconds.append(dt)
            unit.seconds += dt
        unit.points = self.samples * len(self.problems)
        return unit

    def digest(self, unit: Unit) -> dict:
        return {pid: _sha(repr(r).encode()) for pid, r in unit.ratios.items()}

    def count_failed(self, unit: Unit, digest: dict, pin: dict) -> int:
        return sum(digest[pid] != pin.get(pid) for pid in digest)


WORKLOAD_TYPES = {w.name: w for w in (DeskBatch, GradientProbe, FeasibilitySampling)}
# Pool step between consecutive --seed values: about one run's worth of units,
# so neighbouring seeds mostly measure different inputs.
SEED_STRIDE = {"desk-batch": 5, "gradient-probe": 4, "feasibility-sampling": 13}


# -- closed loop ------------------------------------------------------------


def _run_unit(workload, index: int, jobs: int, out_dir: Path) -> Unit:
    """One unit; one that raises is kept as a failure of everything it attempted."""
    key = workload.key(index)
    t0 = clock()
    try:
        return workload.run(key, jobs, out_dir)
    except Exception:
        return Unit(key, attempted=workload.per_unit, seconds=clock() - t0, out_dir=out_dir,
                    error=traceback.format_exc())


def closed_loop(workload, start: int, pool: int, budget_s: float, jobs: int,
                out_root: Path) -> list[Unit]:
    """Run units back to back, at least one, until the next would overrun ``budget_s``."""
    units: list[Unit] = []
    busy = 0.0
    while not units or busy + busy / len(units) <= budget_s:
        t0 = clock()
        units.append(_run_unit(workload, (start + len(units)) % pool, jobs,
                               out_root / f"unit{len(units):03d}"))
        busy += clock() - t0
    return units


def paired_loop(workload, traced_workload, tracer: Tracer, start: int, pool: int,
                budget_s: float, out_root: Path) -> tuple[list[Unit], list[Unit]]:
    """Run each input untraced and then traced, in one process, until ``budget_s`` is spent.

    Alternating the two keeps drift in machine speed out of the overhead ratio.
    """
    plain: list[Unit] = []
    traced: list[Unit] = []
    busy = 0.0
    while not plain or busy + busy / len(plain) <= budget_s:
        t0 = clock()
        index = (start + len(plain)) % pool
        plain.append(_run_unit(workload, index, 1, out_root / f"plain{len(plain):03d}"))
        with tracer:
            traced.append(_run_unit(traced_workload, index, 1,
                                    out_root / f"traced{len(traced):03d}"))
        busy += clock() - t0
    return plain, traced


def verify(workload, units: list[Unit], pins: dict) -> None:
    """Set ``failed`` on every unit by comparing its outputs with the pins."""
    for unit in units:
        if unit.error:
            print(unit.error, file=sys.stderr)
            unit.failed = unit.attempted
            continue
        pin = pins.get(unit.key)
        try:
            digest = workload.digest(unit)
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            unit.failed = unit.attempted
            continue
        if pin is None:
            print(f"no pin for {workload.name} entry {unit.key}", file=sys.stderr)
            unit.failed = unit.attempted
            continue
        unit.failed = workload.count_failed(unit, digest, pin)
        if unit.failed:
            print(f"{workload.name} entry {unit.key}: {unit.failed} output(s) differ from "
                  f"their pins", file=sys.stderr)


# -- metrics -------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, str]:
    """The nearest-rank 90th percentile, labelled with how many samples lie beyond it.

    A fixed percentile keeps runs with different sample counts comparable. Only
    from 100 samples on does it have ten samples beyond it; below 10 samples it
    is the maximum.
    """
    s = sorted(samples)
    n = len(s)
    rank = math.ceil(0.9 * n)
    return s[rank - 1], f"p90 of n={n}, {n - rank} beyond"


def measure_setup(workload, repeats: int) -> float:
    """Median time for a fresh process to import wrfss and load the workload's problems."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "import dataclasses, wrfss\n"
        "from wrfss import cec2010, harness\n"
        "a = sys.argv[1:]\n"
        "if a == ['sampling']:\n"
        "    [cec2010.load_problem(p, source='surrogate') for p in cec2010.PROBLEM_IDS]\n"
        "else:\n"
        "    c = harness.paper_preset(a[0], a[1], desk=True)\n"
        "    dataclasses.replace(c, data_source='surrogate').load_problem()\n"
        "print(time.perf_counter() - t0)\n"
        "print(wrfss.__file__)\n"
    )
    src = (ROOT / "src").resolve()
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code, *workload.setup_args],
            cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout.split("\n")
        if src not in Path(out[1]).resolve().parents:
            raise RuntimeError("set-up process imported wrfss from outside src/")
        times.append(float(out[0]))
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of the runner plus ``workers`` times its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(units: list[Unit], setup_s: float, workers: int) -> tuple[dict, dict]:
    ok = [u for u in units if not u.error]
    runs = [s for u in ok for s in u.run_seconds]
    tail_s, tail_label = tail(runs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(u.seconds for u in ok), "s"),
        "points_per_s": (statistics.median(u.points / u.seconds for u in ok), "1/s"),
        "run_s_p50": (statistics.median(runs), "s"),
        "run_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
    }
    notes = {"units": len(units), "runs": len(runs), "run_s_tail": tail_label,
             "unit_seconds": {u.key: u.seconds for u in units}}
    return metrics, notes


def quality(units: list[Unit]) -> dict:
    records = [r for u in units for r in u.records if not r.aborted]
    if records:
        feasible = float(np.mean([r.best_violation == 0.0 for r in records]))
        best_p50 = float(np.median([r.best_fitness for r in records]))
    else:  # sampling: share of sampled points that were feasible
        ratios = [r for u in units for r in u.ratios.values()]
        feasible = float(np.mean(ratios)) if ratios else 0.0
        best_p50 = 0.0
    return {
        "quality.feasible_share": (feasible, "share"),
        "quality.best_fitness_p50": (best_p50, "fitness"),
    }


def per_layer(tr: Tracer, pooled: list[Unit], plain: list[Unit], traced: list[Unit]) -> dict:
    L, C = tr.layers, tr.counters
    total = tr.total_s

    def share(x):
        return x / total if total > 0 else 0.0

    ev = L["problem.evaluate_many"]
    lf = L["niching.link_formator"]
    eng = L["engine.run"]
    traced_records = [r for u in traced for r in u.records]
    fish_iters = sum(r.n_fish * r.iterations for r in traced_records)
    iterations = sum(r.iterations for r in traced_records)
    phase2 = sum(int((r.trace_phase[1:] == 2).sum()) for r in traced_records)
    harness_self = sum(L[n].self_s for n in
                       ("harness.run_batch", "harness.run_single", "harness.emit_reports"))
    m = {
        "problem.evaluate_many.calls": (ev.calls, "count"),
        "problem.evaluate_many.rows": (C["problem.evaluate_many.rows"], "count"),
        "problem.evaluate_many.self_s": (ev.self_s, "s"),
        "problem.evaluate_many.share": (share(ev.self_s), "share"),
        "problem.rows_per_call": (C["problem.evaluate_many.rows"] / ev.calls if ev.calls else 0.0,
                                  "rows"),
        "problem.bytes_in_computed": (C["problem.bytes_in_computed"], "B"),
        "problem.rescored_row_share": (
            C["problem.rescored_rows"] / C["problem.start_rows"] if C["problem.start_rows"] else 0.0,
            "share"),
        "cec2010.load_problem_s": (L["cec2010.load_problem"].self_s, "s"),
        "cec2010.feasible_ratio.self_s": (L["cec2010.feasible_ratio"].self_s, "s"),
    }
    for pid in cec2010.PROBLEM_IDS:
        secs = C[f"cec2010.{pid}.seconds"]
        m[f"cec2010.{pid}.points_per_s"] = (
            C[f"cec2010.{pid}.points"] / secs if secs else 0.0, "1/s")
    m.update({
        "niching.link_formator.calls": (lf.calls, "count"),
        "niching.link_formator.self_s": (lf.self_s, "s"),
        "niching.link_formator.share": (share(lf.self_s), "share"),
        "niching.links_mean": (C["niching.links"] / lf.calls if lf.calls else 0.0, "count"),
        "niching.link_changes_per_call": (
            C["niching.link_changes"] / lf.calls if lf.calls else 0.0, "count"),
    })
    for name in ("best_index", "epsilon_less_arrays", "normalized_feeding",
                 "RunningExtremes.update"):
        m[f"constraint_handling.{name}.self_s"] = (L[f"constraint_handling.{name}"].self_s, "s")
    probes = C["gradient.probe_eval.calls"]
    m.update({
        "school.StepSchedule.at.self_s": (L["school.StepSchedule.at"].self_s, "s"),
        "school.boosts": (C["school.boosts"], "count"),
        "gradient.probes": (probes, "count"),
        "gradient.probe_share": (probes / fish_iters if fish_iters else 0.0, "share"),
        "gradient.probe_eval.self_s": (C["gradient.probe_eval.self_s"], "s"),
        "engine.self_s": (eng.self_s, "s"),
        "engine.self_share": (share(eng.self_s), "share"),
        "engine.phase2_share": (phase2 / iterations if iterations else 0.0, "share"),
        "engine.fish_iters_per_s": (
            sum(u.fish_iters for u in plain) / sum(u.seconds for u in plain), "1/s"),
        "harness.self_s": (harness_self, "s"),
    })
    if pooled:
        busy = sum(r.wall_time for u in pooled for r in u.records)
        batch_s = [u.batch_s for u in pooled]
        m.update({
            "harness.run_batch_s": (statistics.median(batch_s), "s"),
            "harness.emit_reports_s": (statistics.median(u.emit_s for u in pooled), "s"),
            "harness.report_bytes": (statistics.median(
                sum(p.stat().st_size for p in u.report_paths.values()) for u in pooled), "B"),
            "harness.worker_busy_share": (busy / (pooled[0].jobs * sum(batch_s)), "share"),
        })
    else:
        m.update({
            "harness.run_batch_s": (0.0, "s"),
            "harness.emit_reports_s": (0.0, "s"),
            "harness.report_bytes": (0, "B"),
            "harness.worker_busy_share": (0.0, "share"),
        })
    m.update(quality(traced))
    m.update({
        "trace.total_s": (total, "s"),
        "trace.bookkeeping_s": (tr.bookkeeping_s, "s"),
        "trace_overhead_share": (
            sum(u.seconds for u in traced) / sum(u.seconds for u in plain) - 1.0, "share"),
    })
    return m


# -- one benchmark run ------------------------------------------------------------


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "data_source": workload.data_source(),
        "thread_vars": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _load_pins(scale: Scale, workload_name: str) -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text()).get(scale.name, {}).get(workload_name, {})


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    scale = SMOKE if smoke else FULL
    workload = WORKLOAD_TYPES[name](scale)
    pool = scale.pools[name]
    start = (seed * SEED_STRIDE[name]) % pool
    pins = _load_pins(scale, name)
    nproc = _nproc()
    # Never more workers than cores, so the numbers measure the program, not the scheduler.
    jobs = min(nproc, BLOCK) if isinstance(workload, DeskBatch) else 1
    budget = 0.0 if smoke else seconds
    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        if not trace:
            setup_s = measure_setup(workload, scale.setup_repeats)
            units = closed_loop(workload, start, pool, budget, jobs, scratch / "timed")
            verify(workload, units, pins)
            metrics, notes = end_to_end(units, setup_s, jobs if jobs > 1 else 0)
            all_units = units
        else:
            pooled = []
            if jobs > 1:
                pooled = closed_loop(workload, start, pool, budget / 3, jobs, scratch / "pool")
            tr = Tracer()
            with tr:  # a fresh instance, so that loading the problems is traced too
                traced_workload = WORKLOAD_TYPES[name](scale)
            plain, traced = paired_loop(workload, traced_workload, tr, start, pool,
                                        budget * (2 / 3 if pooled else 1.0), scratch)
            all_units = pooled + plain + traced
            verify(workload, all_units, pins)
            metrics = per_layer(tr, pooled, plain, traced)
            notes = {"units": {"pooled": len(pooled), "plain": len(plain), "traced": len(traced)},
                     "coverage": tr.total_s / sum(u.seconds for u in traced),
                     "unaccounted_s": tr.total_s - tr.bookkeeping_s
                     - sum(layer.self_s for layer in tr.layers.values()),
                     "layers": {k: dataclasses.asdict(v) for k, v in tr.layers.items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(u.attempted for u in all_units)
    failed = sum(u.failed for u in all_units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "workers": jobs, "environment": environment(workload), "pool_start": start,
        "failed_share": failed / attempted, "notes": notes, **result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if smoke else ""
    (OUT / f"{name}-seed{seed}-trace{int(trace)}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for k, (v, u) in metrics.items():
        print(f"{k:45s} {v:.6g} {u}")
    print(f"{'failed_share':45s} {failed / attempted:.6g} share ({failed}/{attempted})")
    print(f"notes: {json.dumps({k: v for k, v in notes.items() if k != 'layers'})}")
    return result


# -- pins -------------------------------------------------------------------------


_pin_workloads: dict = {}


def _pin_one(task: tuple[str, str, int]) -> tuple[str, str, str, dict]:
    scale_name, name, index = task
    scale = SMOKE if scale_name == "smoke" else FULL
    if (scale_name, name) not in _pin_workloads:
        _pin_workloads[(scale_name, name)] = WORKLOAD_TYPES[name](scale)
    workload = _pin_workloads[(scale_name, name)]
    key = workload.key(index)
    out_dir = OUT / "pins" / f"{scale_name}-{name}-{key}"
    try:
        unit = workload.run(key, 1, out_dir)
        return scale_name, name, key, workload.digest(unit)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def write_pins() -> None:
    """Recompute the digest of every pool entry and write pins.json."""
    tasks = [(scale.name, name, i) for scale in (SMOKE, FULL)
             for name in WORKLOAD_TYPES for i in range(scale.pools[name])]
    # Longest tasks first, so the two halves of the pool finish together.
    tasks.sort(key=lambda t: (t[0] != "full", t[1] != "gradient-probe"))
    pins: dict = {"smoke": {}, "full": {}}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=_nproc(), mp_context=ctx) as pool:
        for scale_name, name, key, digest in pool.map(_pin_one, tasks):
            pins[scale_name].setdefault(name, {})[key] = digest
    env = environment(FeasibilitySampling(SMOKE))
    pins["environment"] = {k: env[k] for k in ("python", "numpy", "blas", "data_source")}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(OUT / "pins", ignore_errors=True)
