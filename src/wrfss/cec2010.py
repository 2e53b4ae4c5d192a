"""Seven constrained benchmark problems from the CEC 2010 competition set.

The suite instantiates C01, C03, C04, C06, C07, C08 and C09 at 10 dimensions.
Problem bodies follow the official competition definitions; the shift vectors
(and rotation matrices for C06/C08) come from data files.

Data directory layout: one plain-text file per problem named ``<id>.txt``
holding whitespace-separated decimal numbers, the first D being the shift
vector and, for rotated problems, the next D*D the rotation matrix in row
order. An optional ``manifest.json`` maps file names to sha256 digests and is
verified when present. The directory may also be pointed to by the
``WRFSS_CEC2010_DATA`` environment variable.

Without official data two fallback sources exist, both clearly labeled
non-conformant (results are not comparable to published figures): a
deterministic ``surrogate`` source with fixed pseudo-random shifts/rotations,
and a ``zero`` source (zero shift, identity rotation) for unit tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# feasible_ratio scores no objective, but the name ``evaluate_many`` stays
# bound in this module: the benchmark tracer (perfbench/spans.py) wraps it here.
from .problem import Problem, evaluate_many, feasible_many  # noqa: F401

__all__ = [
    "PROBLEM_IDS",
    "DATA_SOURCES",
    "DATA_ENV_VAR",
    "BenchDataError",
    "BenchProblem",
    "resolve_source",
    "load_problem",
    "feasible_ratio",
    "known_reference_values",
    "write_data_dir",
]

PROBLEM_IDS = ("C01", "C03", "C04", "C06", "C07", "C08", "C09")
DATA_SOURCES = ("files", "surrogate", "zero")
DATA_ENV_VAR = "WRFSS_CEC2010_DATA"

DIMENSION = 10
_ROTATION_OFFSET = 483.6106156535  # pre-rotation shift used by C06

# id -> (lower, upper, equality count, inequality count, published feasible ratio at 10D)
_TABLE1 = {
    "C01": (0.0, 10.0, 0, 2, 0.997689),
    "C03": (-1000.0, 1000.0, 1, 0, 0.000000),
    "C04": (-50.0, 50.0, 4, 0, 0.000000),
    "C06": (-600.0, 600.0, 2, 0, 0.000000),
    "C07": (-140.0, 140.0, 0, 1, 0.505123),
    "C08": (-140.0, 140.0, 0, 1, 0.379512),
    "C09": (-500.0, 500.0, 1, 0, 0.000000),
}

_ROTATED = {"C06", "C08"}

# Half-width of the surrogate shift distribution per problem; C01 uses a
# small strictly negative band so the shifted coordinates stay positive over
# the box (the bump-function denominator only vanishes at z = 0).
_SURROGATE_SHIFT = {
    "C01": (-0.40, -0.05),
    "C03": (-50.0, 50.0),
    "C04": (-5.0, 5.0),
    "C06": (-60.0, 60.0),
    "C07": (-10.0, 10.0),
    "C08": (-10.0, 10.0),
    "C09": (-50.0, 50.0),
}
_SURROGATE_SEED = 20100731
# Rows per block in feasible_ratio. Each (rows, 10) float64 temporary is then
# 160 KiB, well inside a core's L2 cache. On one core, 2048 sampled fastest of
# 2048-16384 rows. With two worker threads on a 2-core Xeon (7 x 262144
# samples, median of 10 sweeps) 1024, 2048, 4096 and 8192 rows took 1.02,
# 0.73, 0.63 and 0.74 s: a larger block makes fewer of the small numpy calls
# that hold the interpreter lock. But 4096 rows raised peak RSS by 4.6 MB (2048:
# 1.7 MB), over a tenth of a sampling process, so 2048 stays.
_SAMPLE_BATCH = 2048


class BenchDataError(RuntimeError):
    """A benchmark data file is missing, corrupt, or fails its checksum."""


@dataclass(frozen=True)
class BenchProblem:
    """One suite entry: the evaluable problem plus its published metadata."""

    pid: str
    problem: Problem
    published_ratio: float
    data_source: str
    shift: np.ndarray
    rotation: np.ndarray | None


def _mean(v):
    # What np.mean computes for float64, without its Python-level overhead.
    return v.sum(axis=-1) / v.shape[-1]


def _rotate(z, m):
    """``z @ m`` for a batch of rows; each row gets the bits of a many-row product.

    numpy multiplies a single row by the matrix through another BLAS kernel,
    which rounds differently, so a one-row batch is padded to two rows and the
    first row is kept.
    """
    if z.shape[0] == 1:
        return (np.concatenate([z, z]) @ m)[:1]
    return z @ m


def _build_problem(pid: str, shift: np.ndarray, rotation: np.ndarray | None,
                   delta: float, exponent: float) -> Problem:
    o = np.asarray(shift, dtype=float)
    m = None if rotation is None else np.asarray(rotation, dtype=float)
    d = DIMENSION
    lo, hi, _, _, _ = _TABLE1[pid]
    idx = np.arange(1, d + 1, dtype=float)

    def rosenbrock(z):
        a, b = z[..., :-1], z[..., 1:]
        return (100.0 * (a**2 - b) ** 2 + (a - 1.0) ** 2).sum(axis=-1)

    if pid == "C01":
        def objective(x):
            z = x - o
            c = np.cos(z)
            num = (c**4).sum(axis=-1) - 2.0 * (c**2).prod(axis=-1)
            den = np.sqrt((idx * z * z).sum(axis=-1))
            return -np.abs(num / den)

        inequalities = (
            lambda x: 0.75 - (x - o).prod(axis=-1),
            lambda x: (x - o).sum(axis=-1) - 7.5 * d,
        )
        equalities = ()
    elif pid == "C03":
        objective = lambda x: rosenbrock(x - o)
        inequalities = ()
        equalities = (lambda x: (np.diff(x - o, axis=-1) ** 2).sum(axis=-1),)
    elif pid == "C04":
        half = d // 2
        objective = lambda x: (x - o).max(axis=-1)
        inequalities = ()

        def h_cos(x):
            z = x - o
            return _mean(z * np.cos(np.sqrt(np.abs(z))))

        def h_chain(x):
            z = x - o
            return ((z[..., half:-1] ** 2 - z[..., half + 1:]) ** 2).sum(axis=-1)

        equalities = (
            h_cos,
            lambda x: (np.diff((x - o)[..., :half], axis=-1) ** 2).sum(axis=-1),
            h_chain,
            lambda x: (x - o).sum(axis=-1),
        )
    elif pid == "C06":
        def rotated(x):
            return _rotate(x - o + _ROTATION_OFFSET, m) - _ROTATION_OFFSET

        def h_sin(x):
            y = rotated(x)
            return _mean(-y * np.sin(np.sqrt(np.abs(y))))

        def h_cos(x):
            y = rotated(x)
            return _mean(-y * np.cos(0.5 * np.sqrt(np.abs(y))))

        objective = lambda x: (x - o).max(axis=-1)
        inequalities = ()
        equalities = (h_sin, h_cos)
    elif pid in ("C07", "C08"):
        if pid == "C07":
            transform = lambda x: x - o
        else:
            transform = lambda x: _rotate(x - o, m)

        def constraint(x):
            y = transform(x)
            return (
                0.5
                - np.exp(-0.1 * np.sqrt(_mean(y * y)))
                - 3.0 * np.exp(_mean(np.cos(0.1 * y)))
                + math.e
            )

        objective = lambda x: rosenbrock(x + 1.0 - o)
        inequalities = (constraint,)
        equalities = ()
    elif pid == "C09":
        objective = lambda x: rosenbrock(x + 1.0 - o)
        inequalities = ()

        def h_sin(x):
            z = x - o
            return (z * np.sin(np.sqrt(np.abs(z)))).sum(axis=-1)

        equalities = (h_sin,)

    return Problem(
        dimension=d,
        lower=np.full(d, lo),
        upper=np.full(d, hi),
        objective=objective,
        inequalities=inequalities,
        equalities=equalities,
        delta=delta,
        violation_exponent=exponent,
        name=pid,
    )


def _surrogate_data(pid: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Deterministic stand-in shift/rotation, fixed per problem id."""
    rng = np.random.default_rng([_SURROGATE_SEED, PROBLEM_IDS.index(pid)])
    lo, hi = _SURROGATE_SHIFT[pid]
    shift = rng.uniform(lo, hi, DIMENSION)
    rotation = None
    if pid in _ROTATED:
        a = rng.normal(size=(DIMENSION, DIMENSION))
        q, r = np.linalg.qr(a)
        rotation = q @ np.diag(np.sign(np.diag(r)))
    return shift, rotation


def _fallback_data(pid: str, source: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Shift/rotation of a fallback source: "surrogate", or "zero" (identity rotation)."""
    if source == "surrogate":
        return _surrogate_data(pid)
    if source == "zero":
        return np.zeros(DIMENSION), np.eye(DIMENSION) if pid in _ROTATED else None
    raise ValueError(f"source must be surrogate or zero, got {source!r}")


def _read_data_file(pid: str, data_dir: Path) -> tuple[np.ndarray, np.ndarray | None]:
    path = data_dir / f"{pid}.txt"
    if not path.is_file():
        raise BenchDataError(f"missing benchmark data file: {path}")
    manifest = data_dir / "manifest.json"
    if manifest.is_file():
        try:
            digests = json.loads(manifest.read_text())["sha256"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise BenchDataError(f"corrupt checksum manifest: {manifest}") from exc
        expected = digests.get(path.name)
        if expected is not None:
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
            if actual != expected:
                raise BenchDataError(f"checksum mismatch for data file: {path}")
    try:
        values = np.array([float(tok) for tok in path.read_text().split()])
    except ValueError as exc:
        raise BenchDataError(f"corrupt benchmark data file: {path}") from exc
    if not np.isfinite(values).all():
        raise BenchDataError(f"corrupt benchmark data file: {path} (non-finite number)")
    d = DIMENSION
    need = d + d * d if pid in _ROTATED else d
    if values.size != need:
        raise BenchDataError(
            f"corrupt benchmark data file: {path} (expected {need} numbers, found {values.size})"
        )
    shift = values[:d]
    rotation = values[d:].reshape(d, d) if pid in _ROTATED else None
    return shift, rotation


def resolve_source(
    data_dir: str | Path | None = None, source: str | None = None
) -> tuple[str, Path | None]:
    """The data source label and, for files, the directory ``load_problem`` reads.

    ``source`` is "files" (the given ``data_dir`` or the directory named by
    WRFSS_CEC2010_DATA), "surrogate", or "zero". With source=None, files are
    used when a directory is known and the surrogate otherwise. The label is
    "files:<dir>", "surrogate" or "zero". Reads no data file.
    """
    if source not in (None, *DATA_SOURCES):
        raise ValueError(f"source must be one of {DATA_SOURCES}, got {source!r}")
    if data_dir is None and source in (None, "files"):
        data_dir = os.environ.get(DATA_ENV_VAR) or None
    if source is None:
        source = "files" if data_dir is not None else "surrogate"
    if source != "files":
        return source, None
    if data_dir is None:
        raise BenchDataError(
            f"no benchmark data directory given (set {DATA_ENV_VAR} or pass data_dir)"
        )
    return f"files:{data_dir}", Path(data_dir)


def load_problem(
    pid: str,
    data_dir: str | Path | None = None,
    source: str | None = None,
    delta: float = Problem.delta,
    violation_exponent: float = Problem.violation_exponent,
) -> BenchProblem:
    """Build one suite problem at 10D with the equality tolerance applied.

    ``data_dir`` and ``source`` select where the shift/rotation data comes
    from, as described in ``resolve_source``.
    """
    if pid not in PROBLEM_IDS:
        raise ValueError(f"unknown problem id {pid!r}; choose one of {PROBLEM_IDS}")
    source_label, directory = resolve_source(data_dir, source)
    if directory is not None:
        shift, rotation = _read_data_file(pid, directory)
    else:
        shift, rotation = _fallback_data(pid, source_label)

    problem = _build_problem(pid, shift, rotation, delta, violation_exponent)
    lo, hi, n_eq, n_ineq, ratio = _TABLE1[pid]
    assert problem.n_equalities == n_eq and problem.n_inequalities == n_ineq
    assert float(problem.lower[0]) == lo and float(problem.upper[0]) == hi
    return BenchProblem(
        pid=pid,
        problem=problem,
        published_ratio=ratio,
        data_source=source_label,
        shift=shift,
        rotation=rotation,
    )


def _sampling_workers() -> int:
    """One sampling thread per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _count_feasible(problem: Problem, points: np.ndarray) -> int:
    # Runs in a sampling thread; calls nothing the benchmark tracer wraps.
    return int(np.count_nonzero(feasible_many(problem, points)))


def feasible_ratio(problem: Problem, samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the feasible fraction of the box.

    Only the constraints are scored, each only where the sample is still
    feasible (see ``feasible_many``), so an objective that is expensive or
    non-finite at some samples does not matter here, nor does a constraint
    that is non-finite only at samples an earlier one rejects. Deterministic
    for a given seed; standard error scales as 1/sqrt(samples).
    Equality-constrained problems give exactly zero for any finite sample.

    The calling thread draws the samples in blocks from one generator, into
    reused buffers, and worker threads, one per CPU the process may use, score
    the blocks; so the problem's functions are called from several threads at
    once and must be safe to call that way, as the pure CEC functions are. The
    counts are added in block order, and an error raised by a block reaches
    the caller unchanged, from the first failing block in sample order.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    width = problem.range_width
    workers = _sampling_workers()
    pending = deque()  # scoring blocks in sample order, at most two per worker
    # Block k is drawn into buffers[k % (2 * workers)], whose previous block
    # k - 2 * workers has left ``pending`` by then. A fresh array per block
    # made the allocator unmap or trim, then fault in, its pages block after
    # block, as often as the process's allocation history happened to allow.
    buffers = np.empty((2 * workers, _SAMPLE_BATCH, problem.dimension))
    blocks = 0
    feasible = 0
    remaining = samples
    pool = ThreadPoolExecutor(workers)
    try:
        while remaining > 0 or pending:
            if remaining > 0 and len(pending) < 2 * workers:
                n = min(_SAMPLE_BATCH, remaining)
                pts = rng.random(out=buffers[blocks % len(buffers), :n])
                blocks += 1
                pts *= width
                pts += problem.lower
                pending.append(pool.submit(_count_feasible, problem, pts))
                remaining -= n
            else:
                feasible += pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
    return feasible / samples


def write_data_dir(path: str | Path, source: str = "surrogate") -> Path:
    """Write a data directory in the documented layout, with its manifest.

    Useful for tests and as a template when converting official data files.
    The written numbers come from the chosen fallback source and remain
    non-conformant.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    digests = {}
    for pid in PROBLEM_IDS:
        shift, rotation = _fallback_data(pid, source)
        lines = [" ".join(repr(float(v)) for v in shift)]
        if rotation is not None:
            lines.extend(" ".join(repr(float(v)) for v in row) for row in rotation)
        file = path / f"{pid}.txt"
        file.write_text("\n".join(lines) + "\n")
        digests[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
    (path / "manifest.json").write_text(
        json.dumps({"sha256": digests}, indent=2, sort_keys=True) + "\n"
    )
    return path


# Published mean/standard deviation of the final fitness over 30 runs, per
# algorithm, used as reference columns in reports. eDEg, Co-CLPSO and E-ABC
# are external comparison methods and are reference data only.
_REFERENCE = {
    "C01": {
        "wrFSS": (-5.91e-01, 4.83e-02),
        "wrFSSe": (-4.03e-01, 1.17e-01),
        "wrFSSg": (-5.76e-01, 3.16e-02),
        "wrFSSp": (-6.93e-01, 1.64e-02),
        "eDEg": (-7.47e-01, 1.32e-03),
        "Co-CLPSO": (-7.34e-01, 1.78e-02),
        "E-ABC": (-7.16e-01, 2.69e-02),
    },
    "C03": {
        "wrFSS": (6.33e12, 5.54e12),
        "wrFSSe": (4.01e09, 8.37e09),
        "wrFSSg": (5.20e13, 1.46e14),
        "wrFSSp": (7.71e12, 1.45e13),
        "eDEg": (0.00e00, 0.00e00),
        "Co-CLPSO": (3.55e-01, 1.78e00),
        "E-ABC": (2.45e12, 1.01e12),
    },
    "C04": {
        "wrFSS": (2.23e00, 5.37e00),
        "wrFSSe": (5.60e00, 7.16e00),
        "wrFSSg": (1.88e00, 4.64e00),
        "wrFSSp": (1.55e00, 4.24e00),
        "eDEg": (-9.92e-06, 1.55e-07),
        "Co-CLPSO": (-9.34e-06, 1.07e-06),
        "E-ABC": (8.56e-01, 3.01e00),
    },
    "C06": {
        "wrFSS": (2.92e02, 9.40e01),
        "wrFSSe": (-5.65e02, 3.55e00),
        "wrFSSg": (-5.20e00, 1.51e02),
        "wrFSSp": (3.04e02, 8.60e01),
        "eDEg": (-5.79e02, 3.63e-03),
        "Co-CLPSO": (-5.79e02, 5.73e-04),
        "E-ABC": (4.38e02, 8.60e01),
    },
    "C07": {
        "wrFSS": (5.09e05, 3.17e05),
        "wrFSSe": (5.01e00, 6.63e00),
        "wrFSSg": (5.88e09, 4.23e09),
        "wrFSSp": (4.32e05, 2.40e05),
        "eDEg": (0.00e00, 0.00e00),
        "Co-CLPSO": (7.97e-01, 1.63e00),
        "E-ABC": (7.16e01, 5.19e01),
    },
    "C08": {
        "wrFSS": (4.16e09, 2.13e09),
        "wrFSSe": (6.04e01, 1.60e01),
        "wrFSSg": (7.34e09, 3.76e09),
        "wrFSSp": (4.19e09, 2.25e09),
        "eDEg": (6.73e00, 5.56e00),
        "Co-CLPSO": (6.09e-01, 1.43e00),
        "E-ABC": (4.11e02, 9.36e02),
    },
    "C09": {
        "wrFSS": (4.57e12, 2.06e12),
        "wrFSSe": (3.61e06, 1.40e07),
        "wrFSSg": (9.52e12, 4.89e12),
        "wrFSSp": (4.39e12, 1.79e12),
        "eDEg": (0.00e00, 0.00e00),
        "Co-CLPSO": (1.99e10, 9.97e10),
        "E-ABC": (2.02e12, 1.81e12),
    },
}


def known_reference_values(pid: str) -> dict[str, dict[str, float]]:
    """Published per-algorithm fitness statistics for one problem."""
    if pid not in _REFERENCE:
        raise ValueError(f"unknown problem id {pid!r}; choose one of {PROBLEM_IDS}")
    return {
        algo: {"mean": mean, "sd": sd} for algo, (mean, sd) in _REFERENCE[pid].items()
    }
