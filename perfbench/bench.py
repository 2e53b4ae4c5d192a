"""Benchmark runner for the wrfss package.

Run from the repository root:

    python3 perfbench/bench.py --workload desk-batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/bench.py --workload gradient-probe --seed 1 --seconds 25 --trace 1
    python3 perfbench/bench.py --workload feasibility-sampling --seed 1 --seconds 2 --trace 0 --smoke
    python3 perfbench/bench.py --write-pins

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the same metrics for a reader. A fuller result file goes to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-batch", "gradient-probe", "feasibility-sampling")
# Every pool thread count numpy's BLAS or an OpenMP runtime might read; they
# only take effect when set before numpy is first imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="wrfss benchmark runner")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="few iterations, seeds and samples")
    p.add_argument("--write-pins", action="store_true", help="regenerate perfbench/pins.json")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if "numpy" in sys.modules:
        print("error: numpy was imported before the thread variables were set", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    src = ROOT / "src"
    if not (src / "wrfss" / "__init__.py").is_file():
        print("error: no wrfss sources under src/ of this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import wrfss

    if src.resolve() not in Path(wrfss.__file__).resolve().parents:
        print("error: wrfss was not imported from src/ of this checkout", file=sys.stderr)
        return 2

    import workloads

    if args.write_pins:
        workloads.write_pins()
        return 0
    result = workloads.measure(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
