"""Golden runs: one short run per variant kind on C01 and C08, pinned by sha256.

Two more pin the gradient variant where its probe does most: C07 (sigma 0.5,
so the phase flips between 1 and 2) and C06 (rotated constraints, k = 50).
``SWITCHING`` pins C08 x wrfss and C07 x wrfsse with sigma 0.5, where the
phase changes 83 and 39 times in 200 iterations: every change rebuilds the
individual-movement candidates with the new phase and step. ``SQUARE`` pins a
5-fish run, whose every batch of school and candidates has as many rows as
the problem has dimensions.

Each digest covers the trace CSV bytes as the reports write them, plus the
``repr`` of the record's best fitness, best violation, best position (as a
list, so every float is written in full), evaluation count and probe count.
A change to the random stream, the stage order or any float operation of
the engine changes a digest.

The digests assume this platform's floating point (numpy's kernels and the
BLAS behind it), the same assumption ``perfbench/pins.json`` makes.
"""

import dataclasses
import hashlib

import pytest

from wrfss.harness import _write_trace, paper_preset, run_single

GOLDEN = {
    ("C01", "wrfss"): "eac79dcb252e77147b30c3597c5f7e6ad083051e4aca6402ce39cab5630de777",
    ("C01", "wrfsse"): "668992f55dadfb3384415754a379d67ac09d0215705d51b545a17026223f813c",
    ("C01", "wrfssg"): "7d0f5062e189e9599378acddc08fd1e1a8527c0ad34a479a61acceb5753efcb9",
    ("C01", "wrfssp"): "74427cd7d1cc589c01a7bd547d5700789f8662f4f7fceadcf8653019422706b5",
    ("C08", "wrfss"): "9c5aa2fe82c42ab1e20df1ea1ea7d9aef12648ea826caa27d57a48ec07fa9a76",
    ("C08", "wrfsse"): "aab55d3127dbf80f87a3b29723670f66cf86757ef5b3508caca03fadfe1b5851",
    ("C08", "wrfssg"): "eb00b287a0a5ad4a4d25d440363af26bee5175f40c00633d26cafafd9de290fd",
    ("C08", "wrfssp"): "61d9bca3e73169e8aec8c9d8344d9bd28c2943981d562a79fa54890b476179da",
    ("C07", "wrfssg"): "e5c5dc7d34d0a6b2857d42f36482f18984a3e6d8bf9d6e0e99f830f246b75390",
    ("C06", "wrfssg"): "d01da06ccdbd29eb2aecda7bf8ef388e58b7ac3e68da906a187c75ba98e3e1b6",
}

SWITCHING = {
    ("C08", "wrfss"): "96805ad6d662f5d479da1d6f6fc3409f7234ae6a9400ea2b80bef4cbc09e380e",
    ("C07", "wrfsse"): "dd6517616c67c7207d0b3892caef5a4681c49a30a90812dbdc7c03a20775fd1d",
}


# C08 x wrfssg with 5 fish: each iteration scores its school and candidates
# as one square 10 x 10 batch, and each probe as 11 rows.
SQUARE = ("C08", "wrfssg", "759d2a95bc9899dbd80684289df522da5cd4b63a360ddd618262b1a9b170c203")


def run_digest(problem_id, variant, tmp_path, **overrides):
    config = dataclasses.replace(
        paper_preset(problem_id, variant, desk=True),
        **{"data_source": "surrogate", "n_fish": 10, "iterations": 200, **overrides},
    )
    record = run_single(config, seed=1000)
    trace = tmp_path / "trace.csv"
    _write_trace(trace, record)
    digest = hashlib.sha256(trace.read_bytes())
    for value in (record.best_fitness, record.best_violation, record.best_position.tolist(),
                  record.eval_count, record.probe_count):
        digest.update(repr(value).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("problem_id,variant", list(GOLDEN))
def test_golden_run(problem_id, variant, tmp_path):
    assert run_digest(problem_id, variant, tmp_path) == GOLDEN[problem_id, variant]


@pytest.mark.parametrize("problem_id,variant", list(SWITCHING))
def test_golden_run_with_phase_switches(problem_id, variant, tmp_path):
    assert run_digest(problem_id, variant, tmp_path, sigma=0.5) == SWITCHING[problem_id, variant]


def test_golden_run_with_square_batches(tmp_path):
    problem_id, variant, digest = SQUARE
    assert run_digest(problem_id, variant, tmp_path, n_fish=5) == digest
