"""Module-boundary spans for the traced benchmark run.

A :class:`Tracer` replaces public names of the ``wrfss`` modules with timing
wrappers for the duration of a ``with`` block and puts every original back on
exit, also when the block raises, so an untraced run never executes wrapped
code. Spans are aggregated in memory as they close: per layer, the number of
calls, the time inside the call, and the self time (the time inside minus the
time inside wrapped calls it made).

Counting done by a hook after a call is timed separately as bookkeeping and
is charged neither to the wrapped layer nor to its caller, so for the traced
section::

    sum(self_s over layers) + bookkeeping_s == total_s

up to rounding, where ``total_s`` is the summed duration of top-level spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from wrfss import cec2010, constraint_handling, engine, harness, school


@dataclass
class Layer:
    calls: int = 0
    inside_s: float = 0.0
    self_s: float = 0.0


class _RunState:
    """What the evaluation hook needs to know about the engine run it is in."""

    def __init__(self, n_fish: int, kind: str):
        self.n_fish = n_fish
        self.kind = kind
        self.full_calls = 0  # n_fish-row evaluate_many calls so far in this run
        self.prev_start: np.ndarray | None = None
        self.prev_candidates: np.ndarray | None = None


class Tracer:
    """Wraps the wrfss layer boundaries while active; see the module docstring."""

    def __init__(self):
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self.counters: dict[str, float] = defaultdict(float)
        self.total_s = 0.0
        self.bookkeeping_s = 0.0
        self._open: list[list[float]] = []  # time inside wrapped children, per open span
        self._patches: list[tuple[object, str, object]] = []
        self._run: _RunState | None = None

    # -- wrapping -----------------------------------------------------------

    def _charge(self, dt: float) -> None:
        if self._open:
            self._open[-1][0] += dt
        else:
            self.total_s += dt

    def span(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span named ``name``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result, seconds)``
        run outside the span and are timed as bookkeeping.
        """
        clock = time.perf_counter
        layer = self.layers[name]
        open_spans = self._open

        def wrapped(*args, **kwargs):
            if before is not None:
                tb = clock()
                before(args, kwargs)
                dt = clock() - tb
                self.bookkeeping_s += dt
                self._charge(dt)
            child = [0.0]
            open_spans.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                layer.calls += 1
                layer.inside_s += t1 - t0
                layer.self_s += (t1 - t0) - child[0]
                self._charge(t1 - t0)
            if after is not None:
                after(args, kwargs, result, t1 - t0)
                dt = clock() - t1
                self.bookkeeping_s += dt
                self._charge(dt)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def count(self, name, fn):
        """``fn`` wrapped to count its calls; its time stays with the caller."""

        def wrapped(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until the tracer exits."""
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the wrfss boundaries ----------------------------------------------

    def _install(self) -> None:
        self.patch(harness, "run_batch", lambda f: self.span("harness.run_batch", f))
        self.patch(harness, "run_single", lambda f: self.span("harness.run_single", f))
        self.patch(harness, "emit_reports", lambda f: self.span("harness.emit_reports", f))
        # harness calls the engine through its own module-level name.
        self.patch(
            harness, "run",
            lambda f: self.span("engine.run", f, before=self._run_begins, after=self._run_ends),
        )
        for module in (engine, cec2010):
            self.patch(
                module, "evaluate_many",
                lambda f: self.span("problem.evaluate_many", f, after=self._evaluated),
            )
        self.patch(
            engine, "link_formator",
            lambda f: self.span("niching.link_formator", f, after=self._linked),
        )
        for attr in ("best_index", "epsilon_less_arrays", "normalized_feeding"):
            self.patch(engine, attr, lambda f, a=attr: self.span(f"constraint_handling.{a}", f))
        self.patch(
            constraint_handling.RunningExtremes, "update",
            lambda f: self.span("constraint_handling.RunningExtremes.update", f),
        )
        self.patch(school.StepSchedule, "at", lambda f: self.span("school.StepSchedule.at", f))
        self.patch(school.StepSchedule, "boost", lambda f: self.count("school.boosts", f))
        self.patch(cec2010, "load_problem", lambda f: self.span("cec2010.load_problem", f))
        self.patch(
            cec2010, "feasible_ratio",
            lambda f: self.span("cec2010.feasible_ratio", f, after=self._sampled),
        )

    def _run_begins(self, args, kwargs) -> None:
        params = kwargs.get("params", engine.EngineParams())
        variant = kwargs.get("variant", engine.Variant())
        self._run = _RunState(params.n_fish, variant.kind)

    def _run_ends(self, args, kwargs, record, seconds) -> None:
        self._run = None

    def _evaluated(self, args, kwargs, result, seconds) -> None:
        problem, points = args[0], args[1]
        rows, dim = points.shape
        c = self.counters
        c["problem.evaluate_many.rows"] += rows
        c["problem.bytes_in_computed"] += rows * dim * 8
        run = self._run
        if run is None:
            return
        if run.kind == "gradient" and rows == dim + 1 and rows != run.n_fish:
            c["gradient.probe_eval.calls"] += 1
            c["gradient.probe_eval.self_s"] += seconds
            return
        if rows != run.n_fish:
            return
        # Per run, n_fish-row calls go: initial school, then per iteration the
        # start-of-iteration re-evaluation (odd) and the candidates (even).
        k = run.full_calls
        run.full_calls += 1
        if k % 2 == 1:
            same = np.all(points == run.prev_start, axis=1)
            if run.prev_candidates is not None:
                same |= np.all(points == run.prev_candidates, axis=1)
            c["problem.start_rows"] += rows
            c["problem.rescored_rows"] += int(same.sum())
            run.prev_start = points.copy()
        elif k == 0:
            run.prev_start = points.copy()
        else:
            run.prev_candidates = points.copy()

    def _linked(self, args, kwargs, result, seconds) -> None:
        before = args[1].leader
        after = result.leader
        self.counters["niching.links"] += int((after >= 0).sum())
        self.counters["niching.link_changes"] += int((after != before).sum())

    def _sampled(self, args, kwargs, ratio, seconds) -> None:
        problem, samples = args[0], args[1]
        self.counters[f"cec2010.{problem.name}.points"] += samples
        self.counters[f"cec2010.{problem.name}.seconds"] += seconds
