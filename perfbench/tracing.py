"""Span tracing of the benchmark's calls into each layer of ``repro``.

The tracer measures the program from outside.  :meth:`Tracer.install`
replaces selected public functions and methods of ``repro`` with thin
wrappers that record one span per call — name, start, end, parent span,
run id and an optional tuple of work counts — and :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` knows it is being traced,
and untraced runs execute the unmodified program.

Functions that a module imported by name are wrapped where they are looked
up (``prepare_run`` inside the vectorized backend, ``sample_rows`` inside
each kernel module, the checkpoint writers inside the sharded executor).

Sharded worker processes are forked, so they inherit the wrappers.  Each
worker starts with an empty span list and writes its spans to
``spans-<pid>.json`` in the trace directory when it finishes;
:func:`load_worker_spans` reads and removes those files so the benchmark can
merge them with its own.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# Span record layout (a list, so the end time can be filled in place).
NAME, START, END, PARENT, RUN_ID, WORK = range(6)

try:
    _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # non-POSIX platforms
    _PAGE_BYTES = 4096


def current_rss_bytes() -> int:
    """Resident set size of this process now (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_BYTES
    except OSError:
        return 0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, work=None, before=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``before(args)`` runs just before the call and ``work(args, result,
        state)`` just after it, where ``state`` is what ``before`` returned;
        ``work`` returns a tuple of counts summed per span name.  A call made
        from inside a span of the same name (a ``super()`` chain) is not
        recorded twice.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._open
            if stack and spans[stack[-1]][NAME] == name:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            record = [
                name,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else None,
                tracer.run_id,
                (),
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                record[WORK] = work(args, result, state)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_worker_entry(self, owner, attr: str, directory: Path) -> None:
        """Make each forked worker trace from scratch and dump its spans."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def entry(*args, **kwargs):
            tracer.spans = []
            tracer._open = []
            try:
                return original(*args, **kwargs)
            finally:
                tracer.dump(directory / f"spans-{os.getpid()}.json")

        setattr(owner, attr, entry)
        self._patches.append((owner, attr, original))

    def install(self, worker_dir: Path) -> None:
        for owner, attr, name, work, before in layer_hooks():
            self.wrap(owner, attr, name, work, before)
        from repro.sim.sharded import executor

        self.wrap_worker_entry(executor, "_shard_worker", worker_dir)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_worker_spans(directory: Path) -> list[list[list]]:
    """Span lists written by finished workers (one per process), removed."""
    found = []
    for path in sorted(directory.glob("spans-*.json")):
        found.append(json.loads(path.read_text()))
        path.unlink()
    return found


def aggregate(spans: list[list], totals: dict | None = None) -> dict:
    """Fold one process's spans into ``name -> [calls, s, self_s, work]``.

    A span's self time is its duration minus the durations of its direct
    children (spans of one process nest, so children never overlap).
    """
    totals = {} if totals is None else totals
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_seconds[span[PARENT]] += span[END] - span[START]
    for index, span in enumerate(spans):
        entry = totals.get(span[NAME])
        if entry is None:
            entry = totals[span[NAME]] = [0, 0.0, 0.0, []]
        duration = span[END] - span[START]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_seconds[index]
        work = entry[3]
        for position, count in enumerate(span[WORK]):
            if position < len(work):
                work[position] += count
            else:
                work.append(count)
    return totals


# ----------------------------------------------------------------- layers

#: Policies whose batch kernels get their own selection/update spans.
KERNEL_POLICIES = ("exp3", "smart_exp3", "greedy")


def _rows(args, result, state):
    return (int(args[0].shape[0]),)


def _window_rows(args, result, state):
    kernel, n_slots = args[0], args[1]
    return (kernel.size if kernel.uses_slot_draws and n_slots >= 1 else 0,)


def _window_slots(args, result, state):
    return (int(args[1].n_slots),)


def _draws(args, result, state):
    return (len(args[1]),)


def _rss_before(args):
    return current_rss_bytes()


def _rss_growth(args, result, state):
    return (current_rss_bytes() - state, len(result))


def _checkpoint_bytes(args, result, state):
    from repro.sim.sharded.checkpoint import shard_file_name

    engines = args[2]
    size = sum(
        (result / shard_file_name(engine.spec.index)).stat().st_size
        for engine in engines
    )
    return (size, sum(engine.spec.num_devices for engine in engines))


def layer_hooks() -> list[tuple]:
    """``(owner, attribute, span name, work, before)`` for every traced call."""
    from repro.algorithms.kernels import base as kernel_base
    from repro.algorithms.kernels import exp3 as kernel_exp3
    from repro.algorithms.kernels import full_information as kernel_full
    from repro.algorithms.kernels import smart_exp3 as kernel_smart
    from repro.algorithms.kernels.greedy import GreedyKernel
    from repro.analysis.reducers import RowsReducer, SummaryReducer
    from repro.sim import runner
    from repro.sim.backends import base as backend_base
    from repro.sim.backends import vectorized
    from repro.sim.backends.membership import MembershipState
    from repro.sim.environment import WirelessEnvironment
    from repro.sim.sharded import engine as shard_engine
    from repro.sim.sharded import executor as sharded
    from repro.sim.sharded.bus import SharedMemoryBus

    batch = kernel_base.BatchKernel
    hooks = [
        (runner, "run_many", "runner.run_many", None, None),
        (vectorized.VectorizedSlotExecutor, "execute", "executor.execute", None, None),
        (vectorized, "prepare_run", "prepare_run", None, None),
        (backend_base, "build_policies", "build_policies", _rss_growth, _rss_before),
        (shard_engine, "build_policies", "build_policies", _rss_growth, _rss_before),
        (backend_base.SlotRecorder, "result", "recorder.result", None, None),
        (batch, "prepare_window", "kernels.prepare_window", _window_rows, None),
        (batch, "advance_window", "kernels.advance_window", _window_slots, None),
        (kernel_exp3.EXP3Kernel, "advance_window", "kernels.advance_window", _window_slots, None),
        (batch, "remove_rows", "kernels.remove_rows", None, None),
        (batch, "absorb", "kernels.absorb", None, None),
        (MembershipState, "apply_events", "membership.apply_events", None, None),
        (WirelessEnvironment, "realized_rates", "environment.realized_rates", None, None),
        (WirelessEnvironment, "switching_delays", "environment.switching_delays", _draws, None),
        (RowsReducer, "map", "reducers.map", None, None),
        (RowsReducer, "merge", "reducers.merge", None, None),
        (SummaryReducer, "shard_map", "reducers.shard_map", None, None),
        (SummaryReducer, "shard_merge", "reducers.merge", None, None),
        (sharded.ShardedSlotExecutor, "execute_population", "sharded.execute_population", None, None),
        (sharded.ShardedSlotExecutor, "_attempt_parallel", "sharded.attempt", None, None),
        (shard_engine.ShardEngine, "begin", "shard_engine.begin", None, None),
        (shard_engine.ShardEngine, "observe", "shard_engine.observe", None, None),
        (shard_engine.ShardEngine, "complete", "shard_engine.complete", None, None),
        (SharedMemoryBus, "reduce_counts", "bus.reduce_counts", None, None),
        (SharedMemoryBus, "exchange_switchers", "bus.exchange_switchers", None, None),
        (sharded, "write_shard_states", "checkpoint.write_shard_states", _checkpoint_bytes, None),
        (sharded, "commit_manifest", "checkpoint.commit_manifest", None, None),
    ]
    kernels = {  # keyed like KERNEL_POLICIES
        "exp3": kernel_exp3.EXP3Kernel,
        "smart_exp3": kernel_smart.SmartEXP3Kernel,
        "greedy": GreedyKernel,
    }
    for policy, kernel in kernels.items():
        hooks.append((kernel, "begin_slot", f"kernels.{policy}.begin_slot", None, None))
        hooks.append((kernel, "end_slot", f"kernels.{policy}.end_slot", None, None))
    for module in (kernel_exp3, kernel_smart, kernel_full):
        hooks.append((module, "sample_rows", "kernels.sample_rows", _rows, None))
    return hooks


# ------------------------------------------------------------ per-layer

#: Every per-layer metric: name -> unit.  Times and counts are per measured
#: run (the traced pass replays a time-bounded number of runs) and summed
#: over the processes of a run, so sharded times add up both workers.
PER_LAYER = {
    "runner.self_s": "s/run",
    "prepare_run.calls": "calls/run",
    "prepare_run.s": "s/run",
    "build_policies.s": "s/run",
    "build_policies.rss_bytes_per_device": "B/device",
    "recorder.result.s": "s/run",
    "executor.self_s": "s/run",
    "executor.coverage": "ratio",
    **{
        f"kernels.{policy}.{name}": unit
        for policy in KERNEL_POLICIES
        for name, unit in (
            ("begin_slot.calls", "calls/run"),
            ("begin_slot.s", "s/run"),
            ("end_slot.s", "s/run"),
        )
    },
    "kernels.sample_rows.calls": "calls/run",
    "kernels.sample_rows.rows_per_call": "rows/call",
    "kernels.prepare_window.calls": "calls/run",
    "kernels.prepare_window.s": "s/run",
    "kernels.prepare_window.rows": "rows/run",
    "kernels.advance_window.calls": "calls/run",
    "kernels.advance_window.s": "s/run",
    "kernels.advance_window.slots_per_call": "slots/call",
    "kernels.remove_rows.calls": "calls/run",
    "kernels.remove_rows.s": "s/run",
    "kernels.absorb.calls": "calls/run",
    "kernels.absorb.s": "s/run",
    "membership.apply_events.calls": "calls/run",
    "membership.apply_events.s": "s/run",
    "environment.realized_rates.calls": "calls/run",
    "environment.realized_rates.s": "s/run",
    "environment.switching_delays.calls": "calls/run",
    "environment.switching_delays.s": "s/run",
    "environment.switching_delays.draws": "draws/run",
    "reducers.map.s": "s/run",
    "reducers.shard_map.s": "s/run",
    "reducers.merge.s": "s/run",
    "shard_engine.begin.s": "s/run",
    "shard_engine.complete.s": "s/run",
    "shard_engine.self_s": "s/run",
    "bus.reduce_counts.calls": "calls/run",
    "bus.reduce_counts.s": "s/run",
    "bus.exchange_switchers.calls": "calls/run",
    "bus.exchange_switchers.s": "s/run",
    "checkpoint.write_shard_states.calls": "calls/run",
    "checkpoint.write_shard_states.s": "s/run",
    "checkpoint.commit_manifest.s": "s/run",
    "checkpoint.bytes_per_device": "B/device",
    "sharded.restarts": "count",
    "trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict, runs: int, overhead: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from aggregated spans of ``runs`` runs.

    A layer that never ran reports 0.
    """
    empty = [0, 0.0, 0.0, []]

    def calls(name):
        return totals.get(name, empty)[0]

    def seconds(name):
        return totals.get(name, empty)[1]

    def self_seconds(name):
        return totals.get(name, empty)[2]

    def work(name, position=0):
        counts = totals.get(name, empty)[3]
        return counts[position] if position < len(counts) else 0

    values = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls(span) / runs
        elif field == "s":
            values[metric] = seconds(span) / runs
    values["runner.self_s"] = self_seconds("runner.run_many") / runs
    values["build_policies.rss_bytes_per_device"] = _ratio(
        work("build_policies", 0), work("build_policies", 1)
    )
    execute = seconds("executor.execute")
    values["executor.self_s"] = self_seconds("executor.execute") / runs
    values["executor.coverage"] = _ratio(
        execute - self_seconds("executor.execute"), execute
    )
    values["kernels.sample_rows.rows_per_call"] = _ratio(
        work("kernels.sample_rows"), calls("kernels.sample_rows")
    )
    values["kernels.prepare_window.rows"] = work("kernels.prepare_window") / runs
    values["kernels.advance_window.slots_per_call"] = _ratio(
        work("kernels.advance_window"), calls("kernels.advance_window")
    )
    values["environment.switching_delays.draws"] = (
        work("environment.switching_delays") / runs
    )
    values["shard_engine.self_s"] = (
        sum(
            self_seconds(f"shard_engine.{phase}")
            for phase in ("begin", "observe", "complete")
        )
        / runs
    )
    values["checkpoint.bytes_per_device"] = _ratio(
        work("checkpoint.write_shard_states", 0),
        work("checkpoint.write_shard_states", 1),
    )
    values["sharded.restarts"] = calls("sharded.attempt") - calls(
        "sharded.execute_population"
    )
    values["trace_overhead"] = overhead
    return values
