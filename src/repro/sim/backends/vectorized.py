"""Vectorized backend: the whole population in one in-process slot engine.

The run goes to one :class:`~repro.sim.sharded.engine.ShardEngine` holding
every device — the batched slot pipeline each shard of the sharded backend
also runs.  Per slot the driver calls :meth:`ShardEngine.begin` (topology
edits, batched-kernel / scalar / frozen selection), :meth:`ShardEngine.observe`
(equal-share or generic physics, recording), resolves the switching delays
(a per-network table for stream-free delay models, the environment stream
in ascending device order otherwise) and calls :meth:`ShardEngine.complete`
(gain feedback).  Membership-stable epochs that one kernel covers advance as
fused windows (:meth:`ShardEngine.advance_epoch`) unless
``fuse_windows=False``.  Bit-exactness with the event backend follows from
the engine's RNG-stream contract (see :mod:`repro.sim.sharded.engine`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.profiling import profile_run
from repro.sim.backends.base import SlotExecutor, prepare_run
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario
from repro.sim.sharded.engine import ShardEngine
from repro.telemetry import get_telemetry


class VectorizedSlotExecutor(SlotExecutor):
    """One whole-population :class:`ShardEngine`, driven slot by slot."""

    name = "vectorized"

    def __init__(
        self, use_kernels: bool = True, fuse_windows: bool = True
    ) -> None:
        #: When False, every learning policy takes the per-device scalar path;
        #: kept addressable as the ``"vectorized-nokernel"`` backend so
        #: benchmarks can measure the kernel layer in isolation.
        self.use_kernels = use_kernels
        #: When True (default), eligible membership-stable epochs advance as
        #: fused windows (interpreted: bit-exact; compiled via numba when
        #: opted in: distribution-exact).  ``fuse_windows=False`` is the
        #: per-slot baseline the compiled benchmark suite measures against.
        self.fuse_windows = fuse_windows and use_kernels
        # The registry key of this configuration, so profiles and telemetry
        # tag runs with the backend that actually produced them.
        if not use_kernels:
            self.name = "vectorized-nokernel"
        elif not fuse_windows:
            self.name = "vectorized-nofuse"

    def execute(
        self,
        scenario: Scenario,
        seed: int = 0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        state = prepare_run(scenario, seed, record_probabilities)
        engine = ShardEngine.from_run(state, self.use_kernels)
        environment = state.environment
        num_slots = state.num_slots
        num_devices = len(state.device_ids)
        prof = profile_run(self.name)
        tele = get_telemetry()
        window_reasons: dict[str, int] | None = None
        run_started = 0.0
        if tele is not None:
            window_reasons = {}
            run_started = time.perf_counter()
            tele.event(
                "run_start",
                tag=self.name,
                devices=num_devices,
                slots=num_slots,
                scenario=getattr(scenario, "name", None),
            )

        # Stream-free delay models (NoDelay, Constant) draw nothing from the
        # environment RNG, so a per-network table replaces the per-switcher
        # sampling calls bit-exactly.
        delay_table = None
        if getattr(scenario.delay_model, "stream_free", False):
            delay_table = np.asarray(
                [environment.switching_delay(int(n)) for n in engine.net_ids],
                dtype=float,
            )
        fuse = self.fuse_windows and delay_table is not None

        # Epochs run between topology events; slots before the first event
        # have no device present.
        boundaries = [*state.topology.event_slots, num_slots + 1]
        for start, end in zip(boundaries, boundaries[1:]):
            if fuse:
                t0 = prof.now() if prof is not None else 0.0
                if engine.advance_epoch(start, end, delay_table, window_reasons):
                    if prof is not None:
                        prof.add("fused_window", t0)
                    continue
            for slot in range(start, end):
                if prof is not None:
                    t = prof.now()
                counts = engine.begin(slot)
                if prof is not None:
                    t = prof.add("sampling", t)
                rows, nets = engine.observe(slot, counts)
                if prof is not None:
                    t = prof.add("physics", t)
                if not rows.size:
                    delays = ()
                elif delay_table is not None:
                    delays = delay_table[np.searchsorted(engine.net_ids, nets)]
                else:
                    delays = environment.switching_delays(nets.tolist())
                if prof is not None:
                    t = prof.add("delays", t)
                engine.complete(slot, delays)
                if prof is not None:
                    prof.add("reward", t)

        # Scatter every surviving kernel group back into the scalar policies
        # so the result assembly (reset counts) sees the scalar-path state.
        engine.flush_policies()

        if prof is not None:
            prof.devices = num_devices
            prof.slots = num_slots
            # state.seed is the resolved integer label (``seed`` itself may
            # be a RunSeed/SeedSequence, which is not JSON-serialisable).
            prof.emit(scenario=getattr(scenario, "name", None), seed=state.seed)
        if tele is not None:
            if window_reasons:
                tele.event(
                    "fused_windows",
                    tag=self.name,
                    windows=sum(window_reasons.values()),
                    reasons=window_reasons,
                )
            seconds = time.perf_counter() - run_started
            tele.event(
                "run_end",
                tag=self.name,
                seconds=round(seconds, 6),
                device_slots_per_second=(
                    round(num_devices * num_slots / seconds, 1)
                    if seconds > 0
                    else None
                ),
            )
        return state.finish()
