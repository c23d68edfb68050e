"""Vectorized backend: the whole population in one in-process slot engine.

The run goes to one :class:`~repro.sim.sharded.engine.ShardEngine` holding
every device — the batched slot pipeline each shard of the sharded backend
also runs — and the sharded executor's lockstep driver
(:func:`repro.sim.sharded.executor._run_group`) advances it on the serial
bus, with the run's own environment serving both the generic physics and
the switching delays.  The driver owns the slot loop, the delay resolution,
the fused-window epochs (unless ``fuse_windows=False``) and the phase
profile, tagged with this backend's registry key.  Bit-exactness with the
event backend follows from the engine's RNG-stream contract (see
:mod:`repro.sim.sharded.engine`).
"""

from __future__ import annotations

import time

from repro.sim.backends.base import SlotExecutor, prepare_run
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario
from repro.sim.sharded.bus import SerialBus
from repro.sim.sharded.engine import ShardEngine
from repro.sim.sharded.executor import RunParams, _run_group
from repro.telemetry import get_telemetry


class VectorizedSlotExecutor(SlotExecutor):
    """One whole-population :class:`ShardEngine` on the lockstep driver."""

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
        num_devices = len(state.device_ids)
        tele = get_telemetry()
        if tele is not None:
            run_started = time.perf_counter()
            tele.event(
                "run_start",
                tag=self.name,
                devices=num_devices,
                slots=state.num_slots,
                scenario=getattr(scenario, "name", None),
            )
        # The driver assembles the engine's result, which is state.finish().
        (result,) = _run_group(
            [engine],
            SerialBus(),
            state.environment,
            RunParams(
                num_slots=state.num_slots,
                # The resolved integer label (``seed`` itself may be a
                # RunSeed/SeedSequence, which is not JSON-serialisable).
                seed_label=state.seed,
                coupled=not getattr(scenario.delay_model, "stream_free", False),
            ),
            tag=self.name,
            fuse_windows=self.fuse_windows,
        )
        if tele is not None:
            seconds = time.perf_counter() - run_started
            tele.event(
                "run_end",
                tag=self.name,
                seconds=round(seconds, 6),
                device_slots_per_second=(
                    round(num_devices * state.num_slots / seconds, 1)
                    if seconds > 0
                    else None
                ),
            )
        return result
