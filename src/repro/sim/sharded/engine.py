"""The per-shard lockstep execution engine.

A :class:`ShardEngine` owns one shard of the device population and advances
it slot by slot through a three-phase protocol driven by the executor (or a
worker process):

1. :meth:`begin` — apply the slot's topology events, run policy selection
   (batched kernels / scalar fallback / frozen rows, exactly the vectorized
   backend's machinery) and return the shard's *local* per-network occupancy
   counts.
2. *(all-reduce outside the engine: local counts sum to global counts)*
3. :meth:`observe` — consume the **global** counts: equal-share rates and
   recording for the shard's active rows, switch detection; returns the
   shard's switching rows so the caller can resolve switching delays (drawn
   locally for stream-free delay models, or via the replicated
   global-order draw for stochastic ones — see
   :mod:`repro.sim.sharded.executor`).
4. :meth:`complete` — charge the delays, feed realised gains back into the
   kernels / scalar policies, record probabilities.

The congestion game makes this exchange sufficient: per-device equal-share
rates (and the Full Information counterfactuals) depend on the choices of
other devices only through the ``(networks,)``-sized occupancy vector, so a
shard never needs to see a peer shard's per-device state.

Bit-exactness with the vectorized backend holds because every RNG stream is
consumed identically: per-device policy streams come from the same globally
derived seeds (:func:`~repro.sim.backends.base.derive_run_streams`), kernels
replicate the scalar draws row for row, and the environment stream is either
untouched (stream-free delay models, equal-share physics draws nothing) or
replayed in the same global ascending-device order on every shard's replica.
Unlike the vectorized executor there are no multi-slot epoch fast paths —
lockstep synchronisation is per slot by construction — so the engine is the
per-slot counterpart of :class:`~repro.sim.backends.vectorized.VectorizedSlotExecutor`
(see that module for the semantics the membership-edit code mirrors).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

import repro.algorithms.kernels  # noqa: F401  (registers the built-in kernels)
from repro.algorithms.base import Observation
from repro.algorithms.kernels.base import SlotFeedback
from repro.sim.backends.base import SlotRecorder, TopologyPlan, build_policies
from repro.sim.backends.membership import FROZEN as _FROZEN, MembershipState
from repro.sim.metrics import NO_NETWORK, SimulationResult
from repro.sim.sharded.plan import ShardSpec


_U64 = (1 << 64) - 1

def _pack_rng_states(policies) -> tuple:
    """Pack per-row bit-generator states into columnar arrays.

    The default generator (PCG64) carries a 128-bit state and a 128-bit
    increment: six unsigned-64 columns hold an entire kernel group, which
    pickles orders of magnitude faster than one nested state dict per row.
    Mixed or non-PCG64 groups fall back to the raw per-row dicts.
    """
    bitgens = [p.rng.bit_generator for p in policies]
    if not all(type(bg) is np.random.PCG64 for bg in bitgens):
        return ("raw", [bg.state for bg in bitgens])
    n = len(bitgens)
    columns = np.empty((6, n), dtype=np.uint64)
    for i, bg in enumerate(bitgens):
        d = bg.state
        s = d["state"]["state"]
        inc = d["state"]["inc"]
        columns[0, i] = s >> 64
        columns[1, i] = s & _U64
        columns[2, i] = inc >> 64
        columns[3, i] = inc & _U64
        columns[4, i] = d["has_uint32"]
        columns[5, i] = d["uinteger"]
    return ("pcg64", columns)


def _iter_rng_states(packed: tuple):
    """Yield one bit-generator state dict per row from a packed tuple."""
    tag, payload = packed
    if tag == "raw":
        yield from payload
        return
    state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger = payload
    for i in range(payload.shape[1]):
        yield {
            "bit_generator": "PCG64",
            "state": {
                "state": (int(state_hi[i]) << 64) | int(state_lo[i]),
                "inc": (int(inc_hi[i]) << 64) | int(inc_lo[i]),
            },
            "has_uint32": int(has_uint32[i]),
            "uinteger": int(uinteger[i]),
        }


class _RecorderStub:
    """Placeholder for a freshly-reset recorder inside a checkpoint pickle.

    When a checkpoint lands right after a window flush, the recorder blocks
    have just been zeroed (:meth:`ShardEngine.reset_window`), so the
    snapshot stores this stub instead of tens of megabytes of zeros and the
    restore path rebuilds an identical empty :class:`SlotRecorder`.
    """

    __slots__ = ("width", "record_probabilities", "dtype")

    def __init__(
        self, width: int, record_probabilities: bool, dtype: str
    ) -> None:
        self.width = width
        self.record_probabilities = record_probabilities
        self.dtype = dtype

    def __getstate__(self) -> tuple:
        return (self.width, self.record_probabilities, self.dtype)

    def __setstate__(self, state: tuple) -> None:
        self.width, self.record_probabilities, self.dtype = state


class ShardEngine:
    """One shard's devices, policies, topology and recorder."""

    def __init__(
        self,
        spec: ShardSpec,
        policy_seeds: np.ndarray,
        seed_label: int,
        num_slots: int,
        record_probabilities: bool = True,
        dtype: str = "float64",
        window: int | None = None,
    ) -> None:
        scenario = spec.materialize()
        self.spec = spec
        self.scenario = scenario
        self.seed_label = seed_label
        self.num_slots = num_slots
        #: Offset of this shard's row 0 in the global row order.
        self.row_offset = spec.lo
        #: Kept for the columnar checkpoint codec: restoring a snapshot
        #: rebuilds the scalar policy objects of kernel-resident rows from
        #: these seeds instead of pickling 10^5 tiny Python objects.
        self._policy_seeds = np.asarray(policy_seeds)
        self.runtimes = build_policies(scenario, policy_seeds, spec.policy_ranks)
        self.device_ids = tuple(sorted(self.runtimes))
        self.runtimes_by_row = [self.runtimes[d] for d in self.device_ids]
        self.policies_by_row = [rt.policy for rt in self.runtimes_by_row]
        num_devices = len(self.device_ids)

        self.network_order = tuple(sorted(scenario.network_map))
        self.num_networks = len(self.network_order)
        self.net_ids = np.asarray(self.network_order, dtype=np.int64)
        self.bandwidths = np.asarray(
            [scenario.network_map[k].bandwidth_mbps for k in self.network_order],
            dtype=float,
        )
        self.scale_ref = float(scenario.scale_reference_mbps)

        self.window = min(int(window), num_slots) if window else None
        width = self.window or num_slots
        self.recorder = SlotRecorder(
            self.device_ids,
            self.network_order,
            width,
            record_probabilities,
            dtype,
        )
        if window and self.recorder.probabilities is not None:
            raise ValueError(
                "windowed execution requires record_probabilities=False"
            )
        #: 0-based slot index of the recorder's column 0.
        self.col_base = 0

        self.topology = TopologyPlan(
            scenario,
            [self.runtimes[d].spec.device for d in self.device_ids],
            num_slots,
        )
        self.network_col = self.recorder.network_col

        # ---- persistent run state (the membership layer shared with the
        # vectorized backend owns the execution classes, kernel groups and
        # frozen bookkeeping, and applies topology events in place)
        self.membership = MembershipState(self.runtimes_by_row, self.recorder)
        self.needs_feedback = any(
            p.needs_full_feedback for p in self.policies_by_row
        )
        self.choice_col = np.zeros(num_devices, dtype=np.intp)
        self.prev_col = np.full(num_devices, -1, dtype=np.intp)
        self._layout_dirty = True
        self._kernel_pos: dict[int, np.ndarray | None] = {}
        self._fallback_list: list = []
        self._act_rows = np.empty(0, dtype=np.intp)
        self._act_cols = np.empty(0, dtype=np.intp)
        self._rates_act = np.empty(0, dtype=float)
        self._switch_rows = np.empty(0, dtype=np.intp)
        #: Checkpoint cadence in slots (set by the executor when durability
        #: is on): kernel draw windows truncate here so a snapshot never has
        #: to carry a partially consumed uniform buffer.
        self.draw_barrier_every: int | None = None
        self._event_slot_list = sorted(self.topology.events)
        #: Why draw windows ended (reason -> count), for telemetry's
        #: ``fused_windows`` events.  Always-on: one dict update per window
        #: (not per slot) is noise next to the window's array work.
        self.window_truncations: dict[str, int] = {}

    # ------------------------------------------------------- checkpointing
    #
    # The naive snapshot — pickle the whole engine — serializes ~5 small
    # Python objects per device (runtime, spec, device, policy, generator),
    # which costs tens of microseconds per device and dominates checkpoint
    # time at megascale.  The columnar codec below instead stores the kernel
    # groups' array state plus one packed RNG state per row, and rebuilds
    # the scalar policy objects of kernel-resident rows from their seeds at
    # restore time.  That is exact because a kernel-resident row's scalar
    # policy is a stale husk by construction: the membership layer always
    # scatters the batched state back into it (``kernel.remove_rows`` /
    # ``flush``) before anything reads it again, so the only live per-row
    # state outside the kernel arrays is the shared RNG and the visible
    # network set — both restored explicitly.  Rows *not* resident in a
    # kernel (scalar fallback, frozen, departed-after-running) do carry live
    # scalar state and are pickled in full.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        drop_recorder = state.pop("_snapshot_drop_recorder", False)
        for name in ("_kernel_pos", "_fallback_list"):
            state.pop(name, None)
        membership = self.membership
        if not membership.kernel_of:
            # No kernel-resident rows: every scalar policy is live state.
            return state
        for name in (
            "runtimes",
            "runtimes_by_row",
            "policies_by_row",
            "membership",
        ):
            state.pop(name, None)
        if drop_recorder:
            # The caller (checkpoint write, post window-flush) certifies the
            # recorder blocks were just reset: rebuild zeros at restore.
            recorder = self.recorder
            state["recorder"] = _RecorderStub(
                width=recorder.num_slots,
                record_probabilities=recorder.probabilities is not None,
                dtype=str(recorder.rates.dtype),
            )
            state.pop("network_col", None)
        kernels = []
        for key, kernel in membership.kernels_by_key.items():
            kernel_vars = {
                name: value
                for name, value in vars(kernel).items()
                if name not in ("recorder", "policies", "runtimes", "rngs")
            }
            kernels.append(
                (key, kernel_vars, _pack_rng_states(kernel.policies))
            )
        kernel_rows = membership.kernel_of
        state["_columnar"] = {
            "category": membership.category,
            "active": membership.active,
            "fallback_rows": membership.fallback_rows,
            "frozen_dirty": membership.frozen_dirty,
            "frozen_probs": membership.frozen_probs,
            "kernels": kernels,
            "scalar_rows": {
                row: runtime
                for row, runtime in enumerate(membership.runtimes_by_row)
                if row not in kernel_rows
            },
        }
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore from a checkpoint pickle.

        The kernel-position cache is keyed by ``id(kernel)`` — object
        identities do not survive serialization, so the layout is marked
        dirty and rebuilt lazily on the first post-restore slot.  Columnar
        snapshots additionally rebuild the scalar policy objects from their
        seeds, restore each row's RNG state and visible set, and rewire the
        kernels' row references (see ``__getstate__``).
        """
        columnar = state.pop("_columnar", None)
        self.__dict__.update(state)
        self._kernel_pos = {}
        self._fallback_list = []
        self._layout_dirty = True
        # Snapshots written by older engine versions predate the draw-window
        # machinery; default it off and rebuild the event-slot index.
        self.__dict__.setdefault("draw_barrier_every", None)
        self.__dict__.setdefault(
            "_event_slot_list", sorted(self.topology.events)
        )
        self.__dict__.setdefault("window_truncations", {})
        recorder = self.__dict__.get("recorder")
        if isinstance(recorder, _RecorderStub):
            recorder = SlotRecorder(
                self.device_ids,
                self.network_order,
                recorder.width,
                recorder.record_probabilities,
                recorder.dtype,
            )
            self.recorder = recorder
            self.network_col = recorder.network_col
        if columnar is None:
            return
        rebuilt = build_policies(
            self.scenario, self._policy_seeds, self.spec.policy_ranks
        )
        runtimes_by_row = [rebuilt[d] for d in self.device_ids]
        for row, runtime in columnar["scalar_rows"].items():
            runtimes_by_row[int(row)] = runtime
        policies_by_row = [rt.policy for rt in runtimes_by_row]
        membership = MembershipState.__new__(MembershipState)
        membership.runtimes_by_row = runtimes_by_row
        membership.policies_by_row = policies_by_row
        membership.recorder = self.recorder
        membership.category = columnar["category"]
        membership.active = columnar["active"]
        membership.fallback_rows = columnar["fallback_rows"]
        membership.frozen_dirty = columnar["frozen_dirty"]
        membership.frozen_probs = columnar["frozen_probs"]
        membership.kernels_by_key = {}
        membership.kernel_of = {}
        for key, kernel_vars, rng_states in columnar["kernels"]:
            kernel = key[0].__new__(key[0])
            kernel.__dict__.update(kernel_vars)
            kernel.recorder = self.recorder
            rows = [int(row) for row in kernel.rows]
            kernel.policies = [policies_by_row[row] for row in rows]
            kernel.runtimes = [runtimes_by_row[row] for row in rows]
            group_nets = tuple(kernel.nets)
            visible = frozenset(group_nets)
            for policy, runtime, rng_state in zip(
                kernel.policies, kernel.runtimes, _iter_rng_states(rng_states)
            ):
                if policy.available_networks != group_nets:
                    # Align sizes/visible set with the group *before* the
                    # RNG restore so any resize draws are overwritten.
                    policy.update_available_networks(visible)
                    runtime.visible = visible
                policy.rng.bit_generator.state = rng_state
            kernel.rngs = [p.rng for p in kernel.policies]
            membership.kernels_by_key[key] = kernel
            for row in rows:
                membership.kernel_of[row] = kernel
        self.membership = membership
        self.runtimes = dict(zip(self.device_ids, runtimes_by_row))
        self.runtimes_by_row = runtimes_by_row
        self.policies_by_row = policies_by_row

    def _refresh_layout(self) -> None:
        """Recompute active-row positions for kernels and fallback rows."""
        act_rows = self._act_rows
        self._kernel_pos = {}
        for kernel in self.membership.kernels_by_key.values():
            positions = np.searchsorted(act_rows, kernel.rows)
            self._kernel_pos[id(kernel)] = (
                None
                if positions.size == act_rows.size
                and np.array_equal(positions, np.arange(positions.size))
                else positions
            )
        self._fallback_list = [
            (
                row,
                self.runtimes_by_row[row],
                self.policies_by_row[row],
                int(np.searchsorted(act_rows, row)),
            )
            for row in sorted(self.membership.fallback_rows)
        ]
        self._layout_dirty = False

    # ---------------------------------------------------------- slot phases

    def _draw_span(self, slot: int, kernel) -> int:
        """Draw-window length starting at ``slot`` for ``kernel``.

        Lockstep synchronisation keeps the *slot protocol* per slot, but the
        per-row uniform draws can still be amortised: the window covers the
        membership-stable span ahead, truncated at the next topology event
        (a membership edit with live buffered draws is a stream-contract
        violation), at the next checkpoint barrier (snapshots stay free of
        half-consumed buffers) and by the draw-buffer memory budget.
        """
        span = self.num_slots - slot + 1
        reason = "horizon"
        events = self._event_slot_list
        pos = bisect_right(events, slot)
        if pos < len(events) and events[pos] - slot < span:
            span = events[pos] - slot
            reason = "topology_event"
        every = self.draw_barrier_every
        if every:
            barrier = ((slot + every - 1) // every) * every
            if barrier - slot + 1 < span:
                span = barrier - slot + 1
                reason = "checkpoint_barrier"
        budget = kernel.DRAW_BUDGET // max(kernel.size, 1)
        if budget < span:
            span = budget
            reason = "draw_budget"
        truncations = self.window_truncations
        truncations[reason] = truncations.get(reason, 0) + 1
        return max(1, span)

    def begin(self, slot: int) -> np.ndarray:
        """Phase 1: selection.  Returns local per-network occupancy counts."""
        membership = self.membership
        events = self.topology.events.get(slot)
        if events is not None:
            membership.apply_events(events)
            self._layout_dirty = True

        choice_col = self.choice_col
        for kernel in membership.kernels_by_key.values():
            if kernel.uses_slot_draws and kernel.window_exhausted:
                kernel.prepare_window(self._draw_span(slot, kernel))
            choice_col[kernel.rows] = kernel.begin_slot(slot)
        network_col = self.network_col
        for row in sorted(membership.fallback_rows):
            choice_col[row] = network_col[self.policies_by_row[row].begin_slot(slot)]
        if membership.frozen_dirty:
            for row in sorted(membership.frozen_dirty):
                policy = self.policies_by_row[row]
                choice_col[row] = network_col[policy.begin_slot(slot)]
                if self.recorder.probabilities is not None:
                    cols = []
                    vals = []
                    for network_id, p in policy.probabilities.items():
                        col = network_col.get(network_id)
                        if col is not None:
                            cols.append(col)
                            vals.append(p)
                    membership.frozen_probs[row] = (
                        cols,
                        np.asarray(vals, dtype=float),
                    )
            membership.frozen_dirty.clear()

        if events is not None or self._layout_dirty:
            self._act_rows = np.nonzero(membership.active)[0]
        act_rows = self._act_rows
        self._act_cols = choice_col[act_rows]
        return np.bincount(self._act_cols, minlength=self.num_networks)

    def observe(
        self, slot: int, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase 2: global counts in, rates recorded, switchers out.

        ``counts`` is the all-reduced global occupancy.  Returns the shard's
        switching rows (ascending, local) and the network ids they switch
        onto; the caller resolves the delays and hands them to
        :meth:`complete`.
        """
        act_rows, act_cols = self._act_rows, self._act_cols
        col = slot - 1 - self.col_base
        recorder = self.recorder
        if act_rows.size == 0:
            self._switch_rows = np.empty(0, dtype=np.intp)
            return self._switch_rows, np.empty(0, dtype=np.int64)
        rates_act = (self.bandwidths / np.maximum(counts, 1))[act_cols]
        self._rates_act = rates_act
        recorder.rates[act_rows, col] = rates_act
        recorder.choices[act_rows, col] = self.net_ids[act_cols]
        recorder.active[act_rows, col] = True
        prev = self.prev_col[act_rows]
        switched = (prev != -1) & (prev != act_cols)
        self._switch_rows = act_rows[switched]
        switch_nets = self.net_ids[act_cols[switched]]
        self.prev_col[act_rows] = act_cols
        return self._switch_rows, switch_nets

    def complete(
        self,
        slot: int,
        delays: np.ndarray,
        member_gain: np.ndarray | None = None,
        join_gain: np.ndarray | None = None,
    ) -> None:
        """Phase 3: charge delays, feed gains back, record probabilities.

        ``delays`` aligns with the rows :meth:`observe` returned (float64 —
        policies see full precision even when the recorder stores float32).
        ``member_gain``/``join_gain`` are the global equal-share
        counterfactual arrays, computed once per slot by the caller when any
        shard policy needs full feedback.
        """
        act_rows = self._act_rows
        if act_rows.size == 0:
            return
        col = slot - 1 - self.col_base
        recorder = self.recorder
        switch_rows = self._switch_rows
        if switch_rows.size:
            recorder.delays[switch_rows, col] = delays
            recorder.switches[switch_rows, col] = True
        gains_act = np.minimum(self._rates_act / self.scale_ref, 1.0)
        if self._layout_dirty:
            self._refresh_layout()

        feedback = None
        if self.needs_feedback and member_gain is not None:
            feedback = SlotFeedback(member_gain=member_gain, join_gain=join_gain)
        for kernel in self.membership.kernels_by_key.values():
            positions = self._kernel_pos[id(kernel)]
            kernel.end_slot(
                slot,
                col,
                gains_act if positions is None else gains_act[positions],
                feedback,
            )

        if self._fallback_list:
            delay_of = dict(zip(switch_rows.tolist(), delays)) if switch_rows.size else {}
            net_ids = self.net_ids
            network_col = self.network_col
            for row, runtime, policy, pos in self._fallback_list:
                network_id = int(net_ids[self.choice_col[row]])
                switched_here = bool(recorder.switches[row, col])
                full_feedback = None
                if policy.needs_full_feedback and member_gain is not None:
                    chosen_col = self.choice_col[row]
                    visible = runtime.visible or frozenset()
                    full_feedback = {
                        k: float(member_gain[network_col[k]])
                        if network_col[k] == chosen_col
                        else float(join_gain[network_col[k]])
                        for k in visible
                    }
                policy.end_slot(
                    slot,
                    Observation(
                        slot=slot,
                        network_id=network_id,
                        bit_rate_mbps=float(self._rates_act[pos]),
                        gain=float(gains_act[pos]),
                        switched=switched_here,
                        delay_s=float(delay_of.get(row, 0.0)),
                        full_feedback=full_feedback,
                    ),
                )
                runtime.previous_choice = network_id
                recorder.record_probabilities(row, col, policy)

        block = recorder.probabilities
        if block is not None:
            frozen_probs = self.membership.frozen_probs
            category = self.membership.category
            for row in act_rows[category[act_rows] == _FROZEN]:
                cols, vals = frozen_probs[int(row)]
                block[row, col, cols] = vals

    # --------------------------------------------------------- run assembly

    def flush_policies(self) -> None:
        """Scatter surviving kernel groups back into the scalar policies."""
        for kernel in self.membership.kernels_by_key.values():
            kernel.flush()
            for runtime, local_row in zip(kernel.runtimes, kernel.rows):
                runtime.previous_choice = int(
                    self.net_ids[self.prev_col[local_row]]
                )

    def result(self) -> SimulationResult:
        """The shard's full result (full-horizon recorder mode only)."""
        return self.recorder.result(self.scenario, self.seed_label, self.runtimes)

    # ------------------------------------------------------- window support

    def window_result(self, width: int) -> SimulationResult:
        """A :class:`SimulationResult` over the current window's first
        ``width`` columns (zero-copy views into the recorder blocks)."""
        recorder = self.recorder
        full = width == recorder.num_slots
        return SimulationResult(
            scenario_name=self.scenario.name,
            seed=self.seed_label,
            num_slots=width,
            slot_duration_s=self.scenario.slot_duration_s,
            networks=dict(self.scenario.network_map),
            device_ids=self.device_ids,
            policy_names={
                d: self.runtimes[d].spec.policy for d in self.device_ids
            },
            choices_2d=recorder.choices if full else recorder.choices[:, :width],
            rates_2d=recorder.rates if full else recorder.rates[:, :width],
            delays_2d=recorder.delays if full else recorder.delays[:, :width],
            switches_2d=recorder.switches if full else recorder.switches[:, :width],
            active_2d=recorder.active if full else recorder.active[:, :width],
            probabilities_3d=None,
        )

    def reset_window(self, next_col_base: int) -> None:
        """Clear the recorder blocks for the next slot window."""
        recorder = self.recorder
        recorder.choices.fill(NO_NETWORK)
        recorder.rates.fill(0.0)
        recorder.delays.fill(0.0)
        recorder.switches.fill(False)
        recorder.active.fill(False)
        self.col_base = next_col_base
