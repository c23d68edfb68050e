"""The batched slot engine: one block of devices advanced slot by slot.

A :class:`ShardEngine` holds one shard of a sharded run, or the whole
population of a vectorized run, and advances it through a protocol driven
from outside:

1. :meth:`begin` — apply the slot's topology events, run selection (batched
   kernels, scalar fallback rows, frozen rows) and return the *local*
   per-network occupancy counts.
2. *(all-reduce outside the engine: local counts sum to global counts)*
3. :meth:`observe` — consume the **global** counts: realised rates,
   recording and switch detection; returns the switching rows so the caller
   can resolve their delays.
4. :meth:`complete` — charge the delays, feed realised gains back into the
   kernels and scalar policies, record probabilities.

Equal-share rates and the Full Information counterfactuals depend on other
devices only through the ``(networks,)``-sized occupancy vector, so a shard
never needs a peer's per-device state.  Any other gain model draws from the
environment RNG over the *global* association grouping; only a
whole-population engine (:meth:`ShardEngine.from_run`) takes that path.
:meth:`advance_epoch` fuses a membership-stable epoch of a whole-population
engine into :meth:`BatchKernel.advance_window` calls.  One driver runs the
protocol for both backends: :func:`repro.sim.sharded.executor._run_group`.

Bit-exactness with the event backend holds because every RNG stream is
consumed identically: per-device policy streams come from the globally
derived seeds (:func:`~repro.sim.backends.base.derive_run_streams`), kernels
replicate the scalar draws row for row, and the environment stream is drawn
by the gain model first, then per switching device in ascending device order.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

import repro.algorithms.kernels  # noqa: F401  (registers the built-in kernels)
from repro.algorithms.base import Observation
from repro.algorithms.kernels.base import SlotFeedback, WindowPlan
from repro.game.gain import EqualShareModel
from repro.sim.backends.base import (
    DeviceRuntime,
    RunState,
    SlotRecorder,
    TopologyPlan,
    build_policies,
)
from repro.sim.backends.membership import (
    FROZEN as _FROZEN,
    MembershipState,
    equal_share_feedback,
)
from repro.sim.environment import WirelessEnvironment
from repro.sim.metrics import NO_NETWORK, SimulationResult
from repro.sim.scenario import Scenario
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


#: Per-layout caches rebuilt from the membership state (never pickled: they
#: reference kernels and policies the columnar snapshot stores separately).
_LAYOUT_CACHE = (
    "_kernels",
    "_fallback_list",
    "_frozen_rows",
    "_frozen_values",
    "_act_ids",
    "_feedback",
)


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
    """One block of devices: policies, topology, recorder and slot state.

    The constructor takes the prepared pieces of a run; :meth:`from_spec`
    builds them for one shard of a :class:`~repro.sim.sharded.plan.ShardPlan`
    and :meth:`from_run` wraps a whole-population
    :class:`~repro.sim.backends.base.RunState`.
    """

    def __init__(
        self,
        scenario: Scenario,
        runtimes: dict[int, DeviceRuntime],
        recorder: SlotRecorder,
        topology: TopologyPlan,
        seed_label: int,
        *,
        spec: ShardSpec | None = None,
        policy_seeds: np.ndarray | None = None,
        environment: WirelessEnvironment | None = None,
        use_kernels: bool = True,
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self.seed_label = seed_label
        self.num_slots = topology.num_slots
        #: Kept for the columnar checkpoint codec: restoring a snapshot
        #: rebuilds the scalar policy objects of kernel-resident rows from
        #: these seeds instead of pickling 10^5 tiny Python objects.
        self._policy_seeds = policy_seeds
        #: The run's environment when the gain model is not equal share
        #: (generic physics, whole population only); ``None`` otherwise.
        self.physics_env = environment
        self.runtimes = runtimes
        self.device_ids = recorder.device_ids
        self.runtimes_by_row = [runtimes[d] for d in self.device_ids]
        self.policies_by_row = [rt.policy for rt in self.runtimes_by_row]
        num_devices = len(self.device_ids)

        self.network_order = recorder.network_order
        self.num_networks = len(self.network_order)
        self.net_ids = np.asarray(self.network_order, dtype=np.int64)
        self.bandwidths = np.asarray(
            [scenario.network_map[k].bandwidth_mbps for k in self.network_order],
            dtype=float,
        )
        self.scale_ref = float(scenario.scale_reference_mbps)
        self.recorder = recorder
        self.network_col = recorder.network_col
        #: 0-based slot index of the recorder's column 0.
        self.col_base = 0
        self.topology = topology

        # ---- persistent run state (the membership layer owns the execution
        # classes, kernel groups and frozen bookkeeping, and applies topology
        # events in place)
        self.membership = MembershipState(
            self.runtimes_by_row, recorder, use_kernels
        )
        self.needs_feedback = any(
            p.needs_full_feedback for p in self.policies_by_row
        )
        self.choice_col = np.zeros(num_devices, dtype=np.intp)
        self.prev_col = np.full(num_devices, -1, dtype=np.intp)
        #: Last slot whose topology events were applied.
        self._events_slot = 0
        #: Whether the active-row layout (``_refresh_layout``) is stale.
        self._layout_dirty = True
        #: Checkpoint cadence in slots (set by the executor when durability
        #: is on): kernel draw windows truncate here so a snapshot never has
        #: to carry a partially consumed uniform buffer.
        self.draw_barrier_every: int | None = None
        self._event_slot_list = sorted(topology.events)
        #: Why draw and fused windows ended (reason -> count), for
        #: telemetry's ``fused_windows`` events.  Always-on: one dict update
        #: per window (not per slot) is noise next to the window's array work.
        self.window_truncations: dict[str, int] = {}

    @classmethod
    def from_spec(
        cls,
        spec: ShardSpec,
        policy_seeds: np.ndarray,
        seed_label: int,
        num_slots: int,
        record_probabilities: bool = True,
        dtype: str = "float64",
        window: int | None = None,
    ) -> "ShardEngine":
        """One shard of a sharded run, built from its :class:`ShardSpec`.

        ``window`` bounds the recorder to that many slot columns (the
        streaming reduced path, which requires ``record_probabilities=False``).
        """
        scenario = spec.materialize()
        runtimes = build_policies(scenario, policy_seeds, spec.policy_ranks)
        device_ids = tuple(sorted(runtimes))
        window = min(int(window), num_slots) if window else None
        if window and record_probabilities:
            raise ValueError(
                "windowed execution requires record_probabilities=False"
            )
        recorder = SlotRecorder(
            device_ids,
            tuple(sorted(scenario.network_map)),
            window or num_slots,
            record_probabilities,
            dtype,
        )
        topology = TopologyPlan(
            scenario, [runtimes[d].spec.device for d in device_ids], num_slots
        )
        return cls(
            scenario,
            runtimes,
            recorder,
            topology,
            seed_label,
            spec=spec,
            policy_seeds=np.asarray(policy_seeds),
        )

    @classmethod
    def from_run(cls, state: RunState, use_kernels: bool = True) -> "ShardEngine":
        """The whole population of a prepared run, in one engine.

        Gain models other than :class:`EqualShareModel` take the generic
        physics path through the run's environment.
        """
        generic = type(state.scenario.gain_model) is not EqualShareModel
        return cls(
            state.scenario,
            state.runtimes,
            state.recorder,
            state.topology,
            state.seed,
            environment=state.environment if generic else None,
            use_kernels=use_kernels,
        )

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
        # Window counts describe the invocation that ran the slots: a
        # resumed run reports only its own windows.
        state.pop("window_truncations", None)
        for name in _LAYOUT_CACHE:
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

        The layout cache holds kernel and policy references, which the
        snapshot does not carry, so the layout is marked stale and rebuilt on
        the first post-restore slot.  Columnar
        snapshots additionally rebuild the scalar policy objects from their
        seeds, restore each row's RNG state and visible set, and rewire the
        kernels' row references (see ``__getstate__``).
        """
        columnar = state.pop("_columnar", None)
        self.__dict__.update(state)
        self._layout_dirty = True
        # Snapshots written by older engine versions predate the draw-window
        # machinery and the generic physics path; default them off and
        # rebuild the event-slot index.  Window counts start afresh.
        self.__dict__.setdefault("draw_barrier_every", None)
        self.__dict__.setdefault("physics_env", None)
        self.__dict__.setdefault("_events_slot", 0)
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

    # ------------------------------------------------------------- layout

    def _refresh_layout(self) -> None:
        """Recompute the active rows and each class's positions among them."""
        membership = self.membership
        act_rows = np.nonzero(membership.active)[0]
        self._act_rows = act_rows
        self._all_active = act_rows.size == len(self.device_ids)
        if self.physics_env is not None:
            device_ids = self.device_ids
            self._act_ids = [device_ids[row] for row in act_rows.tolist()]
        # Kernel rows' positions among the active rows; ``None`` when one
        # kernel covers every active row in order (the static common case),
        # so its gains are handed over as is.
        self._kernels = [
            (
                kernel,
                None
                if np.array_equal(kernel.rows, act_rows)
                else np.searchsorted(act_rows, kernel.rows),
            )
            for kernel in membership.kernels_by_key.values()
        ]
        self._fallback_list = [
            (
                row,
                self.runtimes_by_row[row],
                self.policies_by_row[row],
                int(np.searchsorted(act_rows, row)),
            )
            for row in sorted(membership.fallback_rows)
        ]
        self._frozen_rows = act_rows[membership.category[act_rows] == _FROZEN]
        self._frozen_values = None
        self._layout_dirty = False

    def _apply_events(self, slot: int) -> None:
        """Apply ``slot``'s topology events (once per slot), then refresh a
        stale layout."""
        if slot != self._events_slot:
            self._events_slot = slot
            events = self.topology.events.get(slot)
            if events is not None:
                self.membership.apply_events(events)
                self._layout_dirty = True
        if self._layout_dirty:
            self._refresh_layout()

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
        if self._layout_dirty or slot in self.topology.events:
            self._apply_events(slot)
        membership = self.membership
        choice_col = self.choice_col
        for kernel, _positions in self._kernels:
            if kernel.uses_slot_draws and kernel.window_exhausted:
                kernel.prepare_window(self._draw_span(slot, kernel))
            choice_col[kernel.rows] = kernel.begin_slot(slot)
        network_col = self.network_col
        for row, _runtime, policy, _pos in self._fallback_list:
            choice_col[row] = network_col[policy.begin_slot(slot)]
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

        self._act_cols = choice_col[self._act_rows]
        return np.bincount(self._act_cols, minlength=self.num_networks)

    def observe(
        self, slot: int, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase 2: global counts in, rates recorded, switchers out.

        ``counts`` is the all-reduced global occupancy.  Returns the
        switching rows (ascending, local) and the network ids they switch
        onto; the caller resolves the delays and hands them to
        :meth:`complete`.
        """
        act_rows, act_cols = self._act_rows, self._act_cols
        if act_rows.size == 0:
            self._switch_rows = np.empty(0, dtype=np.intp)
            return self._switch_rows, np.empty(0, dtype=np.int64)
        feedback = None
        environment = self.physics_env
        if environment is None:
            rates_act = (self.bandwidths / np.maximum(counts, 1))[act_cols]
            if self.needs_feedback:
                member_gain, join_gain = equal_share_feedback(
                    counts, self.bandwidths, self.scale_ref
                )
                feedback = SlotFeedback(member_gain=member_gain, join_gain=join_gain)
        else:
            # Generic physics: the gain model draws from the environment RNG
            # per network, in first-appearance order over the active devices
            # sorted by id — the grouping the event backend builds.
            choices = dict(zip(self._act_ids, self.net_ids[act_cols].tolist()))
            groups = environment.client_groups(choices)
            realised = environment.realized_rates(choices, slot, groups)
            rates_act = np.fromiter(
                map(realised.__getitem__, choices), dtype=float, count=len(choices)
            )
            if self.needs_feedback:
                feedback = SlotFeedback(
                    counts=environment.allocation_counts(choices, groups),
                    environment=environment,
                )
        self._rates_act = rates_act
        self._feedback = feedback
        col = slot - 1 - self.col_base
        recorder = self.recorder
        chosen = self.net_ids[act_cols]
        prev_col = self.prev_col
        if self._all_active:
            # Whole-column slice writes: the common static case.
            recorder.rates[:, col] = rates_act
            recorder.choices[:, col] = chosen
            recorder.active[:, col] = True
            switched = (prev_col != -1) & (prev_col != act_cols)
            prev_col[:] = act_cols
        else:
            recorder.rates[act_rows, col] = rates_act
            recorder.choices[act_rows, col] = chosen
            recorder.active[act_rows, col] = True
            prev = prev_col[act_rows]
            switched = (prev != -1) & (prev != act_cols)
            prev_col[act_rows] = act_cols
        self._switch_rows = act_rows[switched]
        return self._switch_rows, chosen[switched]

    def complete(self, slot: int, delays: np.ndarray | list[float]) -> None:
        """Phase 3: charge delays, feed gains back, record probabilities.

        ``delays`` aligns with the rows :meth:`observe` returned (float64 —
        policies see full precision even when the recorder stores float32).
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
        block = recorder.probabilities
        if block is not None and self._frozen_rows.size:
            # Frozen strategies change only at topology edits: one cached
            # (frozen rows x networks) matrix, written as one block per slot.
            values = self._frozen_values
            if values is None:
                values = self._frozen_values = self._frozen_matrix()
            block[self._frozen_rows, col] = values
        if not (self._kernels or self._fallback_list):
            return
        gains_act = np.minimum(self._rates_act / self.scale_ref, 1.0)
        feedback = self._feedback
        for kernel, positions in self._kernels:
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
                full_feedback = None
                if feedback is not None and policy.needs_full_feedback:
                    visible = runtime.visible or frozenset()
                    if feedback.member_gain is None:
                        full_feedback = feedback.environment.counterfactual_gains(
                            feedback.counts, network_id, visible
                        )
                    else:
                        chosen_col = self.choice_col[row]
                        full_feedback = {
                            k: float(feedback.member_gain[network_col[k]])
                            if network_col[k] == chosen_col
                            else float(feedback.join_gain[network_col[k]])
                            for k in visible
                        }
                policy.end_slot(
                    slot,
                    Observation(
                        slot=slot,
                        network_id=network_id,
                        bit_rate_mbps=float(self._rates_act[pos]),
                        gain=float(gains_act[pos]),
                        switched=bool(recorder.switches[row, col]),
                        delay_s=float(delay_of.get(row, 0.0)),
                        full_feedback=full_feedback,
                    ),
                )
                runtime.previous_choice = network_id
                recorder.record_probabilities(row, col, policy)

    def _frozen_matrix(self) -> np.ndarray:
        """The frozen rows' mixed strategies over every network column."""
        frozen_probs = self.membership.frozen_probs
        values = np.zeros((self._frozen_rows.size, self.num_networks))
        for index, row in enumerate(self._frozen_rows.tolist()):
            cols, vals = frozen_probs[row]
            values[index, cols] = vals
        return values

    def advance_epoch(
        self, start: int, end: int, delay_table: np.ndarray
    ) -> bool:
        """Advance slots ``[start, end)`` as fused windows, if eligible.

        Applies ``start``'s topology events.  When one kernel covers every
        active row in order, on equal-share physics without full-feedback
        consumers, and the epoch spans two or more slots, the kernel advances
        it through :meth:`BatchKernel.advance_window` in windows capped by
        the draw-buffer budget, with ``delay_table`` delays; why each window
        ended is counted in :attr:`window_truncations`.  Otherwise returns
        ``False`` and the caller runs the per-slot protocol.
        """
        self._apply_events(start)
        if (
            self.physics_env is not None
            or end - start < 2
            or len(self._kernels) != 1
            or self._kernels[0][1] is not None
            or self._kernels[0][0].needs_full_feedback
        ):
            return False
        kernel = self._kernels[0][0]
        rows = kernel.rows
        recorder = self.recorder
        col_lo = start - 1 - self.col_base
        recorder.active[rows, col_lo : col_lo + end - start] = True
        window_cap = max(2, kernel.DRAW_BUDGET // max(kernel.size, 1))
        prev = self.prev_col[rows]
        slot = start
        while slot < end:
            width = min(end - slot, window_cap)
            kernel.prepare_window(width)
            kernel.advance_window(
                WindowPlan(
                    start_slot=slot,
                    n_slots=width,
                    idx_lo=slot - 1 - self.col_base,
                    net_ids=self.net_ids,
                    bandwidths=self.bandwidths,
                    num_networks=self.num_networks,
                    scale_ref=self.scale_ref,
                    delay_table=delay_table,
                    prev=prev,
                    choices2d=recorder.choices,
                    rates2d=recorder.rates,
                    delays2d=recorder.delays,
                    switches2d=recorder.switches,
                )
            )
            if width < end - slot:
                reason = "draw_budget"
            elif end > self.num_slots:
                reason = "horizon"
            else:
                reason = "topology_event"
            truncations = self.window_truncations
            truncations[reason] = truncations.get(reason, 0) + 1
            slot += width
        self.prev_col[rows] = prev
        return True

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
