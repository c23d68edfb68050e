"""Batched Smart EXP3: the full four-mechanism state machine over arrays.

Every Smart EXP3 mechanism keeps its state as rows of ``(devices × networks)``
(or per-device) arrays:

* adaptive blocking — current-block network/length/elapsed/total-gain rows
  plus the per-network selection counters;
* greedy choices — gain-sum/count matrices and the greedy-gate latch;
* switch-back — a rolling tail of the current block's gains (the trailing
  ``switchback_window`` slots) and the previous block's tail;
* minimal reset — per-device connection histories for the drop detector and
  the usage counters behind ``i_max``.

Per slot, devices *inside* a block are pure array traffic (one fused gain
accumulation, tracker scatter-add, mask evaluation for switch-back/drop, and
one batched weight update + probability block write).  Devices *starting a
block* are handled together by :meth:`SmartEXP3Kernel._start_blocks`, one
pass of masked array steps per slot: the switch-back mask, the exploration
picks, the vectorised greedy gate, the greedy coins, the greedy pick (a
sequential column scan with the scalar tie rule), one batched distribution
sample, and the block-state writes.  Block lengths ``ceil((1+β)**x)`` and
``γ = min(1, b**-e)`` are gathered from lookup tables built with the scalar
formulas.

Block starts are Smart EXP3's *only* RNG consumers, and every draw still
comes from the device's private generator, in the scalar policy's order:
one ``integers(0, m)`` exploration pick (the draw ``Generator.choice`` makes
over ``m`` candidates), or a ``random()`` coin followed, unless the greedy
pick lands, by one ``random()`` consumed by single-uniform CDF inversion
(:func:`~repro.algorithms.kernels.base.sample_rows`).  Streams are private,
so taking every row's coin before every row's sample keeps the kernel
bit-exact.

State round-trips through the scalar policy at segment boundaries via the
array-view accessors on the :mod:`repro.core` mechanism classes
(``export_counts``/``load_counts``, ``export_arrays``/``load_arrays``,
``export_state``/``load_state``, ``load_latched``).  One subtlety: the scalar
``Block`` stores every per-slot gain, while the kernel keeps only the running
total, the trailing window, and the sequential partial sum of everything that
left the window.  The scatter therefore fabricates a gain list — zeros, the
partial sum, then the tail — whose Python left-to-right ``sum()`` and length
reproduce the true block total and elapsed-slot count bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.kernels.base import (
    BatchKernel,
    SlotFeedback,
    block_lengths,
    gamma_values,
    sample_rows,
)
from repro.core.blocking import Block, SelectionType
from repro.core.smart_exp3 import SmartEXP3Policy
from repro.core.switchback import BlockHistory

_NONE = -1  # sentinel for "no network" / "no block" / "not latched"

_TYPE_LIST = (
    SelectionType.EXPLORATION,
    SelectionType.RANDOM,
    SelectionType.RANDOM_AFTER_COIN,
    SelectionType.GREEDY,
    SelectionType.SWITCH_BACK,
)
_TYPE_CODE = {selection_type: code for code, selection_type in enumerate(_TYPE_LIST)}
_EXPLORATION = _TYPE_CODE[SelectionType.EXPLORATION]
_RANDOM = _TYPE_CODE[SelectionType.RANDOM]
_RANDOM_AFTER_COIN = _TYPE_CODE[SelectionType.RANDOM_AFTER_COIN]
_GREEDY = _TYPE_CODE[SelectionType.GREEDY]
_SWITCH_BACK = _TYPE_CODE[SelectionType.SWITCH_BACK]

class SmartEXP3Kernel(BatchKernel):
    """Array-native Smart EXP3 (and its Table-III variants, via the config)."""

    @classmethod
    def group_key(cls, policy):
        # The config drives every mechanism flag and constant, so devices
        # batch together only when their whole parameterisation matches.
        return (type(policy), policy.available_networks, policy.config)

    def __init__(self, entries, recorder) -> None:
        super().__init__(entries, recorder)
        policies: list[SmartEXP3Policy] = self.policies
        first = policies[0]
        self.config = first.config
        detector = first._reset_policy.drop_detector
        self.sb_window = self.config.switchback_window
        self.drop_window = detector.window_slots
        self.min_conn = detector.min_connection_slots
        self.drop_fraction = detector.drop_fraction
        self.max_hist = detector.reference_window_slots + detector.window_slots

        size = self.size
        col_of = self.col_of

        self.weights = np.asarray(
            [[p._weights[n] for n in self.nets] for p in policies], dtype=float
        )
        self.sel_counts = np.asarray(
            [p._scheduler.export_counts(self.nets) for p in policies],
            dtype=np.int64,
        )
        tracker_rows = [p._gain_tracker.export_arrays(self.nets) for p in policies]
        self.gain_sum = np.asarray([row[0] for row in tracker_rows], dtype=float)
        self.gain_cnt = np.asarray([row[1] for row in tracker_rows], dtype=np.int64)
        self.usage = np.asarray(
            [[p._slot_usage.get(n, 0) for n in self.nets] for p in policies],
            dtype=np.int64,
        )
        self.explore = np.asarray(
            [[n in p._explore_set for n in self.nets] for p in policies],
            dtype=bool,
        )
        self.latched = np.asarray(
            [
                _NONE
                if p._greedy_gate.latched_length is None
                else p._greedy_gate.latched_length
                for p in policies
            ],
            dtype=np.int64,
        )
        self.block_index = np.asarray(
            [p._block_index for p in policies], dtype=np.int64
        )
        self.reset_count = np.asarray(
            [p.reset_count for p in policies], dtype=np.int64
        )
        self.last_probs = np.asarray(
            [
                [p._current_probabilities.get(n, 0.0) for n in self.nets]
                for p in policies
            ],
            dtype=float,
        )

        # Current block rows.
        self.blk_net = np.full(size, _NONE, dtype=np.intp)
        self.blk_len = np.ones(size, dtype=np.int64)
        self.blk_elapsed = np.zeros(size, dtype=np.int64)
        self.blk_total = np.zeros(size, dtype=float)
        self.blk_prob = np.ones(size, dtype=float)
        self.blk_type = np.zeros(size, dtype=np.int8)
        self.blk_trunc = np.zeros(size, dtype=bool)
        self.tail = np.zeros((size, self.sb_window), dtype=float)
        self.tail_len = np.zeros(size, dtype=np.int64)
        self.pre_tail_sum = np.zeros(size, dtype=float)

        # Previous-block history (switch-back window).
        self.prev_net = np.full(size, _NONE, dtype=np.intp)
        self.prev_gains = np.zeros((size, self.sb_window), dtype=float)
        self.prev_len = np.zeros(size, dtype=np.int64)
        self.prev_was_sb = np.asarray(
            [p._previous_was_switch_back for p in policies], dtype=bool
        )
        self.sb_pending = np.asarray(
            [p._switch_back_pending for p in policies], dtype=bool
        )
        self.sb_target = np.asarray(
            [
                col_of.get(p._switch_back_target, _NONE)
                if p._switch_back_target is not None
                else _NONE
                for p in policies
            ],
            dtype=np.intp,
        )
        self.drop_pending = np.asarray(
            [p._drop_reset_pending for p in policies], dtype=bool
        )

        # Drop-detector connection histories.
        self.det_net = np.full(size, _NONE, dtype=np.intp)
        self.det_buf = np.zeros((size, self.max_hist), dtype=float)
        self.det_len = np.zeros(size, dtype=np.int64)

        for j, policy in enumerate(policies):
            block = policy._current_block
            if block is not None:
                self._load_block(j, block)
            history = policy._previous_history
            if history is not None and history.network_id in col_of:
                gains = history.gains[-self.sb_window :]
                self.prev_net[j] = col_of[history.network_id]
                self.prev_len[j] = len(gains)
                self.prev_gains[j, : len(gains)] = gains
            det_net, det_gains = policy._reset_policy.drop_detector.export_state()
            if det_net is not None and det_net in col_of:
                self.det_net[j] = col_of[det_net]
                self.det_len[j] = len(det_gains)
                self.det_buf[j, : len(det_gains)] = det_gains

    def _load_block(self, j: int, block: Block) -> None:
        self.blk_net[j] = self.col_of[block.network_id]
        self.blk_len[j] = block.length
        self.blk_elapsed[j] = block.slots_elapsed
        self.blk_total[j] = float(sum(block.slot_gains))
        self.blk_prob[j] = block.probability
        self.blk_type[j] = _TYPE_CODE[block.selection_type]
        self.blk_trunc[j] = block.truncated
        tail = block.slot_gains[-self.sb_window :]
        self.tail_len[j] = len(tail)
        self.tail[j, : len(tail)] = tail
        self.pre_tail_sum[j] = float(sum(block.slot_gains[: -self.sb_window]))

    # ----------------------------------------------------------------- gamma
    def _gammas(self, block_indices: np.ndarray) -> np.ndarray:
        config = self.config
        if config.fixed_gamma is not None:
            return np.full(block_indices.size, config.fixed_gamma)
        return gamma_values(config.gamma_exponent, block_indices)

    def _probability_rows(self, indices: np.ndarray) -> np.ndarray:
        gamma = self._gammas(self.block_index[indices])
        weights = self.weights[indices]
        total = np.sum(weights, axis=1)
        k = self.num_networks
        return (1.0 - gamma)[:, None] * weights / total[:, None] + (gamma / k)[
            :, None
        ]

    # ----------------------------------------------------------- block starts
    def begin_slot(self, slot: int) -> np.ndarray:
        need_new = (
            (self.blk_net == _NONE)
            | self.blk_trunc
            | (self.blk_elapsed >= self.blk_len)
        )
        rows = need_new.nonzero()[0]
        if rows.size:
            self._start_blocks(rows)
        return self.cols[self.blk_net]

    def _start_blocks(self, rows: np.ndarray) -> None:
        """Start a new block on every row of ``rows`` in one masked pass.

        The steps claim rows in ``SmartEXP3Policy._start_new_block``'s
        precedence (switch-back, exploration, greedy coin, distribution
        sample); the module docstring gives the per-row draw order.
        """
        config = self.config
        rngs = self.rngs
        n = rows.size
        self.block_index[rows] += 1
        probs = self._probability_rows(rows)
        self.last_probs[rows] = probs
        net = np.empty(n, dtype=np.intp)
        prob = np.empty(n, dtype=float)
        kind = np.empty(n, dtype=np.int8)
        claimed = None  # rows an earlier step already gave a network

        # 1. Switch-back to the previous block's network.
        if config.enable_switchback:
            pending = self.sb_pending[rows]
            if np.count_nonzero(pending):
                claimed = pending & (self.sb_target[rows] != _NONE)
                hit = rows[claimed]
                net[claimed] = self.sb_target[hit]
                prob[claimed] = 1.0
                kind[claimed] = _SWITCH_BACK
                self.sb_pending[hit] = False
                self.sb_target[hit] = _NONE

        # 2. Exploration: Generator.choice(candidates) is integers(0, m) on
        # the same stream; the picked open column is found by a running count.
        if config.enable_initial_exploration:
            explore = self.explore[rows]
            if np.count_nonzero(explore):
                widths = explore.sum(axis=1)
                exploring = widths > 0
                if claimed is not None:
                    exploring &= ~claimed
                at = exploring.nonzero()[0]
                if at.size:
                    widths = widths[at]
                    picks = [
                        rngs[j].integers(0, m)
                        for j, m in zip(rows[at].tolist(), widths.tolist())
                    ]
                    chosen = (
                        explore[at].cumsum(axis=1) <= np.asarray(picks)[:, None]
                    ).sum(axis=1)
                    net[at] = chosen
                    prob[at] = 1.0 / widths
                    kind[at] = _EXPLORATION
                    self.explore[rows[at], chosen] = False
                    claimed = exploring if claimed is None else claimed | exploring

        if claimed is None:
            at, lrows, lprobs = self._arange[:n], rows, probs
        else:
            at = (~claimed).nonzero()[0]
            lrows, lprobs = rows[at], probs[at]
        if at.size:
            gp = config.greedy_probability
            considered = None
            k = self.num_networks
            # 3. Greedy gate; 4. coins; 5. greedy pick.
            if config.enable_greedy and k > 1:
                arange = self._arange[: at.size]
                top = lprobs.argmax(axis=1)
                spread = lprobs[arange, top] - lprobs[arange, lprobs.argmin(axis=1)]
                near_uniform = spread <= 1.0 / (k - 1) + 1e-12
                top_len = block_lengths(config.beta, self.sel_counts[lrows, top])
                latched = self.latched[lrows]
                unlatched = ~near_uniform & (latched == _NONE)
                if np.count_nonzero(unlatched):
                    latched = np.where(unlatched, top_len, latched)
                    self.latched[lrows] = latched
                considered = near_uniform | (top_len < latched)
                coin = considered.nonzero()[0]
                if coin.size:
                    draws = np.array([rngs[j].random() for j in lrows[coin].tolist()])
                    heads = coin[draws < gp]
                    if heads.size:
                        best = self._best_tracked_rows(lrows[heads])
                        found = best != _NONE
                        greedy = heads[found]
                        if greedy.size:
                            net[at[greedy]] = best[found]
                            prob[at[greedy]] = gp
                            kind[at[greedy]] = _GREEDY
                            taken = np.zeros(at.size, dtype=bool)
                            taken[greedy] = True
                            rest = (~taken).nonzero()[0]
                            at, lrows, lprobs = at[rest], lrows[rest], lprobs[rest]
                            considered = considered[rest]
            # 6. Sample the distribution with one uniform per remaining row.
            if at.size:
                draws = np.array([rngs[j].random() for j in lrows.tolist()])
                chosen = sample_rows(lprobs, None, draws=draws)
                picked = lprobs[self._arange[: at.size], chosen]
                net[at] = chosen
                if considered is None:
                    prob[at] = picked
                    kind[at] = _RANDOM
                else:
                    prob[at] = np.where(considered, picked * (1.0 - gp), picked)
                    kind[at] = np.where(considered, _RANDOM_AFTER_COIN, _RANDOM)

        # 7. Block state.
        counts = self.sel_counts[rows, net]
        self.sel_counts[rows, net] = counts + 1
        self.blk_net[rows] = net
        self.blk_len[rows] = block_lengths(config.beta, counts)
        self.blk_elapsed[rows] = 0
        self.blk_total[rows] = 0.0
        # Same one-ulp clamp as SmartEXP3Policy._start_new_block (a
        # one-network strategy set can push the sampled probability to 1+ulp).
        self.blk_prob[rows] = np.minimum(prob, 1.0)
        self.blk_type[rows] = kind
        self.blk_trunc[rows] = False
        self.tail_len[rows] = 0
        self.pre_tail_sum[rows] = 0.0

    def _best_tracked_rows(self, rows: np.ndarray) -> np.ndarray:
        """Highest average-gain column per row (``_NONE`` if none observed).

        A sequential column scan keeps ``GainTracker.best_network``'s tie
        rule: a later column takes over only if it beats the best so far by
        more than ``1e-12``.
        """
        counts = self.gain_cnt[rows]
        means = self.gain_sum[rows] / np.maximum(counts, 1)
        means[counts == 0] = -np.inf  # never observed: never better
        best = np.full(rows.size, _NONE, dtype=np.intp)
        best_gain = np.full(rows.size, -1.0)
        for col, gain in enumerate(means.T):
            better = gain > best_gain + 1e-12
            best[better] = col
            best_gain[better] = gain[better]
        return best

    # -------------------------------------------------------------- feedback
    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        config = self.config
        arange = self._arange
        net = self.blk_net
        gain = np.clip(gains, 0.0, 1.0)

        self.blk_elapsed += 1
        self.blk_total += gain
        tail_full = self.tail_len >= self.sb_window
        if tail_full.any():
            rows = np.nonzero(tail_full)[0]
            self.pre_tail_sum[rows] += self.tail[rows, 0]
            self.tail[rows, :-1] = self.tail[rows, 1:]
            self.tail[rows, -1] = gain[rows]
        rows = np.nonzero(~tail_full)[0]
        if rows.size:
            self.tail[rows, self.tail_len[rows]] = gain[rows]
            self.tail_len[rows] += 1

        self.gain_sum[arange, net] += gain
        self.gain_cnt[arange, net] += 1
        self.usage[arange, net] += 1

        if config.enable_switchback:
            self._apply_switch_back(gain)
        if config.enable_reset:
            self._apply_drop_detection(gain)

        completed = self.blk_trunc | (self.blk_elapsed >= self.blk_len)
        if completed.any():
            self._finalize_blocks(np.nonzero(completed)[0])

        # SmartEXP3Policy.probabilities recomputes the distribution from the
        # (possibly just-updated) weights every slot; one batched evaluation
        # replaces num_devices property calls + dict copies.
        self.record_probability_block(
            slot_index, self._probability_rows(arange)
        )

    def _apply_switch_back(self, gain: np.ndarray) -> None:
        candidates = (
            (self.blk_elapsed == 1)
            & (self.blk_type != _EXPLORATION)
            & (self.blk_type != _SWITCH_BACK)
            & ~self.prev_was_sb
            & (self.prev_net != _NONE)
            & (self.prev_len > 0)
            & (self.prev_net != self.blk_net)
        )
        if not candidates.any():
            return
        rows = np.nonzero(candidates)[0]
        history = self.prev_gains[rows]
        length = self.prev_len[rows]
        current = gain[rows]
        total = np.zeros(rows.size, dtype=float)
        better = np.zeros(rows.size, dtype=np.int64)
        for col in range(self.sb_window):
            valid = col < length
            values = history[:, col]
            total = np.where(valid, total + values, total)
            better += valid & (values > current + 1e-12)
        average = total / length
        last = history[np.arange(rows.size), length - 1]
        fraction = better / length
        switch_back = (
            (current < average - 1e-12)
            | (current < last - 1e-12)
            | (fraction > 0.5)
        )
        hit = rows[switch_back]
        self.blk_trunc[hit] = True
        self.sb_pending[hit] = True
        self.sb_target[hit] = self.prev_net[hit]

    def _apply_drop_detection(self, gain: np.ndarray) -> None:
        net = self.blk_net
        # i_max: the network used for more than half of all connected slots.
        totals = self.usage.sum(axis=1)
        top = np.argmax(self.usage, axis=1)
        top_counts = self.usage[self._arange, top]
        is_most_used = (top_counts > 0.5 * totals) & (top == net) & (totals > 0)

        # Connection histories restart whenever the device changes network.
        changed = self.det_net != net
        if changed.any():
            rows = np.nonzero(changed)[0]
            self.det_net[rows] = net[rows]
            self.det_len[rows] = 0
        buffer_full = self.det_len >= self.max_hist
        if buffer_full.any():
            rows = np.nonzero(buffer_full)[0]
            self.det_buf[rows, :-1] = self.det_buf[rows, 1:]
            self.det_buf[rows, -1] = gain[rows]
        rows = np.nonzero(~buffer_full)[0]
        if rows.size:
            self.det_buf[rows, self.det_len[rows]] = gain[rows]
            self.det_len[rows] += 1

        check = is_most_used & (self.det_len > self.min_conn + self.drop_window)
        if not check.any():
            return
        dropped_rows: list[np.ndarray] = []
        for length in np.unique(self.det_len[check]):
            rows = np.nonzero(check & (self.det_len == length))[0]
            split = int(length) - self.drop_window
            reference = np.median(self.det_buf[rows, :split], axis=1)
            recent = np.median(self.det_buf[rows, split : int(length)], axis=1)
            dropped = (reference > 0) & (
                recent <= (1.0 - self.drop_fraction) * reference
            )
            dropped_rows.append(rows[dropped])
        hit = np.concatenate(dropped_rows) if dropped_rows else np.array([], int)
        self.drop_pending[hit] = True
        self.blk_trunc[hit] = True

    def _finalize_blocks(self, indices: np.ndarray) -> None:
        config = self.config
        k = self.num_networks
        net = self.blk_net[indices]
        gamma = self._gammas(self.block_index[indices])
        estimated = self.blk_total[indices] / np.maximum(
            self.blk_prob[indices], 1e-12
        )
        self.weights[indices, net] *= np.exp(gamma * estimated / k)
        row_max = self.weights[indices].max(axis=1)
        needs_scaling = (row_max > 1e100) | (row_max < 1e-100)
        if needs_scaling.any():
            rows = indices[needs_scaling]
            self.weights[rows] /= row_max[needs_scaling, None]

        self.prev_net[indices] = net
        self.prev_gains[indices] = self.tail[indices]
        self.prev_len[indices] = self.tail_len[indices]
        self.prev_was_sb[indices] = self.blk_type[indices] == _SWITCH_BACK

        if not config.enable_reset:
            return
        probs = self._probability_rows(indices)
        top = np.argmax(probs, axis=1)
        periodic = (
            probs[np.arange(indices.size), top]
            >= config.reset_probability_threshold
        )
        if periodic.any():
            at = np.flatnonzero(periodic)
            periodic[at] = (
                block_lengths(config.beta, self.sel_counts[indices[at], top[at]])
                >= config.reset_block_length_threshold
            )
        reset_rows = indices[periodic | self.drop_pending[indices]]
        if reset_rows.size:
            self._do_reset(reset_rows)

    def _do_reset(self, rows: np.ndarray) -> None:
        """Minimal reset: forget blocks and greedy data, keep the weights."""
        self.sel_counts[rows] = 0
        self.gain_sum[rows] = 0.0
        self.gain_cnt[rows] = 0
        self.det_net[rows] = _NONE
        self.det_len[rows] = 0
        if self.config.enable_initial_exploration:
            self.explore[rows] = True
        self.sb_pending[rows] = False
        self.sb_target[rows] = _NONE
        self.prev_net[rows] = _NONE
        self.prev_len[rows] = 0
        self.prev_was_sb[rows] = False
        self.drop_pending[rows] = False
        self.reset_count[rows] += 1

    # ------------------------------------------------------------------ flush
    def flush(self) -> None:
        self._flush_rows(range(self.size))

    def _flush_rows(self, indices) -> None:
        nets = self.nets
        for j in indices:
            policy = self.policies[j]
            policy._weights = {
                net: float(w) for net, w in zip(nets, self.weights[j])
            }
            policy._block_index = int(self.block_index[j])
            policy._scheduler.load_counts(nets, self.sel_counts[j])
            policy._gain_tracker.load_arrays(
                nets, self.gain_sum[j], self.gain_cnt[j]
            )
            policy._greedy_gate.load_latched(
                None if self.latched[j] == _NONE else int(self.latched[j])
            )
            policy._slot_usage = {
                net: int(c) for net, c in zip(nets, self.usage[j])
            }
            policy._explore_set = {
                nets[c] for c in np.nonzero(self.explore[j])[0]
            }
            policy._switch_back_pending = bool(self.sb_pending[j])
            policy._switch_back_target = (
                None if self.sb_target[j] == _NONE else nets[self.sb_target[j]]
            )
            policy._drop_reset_pending = bool(self.drop_pending[j])
            policy._previous_was_switch_back = bool(self.prev_was_sb[j])
            policy.reset_count = int(self.reset_count[j])
            policy._current_probabilities = {
                net: float(p) for net, p in zip(nets, self.last_probs[j])
            }
            if self.prev_net[j] == _NONE:
                policy._previous_history = None
            else:
                policy._previous_history = BlockHistory(
                    network_id=nets[self.prev_net[j]],
                    gains=[
                        float(x)
                        for x in self.prev_gains[j, : self.prev_len[j]]
                    ],
                    window=self.sb_window,
                )
            detector = policy._reset_policy.drop_detector
            detector.load_state(
                None if self.det_net[j] == _NONE else nets[self.det_net[j]],
                self.det_buf[j, : self.det_len[j]],
            )
            policy._current_block = self._export_block(j)

    def _export_block(self, j: int) -> Block | None:
        if self.blk_net[j] == _NONE:
            return None
        elapsed = int(self.blk_elapsed[j])
        tail_len = int(self.tail_len[j])
        tail = [float(x) for x in self.tail[j, :tail_len]]
        if elapsed <= tail_len:
            slot_gains = tail
        else:
            # Fabricate a list whose length and left-to-right sum match the
            # true per-slot history (see the module docstring).
            slot_gains = (
                [0.0] * (elapsed - tail_len - 1)
                + [float(self.pre_tail_sum[j])]
                + tail
            )
        return Block(
            index=int(self.block_index[j]),
            network_id=self.nets[self.blk_net[j]],
            length=int(self.blk_len[j]),
            selection_type=_TYPE_LIST[self.blk_type[j]],
            probability=float(self.blk_prob[j]),
            slot_gains=slot_gains,
            truncated=bool(self.blk_trunc[j]),
        )
