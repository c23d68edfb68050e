"""Cross-kernel equivalence suite: scalar policies vs. batched kernels.

The batched policy kernels (:mod:`repro.algorithms.kernels`) must honour the
RNG-equivalence contract stated in the package docstring:

* ``"bit-exact"`` kernels — every built-in kernel — must produce results
  bit-for-bit identical to the per-device scalar path for any scenario and
  seed, across static, dynamic (join/leave) and mobility scenarios; and
* ``"distribution-exact"`` kernels must match the scalar sampling
  distribution (fixed-seed KS and mean-gain tolerance tests) without being
  required to replay the identical draw sequence.

The purest comparison runs one backend orchestration twice — the
``vectorized`` backend with kernels and the ``vectorized-nokernel`` variant
that forces every policy onto the scalar fallback — so any difference is
attributable to the kernel layer alone.  The suite also pins the two
replication primitives the contract relies on (single-uniform CDF inversion
vs. ``Generator.choice`` and sequential vs. pairwise summation) and the
stream-stability of the batched switching-delay sampler.

The opt-in compiled window tier (:mod:`repro.algorithms.kernels.compiled`)
is itself a ``distribution-exact`` implementation, so it goes through the
same statistical branch — against the event oracle — via the pure-Python
reference body that numba compiles (and the jitted kernel where numba is
installed; see ``tests/test_compiled_windows.py`` for the full fused-window
coverage).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.algorithms.base import Observation, Policy
from repro.algorithms.block_exp3 import BlockEXP3Policy
from repro.algorithms.exp3 import EXP3Policy
from repro.algorithms.fixed_random import FixedRandomPolicy
from repro.algorithms.kernels import (
    BatchKernel,
    EXP3Kernel,
    SmartEXP3Kernel,
    kernel_for_policy,
    register_policy_kernel,
    sample_rows,
    sequential_row_sum,
)
from repro.algorithms.registry import register_policy
from repro.game.device import Device
from repro.game.network import Network, NetworkType, make_networks
from repro.sim.delay import EmpiricalDelayModel
from repro.sim.mobility import CoverageMap
from repro.sim.runner import run_simulation
from repro.sim.scenario import (
    DeviceSpec,
    Scenario,
    dynamic_join_leave_scenario,
    mobility_scenario,
    setting1_scenario,
    setting2_scenario,
)

from tests.test_backends import assert_results_identical

#: Every registry policy with a built-in kernel (all declared bit-exact).
KERNEL_POLICIES = (
    "exp3",
    "block_exp3",
    "hybrid_block_exp3",
    "smart_exp3_no_reset",
    "smart_exp3",
    "greedy",
    "full_information",
)


def run_scalar_and_kernel(scenario, seed):
    return (
        run_simulation(scenario, seed=seed, backend="vectorized-nokernel"),
        run_simulation(scenario, seed=seed, backend="vectorized"),
    )


class TestKernelRegistry:
    def test_builtin_resolution(self):
        from tests.conftest import make_context

        assert kernel_for_policy(EXP3Policy(make_context())) is EXP3Kernel
        # Table-III variants resolve through the MRO to the Smart EXP3 kernel.
        assert kernel_for_policy(BlockEXP3Policy(make_context())) is SmartEXP3Kernel
        assert kernel_for_policy(FixedRandomPolicy(make_context())) is None

    def test_overriding_subclass_falls_back(self):
        from tests.conftest import make_context

        class TweakedEXP3(EXP3Policy):
            def begin_slot(self, slot: int) -> int:
                return super().begin_slot(slot)

        assert kernel_for_policy(TweakedEXP3(make_context())) is None

    def test_internal_helper_override_falls_back(self):
        # Even a private helper override invalidates the ancestor's kernel:
        # the batch layer replicates those helpers and would silently ignore
        # the subclass behaviour otherwise.
        from tests.conftest import make_context

        class SlowGammaEXP3(EXP3Policy):
            def _gamma(self) -> float:
                return min(1.0, super()._gamma() * 0.5)

        assert kernel_for_policy(SlowGammaEXP3(make_context())) is None

    def test_init_only_subclass_keeps_kernel(self):
        from tests.conftest import make_context

        class PinnedGammaEXP3(EXP3Policy):
            def __init__(self, context):
                super().__init__(context, gamma=0.2)

        assert kernel_for_policy(PinnedGammaEXP3(make_context())) is EXP3Kernel

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy_kernel(EXP3Policy, EXP3Kernel)

    def test_group_key_separates_configs(self):
        from repro.core.config import SmartEXP3Config
        from repro.core.smart_exp3 import SmartEXP3Policy
        from tests.conftest import make_context

        full = SmartEXP3Policy(make_context(seed=1))
        no_reset = SmartEXP3Policy(
            make_context(seed=2), SmartEXP3Config.without_reset()
        )
        assert SmartEXP3Kernel.group_key(full) != SmartEXP3Kernel.group_key(no_reset)


class TestReplicationPrimitives:
    def test_sample_rows_matches_generator_choice(self):
        for seed in range(40):
            k = 1 + seed % 6
            weights = np.random.default_rng(seed + 500).random((5, k)) + 1e-3
            scalar_rngs = [np.random.default_rng(1000 + seed + j) for j in range(5)]
            kernel_rngs = [np.random.default_rng(1000 + seed + j) for j in range(5)]
            expected = []
            for row, rng in zip(weights, scalar_rngs):
                probs = row / row.sum()
                expected.append(int(rng.choice(np.arange(k), p=probs)))
            got = sample_rows(weights, kernel_rngs)
            assert list(got) == expected
            for scalar_rng, kernel_rng in zip(scalar_rngs, kernel_rngs):
                assert (
                    scalar_rng.bit_generator.state == kernel_rng.bit_generator.state
                )

    def test_sequential_row_sum_matches_python_sum(self):
        rng = np.random.default_rng(3)
        # Wide rows: np.sum switches to pairwise summation here, Python's
        # sum() does not — the helper must side with Python.
        matrix = rng.random((4, 23)) * 1e3
        expected = [sum(row.tolist()) for row in matrix]
        got = sequential_row_sum(matrix)
        assert got.tolist() == expected

    def test_choice_without_probabilities_is_one_bounded_integer(self):
        # Smart EXP3's exploration pick: the kernel draws integers(0, m) and
        # indexes the candidate list, which must leave the stream exactly
        # where Generator.choice(candidates) does.
        for seed in range(200):
            candidates = list(range(seed % 4, seed % 4 + 1 + seed % 5))
            scalar_rng = np.random.default_rng(seed)
            kernel_rng = np.random.default_rng(seed)
            for _ in range(3):
                expected = scalar_rng.choice(candidates)
                got = candidates[kernel_rng.integers(0, len(candidates))]
                assert got == expected
                assert (
                    scalar_rng.bit_generator.state == kernel_rng.bit_generator.state
                )

    @pytest.mark.parametrize("beta", (0.1, 0.37))
    def test_block_length_table_matches_scheduler(self, beta):
        from repro.algorithms.kernels import base as smart_kernel
        from repro.core.blocking import BlockScheduler

        smart_kernel._LENGTH_TABLES.pop(beta, None)
        first = smart_kernel._TABLE_START
        count = 3 * first
        scheduler = BlockScheduler(beta=beta)
        expected = []
        for _ in range(count):
            expected.append(scheduler.block_length(0))
            scheduler.record_selection(0)
        got = smart_kernel.block_lengths(beta, np.arange(first // 2))
        assert got.tolist() == expected[: first // 2]
        assert smart_kernel._LENGTH_TABLES[beta].size == first
        # Lazy growth past the first table size.
        got = smart_kernel.block_lengths(beta, np.arange(count)[::-1])
        assert got.tolist() == expected[::-1]
        assert smart_kernel._LENGTH_TABLES[beta].size >= count > first

    @pytest.mark.parametrize("exponent", (1.0 / 3.0, 0.5, 2.0))
    def test_gamma_table_matches_policy(self, exponent):
        from repro.algorithms.kernels import base as smart_kernel
        from repro.core.config import SmartEXP3Config
        from repro.core.smart_exp3 import SmartEXP3Policy
        from tests.conftest import make_context

        smart_kernel._GAMMA_TABLES.pop(exponent, None)
        policy = SmartEXP3Policy(
            make_context(), SmartEXP3Config(gamma_exponent=exponent)
        )
        first = smart_kernel._TABLE_START
        # 0..300 crosses the table's doublings at 32/64/128/256.
        indices = np.arange(301)
        expected = [policy._gamma(int(b)) for b in indices]
        if exponent == 1.0 / 3.0:
            # EXP3Kernel gathers its decaying γ(round) from the same table.
            exp3 = EXP3Policy(make_context())
            for rounds in indices.tolist():
                exp3._round = rounds
                assert exp3._gamma() == expected[rounds]
        got = smart_kernel.gamma_values(exponent, indices[: first // 2])
        assert got.tolist() == expected[: first // 2]
        assert smart_kernel._GAMMA_TABLES[exponent].size == first
        got = smart_kernel.gamma_values(exponent, indices)
        assert got.tolist() == expected
        assert smart_kernel._GAMMA_TABLES[exponent].size >= indices.size

    def test_batched_switching_delays_are_stream_stable(self):
        model = EmpiricalDelayModel()
        networks = [
            Network(
                network_id=i,
                bandwidth_mbps=5.0,
                network_type=(
                    NetworkType.CELLULAR if i % 3 == 0 else NetworkType.WIFI
                ),
            )
            for i in range(40)
        ]
        for seed in range(10):
            seq_rng = np.random.default_rng(seed)
            batch_rng = np.random.default_rng(seed)
            sequential = [model.sample(n, seq_rng) for n in networks]
            batched = model.sample_many(networks, batch_rng)
            assert sequential == batched
            assert seq_rng.bit_generator.state == batch_rng.bit_generator.state


class TestBitExactKernels:
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_static_setting1(self, policy):
        scenario = setting1_scenario(policy=policy, num_devices=9, horizon_slots=150)
        for seed in (0, 11):
            scalar, kernel = run_scalar_and_kernel(scenario, seed)
            assert_results_identical(scalar, kernel)

    @pytest.mark.parametrize("policy", ("smart_exp3", "exp3", "full_information"))
    def test_static_setting2(self, policy):
        scenario = setting2_scenario(policy=policy, num_devices=6, horizon_slots=120)
        scalar, kernel = run_scalar_and_kernel(scenario, 7)
        assert_results_identical(scalar, kernel)

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_dynamic_join_leave(self, policy):
        # Horizon past the join (t=401) and leave (t=800) edges, so kernel
        # state round-trips through the scalar policies at every topology
        # boundary and across availability changes.
        scenario = dynamic_join_leave_scenario(policy=policy, horizon_slots=850)
        scalar, kernel = run_scalar_and_kernel(scenario, 2)
        assert_results_identical(scalar, kernel)

    @pytest.mark.parametrize("policy", ("smart_exp3", "exp3", "greedy"))
    def test_mobility(self, policy):
        scenario = mobility_scenario(policy=policy, horizon_slots=850)
        scalar, kernel = run_scalar_and_kernel(scenario, 4)
        assert_results_identical(scalar, kernel)

    def test_mixed_kernel_groups_and_frozen_rows(self):
        from repro.sim.scenario import mixed_policy_scenario

        scenario = mixed_policy_scenario(
            {
                "smart_exp3": 3,
                "exp3": 3,
                "greedy": 2,
                "full_information": 2,
                "fixed_random": 2,
            },
            horizon_slots=120,
        )
        scalar, kernel = run_scalar_and_kernel(scenario, 1)
        assert_results_identical(scalar, kernel)

    def test_smart_exp3_reset_coverage(self):
        # A long two-network run drives Smart EXP3 through periodic resets,
        # so the batched reset masks (and the reset_count scatter) are
        # actually exercised, not just carried.
        scenario = setting2_scenario(
            policy="smart_exp3", num_devices=4, horizon_slots=700
        )
        scalar, kernel = run_scalar_and_kernel(scenario, 5)
        assert_results_identical(scalar, kernel)
        assert sum(kernel.resets.values()) > 0


#: Policies whose kernel is SmartEXP3Kernel (the Table-III variants included).
SMART_POLICIES = (
    "smart_exp3",
    "smart_exp3_no_reset",
    "block_exp3",
    "hybrid_block_exp3",
)


def generated_scenario(policy, bandwidths, num_devices, solo_every, horizon):
    """Devices on every network, plus every ``solo_every``-th device confined
    to network 0 — a one-network kernel group beside the main one."""
    networks = make_networks(bandwidths)
    ids = [network.network_id for network in networks]
    coverage = CoverageMap.from_area_networks(
        {"all": ids, "solo": ids[:1]}, default_area="all"
    )
    devices = [
        Device(device_id=i, area_schedule={1: "solo"})
        if i % solo_every == 0
        else Device(device_id=i)
        for i in range(num_devices)
    ]
    return Scenario(
        name="generated",
        networks=networks,
        device_specs=[DeviceSpec(device=d, policy=policy) for d in devices],
        coverage=coverage,
        horizon_slots=horizon,
    )


class TestGeneratedSmartEXP3Equivalence:
    def test_generated_scenarios_are_bit_exact(self):
        """Kernel vs scalar on generated populations, with mixed block starts.

        Every generated run must be bit-exact; across the runs, at least one
        ``begin_slot`` batch must mix three or more selection types, so the
        masked steps really interleave within one batch.
        """
        mixes = []
        start_blocks = SmartEXP3Kernel._start_blocks

        def recording(kernel, rows):
            start_blocks(kernel, rows)
            mixes.append(np.unique(kernel.blk_type[rows]).size)

        @settings(max_examples=8, deadline=None)
        @given(
            policy=st.sampled_from(SMART_POLICIES),
            # Drawn from a short menu so equal bandwidths (and with them
            # tied average gains for the greedy pick) come up often.
            bandwidths=st.lists(
                st.sampled_from([1.0, 2.5, 4.0, 7.0, 11.0, 22.0, 30.0]),
                min_size=1,
                max_size=4,
            ),
            num_devices=st.integers(min_value=30, max_value=120),
            solo_every=st.integers(min_value=2, max_value=12),
            horizon=st.integers(min_value=20, max_value=150),
            seed=st.integers(min_value=0, max_value=2**16),
        )
        # Long enough for distributions to concentrate, which latches the
        # greedy gate (the generated horizons are too short for that).
        @example(
            policy="smart_exp3",
            bandwidths=[1.0, 1.0, 30.0, 30.0],
            num_devices=30,
            solo_every=7,
            horizon=300,
            seed=3,
        )
        def check(policy, bandwidths, num_devices, solo_every, horizon, seed):
            scenario = generated_scenario(
                policy, bandwidths, num_devices, solo_every, horizon
            )
            scalar, kernel = run_scalar_and_kernel(scenario, seed)
            assert_results_identical(scalar, kernel)

        with mock.patch.object(SmartEXP3Kernel, "_start_blocks", recording):
            check()
        assert max(mixes) >= 3


class _ScalarDitherPolicy(Policy):
    """Test-only policy: uniform random pick each slot, no learning."""

    def begin_slot(self, slot: int) -> int:
        choice = int(self.rng.choice(self.available_networks))
        self._last = choice
        return self._check_network(choice)

    def end_slot(self, slot: int, observation: Observation) -> None:
        pass


class _DitherKernel(BatchKernel):
    """Distribution-exact kernel for the dither policy.

    Samples with an *inverted* uniform (``1 − u``) — the same distribution,
    a different draw sequence — so results cannot be bit-equal to the scalar
    path and the suite's statistical branch is genuinely exercised.
    """

    equivalence = "distribution-exact"

    def begin_slot(self, slot: int) -> np.ndarray:
        draws = np.asarray([1.0 - rng.random() for rng in self.rngs])
        local = np.minimum(
            (draws * self.num_networks).astype(np.intp), self.num_networks - 1
        )
        self._local = local
        return self.cols[local]

    def end_slot(self, slot, slot_index, gains, feedback=None):
        self.record_probability_block(
            slot_index,
            np.full((self.size, self.num_networks), 1.0 / self.num_networks),
        )

    def flush(self) -> None:
        for runtime, local in zip(self.runtimes, self._local):
            runtime.policy._last = self.nets[int(local)]


register_policy(
    "test_dither", lambda context, **kwargs: _ScalarDitherPolicy(context)
)
register_policy_kernel(_ScalarDitherPolicy, _DitherKernel)


class TestDistributionExactKernel:
    def _scenario(self, horizon):
        base = setting1_scenario(num_devices=1, horizon_slots=horizon)
        specs = [
            DeviceSpec(device=base.device_specs[0].device.__class__(device_id=i),
                       policy="test_dither")
            for i in range(8)
        ]
        return Scenario(
            name="dither",
            networks=base.networks,
            device_specs=specs,
            coverage=base.coverage,
            horizon_slots=horizon,
        )

    def test_statistical_equivalence(self):
        scenario = self._scenario(400)
        scalar, kernel = run_scalar_and_kernel(scenario, 9)
        scalar_rates = np.concatenate(
            [scalar.rates_mbps[d] for d in scalar.device_ids]
        )
        kernel_rates = np.concatenate(
            [kernel.rates_mbps[d] for d in kernel.device_ids]
        )
        # Not required (nor expected) to be bit-equal...
        assert not np.array_equal(scalar_rates, kernel_rates)
        # ...but the realised-rate distributions must be indistinguishable
        # (fixed-seed KS) and the mean gains must agree tightly.
        ks = scipy_stats.ks_2samp(scalar_rates, kernel_rates)
        assert ks.pvalue > 0.01, ks
        assert np.mean(kernel_rates) == pytest.approx(
            np.mean(scalar_rates), rel=0.05
        )

    def test_probabilities_recorded(self):
        scenario = self._scenario(50)
        kernel = run_simulation(scenario, seed=3, backend="vectorized")
        for device_id in kernel.device_ids:
            assert np.allclose(kernel.probabilities[device_id].sum(axis=1), 1.0)


class TestCompiledKernelEquivalence:
    """The compiled EXP3 window tier under the kernel-equivalence frame.

    The compiled mega-loop replays the same uniform draw stream as the
    scalar policies but runs its transcendentals through a different libm,
    so it is held to the ``distribution-exact`` contract — here against the
    event backend, the reference oracle.
    """

    def _scenario(self):
        from tests.test_compiled_windows import stream_free

        return stream_free(
            setting2_scenario(policy="exp3", num_devices=8, horizon_slots=350)
        )

    def test_compiled_reference_vs_event_oracle(self, monkeypatch):
        from tests.test_compiled_windows import (
            assert_distribution_exact,
            install_reference_compiled_kernel,
        )

        scenario = self._scenario()
        event = run_simulation(
            scenario, seed=13, backend="event", record_probabilities=False
        )
        calls = install_reference_compiled_kernel(monkeypatch)
        compiled = run_simulation(
            scenario, seed=13, backend="vectorized", record_probabilities=False
        )
        assert calls["n"] >= 1
        assert_distribution_exact(event, compiled)

    def test_interpreted_tier_remains_the_default(self):
        # Without the explicit opt-in the vectorized backend must stay on
        # the interpreted (bit-exact) tier even where fusion engages.
        from repro.algorithms.kernels.compiled import compiled_enabled

        assert not compiled_enabled()
        scenario = self._scenario()
        event = run_simulation(scenario, seed=13, backend="event")
        vectorized = run_simulation(scenario, seed=13, backend="vectorized")
        assert_results_identical(event, vectorized)


class TestFallbackPolicies:
    def test_policy_without_kernel_stays_bit_exact(self):
        # Centralized/FixedRandom have no kernels; a mixed population forces
        # kernels, frozen rows and the per-device fallback through one run.
        from repro.sim.scenario import mixed_policy_scenario

        scenario = mixed_policy_scenario(
            {"smart_exp3": 2, "centralized": 2, "fixed_random": 2},
            horizon_slots=100,
        )
        event = run_simulation(scenario, seed=6, backend="event")
        kernel = run_simulation(scenario, seed=6, backend="vectorized")
        assert_results_identical(event, kernel)

    def test_nokernel_backend_matches_event(self):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=5, horizon_slots=90
        )
        event = run_simulation(scenario, seed=8, backend="event")
        scalar = run_simulation(scenario, seed=8, backend="vectorized-nokernel")
        assert_results_identical(event, scalar)
