"""Differential property: every batched execution equals the event oracle.

Hypothesis generates small scenarios — up to 8 devices and 60 slots with
join/leave churn, optional mobility and network outages, a mix of learning
(kernel), stationary (frozen) and full-information policies, equal-share or
generic (noisy) physics, and stream-free or empirical switching delays — and
asserts that ``vectorized``, ``vectorized-nokernel``, ``vectorized-nofuse``
and the in-process sharded backend (1–3 shards, equal-share physics only)
reproduce the ``event`` result column for column.  Equal-share examples
also run a checkpointed sharded execution with a generated shard count and
cadence, then resume it from a generated mid-run snapshot; both results
must equal the oracle too.

Tier-1 runs a handful of examples.  A deeper run loads the profile
registered in ``tests/conftest.py``::

    PYTHONPATH=src python -m pytest tests/test_differential.py \\
        --hypothesis-profile=differential-deep
"""

from __future__ import annotations

import tempfile
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.game.gain import EqualShareModel, NoisyShareModel
from repro.sim.delay import ConstantDelayModel, EmpiricalDelayModel, NoDelayModel
from repro.sim.mobility import NetworkDynamics
from repro.sim.runner import run_simulation
from repro.sim.scenario import TraceChurn, churn_scenario
from repro.sim.sharded import CheckpointConfig, ShardedSlotExecutor
from repro.sim.sharded.checkpoint import checkpoint_dir

from tests.conftest import DIFFERENTIAL_DEEP_PROFILE
from tests.test_backends import assert_results_identical

#: Examples per tier-1 run; the deep profile's count replaces it when that
#: profile is loaded.
TIER1_EXAMPLES = 40
_DEEP = settings.get_profile(DIFFERENTIAL_DEEP_PROFILE)
EXAMPLES = _DEEP.max_examples if settings.default is _DEEP else TIER1_EXAMPLES

POLICIES = (
    "smart_exp3",
    "exp3",
    "greedy",
    "full_information",
    "fixed_random",
    "centralized",
)
BANDWIDTHS = (4.0, 7.0, 11.0, 22.0)
#: Areas over three networks; every area keeps a network when 0 or 1 is out.
AREAS = {"a": (0, 1, 2), "b": (1, 2), "c": (0, 2)}
DELAY_MODELS = {
    "none": NoDelayModel(),
    "constant": ConstantDelayModel(),
    "empirical": EmpiricalDelayModel(),
}
BATCHED_BACKENDS = ("vectorized", "vectorized-nokernel", "vectorized-nofuse")


@st.composite
def scenarios(draw):
    horizon = draw(st.integers(2, 60))
    num_devices = draw(st.integers(1, 8))
    windows = []
    for _ in range(num_devices):
        join = draw(st.integers(1, horizon))
        leave = draw(st.none() | st.integers(join, horizon + 5))
        windows.append((join, leave))
    bandwidths = draw(st.lists(st.sampled_from(BANDWIDTHS), min_size=2, max_size=3))
    mobile = len(bandwidths) == 3 and draw(st.booleans())
    dynamics = None
    if draw(st.booleans()):
        dynamics = NetworkDynamics(
            flapping_networks=(draw(st.integers(0, 1)),),
            mean_up_slots=float(draw(st.integers(3, 30))),
            mean_outage_slots=float(draw(st.integers(1, 6))),
        )
    scenario = churn_scenario(
        num_devices=num_devices,
        bandwidths=bandwidths,
        horizon_slots=horizon,
        churn=TraceChurn(tuple(windows)),
        areas=AREAS if mobile else None,
        mobility_fraction=0.5 if mobile else 0.0,
        mean_dwell_slots=10.0,
        dynamics=dynamics,
        seed=draw(st.integers(0, 2**16)),
    )
    for spec in scenario.device_specs:
        spec.policy = draw(st.sampled_from(POLICIES))
    gain_model = draw(
        st.sampled_from(
            (
                EqualShareModel(),
                NoisyShareModel(rate_noise_std=0.2, share_concentration=5.0),
            )
        )
    )
    delay_model = DELAY_MODELS[draw(st.sampled_from(sorted(DELAY_MODELS)))]
    return replace(scenario, gain_model=gain_model, delay_model=delay_model)


def assert_resume_equals_the_oracle(oracle, scenario, seed, data) -> None:
    """A checkpointed sharded run, and its resumption from a mid-run
    snapshot, both reproduce the oracle."""
    horizon = scenario.horizon_slots
    shards = data.draw(st.integers(1, 3), label="shards")
    every = data.draw(st.integers(1, horizon - 1), label="every_slots")
    resume_slot = data.draw(
        st.sampled_from(range(every, horizon, every)), label="resume_slot"
    )
    with tempfile.TemporaryDirectory() as directory:
        # Keep every snapshot so any mid-run slot can be resumed from.
        config = CheckpointConfig(every_slots=every, dir=directory, keep=horizon)
        durable = ShardedSlotExecutor(
            shards=shards, workers=1, strict=True, checkpoint=config
        )
        assert_results_identical(oracle, durable.execute(scenario, seed))
        resumed = ShardedSlotExecutor(
            shards=shards,
            workers=1,
            strict=True,
            resume_from=checkpoint_dir(config, resume_slot),
        )
        assert_results_identical(oracle, resumed.execute(scenario, seed))


class TestDifferentialAgainstEventOracle:
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios(), seed=st.integers(0, 2**16), data=st.data())
    def test_batched_executions_equal_the_event_oracle(self, scenario, seed, data):
        oracle = run_simulation(scenario, seed=seed, backend="event")
        for backend in BATCHED_BACKENDS:
            assert_results_identical(
                oracle, run_simulation(scenario, seed=seed, backend=backend)
            )
        if ShardedSlotExecutor.supports_scenario(scenario):
            for shards in (1, 2, 3):
                executor = ShardedSlotExecutor(shards=shards, workers=1, strict=True)
                assert_results_identical(oracle, executor.execute(scenario, seed))
            assert_resume_equals_the_oracle(oracle, scenario, seed, data)
