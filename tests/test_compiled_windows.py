"""Fused-window, compiled-kernel and profiling coverage.

Five contracts from the compiled-fast-path layer:

* **Interpreted fused windows are bit-exact.**  Whenever the vectorized
  executor fuses a membership-stable window (stream-free delay model, one
  kernel covering every active row), the generic interpreted
  ``advance_window`` loop must reproduce the event backend bit for bit —
  across static, churn, mobility and outage scenarios.
* **The compiled mega-loop is distribution-exact.**  The pure-Python
  ``exp3_window_impl`` body (the exact code numba compiles) must match the
  interpreted path statistically — same uniform draw stream, same sampling
  decisions, transcendentals allowed to differ in the last ulp — which the
  suite checks by installing it as the "jitted" kernel and applying the
  fixed-seed KS / mean-rate branch.  Where numba is installed the genuinely
  jitted kernel goes through the same assertions.
* **Requesting compilation without numba degrades gracefully**: one logged
  warning, interpreted windowed execution, results still bit-exact.
* **Draw windows cut by the buffer budget stay bit-exact**: with
  ``BatchKernel.DRAW_BUDGET`` shrunk so windows end inside a topology-stable
  epoch, fused, per-slot and checkpointed sharded runs match the event
  backend.
* **The profiling hooks emit per-phase JSON when enabled.**
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro.algorithms.kernels.compiled as compiled_mod
from repro.algorithms.kernels.compiled import (
    NUMBA_AVAILABLE,
    compiled_enabled,
    compiled_requested,
    exp3_window_impl,
    numba_version,
)
from repro.algorithms.kernels.base import BatchKernel
from repro.algorithms.kernels.exp3 import EXP3Kernel
from repro.sim.delay import ConstantDelayModel, EmpiricalDelayModel, NoDelayModel
from repro.sim.mobility import NetworkDynamics
from repro.sim.runner import run_simulation
from repro.sim.scenario import (
    PoissonChurn,
    churn_scenario,
    dynamic_join_leave_scenario,
    mobility_scenario,
    setting1_scenario,
)
from repro.sim.sharded import CheckpointConfig, ShardedSlotExecutor
from repro.telemetry import read_events, set_telemetry_dir

from tests.test_backends import assert_results_identical


def stream_free(scenario, delay_model=None):
    """The scenario with a stream-free delay model (the fusion precondition)."""
    return replace(scenario, delay_model=delay_model or ConstantDelayModel())


def count_windows(monkeypatch):
    """Spy on BatchKernel window advances; returns the live counter dict."""
    calls = {"n": 0, "slots": 0}
    original = EXP3Kernel.advance_window

    def spy(self, window):
        calls["n"] += 1
        calls["slots"] += window.n_slots
        return original(self, window)

    monkeypatch.setattr(EXP3Kernel, "advance_window", spy)
    return calls


class TestFusedWindowEngagement:
    def test_static_run_fuses_and_stays_bit_exact(self, monkeypatch):
        scenario = stream_free(
            setting1_scenario(policy="exp3", num_devices=9, horizon_slots=200)
        )
        calls = count_windows(monkeypatch)
        fused = run_simulation(scenario, seed=0, backend="vectorized")
        assert calls["n"] >= 1
        assert calls["slots"] == 200
        event = run_simulation(scenario, seed=0, backend="event")
        per_slot = run_simulation(scenario, seed=0, backend="vectorized-nofuse")
        assert_results_identical(event, fused)
        assert_results_identical(per_slot, fused)

    def test_empirical_delays_keep_the_per_slot_path(self, monkeypatch):
        # The default EmpiricalDelayModel consumes the RNG stream per switch,
        # so windows cannot be fused without breaking bit-exactness — the
        # executor must keep them per-slot.
        scenario = setting1_scenario(
            policy="exp3", num_devices=6, horizon_slots=80
        )
        calls = count_windows(monkeypatch)
        vectorized = run_simulation(scenario, seed=1, backend="vectorized")
        assert calls["n"] == 0
        event = run_simulation(scenario, seed=1, backend="event")
        assert_results_identical(event, vectorized)


class TestInterpretedWindowsBitExact:
    """Fused interpreted windows vs. the event oracle across dynamics."""

    def _check(self, scenario, seed):
        event = run_simulation(scenario, seed=seed, backend="event")
        fused = run_simulation(scenario, seed=seed, backend="vectorized")
        per_slot = run_simulation(
            scenario, seed=seed, backend="vectorized-nofuse"
        )
        assert_results_identical(event, fused)
        assert_results_identical(per_slot, fused)

    @pytest.mark.parametrize("policy", ("exp3", "full_information"))
    def test_churn(self, policy):
        # Joins/leaves segment the horizon; windows must truncate at every
        # membership edge and re-fuse between them.
        scenario = stream_free(
            dynamic_join_leave_scenario(policy=policy, horizon_slots=850)
        )
        self._check(scenario, 2)

    def test_mobility(self):
        scenario = stream_free(
            mobility_scenario(policy="exp3", horizon_slots=850)
        )
        self._check(scenario, 4)

    def test_outages_and_poisson_churn(self):
        # Outage windows change per-device visibility mid-run — another
        # boundary the fused path must respect.  NoDelayModel covers the
        # second stream-free delay model.
        scenario = stream_free(
            churn_scenario(
                num_devices=14,
                policy="exp3",
                horizon_slots=300,
                churn=PoissonChurn(
                    arrival_rate_per_slot=0.1,
                    mean_lifetime_slots=150.0,
                    initial_fraction=0.5,
                ),
                dynamics=NetworkDynamics(
                    outage_windows={0: ((60, 100),)},
                    flapping_networks=(1,),
                    mean_up_slots=90.0,
                    mean_outage_slots=15.0,
                ),
                seed=3,
            ),
            delay_model=NoDelayModel(),
        )
        self._check(scenario, 5)


def install_reference_compiled_kernel(monkeypatch):
    """Install the pure-Python mega-loop as the "jitted" kernel.

    ``exp3_window_impl`` is the exact function numba compiles, so running it
    through the compiled branch of ``EXP3Kernel.advance_window`` exercises
    the compiled semantics (draw indexing, in-place writes, scratch buffers)
    on machines without numba.
    """
    calls = {"n": 0}

    def fake_kernel():
        def wrapper(*args):
            calls["n"] += 1
            return exp3_window_impl(*args)

        return wrapper

    monkeypatch.setattr(
        "repro.algorithms.kernels.exp3.exp3_window_kernel", fake_kernel
    )
    return calls


def assert_distribution_exact(reference, candidate):
    """The distribution-exact branch: fixed-seed KS + tight mean agreement."""
    ref_rates = reference.rates_2d[reference.active_2d]
    cand_rates = candidate.rates_2d[candidate.active_2d]
    ks = scipy_stats.ks_2samp(ref_rates, cand_rates)
    assert ks.pvalue > 0.01, ks
    assert np.mean(cand_rates) == pytest.approx(np.mean(ref_rates), rel=0.05)
    # The uniform draws are stream-identical, so the realised choice
    # *distribution* must agree per network, not just the rates.
    for net in np.unique(reference.choices_2d[reference.active_2d]):
        ref_frac = np.mean(reference.choices_2d[reference.active_2d] == net)
        cand_frac = np.mean(candidate.choices_2d[candidate.active_2d] == net)
        assert cand_frac == pytest.approx(ref_frac, abs=0.05)


class TestCompiledWindowSemantics:
    def _scenario(self):
        return stream_free(
            setting1_scenario(policy="exp3", num_devices=8, horizon_slots=400)
        )

    def test_reference_impl_is_distribution_exact(self, monkeypatch):
        scenario = self._scenario()
        interpreted = run_simulation(
            scenario, seed=9, backend="vectorized-nofuse",
            record_probabilities=False,
        )
        calls = install_reference_compiled_kernel(monkeypatch)
        compiled = run_simulation(
            scenario, seed=9, backend="vectorized", record_probabilities=False
        )
        assert calls["n"] >= 1
        assert_distribution_exact(interpreted, compiled)
        # Physics invariants hold exactly: activity masks match, and every
        # charged delay is the stream-free constant for the entered network.
        assert np.array_equal(interpreted.active_2d, compiled.active_2d)
        charged = compiled.delays_2d[compiled.switches_2d]
        assert set(np.unique(charged)) <= {2.0, 3.0}

    def test_probability_recording_falls_back_to_interpreted(self, monkeypatch):
        # The compiled loop does not write the probability tensor; with
        # recording on the kernel must take the interpreted branch and stay
        # bit-exact.
        scenario = self._scenario()
        calls = install_reference_compiled_kernel(monkeypatch)
        full = run_simulation(scenario, seed=9, backend="vectorized")
        assert calls["n"] == 0
        event = run_simulation(scenario, seed=9, backend="event")
        assert_results_identical(event, full)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_jitted_kernel_is_distribution_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "1")
        assert compiled_enabled()
        scenario = self._scenario()
        interpreted = run_simulation(
            scenario, seed=9, backend="vectorized-nofuse",
            record_probabilities=False,
        )
        compiled = run_simulation(
            scenario, seed=9, backend="vectorized", record_probabilities=False
        )
        assert_distribution_exact(interpreted, compiled)


class TestGracefulSkip:
    def test_opt_in_without_numba_warns_once_and_stays_bit_exact(
        self, monkeypatch, caplog
    ):
        if NUMBA_AVAILABLE:
            pytest.skip("graceful-skip path only exists without numba")
        monkeypatch.setenv("REPRO_BENCH_COMPILED", "1")
        monkeypatch.setattr(compiled_mod, "_warned_unavailable", False)
        with caplog.at_level("WARNING", logger="repro.compiled"):
            assert compiled_requested()
            assert not compiled_enabled()
            assert not compiled_enabled()  # second query: no second warning
        warnings = [
            r for r in caplog.records if "numba is not installed" in r.message
        ]
        assert len(warnings) == 1
        assert numba_version() is None
        # The run itself must be unaffected: interpreted windows, bit-exact.
        scenario = stream_free(
            setting1_scenario(policy="exp3", num_devices=6, horizon_slots=120)
        )
        event = run_simulation(scenario, seed=3, backend="event")
        vectorized = run_simulation(scenario, seed=3, backend="vectorized")
        assert_results_identical(event, vectorized)

    def test_zero_disables_even_with_numba(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert not compiled_requested()
        assert not compiled_enabled()


class TestDrawBudgetWindows:
    """Draw windows cut by the buffer budget inside a topology-stable epoch.

    At the real budget no test population is large enough for the cut to
    fire, so the budget is shrunk to a few slots' worth of draws per group.
    """

    DEVICES = 6
    SLOTS = 60

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        # Three slots of draws for the whole group; six for a 3-row shard.
        monkeypatch.setattr(BatchKernel, "DRAW_BUDGET", 3 * self.DEVICES)

    @pytest.fixture
    def window_sizes(self, monkeypatch):
        sizes: list[int] = []
        original = BatchKernel.prepare_window

        def spy(kernel, n_slots):
            sizes.append(n_slots)
            return original(kernel, n_slots)

        monkeypatch.setattr(BatchKernel, "prepare_window", spy)
        return sizes

    def _scenario(self, delay_model=None):
        scenario = setting1_scenario(
            policy="exp3", num_devices=self.DEVICES, horizon_slots=self.SLOTS
        )
        if delay_model is None:
            assert isinstance(scenario.delay_model, EmpiricalDelayModel)
            return scenario
        return replace(scenario, delay_model=delay_model)

    @staticmethod
    def _window_reasons(directory) -> dict[str, int]:
        reasons: dict[str, int] = {}
        for event in read_events(directory):
            if event["type"] == "fused_windows":
                for reason, count in event["reasons"].items():
                    reasons[reason] = reasons.get(reason, 0) + count
        return reasons

    def test_vectorized_fused_windows(self, tmp_path, window_sizes):
        scenario = self._scenario(NoDelayModel())
        set_telemetry_dir(tmp_path)
        fused = run_simulation(scenario, seed=3, backend="vectorized")
        set_telemetry_dir(None)
        assert max(window_sizes) == 3 and len(window_sizes) == self.SLOTS // 3
        assert self._window_reasons(tmp_path)["draw_budget"] >= 1
        event = run_simulation(scenario, seed=3, backend="event")
        assert_results_identical(event, fused)

    def test_vectorized_per_slot_empirical_delays(self, window_sizes):
        scenario = self._scenario()
        vectorized = run_simulation(scenario, seed=3, backend="vectorized")
        assert max(window_sizes) == 3 and len(window_sizes) == self.SLOTS // 3
        event = run_simulation(scenario, seed=3, backend="event")
        assert_results_identical(event, vectorized)

    def test_sharded_with_checkpoints(self, tmp_path, window_sizes):
        scenario = self._scenario()
        executor = ShardedSlotExecutor(
            shards=2,
            workers=1,
            checkpoint=CheckpointConfig(every_slots=10, dir=tmp_path / "ckpt"),
        )
        set_telemetry_dir(tmp_path / "telemetry")
        sharded = executor.execute(scenario, seed=3)
        set_telemetry_dir(None)
        assert max(window_sizes) == 6
        reasons = self._window_reasons(tmp_path / "telemetry")
        assert reasons["draw_budget"] >= 1
        assert reasons["checkpoint_barrier"] >= 1
        event = run_simulation(scenario, seed=3, backend="event")
        assert_results_identical(event, sharded)


class TestProfiling:
    def _profile_lines(self, path):
        lines = path.read_text().strip().splitlines()
        return [json.loads(line) for line in lines]

    def test_vectorized_run_emits_phase_timings(self, monkeypatch, tmp_path):
        out = tmp_path / "profile.jsonl"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = stream_free(
            setting1_scenario(policy="exp3", num_devices=6, horizon_slots=100)
        )
        run_simulation(scenario, seed=0, backend="vectorized")
        payloads = self._profile_lines(out)
        assert len(payloads) == 1
        payload = payloads[0]
        assert payload["tag"] == "vectorized"
        assert payload["devices"] == 6
        assert payload["slots"] == 100
        assert payload["device_slots_per_second"] > 0
        # The whole static run fuses into windows, so the fused phase must
        # carry measurable time.
        assert payload["seconds"]["fused_window"] > 0
        # Shares are rounded for readability; they must still sum to ~1.
        assert abs(sum(payload["share"].values()) - 1.0) < 1e-2

    def test_sharded_run_emits_phase_timings(self, monkeypatch, tmp_path):
        from repro.sim.sharded import ShardedSlotExecutor

        out = tmp_path / "profile.jsonl"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = setting1_scenario(
            policy="exp3", num_devices=8, horizon_slots=60
        )
        ShardedSlotExecutor(shards=2).execute(scenario, 1)
        payloads = [
            p
            for p in self._profile_lines(out)
            if p["tag"].startswith("sharded-worker")
        ]
        assert payloads
        payload = payloads[-1]
        for phase in ("sampling", "bus_exchange", "reward"):
            assert phase in payload["seconds"]
        assert payload["devices"] == 8

    def test_disabled_by_default(self, monkeypatch, tmp_path):
        out = tmp_path / "profile.jsonl"
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = setting1_scenario(
            policy="exp3", num_devices=4, horizon_slots=40
        )
        run_simulation(scenario, seed=0, backend="vectorized")
        assert not out.exists()
