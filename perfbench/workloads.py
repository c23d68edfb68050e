"""The benchmark's workloads, their timed runs and their correctness gate.

Each workload is generated from the workload seed; the program only sees
the generated scenarios.  A workload executes in *rounds*: one round runs
each of the workload's :attr:`Workload.policies` the same number of times
(:attr:`Workload.runs_per_policy`), so every policy has an equal share of
the timed runs however many rounds fit in the time budget.

Round ``r`` uses base seed :func:`round_seed` ``(seed, r)``; run ``i`` of a
round is seeded exactly as ``run_many`` seeds its run ``i``.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from perfbench import hostspeed
from repro.analysis.reducers import SummaryReducer
from repro.experiments.churn_stress import DEFAULT_AREAS
from repro.sim import runner
from repro.sim.backends.base import RunSeed
from repro.sim.mobility import NetworkDynamics
from repro.sim.runner import RunFailure
from repro.sim.scenario import PoissonChurn, churn_scenario, setting1_scenario
from repro.sim.sharded import (
    CheckpointConfig,
    CheckpointError,
    HomogeneousPopulation,
    ShardedSlotExecutor,
    ShardFailureError,
)

#: Failures a timed run may raise; each counts as a failed run.
RUN_FAILURES = (RunFailure, ShardFailureError, CheckpointError)


@dataclass(frozen=True)
class Run:
    """One timed run: which policy, its wall time and the work it did."""

    policy: str
    seconds: float
    device_slots: int
    ok: bool


def round_seed(seed: int, index: int) -> int:
    """Base seed of round ``index`` of a workload run with ``seed``."""
    return seed * 100_003 + index


def run_seed(base_seed: int, index: int) -> RunSeed:
    """Run ``index``'s seed, as ``run_many(base_seed=base_seed)`` derives it."""
    return RunSeed(
        root=np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)),
        label=base_seed + index,
    )


def same_value(a, b) -> bool:
    """Bit-for-bit equality of two summary values (NaN equals NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


def row_mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys on which two summary rows differ (missing keys included)."""
    keys = sorted(set(expected) | set(actual))
    return [
        key
        for key in keys
        if key not in expected
        or key not in actual
        or not same_value(expected[key], actual[key])
    ]


def active_device_slots(scenario) -> int:
    """Device-slots in which a device of ``scenario`` is present."""
    horizon = scenario.horizon_slots
    total = 0
    for spec in scenario.device_specs:
        device = spec.device
        if device.join_slot > horizon:
            continue
        leave = horizon if device.leave_slot is None else min(device.leave_slot, horizon)
        total += max(leave - device.join_slot + 1, 0)
    return total


def event_oracle(scenario, base_seed: int) -> dict:
    """Run 0's summary row on the event backend (the behavioural oracle)."""
    summaries = runner.run_many(
        scenario, 1, base_seed=base_seed, backend="event", reduce="summary", cache="off"
    )
    return summaries.rows[0]


class Workload:
    """Shared round loop; subclasses build scenarios and run one policy."""

    name = ""
    why = ""
    #: Legacy ``BENCH_*.json`` records this workload stands in for.
    legacy: tuple[str, ...] = ()
    #: Policies of a round, in the order they run.
    policies: tuple[str, ...] = ("smart_exp3", "exp3")
    #: Runs of each policy in one round.
    runs_per_policy = 1
    #: Host speed probes before each policy call of a timed round; with
    #: none, the end-to-end run times stay wall-clock.
    host_probes = 1

    def __init__(self) -> None:
        self.seed = 0
        #: ``outputs[pass][round][policy]`` -> summary rows of that call.
        self.outputs: list[list[dict]] = []

    def build(self, seed: int, workdir: Path) -> None:
        """Generate the workload's inputs; ``workdir`` takes throwaway files."""
        raise NotImplementedError

    def run_policy(self, policy: str, index: int, runs: int) -> tuple[list[Run], list]:
        """Run ``policy`` ``runs`` times in round ``index``; ``(runs, rows)``."""
        raise NotImplementedError

    def run_round(self, index: int, probes: list[float] | None = None) -> tuple[list[Run], float]:
        """Run round ``index``; ``(runs, wall time of the policy calls)``.

        With ``probes``, :attr:`host_probes` host speed probes (see
        :mod:`perfbench.hostspeed`) run before each policy, outside the
        wall time, and their times are appended to ``probes``.
        """
        runs: list[Run] = []
        rows: dict = {}
        wall = 0.0
        for policy in self.policies:
            if probes is not None:
                probes.extend(hostspeed.probe() for _ in range(self.host_probes))
            started = time.perf_counter()
            done, rows[policy] = self.run_policy(policy, index, self.runs_per_policy)
            wall += time.perf_counter() - started
            runs.extend(done)
        self.outputs[-1].append(rows)
        return runs, wall

    def measure(self, budget_s: float) -> tuple[list[Run], float, list[float]]:
        """Run whole rounds for ``budget_s`` seconds.

        Returns the runs, their wall time and the times of the host speed
        probes taken before every policy call and after the last.  A round
        is not started when the mean round time so far says it would end
        past the budget; at least one round always runs.
        """
        self.outputs.append([])
        runs: list[Run] = []
        probes: list[float] = []
        wall = 0.0
        started = time.perf_counter()
        while True:
            done, seconds = self.run_round(len(self.outputs[-1]), probes)
            runs.extend(done)
            wall += seconds
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 1 / len(self.outputs[-1])) > budget_s:
                probes.extend(hostspeed.probe() for _ in range(self.host_probes))
                return runs, wall, probes

    def gate(self, oracle=None) -> dict[str, str | None]:
        """Correctness checks of the first pass: check -> failure or None.

        ``oracle(scenario, base_seed)`` returns the expected summary row of
        run 0; the default is :func:`event_oracle`.
        """
        raise NotImplementedError

    def replay_checks(self) -> dict[str, str | None]:
        """Each later pass must reproduce the first pass's outputs exactly."""
        first = self.outputs[0]
        checks = {}
        for number, later in enumerate(self.outputs[1:], start=1):
            for index, rows in enumerate(later):
                for policy, got in rows.items():
                    want = first[index][policy]
                    same = len(got) == len(want) and not any(
                        row_mismatches(a, b) for a, b in zip(want, got)
                    )
                    checks[f"pass {number} round {index} {policy}"] = (
                        None if same else "output differs from the first pass"
                    )
        return checks


class RunManyWorkload(Workload):
    """Serial ``run_many(..., reduce="summary")`` on the vectorized backend.

    ``variants`` holds the generated inputs, each as policy -> (scenario,
    active device-slots); round ``r`` runs variant ``r % len(variants)``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.variants: list[dict[str, tuple]] = []

    def add_variant(self, scenarios: dict) -> None:
        self.variants.append(
            {
                policy: (scenario, active_device_slots(scenario))
                for policy, scenario in scenarios.items()
            }
        )

    def run_policy(self, policy, index, runs):
        scenario, device_slots = self.variants[index % len(self.variants)][policy]
        base_seed = round_seed(self.seed, index)
        stamps: list[float] = []
        started = time.perf_counter()
        try:
            rows = list(
                runner.run_many(
                    scenario,
                    runs,
                    base_seed=base_seed,
                    backend="vectorized",
                    reduce="summary",
                    cache="off",
                    progress=lambda done, total: stamps.append(time.perf_counter()),
                ).rows
            )
            completed = runs
        except RUN_FAILURES:
            rows = []
            completed = min(len(stamps), runs - 1)
        edges = [started, *stamps]
        done = [
            Run(policy, edges[i + 1] - edges[i], device_slots, True)
            for i in range(completed)
        ]
        done += [Run(policy, 0.0, 0, False)] * (runs - completed)
        return done, rows

    def gate(self, oracle=None) -> dict[str, str | None]:
        oracle = oracle or event_oracle
        checks = {}
        first_round = self.outputs[0][0]
        for policy, (scenario, _) in self.variants[0].items():
            rows = first_round[policy]
            if not rows:
                checks[policy] = "round 0 produced no output"
                continue
            expected = oracle(scenario, round_seed(self.seed, 0))
            differing = row_mismatches(expected, rows[0])
            checks[policy] = (
                f"run 0 differs from the oracle on {differing}" if differing else None
            )
        return checks


class PaperStatic(RunManyWorkload):
    name = "paper-static"
    why = (
        "Setting 1 of section VI-A, Smart EXP3 then EXP3: per-slot executor "
        "overhead and one-row block starts dominate; stands in for "
        "BENCH_policy_kernels.json"
    )
    legacy = ("BENCH_policy_kernels.json",)
    runs_per_policy = 3

    def __init__(self, num_devices: int = 20, horizon_slots: int = 1200) -> None:
        super().__init__()
        self.num_devices = num_devices
        self.horizon_slots = horizon_slots

    def build(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.add_variant(
            {
                policy: setting1_scenario(
                    policy=policy,
                    num_devices=self.num_devices,
                    horizon_slots=self.horizon_slots,
                )
                for policy in self.policies
            }
        )

    def gate(self, oracle=None) -> dict[str, str | None]:
        checks = super().gate(oracle)
        # The paper's headline claim: Smart EXP3 switches far less than EXP3.
        means = {
            policy: np.mean(
                [row["total_switches"] for rows in self.outputs[0] for row in rows[policy]]
                or [np.nan]
            )
            for policy in ("smart_exp3", "exp3")
        }
        checks["smart_exp3 switches less than exp3"] = (
            None
            if means["smart_exp3"] < means["exp3"]
            else f"mean total switches {means}"
        )
        return checks


class DynamicCampus(RunManyWorkload):
    name = "dynamic-campus"
    why = (
        "Generated churn, mobility, outage and capacity flapping: topology "
        "edits and generic physics on most slots; stands in for "
        "BENCH_churn_native.json"
    )
    legacy = ("BENCH_churn_native.json",)
    policies = ("smart_exp3", "exp3", "greedy")
    runs_per_policy = 2
    #: Generated scenarios per invocation.  Run times differ by about 10%
    #: from one generated scenario to the next, so rounds cycle through
    #: several instead of resting on one.
    variants_per_seed = 8

    def __init__(self, num_devices: int = 300, horizon_slots: int = 300) -> None:
        super().__init__()
        self.num_devices = num_devices
        self.horizon_slots = horizon_slots

    def build(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        for variant in range(self.variants_per_seed):
            scenario = self.generate(round_seed(seed, variant))
            self.add_variant({policy: scenario.with_policy(policy) for policy in self.policies})

    def generate(self, seed: int):
        """One campus scenario, generated from ``seed``."""
        horizon = self.horizon_slots
        return churn_scenario(
            num_devices=self.num_devices,
            policy="smart_exp3",
            horizon_slots=horizon,
            churn=PoissonChurn(
                arrival_rate_per_slot=1.0,
                mean_lifetime_slots=horizon / 3.0,
                initial_fraction=0.2,
            ),
            areas=DEFAULT_AREAS,
            mobility_fraction=0.25,
            dynamics=NetworkDynamics(
                flapping_networks=(0,),
                mean_up_slots=horizon / 6.0,
                mean_outage_slots=horizon / 40.0,
                capacity_networks=(2,),
                mean_capacity_dwell_slots=horizon / 10.0,
            ),
            seed=seed,
        )


class PopulationSharded(Workload):
    """``execute_population`` on 2 shards x 2 worker processes, float32,
    with the in-shard summary reducer and checkpoints at a fixed cadence."""

    name = "population-sharded"
    why = (
        "20k devices on 2 shards, 2 workers, float32, checkpoints: kernel "
        "math, per-device draws, bus and checkpoint writes; stands in for "
        "BENCH_compiled_kernels.json, BENCH_sharded_population.json"
    )
    legacy = ("BENCH_compiled_kernels.json", "BENCH_sharded_population.json")

    #: Devices of the reduced population the correctness gate checks.
    GATE_DEVICES = 40
    #: Summary fields that depend on the stored (float32) rates.
    RATE_FIELDS = ("median_download_mb", "std_download_mb", "total_download_gb", "jains_index")
    #: Relative precision of a float32-stored rate, as the sharded tests pin it.
    FLOAT32_RTOL = 1e-6

    policies = ("exp3", "smart_exp3")
    #: No host speed probes: the runs' times stay wall-clock.  The two worker
    #: processes keep both vCPUs busy while a probe samples one; scaled by
    #: probe times, five seeds' throughput spread by 0.17 instead of 0.08.
    host_probes = 0

    def __init__(self, num_devices: int = 20_000, horizon_slots: int = 100,
                 checkpoint_every: int = 50) -> None:
        super().__init__()
        self.num_devices = num_devices
        self.horizon_slots = horizon_slots
        self.checkpoint_every = checkpoint_every
        self.workdir: Path | None = None  # set by build()
        self.populations: dict[str, HomogeneousPopulation] = {}

    def build(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        for policy in self.policies:
            self.populations[policy] = HomogeneousPopulation(
                num_devices=self.num_devices,
                policy=policy,
                horizon_slots=self.horizon_slots,
                name=f"population-{policy}",
            )

    def execute(self, policy, population, seed, dtype="float32") -> tuple[list[dict], float]:
        """One run's summary rows and wall time; checkpoint clean-up is untimed."""
        directory = self.workdir / f"checkpoints-{policy}"
        executor = ShardedSlotExecutor(
            shards=2,
            workers=2,
            dtype=dtype,
            checkpoint=CheckpointConfig(every_slots=self.checkpoint_every, dir=directory),
        )
        try:
            started = time.perf_counter()
            rows = executor.execute_population(population, seed, SummaryReducer())
            return rows, time.perf_counter() - started
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def run_policy(self, policy, index, runs):
        base_seed = round_seed(self.seed, index)
        population = self.populations[policy]
        device_slots = population.num_devices * population.horizon_slots
        done: list[Run] = []
        rows: list[dict] = []
        for index in range(runs):
            try:
                run_rows, seconds = self.execute(policy, population, run_seed(base_seed, index))
            except RUN_FAILURES:
                done.append(Run(policy, 0.0, 0, False))
                continue
            rows.extend(run_rows)
            done.append(Run(policy, seconds, device_slots, True))
        return done, rows

    def gate(self, oracle=None) -> dict[str, str | None]:
        """Reduced-population check against the event backend.

        The measured configuration stores rates as float32, so its rows
        match the float64 oracle exactly on the switch fields and to float32
        precision on the rate fields; the same configuration at float64 must
        match the oracle bit for bit.
        """
        oracle = oracle or event_oracle
        rtol = self.FLOAT32_RTOL
        checks = {}
        base_seed = round_seed(self.seed, 0)
        for policy, population in self.populations.items():
            expected = oracle(population.build_shard(0, self.GATE_DEVICES), base_seed)
            reduced = replace(population, num_devices=self.GATE_DEVICES)
            for dtype in ("float64", "float32"):
                check = f"{policy} {dtype} {self.GATE_DEVICES} devices"
                try:
                    rows, _ = self.execute(policy, reduced, run_seed(base_seed, 0), dtype)
                except RUN_FAILURES as exc:
                    checks[check] = f"run failed: {exc}"
                    continue
                actual = rows[0]
                differing = row_mismatches(expected, actual)
                if dtype == "float32":
                    # Each download is within ``rtol`` of its float64 value, so
                    # their spread may move by ``rtol`` of the downloads' root
                    # mean square, not of the spread itself.
                    mean = expected["total_download_gb"] * 1024.0 / expected["num_devices"]
                    scale = dict.fromkeys(self.RATE_FIELDS, 0.0)
                    scale["std_download_mb"] = rtol * math.hypot(mean, expected["std_download_mb"])
                    differing = [
                        key
                        for key in differing
                        if key not in self.RATE_FIELDS
                        or not np.isclose(expected[key], actual[key], rtol=rtol, atol=scale[key])
                    ]
                checks[check] = (
                    f"differs from the oracle on {differing}" if differing else None
                )
        return checks


WORKLOADS = {
    workload.name: workload
    for workload in (PaperStatic, DynamicCampus, PopulationSharded)
}


def tiny(name: str) -> Workload:
    """A seconds-scale instance of workload ``name`` (for the self-test)."""
    if name == PaperStatic.name:
        return PaperStatic(num_devices=6, horizon_slots=80)
    if name == DynamicCampus.name:
        return DynamicCampus(num_devices=30, horizon_slots=60)
    return PopulationSharded(num_devices=200, horizon_slots=20, checkpoint_every=5)
