"""Seconds-scale self-test of the repository benchmark.

Runs every workload at tiny scale through the same ``main`` the benchmark
command uses, and checks the printed contract: every metric by name with
its unit, a parseable record and result, and a correctness gate that
catches a wrong reference.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run, workloads
from perfbench.tracing import PER_LAYER


@pytest.fixture
def clean_environment(monkeypatch):
    """Drop variables that make the benchmark refuse to start."""
    for name in list(os.environ):
        if name in run.FORBIDDEN_ENV or name.startswith(run.FORBIDDEN_ENV_PREFIXES):
            monkeypatch.delenv(name)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace, clean_environment, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--scale", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    assert {name: printed.get(name) for name in expected} == expected

    record = json.loads(lines[-2].removeprefix("record "))
    assert record["workload"] == workload and record["gate_failures"] == []
    # Every policy runs equally often.
    assert len(set(record["runs"].values())) == 1
    assert record["provenance"]["workload_seed"] == 3
    for key in ("code_fingerprint", "numpy_version", "compiled_kernels", "nproc", "python"):
        assert key in record["provenance"]
    if not trace:
        # Times are wall-clock times scaled to the reference host.
        # A probe point precedes each policy call and follows the last one.
        bench = workloads.WORKLOADS[workload]
        probe_points = record["rounds"] * len(bench.policies) + 1
        assert len(record["host_probes_s"]) == probe_points * bench.host_probes
        scale = record["host_scale"]
        assert result["metrics"]["device_slots_per_s"]["value"] == pytest.approx(
            record["wall_clock"]["device_slots_per_s"] / scale
        )
        assert result["metrics"]["run_s_p50.smart_exp3"]["value"] == pytest.approx(
            record["wall_clock"]["run_s_p50"]["smart_exp3"] * scale
        )
    assert not run.WORKDIR.exists()


@pytest.mark.parametrize(
    "field, wrong",
    # A spread off by 1e-4 of itself is far outside float32 storage rounding.
    [
        ("total_switches", lambda value: value + 1),
        ("std_download_mb", lambda value: value * 1.0001),
    ],
)
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_gate_fails_on_a_wrong_reference(workload, field, wrong, tmp_path):
    bench = workloads.tiny(workload)
    bench.build(5, tmp_path)
    bench.measure(0.0)
    assert not any(bench.gate().values())

    def wrong_oracle(scenario, base_seed):
        row = dict(workloads.event_oracle(scenario, base_seed))
        row[field] = wrong(row[field])
        return row

    failures = [message for message in bench.gate(wrong_oracle).values() if message]
    assert failures
    assert all(field in message for message in failures)


def test_refuses_an_environment_that_changes_the_program(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_RUNS", "2")
    argv = ["--workload", "paper-static", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    captured = capsys.readouterr()
    assert "REPRO_BENCH_RUNS" in captured.err and captured.out == ""
