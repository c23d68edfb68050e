"""The repository benchmark: one command per workload, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 25 --trace 0

Workloads: ``paper-static``, ``dynamic-campus``, ``population-sharded``
(see ``perfbench/workloads.py``).  ``--trace 0`` measures the end-to-end
metrics on the unmodified program; ``--trace 1`` replays the same rounds
with spans recorded around each layer and reports the per-layer metrics
(``perfbench/tracing.py``).  Both modes run the correctness gate after the
timed section.  Human-readable lines and one ``record`` line with the
provenance come first; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are in reference seconds (``perfbench/hostspeed.py``):
wall seconds scaled by a host speed probe timed between the policy calls,
so that the drifting speed of a shared host does not read as a change in
the program.  The record line keeps the wall-clock values.

The command refuses to start when an environment variable that changes the
measured program is set, and exits non-zero without a result when the
``repro`` sources are not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Throwaway files (checkpoints, worker span logs) of one invocation.
WORKDIR = ROOT / ".perfbench"

#: Environment variables that change the measured program (exact names and
#: prefixes): telemetry, profiling, compiled kernels, legacy bench knobs and
#: the run cache.
FORBIDDEN_ENV = ("REPRO_TELEMETRY_DIR", "REPRO_COMPILED", "REPRO_RUN_CACHE")
FORBIDDEN_ENV_PREFIXES = ("REPRO_PROFILE", "REPRO_BENCH_")

#: Set-up repetitions per invocation (the reported ``setup_s`` is their median).
SETUP_REPEATS = 3
#: Host speed probes after each set-up.
SETUP_HOST_PROBES = 4

#: End-to-end metrics: name -> unit.  The run-time median is Smart EXP3's
#: alone: every workload runs it, and its runs are the longest, so its
#: median stays steady where one short EXP3 run per invocation does not.
END_TO_END = {
    "device_slots_per_s": "device-slots/s",
    "run_s_p50.smart_exp3": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_ok_frac": "ratio",
}


def environment_problem(environ) -> str | None:
    """Why the benchmark must not start in ``environ``, or ``None``."""
    offending = sorted(
        name
        for name in environ
        if name in FORBIDDEN_ENV or name.startswith(FORBIDDEN_ENV_PREFIXES)
    )
    if offending:
        return (
            "refusing to start: these variables change the measured program: "
            + ", ".join(offending)
        )
    return None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: seconds-scale inputs for the self-test",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: time one set-up in this process and print it",
    )
    return parser.parse_args(argv)


def use_sources() -> bool:
    """Put the checkout's ``src`` and root on ``sys.path``; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def make_workload(name: str, scale: str):
    from perfbench import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    if scale == "tiny":
        return workloads.tiny(name)
    return workloads.WORKLOADS[name]()


def setup_probe(args) -> int:
    """Child side of ``setup_s``: import ``repro`` and build the workload,
    then probe the host speed (:mod:`perfbench.hostspeed`)."""
    started = time.perf_counter()
    import repro  # noqa: F401

    make_workload(args.workload, args.scale).build(args.seed, WORKDIR)
    setup = time.perf_counter() - started

    from perfbench import hostspeed

    probes = [hostspeed.probe() for _ in range(SETUP_HOST_PROBES)]
    print(json.dumps({"setup_s": setup, "scale": hostspeed.scale(probes)}))
    return 0


def measure_setup(args, repeats: int) -> list[dict]:
    """Set-up time and host scale of ``repeats`` fresh interpreters, each
    waited for."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--scale", args.scale,
    ]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    from repro.profiling import run_provenance
    from repro.registry.fingerprint import code_fingerprint

    return {
        **run_provenance(),
        "code_fingerprint": code_fingerprint(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def traced_pass(workload, rounds: int) -> tuple[dict, float, list]:
    """Replay ``rounds`` rounds with spans recorded; ``(totals, wall, runs)``."""
    from perfbench.tracing import Tracer, aggregate, load_worker_spans

    span_dir = WORKDIR / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    totals: dict = {}
    runs = []
    wall = 0.0
    workload.outputs.append([])  # a second pass, checked against the first
    tracer.install(span_dir)
    try:
        for index in range(rounds):
            tracer.run_id = index
            done, seconds = workload.run_round(index)
            runs.extend(done)
            wall += seconds
            aggregate(tracer.take(), totals)
            for spans in load_worker_spans(span_dir):
                aggregate(spans, totals)
    finally:
        tracer.uninstall()
    return totals, wall, runs


def measure(args) -> dict:
    """Run one workload invocation and return its full record."""
    from perfbench import hostspeed
    from perfbench.tracing import PER_LAYER, layer_metrics

    workload = make_workload(args.workload, args.scale)
    workload.build(args.seed, WORKDIR)
    budget = args.seconds / 2 if args.trace else args.seconds
    runs, wall, probes = workload.measure(budget)
    scale = hostspeed.scale(probes) if probes else 1.0
    rounds = len(workload.outputs[0])
    rss = peak_rss_mb()

    metrics: dict[str, tuple[float, str]] = {}
    record: dict = {}
    if args.trace:
        totals, traced_wall, traced_runs = traced_pass(workload, rounds)
        runs += traced_runs
        values = layer_metrics(totals, len(traced_runs), traced_wall / wall - 1.0)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        record["spans"] = {name: entry[:3] for name, entry in sorted(totals.items())}

    checks = {**workload.gate(), **workload.replay_checks()}
    failures = [f"{check}: {message}" for check, message in checks.items() if message]
    setup = measure_setup(args, 1 if args.scale == "tiny" else SETUP_REPEATS)
    attempted = len(runs) + len(checks)
    failed = sum(not run.ok for run in runs) + len(failures)
    if not args.trace:
        times = {
            policy: [run.seconds for run in runs if run.ok and run.policy == policy]
            for policy in workload.policies
        }
        medians = {
            policy: statistics.median(samples) if samples else 0.0
            for policy, samples in times.items()
        }
        device_slots = sum(run.device_slots for run in runs)
        setup_s = statistics.median(sample["setup_s"] * sample["scale"] for sample in setup)
        metrics = {
            "device_slots_per_s": device_slots / (wall * scale),
            "run_s_p50.smart_exp3": medians["smart_exp3"] * scale,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "runs_ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
        record["run_s_p50"] = {policy: median * scale for policy, median in medians.items()}
        record["wall_clock"] = {
            "device_slots_per_s": device_slots / wall,
            "run_s_p50": medians,
            "setup_s": statistics.median(sample["setup_s"] for sample in setup),
        }
        record["run_s_samples"] = {policy: len(samples) for policy, samples in times.items()}
    record.update(
        workload=workload.name,
        why=workload.why,
        legacy=list(workload.legacy),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        rounds=rounds,
        runs={policy: sum(r.policy == policy for r in runs) for policy in workload.policies},
        gate_checks=len(checks),
        timed_s=wall,
        host_scale=scale,
        host_probes_s=probes,
        setup_samples=setup,
        gate_failures=failures,
        provenance=provenance(args.seed),
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "record": record,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        print(f"repro sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    problem = environment_problem(os.environ)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        result = measure(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    record = result.pop("record")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for message in record["gate_failures"]:
        print(f"gate failure: {message}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
