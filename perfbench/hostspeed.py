"""Host speed probe: scales wall times to seconds of a reference host.

The benchmark runs on shared virtual machines whose speed drifts with the
load other tenants put on the physical host: the same deterministic run
took from 0.61 s to 1.11 s within half an hour on a 2-vCPU VM, and the
host stays fast or slow for minutes at a time.  A wall time then reports
the host as much as the program, and ten invocations split between a fast
and a slow spell spread by 30% however long each one runs.

The benchmark therefore times a fixed probe, a pure-Python integer loop,
between the policy calls of its serial workloads and reports their times
in *reference seconds*: wall seconds scaled by how much faster or slower
the probe ran than on the reference host (see :func:`scale`).  Over ten
minutes of such drift, fixed ``paper-static`` and ``dynamic-campus`` runs
timed next to the probe spread by 0.12 and 0.11 (quartile distance over
median of 40-s means) in wall time and by 0.07 and 0.05 in reference time;
a probe that added numpy calls on 20-row arrays tracked them less well.
``population-sharded`` runs two worker processes, one per vCPU, and the
one-process probe tracked it in some traces and not in others, so its run
times stay wall-clock.  The probe imports nothing from ``repro``, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: Probe wall time that defines the reference host.  One vCPU of a shared
#: 2.1-GHz Xeon VM ran the probe in 0.08 s to 0.14 s over an hour.
REFERENCE_PROBE_S = 0.1

#: Iterations of the probe's loop.
ITERATIONS = 1_200_000


def probe() -> float:
    """Wall time of one fixed probe, in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def scale(probe_times: list[float]) -> float:
    """Reference seconds per wall second, given probe times from one run.

    On a host running twice as slow as the reference, the probe takes twice
    :data:`REFERENCE_PROBE_S` and each wall second counts as half a
    reference second.  The probes are spread over the run, and their mean
    time weighs a short stall of the host as the run's wall time does.
    """
    return REFERENCE_PROBE_S / statistics.fmean(probe_times)
