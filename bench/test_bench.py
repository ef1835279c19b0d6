"""Smoke test of the benchmark harness.

Run from the repository root with ``python -m pytest bench -q`` (the
tier-1 suite collects only ``tests/``).  One ``--smoke --trace 1`` run
of all four workloads -- tiny inputs, 1.5 s per run -- must finish in
under a minute, print every metric with its unit, tile each operation
with layer self times, and leave no shared-memory segment or server
process behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

SHM_DIR = "/dev/shm"
SEGMENT_PREFIX = "repro-bus-"


def _segments() -> set[str]:
    if not os.path.isdir(SHM_DIR):
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith(SEGMENT_PREFIX)}


def _bench_processes() -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"serve_launcher.py" in cmdline or b"workloads.py" in cmdline:
            pids.append(int(entry))
    return pids


@pytest.fixture(scope="module")
def smoke():
    segments_before = _segments()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - t0
    units: dict[tuple[str, str], str] = {}
    values: dict[tuple[str, str], float] = {}
    for line in proc.stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 4:
            units[(parts[0], parts[1])] = parts[3]
            values[(parts[0], parts[1])] = float(parts[2])
    return {
        "proc": proc,
        "elapsed": elapsed,
        "units": units,
        "values": values,
        "segments_before": segments_before,
    }


def test_smoke_run_is_correct_and_fast(smoke):
    proc = smoke["proc"]
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert smoke["elapsed"] < 60.0


def test_every_metric_prints_with_its_unit(smoke):
    expected = {**run.END_TO_END, **run.PER_LAYER}
    for workload in workloads.WORKLOADS:
        for metric, unit in expected.items():
            assert smoke["units"].get((workload, metric)) == unit, (workload, metric)


@pytest.mark.parametrize("workload", ["search-pruned", "stream-pool"])
def test_layer_self_times_tile_the_operation(smoke, workload):
    values = smoke["values"]
    wall = values[(workload, "op.wall_s")]
    assert wall > 0
    assert abs(values[(workload, "unattributed_s")]) <= 0.05 * wall


def test_no_shared_memory_segment_leaks(smoke):
    assert _segments() - smoke["segments_before"] == set()


def test_no_server_or_workload_process_left_behind(smoke):
    assert _bench_processes() == []
