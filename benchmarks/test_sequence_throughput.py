"""Sequence throughput: the PR-2 fast path versus the pre-PR baseline.

Times an 8-frame monocular tracking sequence end to end in two
subprocesses:

* ``legacy`` -- the pre-optimization path: per-pair ``prepare_frames``
  with no preparation cache, one hypothesis per chunk
  (``batch_bytes=1``), and the NumPy Gaussian elimination
  (``REPRO_NATIVE=0``).
* ``new`` -- the default ``SMAnalyzer.track_sequence`` path: the
  frame-preparation cache (each interior frame fitted once, not twice),
  the batched normal-equation solver, and the native elimination
  kernel.

Both drivers print a digest of every field's ``u``/``v``/``error``
bytes, so the speedup assertion is only ever made about *bit-identical*
outputs.  Timing starts after imports and dataset synthesis; each mode
runs in a fresh interpreter so neither warms caches for the other.

Set ``THROUGHPUT_SMOKE=1`` (the CI smoke job does) to run a reduced
workload that only asserts the fast path is not slower; the full run
demands the >= 1.8x advertised in docs/performance.md.  Either way the
measured timings land in ``benchmarks/results/sequence_throughput.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

DRIVER = textwrap.dedent(
    '''
    import dataclasses, hashlib, json, sys, time

    mode, size, n_frames = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

    from repro.data import florida_thunderstorm

    ds = florida_thunderstorm(size=size, n_frames=n_frames, seed=1995)
    config = dataclasses.replace(ds.config, n_zs=3, n_zt=4)

    def digest(fields):
        h = hashlib.blake2b(digest_size=16)
        for f in fields:
            h.update(f.u.tobytes())
            h.update(f.v.tobytes())
            h.update(f.error.tobytes())
        return h.hexdigest()

    t0 = time.perf_counter()
    if mode == "legacy":
        from repro.core.matching import prepare_frames, track_dense

        fields = []
        for m in range(len(ds.frames) - 1):
            prep = prepare_frames(
                ds.frames[m].surface, ds.frames[m + 1].surface, config
            )
            fields.append(track_dense(prep, batch_bytes=1))
    else:
        from repro import SMAnalyzer

        fields = SMAnalyzer(config).track_sequence(ds.frames)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"seconds": elapsed, "digest": digest(fields)}))
    '''
)


def _run_mode(mode: str, size: int, n_frames: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if mode == "legacy":
        env["REPRO_NATIVE"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, mode, str(size), str(n_frames)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{mode} driver failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sequence_throughput(results_dir):
    smoke = os.environ.get("THROUGHPUT_SMOKE", "") == "1"
    size, n_frames = (48, 4) if smoke else (96, 8)

    legacy = _run_mode("legacy", size, n_frames)
    new = _run_mode("new", size, n_frames)

    # the optimizations are implementation detail only: identical fields
    assert legacy["digest"] == new["digest"]

    speedup = legacy["seconds"] / new["seconds"]
    record = {
        "mode": "smoke" if smoke else "full",
        "size": size,
        "n_frames": n_frames,
        "legacy_seconds": legacy["seconds"],
        "new_seconds": new["seconds"],
        "speedup": speedup,
        "digest": new["digest"],
    }
    (results_dir / "sequence_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    from .conftest import update_bench_record

    update_bench_record("sequence_throughput", record)
    print(f"\nsequence throughput: {speedup:.2f}x ({record['mode']})")

    if smoke:
        # tiny workloads are dominated by constant overheads; just make
        # sure the fast path never regresses below the legacy one
        assert speedup > 1.0
    else:
        assert speedup >= 1.8
