"""Hypothesis-search throughput: certificate pruning versus exhaustive.

Times the dense hypothesis search alone (frame preparation excluded) on
the Hurricane Luis vortex dataset in two subprocesses, one per search
schedule, so neither run warms caches for the other:

* ``exhaustive`` -- the default schedule: every pixel solves all
  ``(2 N_zs + 1)^2`` hypotheses.
* ``pruned`` -- the certificate-grid schedule: per-hypothesis lower
  bounds on the eq. (3) template error skip the Gaussian elimination
  wherever the bound already exceeds the pixel's running best.

Pruning is exact, so both drivers print a digest over the ``u``, ``v``,
``params`` and ``error`` bytes and the speedup assertion is only ever
made about *bit-identical* fields.  Each driver reports its best of
three repetitions together with the GE-solve counts, which quantify the
work actually skipped.

Set ``SEARCH_BENCH_SMOKE=1`` (the CI ``search-bench-smoke`` job does)
for the reduced 96 px grid; the full run uses 128 px.  Both demand the
>= 1.5x documented in docs/performance.md, and either way the record
lands in ``benchmarks/results/search_throughput.json`` and the curated
root ``BENCH_sma_search.json``.
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
    import hashlib, json, sys, time

    import numpy as np

    mode, size = sys.argv[1], int(sys.argv[2])

    from repro.data import hurricane_luis
    from repro.core.matching import prepare_frames, track_dense

    ds = hurricane_luis(size=size, n_frames=2, seed=0)
    prepared = prepare_frames(
        np.asarray(ds.frames[0].surface, dtype=np.float64),
        np.asarray(ds.frames[1].surface, dtype=np.float64),
        ds.config,
    )

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        result = track_dense(prepared, search=mode)
        best = min(best, time.perf_counter() - t0)

    h = hashlib.blake2b(digest_size=16)
    for name in ("u", "v", "params", "error"):
        h.update(getattr(result, name).tobytes())
    print(json.dumps({
        "seconds": best,
        "digest": h.hexdigest(),
        "ge_solves": result.ge_solves,
        "hypotheses_pruned": result.hypotheses_pruned,
    }))
    '''
)


def _run_mode(mode: str, size: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, mode, str(size)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{mode} driver failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_search_throughput(results_dir):
    smoke = os.environ.get("SEARCH_BENCH_SMOKE", "") == "1"
    size = 96 if smoke else 128

    exhaustive = _run_mode("exhaustive", size)
    pruned = _run_mode("pruned", size)

    # pruning is an implementation detail only: identical fields
    assert exhaustive["digest"] == pruned["digest"]
    # and it must actually skip eliminations, not merely match
    assert pruned["ge_solves"] < exhaustive["ge_solves"]
    assert pruned["hypotheses_pruned"] > 0

    speedup = exhaustive["seconds"] / pruned["seconds"]
    record = {
        "mode": "smoke" if smoke else "full",
        "dataset": "hurricane_luis",
        "size": size,
        "exhaustive_seconds": exhaustive["seconds"],
        "pruned_seconds": pruned["seconds"],
        "speedup": speedup,
        "ge_solves_exhaustive": exhaustive["ge_solves"],
        "ge_solves_pruned": pruned["ge_solves"],
        "solve_reduction": 1.0 - pruned["ge_solves"] / exhaustive["ge_solves"],
        "digest": pruned["digest"],
    }
    (results_dir / "search_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    from .conftest import update_bench_record

    update_bench_record("search_throughput", record)
    print(
        f"\nsearch throughput: {speedup:.2f}x ({record['mode']}), "
        f"GE solves {exhaustive['ge_solves']} -> {pruned['ge_solves']}"
    )

    assert speedup >= 1.5
