"""Microseconds per hypothesis of the three exact search schedules.

Times one frame pair's hypothesis search -- evaluator construction
included, frame preparation excluded -- on Hurricane Luis pairs at the
paper config (n_zs = 4, n_zt = 5: 81 hypotheses per pixel), and prints
the best of ``--repeats`` runs divided by 81:

* ``exhaustive`` -- ``track_dense(search="exhaustive")`` (chunks of up
  to ``DEFAULT_BATCH_BYTES`` of stacked fields);
* ``segmented`` -- the row-segmented schedule ``ParallelSMA`` runs,
  one hypothesis per chunk, without the PE-memory ledger;
* ``pruned`` -- ``track_dense(search="pruned")``.

At 24 px the kernels have next to nothing to do, so the figure is the
fixed cost a hypothesis pays around them.  Run from the repository
root (the script puts its own checkout's ``src`` first on the path)::

    python benchmarks/hypothesis_cost.py --sizes 24 64 96 --repeats 7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

SCHEDULES = ("exhaustive", "segmented", "pruned")


def _runner(schedule: str, prepared):
    from repro.core.matching import _HostEvaluator, _search, track_dense
    from repro.parallel.segmentation import SegmentedSearch

    if schedule == "segmented":
        config = prepared.config
        return lambda: _search(_HostEvaluator(prepared, 1e-9), SegmentedSearch(config))
    return lambda: track_dense(prepared, search=schedule)


def per_hypothesis_us(size: int, schedule: str, repeats: int, seed: int = 0) -> float:
    """Best-of-``repeats`` search time of one pair over its hypothesis count, in µs."""
    from repro.core.matching import prepare_frames
    from repro.data import hurricane_luis

    dataset = hurricane_luis(size=size, n_frames=2, seed=seed)
    prepared = prepare_frames(
        np.asarray(dataset.frames[0].surface, dtype=np.float64),
        np.asarray(dataset.frames[1].surface, dtype=np.float64),
        dataset.config,
    )
    run = _runner(schedule, prepared)
    run()  # warm-up: lazy imports, the native build, first-touch pages
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best / prepared.config.hypotheses_per_pixel * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[24, 64, 96])
    parser.add_argument("--schedules", nargs="+", choices=SCHEDULES, default=list(SCHEDULES))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    header = " ".join(f"{s:>11}" for s in args.schedules)
    print(f"{'size':>5} {header}   (µs per hypothesis)")
    for size in args.sizes:
        row = [per_hypothesis_us(size, s, args.repeats) for s in args.schedules]
        print(f"{size:>5} " + " ".join(f"{us:>11.0f}" for us in row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
