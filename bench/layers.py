"""Per-layer self-time accounting, installed from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces each layer's public entry points *at their import sites* (the
module attribute the caller actually looks up, e.g.
``repro.core.matching.strided_window_sums``) with a thin wrapper that
records, per layer name:

* ``calls`` -- how many times the layer was entered,
* ``wall``  -- inclusive seconds inside the layer,
* ``self``  -- ``wall`` minus the time spent in nested wrapped layers,
* ``bytes`` -- bytes moved, *computed* from array shapes (kernels) or
  from the artifact written (checkpoints, cache puts, bus slots),
* ``errors`` -- calls that raised, and layer-specific counts such as
  ``ge_solves`` or ``hits``.

Self time is tracked with a per-thread stack, so the threaded server
attributes concurrent requests correctly.

Pool workers are forked after :func:`install` runs, so they inherit the
wrappers.  Their totals travel back on the payload channel the program
already has: the worker's ``worker_payload()`` result is wrapped into
``{"bench": totals, "orig": payload}`` and the parent's
``absorb_payload`` unwraps it again.  Worker totals are kept apart from
the local ones (:meth:`Collector.snapshot` returns both), because
worker time runs in parallel with the parent's wall clock.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

_QUANTITIES = ("calls", "wall", "self", "bytes", "errors")


def _empty() -> dict:
    return {name: 0 for name in _QUANTITIES}


def merge_totals(target: dict, source: dict) -> None:
    """Add per-layer totals into ``target`` (``*_max`` keys keep the maximum)."""
    for layer, values in source.items():
        row = target.setdefault(layer, _empty())
        for key, value in values.items():
            if key.endswith("_max"):
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value


class Collector:
    """Thread-safe per-layer totals for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._totals: dict[str, dict] = {}
        self._remote: dict[str, dict] = {}

    # -- recording ------------------------------------------------------------------

    def _check_process(self) -> None:
        # A forked pool worker inherits the parent's totals and the
        # forking thread's open frames; it must start from zero.
        if os.getpid() != self._pid:
            with self._lock:
                self._totals = {}
                self._remote = {}
            self._local = threading.local()
            self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, **counts: float) -> None:
        """Add named quantities to a layer (``*_max`` keys keep the maximum)."""
        self._check_process()
        with self._lock:
            merge_totals(self._totals, {layer: counts})

    def wrap(self, layer: str, fn, size=None, note=None, pre=None):
        """``fn`` timed under ``layer``.

        ``layer`` is a name, or a callable ``(args, kwargs) -> name`` for
        an entry point that serves two layers.  ``size(args, kwargs,
        result)`` returns bytes moved; ``pre(args, kwargs)`` captures
        state before the call and ``note(collector, args, kwargs,
        result, before)`` records layer-specific counts after it.  Both
        run outside the timed interval.
        """
        choose = layer if callable(layer) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._check_process()
            name = choose(args, kwargs) if choose is not None else layer
            before = pre(args, kwargs) if pre is not None else None
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    row = self._totals.get(name)
                    if row is None:
                        row = self._totals[name] = _empty()
                    row["calls"] += 1
                    row["wall"] += elapsed
                    row["self"] += elapsed - frame[0]
                    row["errors"] += failed
            if size is not None:
                moved = size(args, kwargs, result)
                with self._lock:
                    self._totals[name]["bytes"] += moved
            if note is not None:
                note(self, args, kwargs, result, before)
            return result

        wrapper.__bench_layer__ = layer
        return wrapper

    # -- collection -----------------------------------------------------------------

    def reset(self) -> None:
        self._check_process()
        with self._lock:
            self._totals = {}
            self._remote = {}

    def snapshot(self) -> dict:
        """``{"local": {layer: totals}, "remote": {layer: totals}}``."""
        self._check_process()
        with self._lock:
            return {
                "local": {k: dict(v) for k, v in self._totals.items()},
                "remote": {k: dict(v) for k, v in self._remote.items()},
            }

    def drain_local(self) -> dict:
        self._check_process()
        with self._lock:
            totals, self._totals = self._totals, {}
        return totals

    def absorb_remote(self, totals: dict) -> None:
        with self._lock:
            merge_totals(self._remote, totals)


# -- byte counters (computed from shapes, not measured) ----------------------------


def _array_bytes(value) -> int:
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(value, "dtype"):
        return nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(value, name)) for name in value.__dataclass_fields__)
    return 0


def arrays_moved(args, kwargs, result) -> int:
    """Bytes of every array argument read plus every array result written."""
    return (
        sum(_array_bytes(a) for a in args)
        + sum(_array_bytes(v) for v in kwargs.values())
        + _array_bytes(result)
    )


def _slot_bytes(args, kwargs, result) -> int:
    return int(args[0].slot_bytes)


def _file_bytes(args, kwargs, result) -> int:
    try:
        return os.path.getsize(result)
    except (OSError, TypeError):
        return 0


# -- layer-specific counts ---------------------------------------------------------


def _note_dense(collector, args, kwargs, result, before) -> None:
    prepared = args[0]
    h, w = prepared.geo_before.shape
    collector.add(
        "search",
        ge_solves=result.ge_solves,
        exhaustive_solves=h * w * prepared.config.hypotheses_per_pixel,
    )


def _note_parallel(collector, args, kwargs, result, before) -> None:
    from repro.core.matching import PHASE_MATCHING

    h, w = result.field.shape
    solves = sum(
        ge for name, _, ge in result.ledger.breakdown(with_counts=True)
        if name == PHASE_MATCHING
    )
    collector.add(
        "search",
        ge_solves=solves,
        exhaustive_solves=h * w * args[0].config.hypotheses_per_pixel,
    )


def _note_ladder(collector, args, kwargs, result, before) -> None:
    collector.add("ladder", degraded=int(result[0].rung > 0))


def _pre_prep_hits(args, kwargs):
    return args[0].stats.hits


def _note_prep_hits(collector, args, kwargs, result, before) -> None:
    collector.add("prep.cache_lookup", hits=args[0].stats.hits - before)


def _note_resolve(collector, args, kwargs, result, before) -> None:
    wall = result[3]
    if wall is not None:
        collector.add("pool.resolve_wait", worker_busy=wall)


def _note_queue_depth(collector, args, kwargs, result, before) -> None:
    collector.add("queue.submit", depth_max=args[0].depth())


def _cache_get_records(args, kwargs) -> bool:
    return kwargs.get("record", args[2] if len(args) > 2 else True)


def _cache_get_layer(args, kwargs) -> str:
    # Job executions look up with record=True; product reads on the
    # HTTP path pass record=False and belong to the response, not the job.
    return "cache.get" if _cache_get_records(args, kwargs) else "cache.read_product"


def _note_cache_get(collector, args, kwargs, result, before) -> None:
    if _cache_get_records(args, kwargs):
        collector.add("cache.get", lookups=1, hits=int(result is not None))


#: (module, attribute path, layer, size, note, pre) for every wrapped entry point.
SITES = (
    # search layer: the two hypothesis-search drivers
    ("repro.core.matching", "track_dense", "search", None, _note_dense, None),
    ("repro.parallel.segmentation", "SegmentedSearch.run", "search", None, None, None),
    ("repro.parallel.parallel_sma", "ParallelSMA.track_pair", "sma", None, _note_parallel, None),
    # kernels, at each module that calls them by global name
    ("repro.core.matching", "pointwise_fields", "kernels.pointwise", arrays_moved, None, None),
    ("repro.core.matching", "box_sum", "kernels.box_sum", arrays_moved, None, None),
    ("repro.core.matching", "_kernel_box_sum_stack", "kernels.box_sum", arrays_moved, None, None),
    ("repro.core.matching", "strided_window_sums", "kernels.certificate", arrays_moved, None, None),
    ("repro.core.matching", "solve_accumulated", "kernels.eliminate", arrays_moved, None, None),
    ("repro.parallel.parallel_sma", "solve_accumulated", "kernels.eliminate", arrays_moved, None, None),
    # per-frame preparation
    ("repro.core.matching", "prepare_frames", "prep.prepare_frames", None, None, None),
    ("repro.parallel.parallel_sma", "prepare_frames", "prep.prepare_frames", None, None, None),
    ("repro.core.matching", "prepare_frame", "prep.surface_fit", None, None, None),
    ("repro.core.prep", "prepare_frame", "prep.surface_fit", None, None, None),
    ("repro.core.prep", "FramePreparationCache.get", "prep.cache_lookup", None,
     _note_prep_hits, _pre_prep_hits),
    # reliability: streaming runner, checkpoints, degradation ladder
    ("repro.reliability.stream", "StreamingRunner.run", "stream", None, None, None),
    ("repro.reliability.stream", "StreamingRunner._stage", "stream.stage", None, None, None),
    ("repro.reliability.stream", "StreamingRunner._fetch", "stream.fetch", None, None, None),
    ("repro.reliability.stream", "save_checkpoint", "stream.checkpoint", _file_bytes, None, None),
    ("repro.reliability.degrade", "DegradationLadder.track_pair", "ladder", None, _note_ladder, None),
    # process pool
    ("repro.parallel.pairs", "LadderPool.__init__", "pool.startup", None, None, None),
    ("repro.parallel.pairs", "LadderPool._ensure_shm", "pool.startup", None, None, None),
    ("repro.parallel.pairs", "LadderPool.submit", "pool.submit", None, None, None),
    ("repro.parallel.pairs", "LadderPool.resolve", "pool.resolve_wait", None, _note_resolve, None),
    ("repro.parallel.pairs", "LadderPool.__exit__", "pool.teardown", None, None, None),
    ("repro.parallel.pairs", "LadderPool.close", "pool.teardown", None, None, None),
    # shared-memory bus
    ("repro.bus.ring", "FrameRing.publish_frame", "bus.publish", _slot_bytes, None, None),
    ("repro.bus.ring", "ResultRing.publish_planes", "bus.publish", _slot_bytes, None, None),
    ("repro.bus.ring", "FrameRing.read_frame", "bus.read", None, None, None),
    ("repro.bus.ring", "ResultRing.read_planes", "bus.read", None, None, None),
    # serving
    ("repro.serve.frontend", "route", "http.route", None, None, None),
    ("repro.serve.queue", "JobQueue.submit", "queue.submit", None, _note_queue_depth, None),
    ("repro.serve.queue", "JobQueue.complete", "queue.complete", None, None, None),
    ("repro.serve.workers", "WorkerPool.execute", "worker.execute", None, None, None),
    ("repro.serve.workers", "result_key", "serve.result_key", None, None, None),
    ("repro.serve.workers", "_dataset_for", "data.generate", None, None, None),
    ("repro.serve.cache", "ResultCache.get", _cache_get_layer, None, _note_cache_get, None),
    ("repro.serve.cache", "ResultCache.put", "cache.put", _file_bytes, None, None),
)


def install(collector: Collector) -> None:
    """Wrap every entry point in :data:`SITES` and the worker payload channel."""
    for module_name, path, layer, size, note, pre in SITES:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        if getattr(original, "__bench_layer__", None) is not None:
            raise RuntimeError(f"{module_name}.{path} is already wrapped")
        setattr(owner, name, collector.wrap(layer, original, size=size, note=note, pre=pre))
    _install_payload_channel(collector)


def _install_payload_channel(collector: Collector) -> None:
    import repro.parallel.pairs as pairs
    import repro.reliability.stream as stream

    original_payload = pairs.worker_payload

    @functools.wraps(original_payload)
    def worker_payload():
        return {"bench": collector.drain_local(), "orig": original_payload()}

    pairs.worker_payload = worker_payload

    for module in (pairs, stream):
        original_absorb = module.absorb_payload

        def absorb_payload(payload, _absorb=original_absorb):
            if isinstance(payload, dict) and "bench" in payload:
                collector.absorb_remote(payload["bench"])
                payload = payload["orig"]
            _absorb(payload)

        module.absorb_payload = functools.wraps(original_absorb)(absorb_payload)
