"""Process-pool sharding of a sequence's independent frame pairs.

The pairwise estimates of a T-frame sequence are mutually independent --
pair ``m`` reads frames ``m`` and ``m+1`` and nothing else -- so they
shard perfectly.  This module is the multi-core analogue of the paper's
observation that the MasPar keeps all PEs busy because every pixel (and
every pair) runs the same schedule on private data.

:class:`LadderPool` is the one pair pool.  The streaming runner's
``workers`` mode (and through it ``repro stream --workers`` and serve
``kind: "sequence"`` jobs with ``pool_workers``) hands it one pair at a
time; each worker runs the pair under its own
:class:`~repro.reliability.degrade.DegradationLadder` and
:class:`~repro.core.prep.FramePreparationCache`, and the runner merges
results strictly in pair order, so the run is bit-identical to the
sequential path regardless of worker count or scheduling.

Two frame **transports** are supported, bit-identical to each other:

``pickle`` (default)
    Tasks carry the frame arrays through the pool's pipe.

``shm``
    Each distinct frame is published once into a named shared-memory
    :class:`~repro.bus.ring.FrameRing` and the dense planes return
    through a :class:`~repro.bus.ring.ResultRing`; tasks and results
    carry only slot indices plus scalar metadata.

Top-level functions only: pool workers import this module by name, so
the task callables must be picklable module attributes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time

from ..obs import absorb_payload  # noqa: F401  (unused; bench/layers.py wraps this name)
from ..obs import worker_init, worker_payload
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER

#: Frame transports the pool accepts.
TRANSPORTS = ("pickle", "shm")

#: Per-worker state, populated by the pool initializer.
_WORKER_STATE: dict = {}

_RING_COUNTER = itertools.count()


def resolve_transport(transport: str) -> str:
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r} (choose from {TRANSPORTS})")
    return transport


def _ring_name(tag: str) -> str:
    """A collision-free ring name for one pool's lifetime."""
    return f"{tag}-{os.getpid()}-{next(_RING_COUNTER)}-{os.urandom(3).hex()}"


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the loaded native kernel) when present."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _init_ladder_worker(
    config,
    hs_iterations: int,
    tracing: bool = False,
    search: str = "exhaustive",
    backend: str = "auto",
    frame_ring: str | None = None,
    result_ring: str | None = None,
) -> None:
    from ..core.prep import FramePreparationCache
    from ..reliability.degrade import DegradationLadder

    worker_init(tracing)
    _WORKER_STATE.clear()
    _WORKER_STATE["ladder"] = DegradationLadder(
        config, hs_iterations=hs_iterations, search=search, backend=backend
    )
    _WORKER_STATE["prep_cache"] = FramePreparationCache(max_frames=4)
    if frame_ring is not None:
        from ..bus.ring import FrameRing, ResultRing

        _WORKER_STATE["frame_ring"] = FrameRing.attach(frame_ring, timeout=10.0)
        _WORKER_STATE["result_ring"] = ResultRing.attach(result_ring, timeout=10.0)


def _ladder_pair_task(task: tuple) -> tuple:
    (index, before, after, machine, planned, dt, int_b, int_a, fit_images) = task
    t0 = time.perf_counter()
    with TRACER.span("pair", pair=index):
        result, steps = _WORKER_STATE["ladder"].track_pair(
            before,
            after,
            machine,
            planned,
            dt_seconds=dt,
            intensity_before=int_b,
            intensity_after=int_a,
            prep_cache=_WORKER_STATE["prep_cache"],
            fit_images=fit_images,
        )
    wall = time.perf_counter() - t0
    return index, result, steps, wall, worker_payload()


def _ladder_pair_task_shm(task: tuple) -> tuple:
    """Ladder task with frames read from (and planes returned via) rings.

    The runner's waves bound the pairs in flight to ``workers``, while
    the frame ring holds ``4 * workers + 16`` slots and the result ring
    ``2 * workers + 4``, so no slot is reused while a reader still needs
    it.  A lapped or torn slot means that invariant broke: the
    ``SlotMissed`` / ``TornSlot`` it raises propagates out of
    :meth:`LadderPool.resolve` and aborts the run; the pair is not
    degraded.
    """
    (index, seq_b, seq_a, machine, planned, dt, fit_images) = task
    ring = _WORKER_STATE["frame_ring"]
    t0 = time.perf_counter()
    bf_b = ring.read_frame(seq_b, copy=True)
    bf_a = ring.read_frame(seq_a, copy=True)
    METRICS.inc("bus.bytes_avoided", 2 * ring.slot_bytes)
    with TRACER.span("pair", pair=index):
        result, steps = _WORKER_STATE["ladder"].track_pair(
            bf_b.frame.surface,
            bf_a.frame.surface,
            machine,
            planned,
            dt_seconds=dt,
            intensity_before=bf_b.frame.intensity,
            intensity_after=bf_a.frame.intensity,
            prep_cache=_WORKER_STATE["prep_cache"],
            fit_images=fit_images,
        )
    wall = time.perf_counter() - t0
    seq = _WORKER_STATE["result_ring"].publish_planes(
        index, result.u, result.v, result.error
    )
    slim = (result.rung, result.segment_rows, result.ledger, result.seconds, result.detail)
    return index, ("seq", seq, slim), steps, wall, worker_payload()


class LadderPool:
    """Pool of :class:`~repro.reliability.degrade.DegradationLadder` workers.

    Used by the streaming runner's ``workers`` mode: the main process
    keeps doing everything order-sensitive (disk fetches, ledger
    charges, report events, checkpoints) while the pure per-pair
    computation runs in the pool.  Results are merged strictly in pair
    order, so the run's field, ledger and report are bit-identical to
    the sequential path.

    With ``transport="shm"`` the pool lazily creates a frame ring and a
    result ring on first submit; each distinct frame is published once
    (keyed by array identity -- the runner hands pair ``m+1`` the same
    ``after`` array object it handed pair ``m`` as ``before``) and
    workers receive only slot indices.
    """

    def __init__(
        self,
        config,
        hs_iterations: int,
        workers: int,
        search: str = "exhaustive",
        backend: str = "auto",
        transport: str = "pickle",
    ) -> None:
        self.transport = resolve_transport(transport)
        self.workers = workers
        self._config = config
        self._hs_iterations = hs_iterations
        self._search = search
        self._backend = backend
        self._pool = None
        self._frame_ring = None
        self._result_ring = None
        self._published: dict[int, int] = {}  # id(array) -> ring seq
        self._pending_results = 0
        if transport == "pickle":
            self._pool = _pool_context().Pool(
                processes=workers,
                initializer=_init_ladder_worker,
                initargs=(config, hs_iterations, TRACER.enabled, search, backend),
            )

    @property
    def ring_name(self) -> str | None:
        return self._frame_ring.name if self._frame_ring is not None else None

    def _ensure_shm(self, shape: tuple[int, int], has_intensity: bool) -> None:
        from ..bus.ring import FrameRing, ResultRing

        if self._pool is not None:
            return
        name = _ring_name("ladder")
        # Wave scheduling bounds in-flight pairs to ~workers, so a slot
        # is reused only long after both of its pairs completed.
        self._frame_ring = FrameRing.create_frames(
            name,
            capacity=4 * self.workers + 16,
            height=shape[0],
            width=shape[1],
            intensity=has_intensity,
            prep=False,
        )
        self._result_ring = ResultRing.create_results(
            f"{name}-out",
            capacity=2 * self.workers + 4,
            height=shape[0],
            width=shape[1],
            params=False,
        )
        self._pool = _pool_context().Pool(
            processes=self.workers,
            initializer=_init_ladder_worker,
            initargs=(
                self._config,
                self._hs_iterations,
                TRACER.enabled,
                self._search,
                self._backend,
                name,
                f"{name}-out",
            ),
        )

    def _publish_once(self, array, intensity) -> int:
        # The memo holds the array itself, not just its id: a held
        # reference pins the id so a freed array's recycled address can
        # never alias a stale entry.
        key = id(array)
        entry = self._published.get(key)
        if entry is not None and entry[1] is array:
            # Reuse only while the slot is comfortably inside the ring:
            # leave a 2*workers margin for publishes that land while
            # the reading worker is still in flight.
            horizon = self._frame_ring.write_cursor - self._frame_ring.capacity
            if entry[0] > horizon + 2 * self.workers:
                METRICS.inc("pool.frame_memo.hit")
                return entry[0]
        from ..core.sma import Frame

        frame = Frame(surface=array, intensity=intensity)
        seq = self._frame_ring.publish_frame(frame)
        if len(self._published) > 8 * self.workers:
            self._published.clear()
        self._published[key] = (seq, array)
        return seq

    def submit(self, task: tuple):
        """Dispatch one `_ladder_pair_task` tuple; returns an AsyncResult."""
        if self.transport == "shm":
            (index, before, after, machine, planned, dt, int_b, int_a, fit) = task
            self._ensure_shm(
                before.shape, int_b is not None or int_a is not None
            )
            seq_b = self._publish_once(before, int_b)
            seq_a = self._publish_once(after, int_a)
            shm_task = (index, seq_b, seq_a, machine, planned, dt, fit)
            return self._pool.apply_async(_ladder_pair_task_shm, (shm_task,))
        return self._pool.apply_async(_ladder_pair_task, (task,))

    def resolve(self, handle):
        """Unwrap one submitted pair: ``(result, steps, wall, payload)``.

        On the shm transport the dense planes are read (and the slot
        released) here, in the main process, rebuilding the same
        :class:`~repro.reliability.degrade.RungResult` the pickle
        transport returns.
        """
        index, result, steps, wall, payload = handle.get()
        if self.transport == "shm" and isinstance(result, tuple) and result[0] == "seq":
            from ..reliability.degrade import RungResult

            _, seq, (rung, segment_rows, ledger, seconds, detail) = result
            ring_index, u, v, error = self._result_ring.read_planes(seq)
            self._result_ring.mark_consumed(seq)
            if ring_index != index:
                raise RuntimeError(
                    f"result slot {seq} holds pair {ring_index}, expected pair {index}"
                )
            result = RungResult(
                u=u, v=v, error=error, rung=rung, segment_rows=segment_rows,
                ledger=ledger, seconds=seconds, detail=detail,
            )
        return index, result, steps, wall, payload

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
        self._cleanup_rings()

    def _cleanup_rings(self) -> None:
        for ring in (self._frame_ring, self._result_ring):
            if ring is not None:
                ring.unlink()
                ring.close()
        self._frame_ring = self._result_ring = None

    def __enter__(self) -> "LadderPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
        self._cleanup_rings()
