"""Serving worker pool: claims jobs, computes or cache-serves products.

Each worker is a thread in the server process.  The execution path
reuses the operational machinery of earlier layers rather than
reimplementing it:

* frames resolve deterministically from the dataset factories (the
  request is a pure description of content, so the result cache can be
  content-addressed, and a bounded per-process memo maps a repeated
  request straight to its key -- a cache hit regenerates no frames),
* per-frame surface fits go through the shared, thread-safe
  :class:`~repro.core.prep.FramePreparationCache` -- concurrent jobs
  over the same sequence fit each frame once,
* pair jobs run under the PR-1
  :class:`~repro.reliability.degrade.DegradationLadder`: a request that
  cannot run at the planned segment size degrades (re-plan ->
  Horn-Schunck -> interpolation) instead of killing the worker,
* sequence jobs run through the
  :class:`~repro.reliability.stream.StreamingRunner`, which shards their
  independent pairs over its :class:`~repro.parallel.pairs.LadderPool`
  when the server is configured with ``pool_workers > 1`` --
  bit-identical to the sequential path,
* every computed pair's :class:`~repro.maspar.cost.CostLedger` merges
  into the server-wide ledger, so ``GET /metrics`` reports modeled
  MasPar seconds and first-class Gaussian-elimination counts for the
  whole serving session.  Cache hits merge nothing -- the absence of
  new GE solves is the observable proof that no recomputation happened.

**Failure handling.**  Workers hold a queue lease while they execute; a
pool supervisor thread renews those leases every ``lease_seconds / 3``,
runs the queue reaper, and respawns any worker thread that died.  A job
that raises is handed back to the queue (``fail``), which retries it
with backoff or quarantines it dead -- the server never dies on a
poisoned request.  An injected :class:`ChaosWorkerCrash` is the one
exception the loop does *not* absorb into the job: the thread dies with
the job still leased, so recovery must flow through the reap -> requeue
-> respawn machinery this pool exists to prove out.

Workers block on the queue's condition variable (``claim`` with no
timeout) rather than polling, so an idle pool costs nothing until a
submit, retry expiry, or shutdown wakes it.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict

from ..core.field import MotionField
from ..core.matching import valid_mask
from ..core.sma import pair_dt
from ..data.datasets import Dataset
from ..obs.log import get_logger, log_context, log_event
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..parallel.memory_plan import planned_segment_rows
from ..parallel.parallel_sma import machine_for_image
from ..reliability.degrade import DegradationLadder
from ..reliability.injection import ChaosWorkerCrash, ServeChaosPlan
from ..reliability.stream import StreamingRunner
from .cache import result_key
from .jobs import Job, JobRequest

_LOG = get_logger("serve")


def _dataset_for(job: Job) -> Dataset:
    from ..data.datasets import florida_thunderstorm, hurricane_frederic, hurricane_luis

    factories = {
        "florida": florida_thunderstorm,
        "frederic": hurricane_frederic,
        "luis": hurricane_luis,
    }
    request = job.request
    return factories[request.dataset](
        size=request.size, n_frames=request.frames, seed=request.seed
    )


#: Bound on the per-process ``JobRequest -> result_key`` memo; an
#: entry is a small frozen request and a 40-character key.
KEY_MEMO_ENTRIES = 4096


class _KeyMemo:
    """Bounded, thread-safe LRU map from a request to its result key.

    A :class:`~repro.serve.jobs.JobRequest` is a pure description of
    content -- the dataset factories are deterministic in it -- so its
    content address never changes and a cache hit need not regenerate
    the frames to find it.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._keys: OrderedDict[JobRequest, str] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, request: JobRequest) -> str | None:
        with self._lock:
            key = self._keys.get(request)
            if key is not None:
                self._keys.move_to_end(request)
            return key

    def put(self, request: JobRequest, key: str) -> None:
        with self._lock:
            self._keys[request] = key
            self._keys.move_to_end(request)
            while len(self._keys) > self.max_entries:
                self._keys.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)


class WorkerPool:
    """Supervised thread pool that drains the job queue.

    ``poll_seconds`` survives as the pause-check interval only; idle
    workers no longer poll -- they block in ``queue.claim``.
    """

    def __init__(
        self,
        app,
        workers: int = 2,
        poll_seconds: float = 0.2,
        chaos: ServeChaosPlan | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.app = app
        self.workers = workers
        self.poll_seconds = poll_seconds
        #: Fleet mode prefixes worker identities with the node id
        #: (``<node>/serve-worker-N``) so leases, reaping, and flight
        #: events attribute to the right node across the fleet.
        node = getattr(app, "node", None)
        self.worker_prefix = f"{node}/" if node else ""
        self.chaos = chaos if chaos is not None and not chaos.is_empty else None
        self._threads: list[threading.Thread] = []
        self._supervisor: threading.Thread | None = None
        self._stop = threading.Event()
        self._paused = threading.Event()
        #: thread name -> (job id, lease token); the supervisor renews
        #: these leases.  An entry disappears when the attempt finishes
        #: *or the thread dies* (``finally``), after which the lease
        #: expires and the reaper requeues the job.
        self._executing: dict[str, tuple[str, str]] = {}
        self._exec_lock = threading.Lock()
        #: Worker thread names asked to exit for a rolling restart.
        self._rolling: set[str] = set()
        self._key_memo = _KeyMemo(KEY_MEMO_ENTRIES)

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        for index in range(self.workers):
            self._threads.append(self._spawn(index))
        # The supervisor runs even with zero workers: a worker-less
        # fleet frontend still renews nothing but must *reap* -- it may
        # be the surviving node that requeues a dead node's leases --
        # and still heartbeats its registry entry.
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn(self, slot: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._loop,
            name=f"{self.worker_prefix}serve-worker-{slot}",
            daemon=True,
        )
        thread.start()
        return thread

    def active_jobs(self) -> int:
        """Jobs this pool is executing right now (heartbeat payload)."""
        with self._exec_lock:
            return len(self._executing)

    def stop(self) -> None:
        self._stop.set()
        self.app.queue.close()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        if self._supervisor is not None:
            self._supervisor.join()
            self._supervisor = None

    def pause(self) -> None:
        """Stop claiming new jobs (running jobs finish); for tests/drain."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    @property
    def paused(self) -> bool:
        return self._paused.is_set()

    def restart_workers(self) -> int:
        """Rolling restart: signal each worker to exit after its current
        job; the supervisor respawns the slots.  Returns the count
        signaled."""
        count = len(self._threads)
        with self._exec_lock:
            for thread in self._threads:
                self._rolling.add(thread.name)
        return count

    # -- the supervisor ---------------------------------------------------------------

    def _supervise(self) -> None:
        """Renew leases, reap expired ones, respawn dead worker slots."""
        interval = max(0.05, self.app.queue.lease_seconds / 3.0)
        while not self._stop.wait(interval):
            with self._exec_lock:
                entries = list(self._executing.values())
            for job_id, token in entries:
                self.app.queue.renew(job_id, token)
            self.app.queue.reap()
            heartbeat = getattr(self.app, "publish_node_heartbeat", None)
            if heartbeat is not None:
                heartbeat()
            for slot, thread in enumerate(self._threads):
                if self._stop.is_set():
                    break
                if not thread.is_alive():
                    replacement = self._spawn(slot)
                    self._threads[slot] = replacement
                    METRICS.inc("serve.workers.restarted")
                    log_event(
                        _LOG, logging.WARNING, "serve.worker_restarted",
                        slot=slot, died=thread.name, spawned=replacement.name,
                    )

    # -- the worker loop --------------------------------------------------------------

    def _loop(self) -> None:
        name = threading.current_thread().name
        while not self._stop.is_set():
            if self._paused.is_set():
                self._stop.wait(self.poll_seconds)
                continue
            with self._exec_lock:
                rolling = name in self._rolling
                self._rolling.discard(name)
            if rolling:  # rolling restart: exit; the supervisor respawns the slot
                return
            job = self.app.queue.claim(timeout=None, worker=name)
            if job is None:
                if self._stop.is_set() or self.app.queue.closed:
                    return
                continue
            token = job.lease_token
            with self._exec_lock:
                self._executing[name] = (job.id, token)
            try:
                # Every log line this attempt emits -- including from
                # library layers that know nothing about serving --
                # carries the job and trace identifiers.
                with log_context(job=job.id, trace=job.trace_id):
                    self.execute(job)
            except ChaosWorkerCrash as crash:
                # Simulated thread death: the job stays leased, the
                # supervisor's reaper requeues it, the supervisor
                # respawns this slot.  Do NOT fail the job here.
                METRICS.inc("serve.chaos.worker_crashes")
                log_event(
                    _LOG, logging.ERROR, "serve.chaos_worker_crash",
                    job=job.id, worker=name, error=str(crash),
                )
                return
            except Exception as exc:  # noqa: BLE001 -- the server must survive
                self.app.queue.fail(
                    job.id, f"{type(exc).__name__}: {exc}", lease_token=token
                )
                METRICS.inc("serve.jobs.failed")
                log_event(
                    _LOG, logging.ERROR, "serve.job_failed", job=job.id, error=str(exc)
                )
            finally:
                with self._exec_lock:
                    self._executing.pop(name, None)

    # -- job execution ----------------------------------------------------------------

    def _flight(self, event: str, job: Job, **fields) -> None:
        """Worker-side lifecycle events into the app's flight recorder."""
        recorder = getattr(self.app, "recorder", None)
        if recorder is None:
            return
        try:
            recorder.record(
                event, job.id, trace_id=job.trace_id, attempt=job.attempts,
                worker=threading.current_thread().name, **fields,
            )
        except OSError:
            METRICS.inc("serve.flight.write_errors")

    def execute(self, job: Job) -> None:
        """Resolve one job: result cache first, compute on miss.

        Chaos (when armed) strikes first, before any frame resolves --
        it can delay or kill an *attempt* but never touch the product.
        """
        token = job.lease_token
        if self.chaos is not None:
            applied = self.chaos.apply(job.seq, job.attempts)
            if applied == "stall":
                METRICS.inc("serve.chaos.stalls")
        with TRACER.span("serve.job", job=job.id, kind=job.request.kind):
            request = job.request
            # A remembered key goes straight to the cache; the frames are
            # regenerated only when the key is unknown or its artifact is
            # gone.  Either way the cache is consulted exactly once.
            key = self._key_memo.get(request)
            cached = self.app.cache.get(key) if key is not None else None
            if cached is None:
                dataset = _dataset_for(job)
                config = dataset.config.replace(
                    n_zs=request.search, n_zt=request.template
                )
                if request.kind == "pair":
                    frames = dataset.frames[request.pair : request.pair + 2]
                else:
                    frames = list(dataset.frames)
                remembered = key
                key = result_key(
                    frames,
                    config,
                    dataset.pixel_km,
                    kind=request.kind,
                    search=request.search_mode,
                    backend=request.backend,
                )
                self._key_memo.put(request, key)
                if remembered is None:
                    cached = self.app.cache.get(key)
            if cached is not None:
                self._flight("cache_hit", job, key=key)
                done = self.app.queue.complete(
                    job.id, lease_token=token, cache_hit=True, result_key=key,
                    metadata={"model": cached.metadata.get("model")},
                )
                if done is not None:
                    METRICS.inc("serve.jobs.completed")
                    log_event(_LOG, logging.INFO, "serve.cache_hit", job=job.id, key=key)
                return

            compute_started = time.perf_counter()
            if request.kind == "pair":
                field, rung = self._compute_pair(
                    frames, config, dataset.pixel_km, request.search_mode,
                    request.backend,
                )
            else:
                field, rung = self._compute_sequence(
                    frames, config, dataset.pixel_km, request.search_mode,
                    request.backend,
                )
            compute_seconds = time.perf_counter() - compute_started
            METRICS.observe("serve.compute.seconds", compute_seconds)
            self._flight("compute", job, seconds=round(compute_seconds, 6), rung=rung)
            write_started = time.perf_counter()
            self.app.cache.put(key, field)
            write_seconds = time.perf_counter() - write_started
            METRICS.observe("serve.cache.write_seconds", write_seconds)
            self._flight(
                "cache_write", job, seconds=round(write_seconds, 6), key=key
            )
            self.app.publish_ledger_gauges()
            done = self.app.queue.complete(
                job.id, lease_token=token, cache_hit=False, result_key=key, rung=rung,
                metadata={"model": field.metadata.get("model")},
            )
            if done is not None:
                METRICS.inc("serve.jobs.completed")
                log_event(_LOG, logging.INFO, "serve.computed", job=job.id, key=key)

    def _compute_pair(
        self,
        frames,
        config,
        pixel_km,
        search_mode: str = "exhaustive",
        backend: str = "auto",
    ) -> tuple[MotionField, int]:
        """One frame pair under the degradation ladder (bit-identical to
        ``track_dense`` on the healthy rung 0)."""
        before, after = frames
        shape = before.shape
        machine = machine_for_image(shape)
        planned = planned_segment_rows(config, machine, shape)
        dt, dt_metadata = pair_dt(before, after, None)
        ladder = DegradationLadder(
            config,
            hs_iterations=self.app.hs_iterations,
            search=search_mode,
            backend=backend,
        )
        result, steps = ladder.track_pair(
            before.surface,
            after.surface,
            machine,
            planned,
            dt_seconds=dt,
            intensity_before=before.intensity,
            intensity_after=after.intensity,
            prep_cache=self.app.prep_cache,
        )
        if steps:
            METRICS.inc("serve.jobs.degraded")
        if result.ledger is not None:
            self.app.merge_ledger(result.ledger)
        field = MotionField(
            u=result.u,
            v=result.v,
            valid=valid_mask(shape, config),
            error=result.error,
            dt_seconds=float(dt),
            pixel_km=pixel_km,
            metadata={
                "model": "semi-fluid" if config.is_semifluid else "continuous",
                "config": config.name,
                "rung": result.rung,
                "search": search_mode,
                "backend": backend,
                **dt_metadata,
            },
        )
        return field, result.rung

    def _compute_sequence(
        self,
        frames,
        config,
        pixel_km,
        search_mode: str = "exhaustive",
        backend: str = "auto",
    ) -> tuple[MotionField, int]:
        """Mean field over all pairs through the streaming runner (pool
        sharded when configured); the job's rung is the worst pair's."""
        result = StreamingRunner(
            config,
            pixel_km=pixel_km,
            hs_iterations=self.app.hs_iterations,
            workers=self.app.pool_workers,
            transport=self.app.transport,
            search=search_mode,
            backend=backend,
        ).run(frames)
        if result.report.degraded_pairs:
            METRICS.inc("serve.jobs.degraded")
        self.app.merge_ledger(result.ledger)
        field = result.field
        field.metadata.update(search=search_mode, backend=backend)
        return field, max(o.rung for o in result.report.outcomes)
