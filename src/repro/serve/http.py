"""HTTP wind-product API and the server application object.

Routes (all JSON unless noted):

* ``POST /v1/jobs``            -- submit a job; 202 accepted (or the
  deduplicated existing job), 400 invalid request, 429 queue full
  (with ``Retry-After`` derived from the measured drain rate), 503
  draining,
* ``GET /v1/jobs/{id}``        -- job status,
* ``GET /v1/jobs?state=dead``  -- list jobs, optionally filtered by
  lifecycle state (the dead-letter inspection surface),
* ``POST /v1/jobs/{id}/requeue`` -- revive a dead-letter job with a
  fresh attempt budget; 404 unknown, 409 not dead,
* ``GET /v1/products/{id}``    -- the wind product (speed/direction
  statistics plus a Fig. 5-style barb summary); 202 while the job is
  still in flight, 404 unknown, 410 dead,
* ``GET /v1/products/{id}/field`` -- the raw ``MotionField`` artifact
  as ``.npz`` bytes (what the field would be if computed locally --
  bit-identical to ``track_dense``),
* ``GET /v1/jobs/{id}/trace``  -- the job's lifecycle trace from the
  flight recorder: raw events, per-attempt lease intervals, and the
  queue-wait / lease-held / compute / cache-write latency
  decomposition; ``?format=chrome`` returns a Chrome-trace JSON
  document that opens directly in Perfetto,
* ``GET /v1/live/latest``      -- the most recent live motion field when
  serving from a shared-memory ring (``--source ring://NAME``); 202
  before the first pair, 404 when not in live mode, 503 when the ring
  attach failed,
* ``GET /healthz``             -- liveness + queue depth + drain state
  + the SLO burn rates and breach verdict + the resolved frame
  transport (and, in live mode, the ring attach/progress state),
* ``GET /metrics``             -- the :mod:`repro.obs` metrics registry
  plus the server-wide cost ledger (modeled seconds, GE solve counts).
  JSON by default; a scraper sending ``Accept: text/plain`` gets the
  Prometheus ``text/plain; version=0.0.4`` exposition instead (see
  :mod:`repro.obs.prom`).

:class:`ServeApp` owns the queue, result cache, worker pool, shared
preparation cache and the serving :class:`~repro.maspar.cost.CostLedger`;
:func:`route` maps requests onto it, and
:class:`~repro.serve.frontend.AsyncFrontend` serves ``route`` over HTTP.
Graceful drain: stop admitting, finish every accepted job, persist
state, then shut the listener down -- SIGTERM loses nothing.  Ungraceful
death loses nothing either: the queue journals every accepted mutation,
so a SIGKILLed server restarts with each job pending, retrying, done,
or dead (see :mod:`repro.serve.queue`).  Retry backoffs and reaper
delays are charged to the ledger under the shared ``Fault recovery``
phase, so ``GET /metrics`` accounts recovery time next to compute.
"""

from __future__ import annotations

import json
import logging
import os
import threading

import numpy as np

from ..core.field import MotionField
from ..core.prep import FramePreparationCache
from ..kernels import KERNEL_BACKENDS
from ..maspar.cost import CostLedger
from ..maspar.machine import GODDARD_MP2
from ..obs.events import (
    FlightRecorder,
    discover_flight_journals,
    flight_journal_path,
    job_trace,
    merge_flight_journals,
    trace_chrome_events,
)
from ..obs.export import chrome_trace
from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from ..obs.prom import PROM_CONTENT_TYPE, render_exposition, wants_exposition
from ..reliability.injection import ServeChaosPlan
from ..reliability.retry import PHASE_RECOVERY, RetryPolicy
from .cache import ResultCache
from .slo import SLOConfig, SLOTracker
from .jobs import (
    SERVABLE_SEARCH_MODES,
    Job,
    JobRequest,
    JobValidationError,
    ServeLimits,
)
from .queue import JobQueue, LoadShedError, LoadShedPolicy, QueueFullError, fcntl
from .store import NodeRegistry, default_node_id
from .workers import WorkerPool

_LOG = get_logger("serve.http")

#: Ledger phase charged with serve-side stalls (none today; reserved).
PHASE_SERVING = "Serving"


class ServeApp:
    """Everything behind the HTTP surface, usable without HTTP too.

    Tests and benchmarks drive :meth:`submit_payload` / :meth:`drain`
    directly; the CLI serves it through
    :func:`~repro.serve.frontend.make_async_server`.
    """

    def __init__(
        self,
        state_dir: str,
        workers: int = 2,
        pool_workers: int | None = None,
        queue_depth: int = 64,
        cache_bytes: int = 256 * 1024 * 1024,
        limits: ServeLimits | None = None,
        hs_iterations: int = 60,
        search_mode: str = "exhaustive",
        backend: str = "auto",
        lease_seconds: float = 15.0,
        max_attempts: int = 3,
        job_timeout_seconds: float | None = 300.0,
        retry_backoff_seconds: float = 0.25,
        chaos: ServeChaosPlan | None = None,
        slo: SLOConfig | None = None,
        transport: str = "pickle",
        source: str | None = None,
        live_config=None,
        fleet: bool = False,
        node: str | None = None,
        shed_watermark: float | None = None,
    ) -> None:
        if search_mode not in SERVABLE_SEARCH_MODES:
            raise ValueError(
                f"unknown search_mode {search_mode!r} "
                f"(choose from {', '.join(SERVABLE_SEARCH_MODES)})"
            )
        if backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {', '.join(KERNEL_BACKENDS)})"
            )
        from ..parallel.pairs import resolve_transport

        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.limits = limits or ServeLimits()
        self.pool_workers = pool_workers
        #: How pooled sequence jobs ship frames to workers: "pickle"
        #: (default) or "shm" (the repro.bus zero-copy ring) -- both
        #: bit-identical, so cache keys do not include it.
        self.transport = resolve_transport(transport)
        self.source = source
        self.live: "LiveRingConsumer | None" = None
        if source is not None:
            from ..bus.source import parse_ring_url
            from .live import LiveRingConsumer

            self.live = LiveRingConsumer(
                parse_ring_url(source), config=live_config
            )
        self.hs_iterations = hs_iterations
        self.search_mode = search_mode
        self.backend = backend
        self.chaos = chaos if chaos is not None and not chaos.is_empty else None
        self.ledger = CostLedger(GODDARD_MP2)
        self._ledger_lock = threading.Lock()
        #: Fleet mode: this app is one node of many over a shared state
        #: directory -- it gets a node id (its workers lease as
        #: ``<node>/...``), a per-node flight journal, and a
        #: :class:`NodeRegistry` heartbeat announcing membership.  The
        #: queue is the same durable store either way; one server is a
        #: fleet of one.
        if fleet and fcntl is None:  # pragma: no cover - non-POSIX
            raise RuntimeError(
                "fleet mode needs POSIX flock to share a state directory; "
                "run a single server on this platform"
            )
        self.fleet = bool(fleet)
        self.node = node or (default_node_id() if fleet else None)
        self.registry = NodeRegistry(state_dir) if fleet else None
        #: Optional priority-aware load shedding above a depth watermark.
        self.shed = (
            LoadShedPolicy(shed_watermark) if shed_watermark is not None else None
        )
        #: Crash-safe lifecycle journal; every queue/worker transition
        #: lands here and powers ``GET /v1/jobs/{id}/trace``.  One
        #: journal per fleet node (``flight-<node>.jsonl``), merged by
        #: ``repro serve-admin flightlog`` and the trace route.
        self.recorder = FlightRecorder(
            flight_journal_path(state_dir, self.node if fleet else None),
            node=self.node if fleet else None,
        )
        self.slo = slo or SLOConfig()
        self.slo_tracker = SLOTracker(self.slo)
        retry_policy = RetryPolicy(
            max_attempts=max_attempts,
            backoff_seconds=retry_backoff_seconds,
            backoff_factor=2.0,
            jitter=0.0,
        )
        self.queue = JobQueue(
            max_depth=queue_depth,
            state_path=os.path.join(state_dir, "queue.json"),
            node=self.node,
            lease_seconds=lease_seconds,
            job_timeout_seconds=job_timeout_seconds,
            retry_policy=retry_policy,
            on_recovery_seconds=self._charge_recovery,
            recorder=self.recorder,
            on_terminal=self.slo_tracker.record_job,
        )
        self.cache = ResultCache(
            os.path.join(state_dir, "cache"), max_bytes=cache_bytes
        )
        self.prep_cache = FramePreparationCache(max_frames=16)
        self.pool = WorkerPool(self, workers=workers, chaos=self.chaos)
        self.draining = False
        self._started = False
        if self.chaos is not None:
            log_event(
                _LOG, logging.WARNING, "serve.chaos_armed",
                seed=self.chaos.seed, faults=self.chaos.describe(),
            )

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "ServeApp":
        if not self._started:
            self.pool.start()
            if self.live is not None:
                self.live.start()
            self.publish_node_heartbeat()
            self._started = True
            log_event(
                _LOG, logging.INFO, "serve.transport",
                transport=self.transport,
                pool_workers=self.pool_workers,
                node=self.node,
                ring=self.live.ring_name if self.live is not None else None,
            )
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish every accepted job, persist, stop workers.

        Returns True when the queue fully drained (zero accepted jobs
        lost); False only if ``timeout`` expired first.
        """
        self.draining = True
        METRICS.set_gauge("serve.draining", 1.0)
        if self.live is not None:
            self.live.stop()
        drained = self.queue.wait_idle(timeout=timeout)
        self.pool.stop()
        self.queue.save()
        if self.registry is not None:
            self.registry.remove(self.node)
        self.recorder.close()
        log_event(
            _LOG, logging.INFO, "serve.drained",
            drained=drained, counts=self.queue.counts(),
        )
        return drained

    def stop_node(self) -> bool:
        """Retire *this* node from a fleet without draining the fleet.

        Workers finish their in-flight jobs and stop claiming (the
        close is process-local); queued work stays in the shared store
        for the surviving nodes.  Zero accepted jobs are lost: anything
        this node had leased either completes here or -- if the process
        dies mid-job -- is reaped by a survivor when the lease expires.
        """
        self.draining = True
        METRICS.set_gauge("serve.draining", 1.0)
        if self.live is not None:
            self.live.stop()
        self.pool.stop()
        if self.registry is not None:
            self.registry.remove(self.node)
        self.recorder.close()
        log_event(
            _LOG, logging.INFO, "serve.node_stopped",
            node=self.node, counts=self.queue.counts(),
        )
        return True

    # -- ledger -----------------------------------------------------------------------

    def merge_ledger(self, ledger: CostLedger) -> None:
        """Fold one job's modeled costs into the serving-session ledger."""
        with self._ledger_lock:
            self.ledger.merge(ledger)

    def _charge_recovery(self, seconds: float) -> None:
        """Charge retry backoff / reaper delay to the ``Fault recovery``
        phase (called by the queue with its own lock held -- must only
        take the ledger lock)."""
        with self._ledger_lock:
            with self.ledger.phase(PHASE_RECOVERY):
                self.ledger.charge_stall(seconds)

    def publish_ledger_gauges(self) -> None:
        with self._ledger_lock:
            METRICS.set_gauge(
                "serve.ledger.gaussian_eliminations",
                float(self.ledger.gaussian_eliminations()),
            )
            METRICS.set_gauge(
                "serve.ledger.modeled_seconds", self.ledger.total_seconds()
            )

    # -- fleet ------------------------------------------------------------------------

    def publish_node_heartbeat(self) -> None:
        """Refresh this node's registry heartbeat (supervisor cadence)."""
        if self.registry is None:
            return
        with self._ledger_lock:
            ge_solves = self.ledger.gaussian_eliminations()
        self.registry.heartbeat(
            self.node,
            workers=self.pool.workers,
            in_flight=self.pool.active_jobs(),
            ge_solves=ge_solves,
            draining=self.draining,
        )

    def fleet_payload(self) -> dict | None:
        """Fleet roster + per-node breakdown; publishes ``serve.node.*``
        gauges as a side effect so scrapes see the same numbers.  None
        outside fleet mode."""
        if not self.fleet:
            return None
        running = self.queue.running_by_node()
        roster = self.registry.nodes()
        nodes: dict[str, dict] = {}
        for node_id in sorted(set(roster) | set(running) | {self.node}):
            beat = roster.get(node_id, {})
            entry = {
                "in_flight": running.get(node_id, 0),
                "workers": beat.get("workers"),
                "ge_solves": beat.get("ge_solves"),
                "draining": bool(beat.get("draining", False)),
                "heartbeat_age_seconds": (
                    round(beat["age_seconds"], 3) if "age_seconds" in beat else None
                ),
            }
            nodes[node_id] = entry
            METRICS.set_gauge(
                f"serve.node.{node_id}.in_flight", float(entry["in_flight"])
            )
            if entry["workers"] is not None:
                METRICS.set_gauge(
                    f"serve.node.{node_id}.workers", float(entry["workers"])
                )
            if entry["ge_solves"] is not None:
                METRICS.set_gauge(
                    f"serve.node.{node_id}.ge_solves", float(entry["ge_solves"])
                )
            if entry["heartbeat_age_seconds"] is not None:
                METRICS.set_gauge(
                    f"serve.node.{node_id}.heartbeat_age_seconds",
                    entry["heartbeat_age_seconds"],
                )
        return {"node": self.node, "nodes": nodes}

    # -- request handling (transport-independent) -------------------------------------

    def submit_payload(self, payload: dict) -> tuple[Job, bool]:
        """Validate and queue one JSON job payload.

        Raises :class:`JobValidationError` (400), :class:`QueueFullError`
        (429) or :class:`RuntimeError` while draining (503).
        """
        if self.draining:
            raise RuntimeError("server is draining; not accepting jobs")
        priority = payload.get("priority", 0) if isinstance(payload, dict) else 0
        if not isinstance(priority, int):
            raise JobValidationError("priority must be an integer")
        # The server's configured schedule/backend are defaults, not
        # overrides: a payload naming its own wins (and is validated).
        if isinstance(payload, dict) and "search_mode" not in payload:
            payload = {**payload, "search_mode": self.search_mode}
        if isinstance(payload, dict) and "backend" not in payload:
            payload = {**payload, "backend": self.backend}
        request = JobRequest.from_payload(payload, limits=self.limits)
        if self.shed is not None:
            depth = self.queue.depth()
            threshold = self.shed.threshold(
                depth, self.queue.max_depth, self.queue.queued_priorities()
            )
            if threshold is not None and priority < threshold:
                METRICS.inc("serve.shed.total")
                METRICS.inc(f"serve.shed.priority.{priority}")
                raise LoadShedError(
                    depth, self.queue.retry_after_hint(), priority, threshold
                )
        return self.queue.submit(request, priority=priority)

    def job_payload(self, job_id: str) -> dict | None:
        job = self.queue.get(job_id)
        return None if job is None else job.to_dict()

    def jobs_payload(self, state: str | None = None) -> tuple[int, dict]:
        """(HTTP status, body) for the job listing route.

        ``state`` filters on one lifecycle state; ``state=dead`` is the
        dead-letter inspection surface.
        """
        try:
            jobs = self.queue.list_jobs(state=state)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return 200, {
            "state": state,
            "count": len(jobs),
            "jobs": [job.to_dict() for job in jobs],
        }

    def requeue_payload(self, job_id: str) -> tuple[int, dict]:
        """(HTTP status, body) for the dead-letter requeue route."""
        try:
            job = self.queue.requeue(job_id)
        except KeyError:
            return 404, {"error": f"unknown job {job_id!r}"}
        except ValueError as exc:
            return 409, {"error": str(exc)}
        return 200, job.to_dict()

    def product_payload(self, job_id: str) -> tuple[int, dict]:
        """(HTTP status, body) for the wind-product route."""
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state == "dead":
            return 410, {
                "error": f"job dead after {job.attempts} attempt(s): {job.error}",
                "state": job.state,
            }
        if job.state != "done" or job.result_key is None:
            return 202, {"state": job.state, "id": job.id}
        field = self.cache.get(job.result_key, record=False)
        if field is None:
            return 410, {"error": "result evicted from cache; resubmit the job"}
        return 200, _wind_product(job, field)

    def field_bytes(self, job_id: str) -> tuple[int, bytes | dict]:
        """(HTTP status, npz bytes | error body) for the raw-field route."""
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state != "done" or job.result_key is None:
            return 202, {"state": job.state, "id": job.id}
        path = self.cache.artifact_path(job.result_key)
        if path is None or not os.path.exists(path):
            return 410, {"error": "result evicted from cache; resubmit the job"}
        with open(path, "rb") as handle:
            return 200, handle.read()

    def trace_payload(self, job_id: str, fmt: str | None = None) -> tuple[int, dict]:
        """(HTTP status, body) for the per-job lifecycle trace route.

        ``fmt="chrome"`` wraps the trace in a Chrome-trace document
        (``traceEvents``) that opens directly in Perfetto.
        """
        job = self.queue.get(job_id)
        if self.fleet:
            # This node's in-memory ring only holds the events *it*
            # recorded (a frontend typically has just ``submitted``);
            # the full story is the merged on-disk journals of every
            # node that touched the job.
            events = [
                e
                for e in merge_flight_journals(
                    discover_flight_journals(self.state_dir)
                )
                if e.get("job") == job_id
            ]
        else:
            events = self.recorder.events(job_id)
        if job is None and not events:
            return 404, {"error": f"unknown job {job_id!r}"}
        trace = job_trace(events, job=job.to_dict() if job is not None else None)
        if fmt == "chrome":
            return 200, chrome_trace(trace_chrome_events(job_id, trace))
        if fmt not in (None, "", "json"):
            return 400, {"error": f"unknown trace format {fmt!r} (json or chrome)"}
        body = {"id": job_id, "trace_id": job.trace_id if job is not None else None}
        body.update(trace)
        return 200, body

    def live_payload(self) -> tuple[int, dict]:
        """(HTTP status, body) for ``GET /v1/live/latest``."""
        if self.live is None:
            return 404, {
                "error": "not serving from a ring (start with --source ring://NAME)"
            }
        return self.live.latest_payload()

    def health_payload(self) -> dict:
        counts = self.queue.counts()
        slo = self.slo_tracker.publish_gauges()
        payload = {
            "status": "draining" if self.draining else "ok",
            "transport": self.transport,
            "queue_depth": counts["pending"] + counts["retrying"],
            "in_flight": counts["running"],
            "jobs_retrying": counts["retrying"],
            "jobs_done": counts["done"],
            "jobs_dead": counts["dead"],
            "retry_after_seconds": self.queue.retry_after_hint(),
            "cache_entries": len(self.cache),
            "cache_bytes": self.cache.total_bytes(),
            "slo": slo,
        }
        if self.fleet:
            payload["node"] = self.node
            payload["fleet"] = self.fleet_payload()
        if self.live is not None:
            payload["ring"] = self.live.state()
        return payload

    def metrics_payload(self) -> dict:
        with self._ledger_lock:
            ledger = {
                "modeled_seconds": self.ledger.total_seconds(),
                "gaussian_eliminations": self.ledger.gaussian_eliminations(),
                "breakdown": [
                    {"phase": name, "modeled_seconds": secs, "gaussian_eliminations": ge}
                    for name, secs, ge in self.ledger.breakdown(with_counts=True)
                ],
            }
        self.slo_tracker.publish_gauges()
        fleet = self.fleet_payload()
        payload = METRICS.snapshot()
        payload["ledger"] = ledger
        payload["queue"] = {
            "depth": self.queue.depth(),
            "counts": self.queue.counts(),
            "retry_after_seconds": self.queue.retry_after_hint(),
        }
        if fleet is not None:
            payload["fleet"] = fleet
        return payload

    def metrics_exposition(self) -> str:
        """The Prometheus text exposition of the current registry state.

        The ledger gauges are refreshed first so modeled seconds and GE
        counts scrape like everything else; the queue/SLO gauges update
        inside :meth:`publish_gauges` paths already.
        """
        self.publish_ledger_gauges()
        self.slo_tracker.publish_gauges()
        self.fleet_payload()  # refresh serve.node.* gauges before the scrape
        return render_exposition(METRICS.snapshot())


def _wind_product(job: Job, field: MotionField, barb_stride: int = 8) -> dict:
    """The JSON wind product: Section 5 statistics + Fig. 5-style barbs."""
    speed = field.wind_speed()[field.valid]
    direction = field.wind_direction_deg()[field.valid]
    finite_dir = direction[np.isfinite(direction)]
    if finite_dir.size:
        rad = np.radians(finite_dir)
        circ_mean = float(
            np.degrees(np.arctan2(np.sin(rad).mean(), np.cos(rad).mean())) % 360.0
        )
    else:
        circ_mean = None
    points, vectors = field.subsample(stride=barb_stride)
    barbs = []
    for (x, y), (u, v) in zip(points[:128], vectors[:128]):
        meters = float(np.hypot(u, v)) * field.pixel_km * 1000.0
        east, north = float(u), float(-v)
        if east == 0.0 and north == 0.0:
            bearing = None
        else:
            bearing = float((np.degrees(np.arctan2(east, north)) + 180.0) % 360.0)
        barbs.append(
            {
                "x": int(x),
                "y": int(y),
                "speed_ms": meters / field.dt_seconds,
                "direction_deg": bearing,
            }
        )
    mean_u, mean_v = field.mean_displacement()
    return {
        "id": job.id,
        "state": job.state,
        "cache_hit": job.cache_hit,
        "rung": job.rung,
        "shape": list(field.shape),
        "dt_seconds": field.dt_seconds,
        "pixel_km": field.pixel_km,
        "valid_pixels": int(field.valid.sum()),
        "mean_displacement_px": [mean_u, mean_v],
        "wind": {
            "mean_speed_ms": float(speed.mean()),
            "max_speed_ms": float(speed.max()),
            "p50_speed_ms": float(np.percentile(speed, 50)),
            "p90_speed_ms": float(np.percentile(speed, 90)),
            "p99_speed_ms": float(np.percentile(speed, 99)),
            "circular_mean_direction_deg": circ_mean,
        },
        "barbs": barbs,
        "metadata": field.metadata,
    }


def route(
    app: ServeApp,
    method: str,
    target: str,
    body: bytes = b"",
    accept: str | None = None,
) -> tuple[int, bytes, str, dict]:
    """Dispatch one request; ``(status, body, content type, headers)``.

    Transport-independent routing: the asyncio
    :class:`~repro.serve.frontend.AsyncFrontend` serves it over HTTP,
    and tests call it directly.  ``target`` is the raw request target (path + optional query);
    ``accept`` drives the ``/metrics`` content negotiation.
    """

    def as_json(
        status: int, payload: dict, headers: dict | None = None
    ) -> tuple[int, bytes, str, dict]:
        return status, json.dumps(payload).encode(), "application/json", headers or {}

    path, _, query = target.partition("?")
    path = path.rstrip("/") or "/"
    params = dict(part.split("=", 1) for part in query.split("&") if "=" in part)

    if method == "POST":
        if path.startswith("/v1/jobs/") and path.endswith("/requeue"):
            job_id = path[len("/v1/jobs/") : -len("/requeue")]
            status, payload = app.requeue_payload(job_id)
            return as_json(status, payload)
        if path != "/v1/jobs":
            return as_json(404, {"error": f"no such route {target!r}"})
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, UnicodeDecodeError):
            return as_json(400, {"error": "request body must be valid JSON"})
        try:
            job, created = app.submit_payload(payload)
        except JobValidationError as exc:
            return as_json(400, {"error": str(exc)})
        except QueueFullError as exc:
            refused = {
                "error": str(exc),
                "retry_after_seconds": exc.retry_after_seconds,
            }
            if isinstance(exc, LoadShedError):
                refused["shed"] = True
                refused["admission_threshold"] = exc.threshold
            return as_json(
                429, refused, headers={"Retry-After": f"{exc.retry_after_seconds:g}"}
            )
        except RuntimeError as exc:
            return as_json(503, {"error": str(exc)})
        return as_json(
            202, {"id": job.id, "state": job.state, "deduplicated": not created}
        )

    if method != "GET":
        return as_json(405, {"error": f"method {method} not allowed"})

    if path == "/healthz":
        return as_json(200, app.health_payload())
    if path == "/v1/live/latest":
        status, payload = app.live_payload()
        return as_json(status, payload)
    if path == "/metrics":
        # Content negotiation: a Prometheus scraper announces itself
        # with Accept: text/plain (or openmetrics); every existing
        # consumer keeps getting the JSON payload.
        if wants_exposition(accept):
            return (
                200,
                app.metrics_exposition().encode("utf-8"),
                PROM_CONTENT_TYPE,
                {},
            )
        return as_json(200, app.metrics_payload())
    if path == "/v1/jobs":
        status, payload = app.jobs_payload(state=params.get("state"))
        return as_json(status, payload)
    if path.startswith("/v1/jobs/") and path.endswith("/trace"):
        job_id = path[len("/v1/jobs/") : -len("/trace")]
        status, payload = app.trace_payload(job_id, fmt=params.get("format"))
        return as_json(status, payload)
    if path.startswith("/v1/jobs/"):
        payload = app.job_payload(path.rsplit("/", 1)[1])
        if payload is None:
            return as_json(404, {"error": "unknown job"})
        return as_json(200, payload)
    if path.startswith("/v1/products/") and path.endswith("/field"):
        job_id = path[len("/v1/products/") : -len("/field")]
        status, payload = app.field_bytes(job_id)
        if status == 200:
            return status, payload, "application/octet-stream", {}
        return as_json(status, payload)
    if path.startswith("/v1/products/"):
        status, payload = app.product_payload(path.rsplit("/", 1)[1])
        return as_json(status, payload)
    return as_json(404, {"error": f"no such route {path!r}"})
