"""Durable priority job queue: leases, retry/backoff, dead-letter quarantine.

The admission contract, in order of evaluation on submit:

1. **Deduplication** -- a request whose fingerprint matches a job that
   is still active (pending, running, or retrying) returns that job
   instead of queuing a duplicate (the in-flight analogue of the result
   cache; completed jobs do *not* dedupe, so a re-request flows through
   the content-addressed result cache and is served without
   recomputation).
2. **Backpressure** -- when ``max_depth`` jobs are already queued
   (pending + retrying) the submit raises :class:`QueueFullError`; the
   HTTP layer turns that into a 429 with a ``Retry-After`` hint derived
   from the queue's measured drain rate.  The queue never grows
   unboundedly and never silently drops an accepted job.

Ordering is strict: higher ``priority`` first, FIFO (submission order)
within a priority.  A ``retrying`` job re-enters the schedule at its
original priority once its backoff expires.

**Leases.** :meth:`JobQueue.claim` grants a lease: an opaque token plus
a heartbeat deadline.  Workers renew the lease while they compute;
:meth:`JobQueue.reap` requeues any running job whose lease expired
(worker hung or died) or whose wall-clock ``job_timeout_seconds``
passed.  Reaping revokes the token, so a zombie worker that eventually
finishes cannot clobber the re-executed job -- its completion is
dropped as stale.

**Retry and dead-letter.** A failed or reaped job requeues as
``retrying`` with exponential backoff (the shared
:class:`~repro.reliability.retry.RetryPolicy`) until its attempt budget
is exhausted, at which point it moves to the persistent ``dead`` state:
inspectable via ``GET /v1/jobs?state=dead`` and revivable with
``repro serve-admin requeue``.  A poison job quarantines alone; it
never takes the pool down and never blocks other work.

**Durability.** With ``state_path=None`` the queue lives in memory.
A durable queue keeps its state in files named after ``state_path``
(``queue.json`` for a server's state directory):

* ``queue.json``     -- the compaction snapshot, written atomically,
* ``queue.json.wal`` -- the write-ahead journal: every accepting
  mutation appends one checksummed JSONL line, flushed before the
  caller is acknowledged,
* ``queue.lock``     -- an ``flock`` serializing every operation across
  processes (skipped where ``fcntl`` is missing, e.g. on Windows:
  there a durable queue serves one process),
* ``queue.gen``      -- a generation counter bumped on every compaction.

Every operation takes the lock and first applies the records other
processes appended since its last look (a byte cursor into the
journal), so any number of processes over one state path -- the nodes
of a serve fleet -- share one queue: job ids, dedup fingerprints,
depth and leases are fleet-wide.  A single server is a fleet of one.
A compaction bumps the generation, and a process whose cursor it
invalidated reloads the snapshot and the journal.  ``close()`` stays
process-local: a node draining for a restart stops only its own
claims and submissions.

**One replay policy.**  Only newline-terminated lines are records.  A
complete line that fails its checksum or does not parse is counted
(``serve.journal.torn_discarded``) and skipped; the records after it
still apply.  A partial last line -- a writer SIGKILLed mid-append --
is left unread, and the next append terminates it with a bare newline
first, sacrificing exactly that record, which no client was ever
acknowledged for.

**One revocation rule.**  A loading queue holds no leases, so a
``running`` job leased by this queue's own node (the ``<node>/``
prefix of its worker; no prefix is the nodeless single-server case)
belongs to a dead predecessor.  Its lease is revoked on load: the job
comes back ``pending`` with the crashed attempt still counted, so a
job that crashes the server on every attempt ends up ``dead``, not in
a crash loop.  Leases of other nodes stay -- lease expiry, not a
restart, is the truth about their workers.  Every reload applies the
same rule, sparing only the leases this queue granted itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import logging
import os
import secrets
import threading
import time
from collections import deque

try:  # pragma: no cover - exercised implicitly on every POSIX test run
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: durable queues run unlocked
    fcntl = None

from ..ioutil import atomic_write_text
from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from ..reliability.retry import RetryPolicy
from .jobs import ACTIVE_STATES, JOB_STATES, Job, JobRequest

#: On-disk schema version for the persisted queue state.  Version 1
#: (PR-4 full-state rewrites) is still restorable.
STATE_VERSION = 2

#: Bounds on the drain-rate-derived ``Retry-After`` hint.
RETRY_AFTER_MIN = 0.1
RETRY_AFTER_MAX = 60.0

#: Bound on one blocking wait of :meth:`JobQueue.claim` and
#: :meth:`JobQueue.wait_idle`: another process's mutations cannot
#: notify this one's condition variable, so waiters re-check this often.
DEFAULT_POLL_SECONDS = 0.05

_LOG = get_logger("serve.queue")


class QueueFullError(RuntimeError):
    """Raised when the queue is at capacity; carries a retry hint."""

    def __init__(self, depth: int, retry_after_seconds: float = 1.0) -> None:
        super().__init__(
            f"job queue is full ({depth} pending); retry after "
            f"{retry_after_seconds:g} s"
        )
        self.depth = depth
        self.retry_after_seconds = retry_after_seconds


class LoadShedError(QueueFullError):
    """A submission shed by the priority policy (still a 429, but the
    client learns which priority would currently be admitted)."""

    def __init__(
        self,
        depth: int,
        retry_after_seconds: float,
        priority: int,
        threshold: int,
    ) -> None:
        super().__init__(depth, retry_after_seconds)
        self.priority = priority
        self.threshold = threshold
        self.args = (
            f"load shed: priority {priority} below the current admission "
            f"threshold {threshold} ({depth} jobs queued); retry after "
            f"{retry_after_seconds:g} s or resubmit at a higher priority",
        )


class LoadShedPolicy:
    """Priority-aware load shedding above a queue-depth watermark.

    Below ``watermark * max_depth`` queued jobs everything is admitted
    (the bounded queue's 429 still applies at capacity).  Past the
    watermark the admission bar rises with fullness: the threshold
    walks the sorted priorities of the jobs already queued, from the
    lowest (just past the watermark) to the highest (at capacity), and
    a submission with ``priority < threshold`` is shed.  Lowest-priority
    traffic is therefore shed first, and the highest-priority traffic
    is only ever refused by the hard capacity limit itself.
    """

    def __init__(self, watermark: float = 0.75) -> None:
        if not 0.0 < watermark <= 1.0:
            raise ValueError("shed watermark must be in (0, 1]")
        self.watermark = watermark

    def threshold(
        self, depth: int, max_depth: int, queued_priorities: list[int]
    ) -> int | None:
        """The minimum admissible priority, or None below the watermark."""
        floor_depth = max(1, int(self.watermark * max_depth + 0.999999))
        if depth < floor_depth or not queued_priorities:
            return None
        if max_depth <= floor_depth:
            fullness = 1.0
        else:
            fullness = min(1.0, (depth - floor_depth) / (max_depth - floor_depth))
        ranked = sorted(queued_priorities)
        return ranked[min(len(ranked) - 1, int(fullness * (len(ranked) - 1) + 1e-9))]

    def describe(self) -> dict:
        return {"watermark": self.watermark}


def _encode_record(record: dict) -> bytes:
    """One self-checksummed JSONL journal line (newline terminated)."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = hashlib.blake2b(body.encode(), digest_size=8).hexdigest()
    line = json.dumps({"crc": crc, "r": record}, sort_keys=True, separators=(",", ":"))
    return line.encode() + b"\n"


def _decode_record(line: bytes) -> dict | None:
    """Parse + verify one journal line; None for torn/corrupt data."""
    try:
        wrapper = json.loads(line.decode("utf-8"))
        record = wrapper["r"]
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if hashlib.blake2b(body.encode(), digest_size=8).hexdigest() != wrapper["crc"]:
            return None
        if "rev" not in record or "job" not in record:
            return None
        return record
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


def _lease_node(worker: str | None) -> str | None:
    """The node holding a lease: the ``<node>/`` prefix of the worker
    identity, or None for an unprefixed (single-server) worker."""
    if worker is None or "/" not in worker:
        return None
    return worker.split("/", 1)[0]


class QueueJournal:
    """Append-only write-ahead log of job records, read through a cursor.

    ``offset`` is the byte cursor: everything before it was read or
    written by the owning queue.  Each append is a single flushed write
    of one complete line.  :meth:`replay` reads complete lines only and
    skips corrupt ones (see the module docstring for the policy).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self.records_since_compact = 0
        self.offset = 0
        #: The journal ends in a partial line left by a crashed writer;
        #: the next append terminates it first.
        self.torn = False

    def size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def append(self, record: dict) -> None:
        """Append one record and move the cursor past it (the caller
        holds the lock and has read up to the end)."""
        if self._handle is None:
            self._handle = open(self.path, "ab")  # noqa: SIM115 -- long-lived WAL
        data = _encode_record(record)
        if self.torn:
            data = b"\n" + data
            self.torn = False
            METRICS.inc("serve.journal.torn_tails_terminated")
        self._handle.write(data)
        self._handle.flush()
        self.offset = self._handle.tell()
        self.records_since_compact += 1

    def replay(self) -> tuple[list[dict], int]:
        """Read from the cursor to the last complete line: ``(valid
        records in order, corrupt lines skipped)``.  A partial last line
        stays unread and sets :attr:`torn`."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                raw = handle.read()
        except FileNotFoundError:
            return [], 0
        end = raw.rfind(b"\n") + 1
        records: list[dict] = []
        skipped = 0
        for line in raw[:end].split(b"\n"):
            if not line:
                continue
            record = _decode_record(line)
            if record is None:
                skipped += 1
            else:
                records.append(record)
        self.offset += end
        self.torn = end < len(raw)
        return records, skipped

    def reset(self) -> None:
        """Truncate after a compaction snapshot has superseded the log.

        Appends reopen in append mode: a handle left at this process's
        own position would overwrite records other processes appended.
        """
        self.close()
        with open(self.path, "wb"):
            pass
        self.offset = 0
        self.torn = False
        self.records_since_compact = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class JobQueue:
    """Bounded, deduplicating, lease-granting, persistent priority queue.

    Thread-safe: submits arrive from HTTP handler threads while worker
    threads claim/renew and the reaper revokes, so every operation runs
    under one condition variable -- and, on a durable queue, under the
    cross-process lock after syncing with the journal.

    ``node`` names the fleet node this queue belongs to (None for a
    single server); its workers lease as ``<node>/...`` and it revokes
    its own stale leases on load.
    """

    def __init__(
        self,
        max_depth: int = 64,
        state_path: str | None = None,
        *,
        node: str | None = None,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        lease_seconds: float = 15.0,
        job_timeout_seconds: float | None = None,
        retry_policy: RetryPolicy | None = None,
        compact_every: int = 512,
        on_recovery_seconds=None,
        recorder=None,
        on_terminal=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        if job_timeout_seconds is not None and job_timeout_seconds <= 0:
            raise ValueError("job_timeout_seconds must be > 0 when set")
        self.max_depth = max_depth
        self.state_path = state_path
        self.node = node
        self.poll_seconds = poll_seconds
        self.lease_seconds = lease_seconds
        self.job_timeout_seconds = job_timeout_seconds
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, backoff_seconds=0.25, backoff_factor=2.0, jitter=0.0
        )
        self.compact_every = max(1, compact_every)
        #: Callback charged with modeled recovery seconds (backoffs) so
        #: the serving ledger accounts reaper/retry delay like any other
        #: stall; None outside a :class:`~repro.serve.http.ServeApp`.
        self.on_recovery_seconds = on_recovery_seconds
        #: Optional :class:`~repro.obs.events.FlightRecorder`: every
        #: lifecycle transition lands in the crash-safe flight journal.
        self.recorder = recorder
        #: Callback invoked with each job reaching a terminal state
        #: (done/dead) -- the SLO tracker's feed.  Called with the queue
        #: lock held; must not call back into the queue.
        self.on_terminal = on_terminal
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        #: (-priority, seq, job_id) min-heap -> highest priority, FIFO
        #: within; holds pending and retrying (possibly not yet due).
        self._heap: list[tuple[int, int, str]] = []
        self._active_by_fingerprint: dict[str, str] = {}
        self._seq = 0
        self._rev = 0
        self._closed = False
        #: Wall-clock finish times of recent done/dead transitions --
        #: the drain-rate sample behind the Retry-After hint.
        self._finished_at: deque[float] = deque(maxlen=32)
        self._journal: QueueJournal | None = None
        self._lock_file = None
        self._gen_fd: int | None = None
        #: Compaction generation this process last synced against
        #: (-1: never, so the first sync loads).
        self._generation = -1
        if state_path is not None:
            stem = os.path.splitext(state_path)[0]
            os.makedirs(os.path.dirname(os.path.abspath(state_path)), exist_ok=True)
            # Rewritten in place and read through one open descriptor:
            # every operation checks it, and each syscall made while
            # another thread wants the GIL can cost this one its turn.
            self._gen_fd = os.open(stem + ".gen", os.O_RDWR | os.O_CREAT, 0o644)
            self._journal = QueueJournal(state_path + ".wal")
            if fcntl is not None:
                self._lock_file = open(stem + ".lock", "a+b")  # noqa: SIM115 -- lifetime = queue
            self._load()

    # -- submission -------------------------------------------------------------------

    def submit(self, request: JobRequest, priority: int = 0) -> tuple[Job, bool]:
        """Queue a request; returns ``(job, created)``.

        ``created`` is False when the request deduplicated onto an
        existing active (pending/running/retrying) job.  The job is
        journaled before this method returns -- acknowledgement implies
        durability.
        """
        fingerprint = request.fingerprint()
        with self._locked():
            if self._closed:
                raise RuntimeError("queue is closed (server draining)")
            active_id = self._active_by_fingerprint.get(fingerprint)
            if active_id is not None:
                METRICS.inc("serve.queue.deduplicated")
                return self._jobs[active_id], False
            if self._depth_locked() >= self.max_depth:
                METRICS.inc("serve.queue.rejected")
                raise QueueFullError(self._depth_locked(), self._retry_after_locked())
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:06d}",
                request=request,
                priority=int(priority),
                seq=self._seq,
                submitted_at=time.time(),
                # Deterministic function of the submit history so identical
                # histories journal to identical bytes; unique within a
                # state dir because seq never repeats.
                trace_id=hashlib.blake2b(
                    f"{self._seq}:{fingerprint}".encode(), digest_size=8
                ).hexdigest(),
            )
            self._jobs[job.id] = job
            self._active_by_fingerprint[fingerprint] = job.id
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            METRICS.inc("serve.queue.submitted")
            self._publish_gauges()
            self._append(job)
            self._flight(
                "submitted", job, ts=job.submitted_at,
                priority=job.priority, kind=request.kind, dataset=request.dataset,
                fingerprint=fingerprint,
            )
            self._cond.notify()
            return job, True

    # -- worker side ------------------------------------------------------------------

    def claim(self, timeout: float | None = None, worker: str | None = None) -> Job | None:
        """Pop the highest-priority due job under a fresh lease.

        Blocks up to ``timeout`` (forever when None) on the queue's
        condition variable: a same-process submit, retry expiry or close
        wakes it at once, and a durable queue also re-checks every
        ``poll_seconds`` for other processes' submits.  The attempt and
        the wait share one hold of the condition, so no notify can slip
        in between.  Returns None on timeout or once this queue is
        closed.  ``worker`` should be the node-qualified identity
        (``<node>/worker-N``) in a fleet.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                with self._locked():
                    if self._closed:
                        return None
                    job, next_due = self._try_claim_locked(worker)
                if job is not None:
                    return job
                waits = [self.poll_seconds] if self._journal is not None else []
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    waits.append(remaining)
                if next_due is not None:
                    waits.append(max(0.0, next_due - time.time()) + 1e-3)
                self._cond.wait(min(waits) if waits else None)

    def _try_claim_locked(self, worker: str | None) -> tuple[Job | None, float | None]:
        """One non-blocking claim attempt (lock held): pop the highest
        priority due job and grant a lease on it.  Returns ``(job,
        next_retry_due)`` -- the second element lets blocking callers
        bound their wait on the earliest future retry."""
        job, next_due = self._pop_ready()
        if job is None:
            return None, next_due
        now = time.time()
        job.state = "running"
        job.attempts += 1
        job.started_at = now
        job.worker = worker
        job.lease_token = secrets.token_hex(8)
        job.lease_deadline = now + self.lease_seconds
        job.not_before = None
        if job.queue_wait_seconds is None:
            job.queue_wait_seconds = max(0.0, now - job.submitted_at)
            METRICS.observe("serve.queue.wait_seconds", job.queue_wait_seconds)
        METRICS.inc("serve.lease.granted")
        self._publish_gauges()
        self._append(job)
        self._flight("claimed", job, ts=now, lease_deadline=job.lease_deadline)
        return job, None

    def renew(self, job_id: str, lease_token: str, extend: float | None = None) -> bool:
        """Heartbeat: push the lease deadline out; False if the lease is
        stale (job reaped, finished, or re-claimed elsewhere).  Journaled,
        so every node's reaper sees the renewed deadline."""
        with self._locked():
            job = self._jobs.get(job_id)
            if job is None or job.state != "running" or job.lease_token != lease_token:
                return False
            job.lease_deadline = time.time() + (extend or self.lease_seconds)
            METRICS.inc("serve.lease.renewed")
            self._append(job)
            self._flight("lease_renewed", job, lease_deadline=job.lease_deadline)
            return True

    def complete(self, job_id: str, lease_token: str | None = None, **fields) -> Job | None:
        """Mark a job done; ``fields`` update the result bookkeeping.

        With ``lease_token`` given, a stale token (the job was reaped
        and possibly re-executed) drops the completion and returns None
        -- the zombie worker's result must not clobber the live job.
        """
        with self._locked():
            job = self._jobs[job_id]
            if lease_token is not None and (
                job.state != "running" or job.lease_token != lease_token
            ):
                METRICS.inc("serve.lease.stale_completions")
                log_event(
                    _LOG, logging.WARNING, "serve.stale_completion",
                    job=job_id, state=job.state,
                )
                return None
            return self._finish_locked(job, "done", fields)

    def fail(
        self,
        job_id: str,
        error: str,
        lease_token: str | None = None,
        retryable: bool = True,
    ) -> Job | None:
        """Record a failed attempt: requeue with backoff, or dead-letter.

        Retryable failures with budget left become ``retrying``; budget
        exhaustion (or ``retryable=False``) quarantines the job as
        ``dead``.  Stale lease tokens are dropped like in
        :meth:`complete`.
        """
        with self._locked():
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if lease_token is not None and (
                job.state != "running" or job.lease_token != lease_token
            ):
                METRICS.inc("serve.lease.stale_completions")
                return None
            return self._retry_or_dead_locked(job, error, retryable)

    def reap(self, now: float | None = None) -> list[Job]:
        """Requeue (or dead-letter) every running job whose lease
        expired or whose wall-clock timeout passed; returns them.

        This is what makes a hung or dead worker unable to strand a
        job: the lease token is revoked, so even if the worker wakes up
        later its completion is dropped as stale.  Any node reaps any
        node's leases.
        """
        now = time.time() if now is None else now
        reaped: list[Job] = []
        with self._locked():
            for job in list(self._jobs.values()):
                if job.state != "running":
                    continue
                expired = job.lease_deadline is not None and job.lease_deadline < now
                timed_out = (
                    self.job_timeout_seconds is not None
                    and job.started_at is not None
                    and now - job.started_at > self.job_timeout_seconds
                )
                if not (expired or timed_out):
                    continue
                if timed_out and not expired:
                    reason = (
                        f"job exceeded wall-clock timeout "
                        f"{self.job_timeout_seconds:g} s"
                    )
                    METRICS.inc("serve.lease.timed_out")
                else:
                    reason = "lease expired (worker hung or died)"
                METRICS.inc("serve.lease.reaped")
                log_event(
                    _LOG, logging.WARNING, "serve.lease_reaped",
                    job=job.id, worker=job.worker, attempts=job.attempts,
                    reason=reason,
                )
                self._flight("reaped", job, ts=now, reason=reason)
                self._retry_or_dead_locked(job, reason, retryable=True)
                reaped.append(job)
        return reaped

    def requeue(self, job_id: str) -> Job:
        """Admin: revive a dead-letter job with a fresh attempt budget."""
        with self._locked():
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.state != "dead":
                raise ValueError(
                    f"job {job_id} is {job.state!r}; only dead jobs can be requeued"
                )
            fingerprint = job.request.fingerprint()
            active = self._active_by_fingerprint.get(fingerprint)
            if active is not None:
                raise ValueError(
                    f"an active job ({active}) already carries this request; "
                    "wait for it instead of requeuing"
                )
            job.state = "pending"
            job.attempts = 0
            job.error = None
            job.not_before = None
            job.started_at = None
            job.finished_at = None
            job.queue_wait_seconds = None
            self._active_by_fingerprint[fingerprint] = job.id
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            METRICS.inc("serve.dead.requeued")
            log_event(_LOG, logging.INFO, "serve.dead_requeued", job=job.id)
            self._publish_gauges()
            self._append(job)
            self._flight("requeued", job)
            self._cond.notify()
            return job

    # -- shared finish / retry internals (lock held) ----------------------------------

    def _finish_locked(self, job: Job, state: str, fields: dict) -> Job:
        job.state = state
        job.finished_at = time.time()
        if job.started_at is not None:
            job.wall_seconds = max(0.0, job.finished_at - job.started_at)
        for name, value in fields.items():
            setattr(job, name, value)
        worker = job.worker
        job.worker = job.lease_token = job.lease_deadline = None
        self._active_by_fingerprint.pop(job.request.fingerprint(), None)
        self._finished_at.append(job.finished_at)
        latency = max(0.0, job.finished_at - job.submitted_at)
        METRICS.observe("serve.job.latency_seconds", latency)
        self._publish_gauges()
        self._append(job)
        self._flight(
            "completed", job, ts=job.finished_at, worker=worker,
            cache_hit=job.cache_hit, result_key=job.result_key,
            latency_seconds=round(latency, 6),
        )
        if self.on_terminal is not None:
            self.on_terminal(job)
        self._cond.notify_all()
        return job

    def _retry_or_dead_locked(self, job: Job, error: str, retryable: bool) -> Job:
        job.error = error
        job.worker = job.lease_token = job.lease_deadline = None
        if retryable and job.attempts < self.retry_policy.max_attempts:
            backoff = self.retry_policy.backoff_for(job.attempts)
            job.state = "retrying"
            job.not_before = time.time() + backoff
            job.started_at = None
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            METRICS.inc("serve.retry.scheduled")
            METRICS.observe("serve.retry.backoff_seconds", backoff)
            if self.on_recovery_seconds is not None:
                self.on_recovery_seconds(backoff)
            log_event(
                _LOG, logging.INFO, "serve.retry_scheduled",
                job=job.id, attempt=job.attempts, backoff=round(backoff, 4),
                error=error,
            )
            self._flight(
                "retry_scheduled", job,
                backoff_seconds=round(backoff, 6), error=error,
            )
        else:
            job.state = "dead"
            job.not_before = None
            job.finished_at = time.time()
            self._active_by_fingerprint.pop(job.request.fingerprint(), None)
            self._finished_at.append(job.finished_at)
            METRICS.inc("serve.dead.total")
            log_event(
                _LOG, logging.ERROR, "serve.job_dead",
                job=job.id, attempts=job.attempts, error=error,
            )
            self._flight("dead_lettered", job, ts=job.finished_at, error=error)
            if self.on_terminal is not None:
                self.on_terminal(job)
        self._publish_gauges()
        self._append(job)
        self._cond.notify_all()
        return job

    # -- introspection ----------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._locked():
            return self._jobs.get(job_id)

    def list_jobs(self, state: str | None = None, limit: int = 500) -> list[Job]:
        """Jobs (newest first), optionally filtered by lifecycle state."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {state!r} (choose from {', '.join(JOB_STATES)})"
            )
        with self._locked():
            jobs = sorted(self._jobs.values(), key=lambda j: -j.seq)
            if state is not None:
                jobs = [j for j in jobs if j.state == state]
            return jobs[:limit]

    def depth(self) -> int:
        """Queued jobs -- pending + retrying (the backpressure quantity)."""
        with self._locked():
            return self._depth_locked()

    def in_flight(self) -> int:
        with self._locked():
            return sum(1 for j in self._jobs.values() if j.state == "running")

    def outstanding(self) -> int:
        """Accepted but not finished (pending/running/retrying) -- the
        drain gate."""
        with self._locked():
            return sum(1 for j in self._jobs.values() if j.state in ACTIVE_STATES)

    def counts(self) -> dict[str, int]:
        with self._locked():
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def running_by_node(self) -> dict[str, int]:
        """Running-job counts grouped by the leasing node -- the
        per-node breakdown behind the ``serve.node.*`` gauges."""
        with self._locked():
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                if job.state == "running":
                    node = _lease_node(job.worker) or "?"
                    counts[node] = counts.get(node, 0) + 1
            return counts

    def queued_priorities(self) -> list[int]:
        """Sorted priorities of the queued (pending/retrying) jobs --
        the load-shed policy's admission-threshold input."""
        with self._locked():
            return sorted(
                j.priority
                for j in self._jobs.values()
                if j.state in ("pending", "retrying")
            )

    def retry_after_hint(self) -> float:
        """Current backpressure hint (seconds), drain-rate derived."""
        with self._locked():
            return self._retry_after_locked()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is pending, running, or retrying.

        A ``retrying`` job still counts as accepted work -- drain waits
        out its backoff and final attempt rather than abandoning it.
        Same-process finishes wake the wait at once; other processes'
        are seen within ``poll_seconds``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                with self._locked():
                    if not any(j.state in ACTIVE_STATES for j in self._jobs.values()):
                        return True
                remaining = self.poll_seconds
                if deadline is not None:
                    until = deadline - time.monotonic()
                    if until <= 0:
                        return False
                    remaining = min(remaining, until)
                self._cond.wait(remaining)

    def close(self) -> None:
        """Refuse further submissions and claims, and wake blocked
        claimers.  Process-local: the rest of a fleet keeps working."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def dispose(self) -> None:
        """Release file handles (does not touch the shared state)."""
        if self._journal is not None:
            self._journal.close()
        if self._lock_file is not None:
            self._lock_file.close()
            self._lock_file = None
        if self._gen_fd is not None:
            os.close(self._gen_fd)
            self._gen_fd = None

    # -- persistence ------------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-ready queue state (deterministic for identical histories)."""
        with self._locked():
            return self._state_locked()

    def _state_locked(self) -> dict:
        return {
            "version": STATE_VERSION,
            "seq": self._seq,
            "max_depth": self.max_depth,
            "jobs": [self._jobs[job_id].to_dict() for job_id in sorted(self._jobs)],
        }

    def save(self, path: str | None = None) -> str:
        """Persist a full snapshot atomically; returns the path written.

        Writing to the configured ``state_path`` compacts: the snapshot
        supersedes the journal, which is truncated.
        """
        target = path or self.state_path
        if target is None:
            raise ValueError("no state path configured")
        with self._locked():
            if target == self.state_path:
                self._compact_locked()
            else:
                atomic_write_text(target, json.dumps(self._state_locked(), sort_keys=True))
        return target

    @contextlib.contextmanager
    def _locked(self):
        """The in-process lock; on a durable queue also the cross-process
        lock, with the view synced to the shared state first."""
        with self._cond:
            if self._journal is None:
                yield
                return
            if self._lock_file is not None:
                fcntl.flock(self._lock_file, fcntl.LOCK_EX)
            try:
                self._sync_locked()
                yield
            finally:
                if self._lock_file is not None:
                    fcntl.flock(self._lock_file, fcntl.LOCK_UN)

    def _append(self, job: Job) -> None:
        # Called with the lock held.  One flushed line per accepting
        # mutation -- O(record) instead of PR-4's O(queue) full rewrite.
        if self._journal is None:
            return
        self._rev += 1
        self._journal.append(
            {"rev": self._rev, "seq": self._seq, "job": job.to_dict(), "node": self.node}
        )
        METRICS.inc("serve.journal.records")
        if self._journal.records_since_compact >= self.compact_every:
            self._compact_locked()

    def _flight(self, event: str, job: Job, ts: float | None = None,
                worker: str | None = None, **fields) -> None:
        # Called with the lock held.  Best-effort lifecycle journaling:
        # the flight recorder is observability, never correctness, so a
        # disk hiccup here must not fail the queue mutation it rode on.
        if self.recorder is None:
            return
        try:
            self.recorder.record(
                event, job.id, trace_id=job.trace_id,
                attempt=job.attempts, worker=worker or job.worker,
                ts=ts, **fields,
            )
        except OSError:
            METRICS.inc("serve.flight.write_errors")

    def _compact_locked(self) -> None:
        # Snapshot, then generation, then truncation: a crash between
        # any two steps leaves a snapshot + journal pair that replays to
        # the same state (replaying records already folded in is a no-op).
        atomic_write_text(
            self.state_path, json.dumps(self._state_locked(), sort_keys=True)
        )
        self._generation += 1
        os.lseek(self._gen_fd, 0, os.SEEK_SET)
        os.write(self._gen_fd, b"%d\n" % self._generation)
        self._journal.reset()
        METRICS.inc("serve.journal.compactions")

    # -- loading and syncing (lock held) ----------------------------------------------

    def _load(self) -> None:
        """First sync: snapshot + whole journal.  ``on_terminal`` does not
        fire for history -- the SLO window reflects live traffic."""
        on_terminal, self.on_terminal = self.on_terminal, None
        try:
            with self._locked():
                pass
        finally:
            self.on_terminal = on_terminal
        METRICS.inc("serve.queue.restored_jobs", float(len(self._jobs)))

    def _read_generation(self) -> int:
        try:
            os.lseek(self._gen_fd, 0, os.SEEK_SET)
            return int(os.read(self._gen_fd, 32) or 0)
        except ValueError:
            return 0

    def _sync_locked(self) -> None:
        """Apply every record appended since the cursor; reload snapshot
        + journal when a compaction (or a shrunken journal) invalidated
        the cursor, then apply the revocation rule."""
        generation = self._read_generation()
        size = self._journal.size()
        reloading = generation != self._generation or size < self._journal.offset
        if reloading:
            held = {
                job.lease_token
                for job in self._jobs.values()
                if job.state == "running" and _lease_node(job.worker) == self.node
            }
            self._load_snapshot_locked()
            self._generation = generation
            self._journal.offset = 0
            self._journal.torn = False
        applied = 0
        if size > self._journal.offset:
            records, skipped = self._journal.replay()
            for record in records:
                self._apply_record_locked(record)
            applied = len(records)
            if applied:
                METRICS.inc("serve.journal.synced_records", float(applied))
            if skipped:
                METRICS.inc("serve.journal.torn_discarded", float(skipped))
                log_event(
                    _LOG, logging.WARNING, "serve.journal.records_skipped",
                    path=self._journal.path, skipped=skipped, applied=applied,
                )
        if reloading:
            self._revoke_stale_leases_locked(held)
        if applied or reloading:
            self._publish_gauges()
            self._cond.notify_all()

    def _load_snapshot_locked(self) -> None:
        self._jobs.clear()
        self._heap.clear()
        self._active_by_fingerprint.clear()
        path = self.state_path
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        if not text.strip():
            # A missing and an empty snapshot are the same situation --
            # nothing was ever compacted -- and both start from the journal.
            reason = "state file empty" if os.path.exists(path) else "state file missing"
            log_event(_LOG, logging.INFO, "serve.queue.starting_clean", path=path, reason=reason)
            return
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            log_event(_LOG, logging.WARNING, "serve.queue.snapshot_unreadable", path=path)
            return
        if payload.get("version") not in (1, STATE_VERSION):
            raise ValueError(
                f"unsupported queue state version {payload.get('version')!r}"
            )
        self._seq = max(self._seq, int(payload.get("seq", 0)))
        for record in payload.get("jobs", []):
            job = Job.from_dict(record)
            self._jobs[job.id] = job
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            if job.state in ("pending", "retrying"):
                heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            if job.state in ACTIVE_STATES:
                self._active_by_fingerprint[job.request.fingerprint()] = job.id

    def _apply_record_locked(self, record: dict) -> None:
        """Fold one journaled mutation into the local view (last wins)."""
        job = Job.from_dict(record["job"])
        old = self._jobs.get(job.id)
        self._jobs[job.id] = job
        self._seq = max(self._seq, int(record.get("seq", 0)), job.seq)
        self._rev = max(self._rev, int(record.get("rev", 0)))
        fingerprint = job.request.fingerprint()
        if job.state in ACTIVE_STATES:
            self._active_by_fingerprint[fingerprint] = job.id
        elif self._active_by_fingerprint.get(fingerprint) == job.id:
            del self._active_by_fingerprint[fingerprint]
        if job.state in ("pending", "retrying"):
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
        if job.state in ("done", "dead") and (
            old is None or old.state not in ("done", "dead")
        ):
            if job.finished_at is not None:
                self._finished_at.append(job.finished_at)
            if self.on_terminal is not None:
                self.on_terminal(job)

    def _revoke_stale_leases_locked(self, held: set[str]) -> None:
        """The revocation rule: a running job leased by this node under a
        token this queue did not grant belongs to a dead predecessor, so
        it goes back to ``pending`` with its attempt count kept."""
        for job in self._jobs.values():
            if (
                job.state != "running"
                or _lease_node(job.worker) != self.node
                or job.lease_token in held
            ):
                continue
            log_event(
                _LOG, logging.INFO, "serve.queue.lease_revoked",
                job=job.id, worker=job.worker, attempts=job.attempts,
            )
            job.state = "pending"
            job.started_at = None
            job.worker = job.lease_token = job.lease_deadline = None
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))

    # -- internals --------------------------------------------------------------------

    def _depth_locked(self) -> int:
        return sum(
            1 for j in self._jobs.values() if j.state in ("pending", "retrying")
        )

    def _retry_after_locked(self) -> float:
        depth = self._depth_locked()
        if len(self._finished_at) < 2:
            return 1.0
        span = self._finished_at[-1] - self._finished_at[0]
        if span <= 0:
            return RETRY_AFTER_MIN
        seconds_per_finish = span / (len(self._finished_at) - 1)
        # Time until a queue slot opens: one finish interval, scaled by
        # how far past capacity the caller found us.
        backlog = max(1, depth - self.max_depth + 1)
        return min(max(seconds_per_finish * backlog, RETRY_AFTER_MIN), RETRY_AFTER_MAX)

    def _pop_ready(self, now: float | None = None) -> tuple[Job | None, float | None]:
        """(next claimable job, earliest future retry due time)."""
        now = time.time() if now is None else now
        deferred: list[tuple[int, int, str]] = []
        job: Job | None = None
        next_due: float | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            candidate = self._jobs.get(entry[2])
            if candidate is None or candidate.state not in ("pending", "retrying"):
                continue  # stale heap entry from an earlier transition
            if (
                candidate.state == "retrying"
                and candidate.not_before is not None
                and candidate.not_before > now
            ):
                deferred.append(entry)
                next_due = (
                    candidate.not_before
                    if next_due is None
                    else min(next_due, candidate.not_before)
                )
                continue
            job = candidate
            break
        for entry in deferred:
            heapq.heappush(self._heap, entry)
        return job, next_due

    def _publish_gauges(self) -> None:
        counts = dict.fromkeys(JOB_STATES, 0)
        for j in self._jobs.values():
            counts[j.state] += 1
        METRICS.set_gauge("serve.queue.depth", float(counts["pending"] + counts["retrying"]))
        METRICS.set_gauge("serve.jobs.in_flight", float(counts["running"]))
        METRICS.set_gauge("serve.jobs.retrying", float(counts["retrying"]))
        METRICS.set_gauge("serve.dead.jobs", float(counts["dead"]))
        METRICS.set_gauge("serve.queue.retry_after_seconds", self._retry_after_locked())
