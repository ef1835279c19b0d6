"""Job model for the serving layer.

A job asks the server for one wind product over a paper-analogue
dataset: either the dense motion field of one frame **pair** (the
paper's Section 5 unit of work) or the time-mean field of a short
**sequence** (the streaming climatology product).  Requests are
validated at the admission boundary -- the serving threads must never
see a payload that can take the process down -- and canonicalized into
a deterministic **fingerprint** used for queue-level deduplication.

Fault injection is never a *request* feature: a payload carrying fault
keys is refused outright with a 400-style error rather than silently
ignored.  Serve-mode chaos exists, but only as explicit server-side
configuration (``repro serve --chaos``), so a client can never ask a
server to sabotage itself.

Lifecycle: an accepted job is always in exactly one of ``pending``
(queued), ``running`` (claimed under a live lease), ``retrying``
(failed or reaped, waiting out its backoff), ``done``, or ``dead``
(attempt budget exhausted -- quarantined in the dead-letter set until
an operator requeues it).  ``failed`` appears only in legacy journals
and restores as ``dead``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..kernels import KERNEL_BACKENDS

#: Dataset keys the serving layer accepts (mirrors ``repro.cli``).
SERVABLE_DATASETS = ("florida", "frederic", "luis")

#: Job kinds: one frame pair, or the mean field of a whole sequence.
JOB_KINDS = ("pair", "sequence")

#: Request keys that belong to the offline fault-injection harness.
_FAULT_KEYS = frozenset({"inject_faults", "fault_seed", "faults", "fault_plan"})

#: Job lifecycle states.  ``retrying`` is a failed/reaped job waiting
#: out its backoff; ``dead`` is the dead-letter quarantine (attempt
#: budget exhausted).  Legacy ``failed`` journals restore as ``dead``.
JOB_STATES = ("pending", "running", "retrying", "done", "dead")

#: States that count as accepted-but-unfinished (the drain gate).
ACTIVE_STATES = ("pending", "running", "retrying")

#: Hypothesis schedules a served job may request.  Pyramid is refused:
#: served products promise bit-identity with the reference pipeline.
SERVABLE_SEARCH_MODES = ("exhaustive", "pruned")


class JobValidationError(ValueError):
    """A request the admission boundary refuses to queue."""


@dataclass(frozen=True)
class ServeLimits:
    """Admission-control envelope for job requests."""

    max_size: int = 128
    max_frames: int = 16
    max_search: int = 4
    max_template: int = 6


@dataclass(frozen=True)
class JobRequest:
    """One validated unit of servable work.

    ``pair`` indexes the requested frame pair for ``kind="pair"``;
    sequence jobs always cover all ``frames - 1`` pairs.
    """

    dataset: str
    size: int = 64
    frames: int = 2
    seed: int = 0
    pair: int = 0
    search: int = 2
    template: int = 3
    kind: str = "pair"
    search_mode: str = "exhaustive"
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.dataset not in SERVABLE_DATASETS:
            raise JobValidationError(
                f"unknown dataset {self.dataset!r} "
                f"(choose from {', '.join(SERVABLE_DATASETS)})"
            )
        if self.kind not in JOB_KINDS:
            raise JobValidationError(
                f"unknown job kind {self.kind!r} (choose from {', '.join(JOB_KINDS)})"
            )
        if self.search_mode not in SERVABLE_SEARCH_MODES:
            raise JobValidationError(
                f"unknown search_mode {self.search_mode!r} "
                f"(choose from {', '.join(SERVABLE_SEARCH_MODES)}; the approximate "
                "pyramid schedule is not servable)"
            )
        if self.backend not in KERNEL_BACKENDS:
            raise JobValidationError(
                f"unknown backend {self.backend!r} "
                f"(choose from {', '.join(KERNEL_BACKENDS)})"
            )
        for name in ("size", "frames", "seed", "pair", "search", "template"):
            if not isinstance(getattr(self, name), int):
                raise JobValidationError(f"{name} must be an integer")
        if self.frames < 2:
            raise JobValidationError("frames must be >= 2")
        if not 0 <= self.pair < self.frames - 1:
            raise JobValidationError(
                f"pair must be in [0, {self.frames - 2}] for {self.frames} frames"
            )
        if self.size < 16:
            raise JobValidationError("size must be >= 16")
        if self.search < 1 or self.template < 1:
            raise JobValidationError("search and template must be >= 1")

    @classmethod
    def from_payload(
        cls, payload: dict, limits: ServeLimits | None = None
    ) -> "JobRequest":
        """Parse an untrusted JSON payload into a validated request.

        Unknown keys are refused (a typo must not silently change the
        product), fault-injection keys are refused *loudly*, and the
        admission limits bound the work a single request can demand.
        ``priority`` is queue metadata, not part of the request content,
        and is handled by the caller.
        """
        if not isinstance(payload, dict):
            raise JobValidationError("request body must be a JSON object")
        payload = dict(payload)
        payload.pop("priority", None)
        bad_fault = _FAULT_KEYS.intersection(payload)
        if bad_fault:
            raise JobValidationError(
                f"fault injection is refused in serve mode (got {sorted(bad_fault)}); "
                "chaos is server-side configuration ('repro serve --chaos'), or use "
                "'repro stream --inject-faults' for offline fault-tolerance testing"
            )
        allowed = set(cls.__dataclass_fields__)
        unknown = set(payload) - allowed
        if unknown:
            raise JobValidationError(
                f"unknown request field(s) {sorted(unknown)} "
                f"(allowed: {sorted(allowed)} + priority)"
            )
        if "dataset" not in payload:
            raise JobValidationError("request must name a dataset")
        request = cls(**payload)
        limits = limits or ServeLimits()
        if request.size > limits.max_size:
            raise JobValidationError(
                f"size {request.size} exceeds the admission limit {limits.max_size}"
            )
        if request.frames > limits.max_frames:
            raise JobValidationError(
                f"frames {request.frames} exceeds the admission limit {limits.max_frames}"
            )
        if request.search > limits.max_search or request.template > limits.max_template:
            raise JobValidationError(
                f"search/template ({request.search}/{request.template}) exceed the "
                f"admission limits ({limits.max_search}/{limits.max_template})"
            )
        return request

    def canonical(self) -> dict:
        """Sorted-key dict form -- the deduplication identity."""
        return dict(sorted(asdict(self).items()))

    def fingerprint(self) -> str:
        """Deterministic digest of the canonical request content."""
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass
class Job:
    """A queued request plus its lifecycle bookkeeping."""

    id: str
    request: JobRequest
    priority: int = 0
    seq: int = 0
    state: str = "pending"
    #: Opaque lifecycle-trace identifier assigned at submission; ties
    #: flight-recorder events, structured logs, and ``GET
    #: /v1/jobs/{id}/trace`` together across workers and restarts.
    trace_id: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cache_hit: bool = False
    result_key: str | None = None
    rung: int | None = None
    error: str | None = None
    queue_wait_seconds: float | None = None
    wall_seconds: float | None = None
    #: Execution attempts so far (claims, including reaped/failed ones).
    attempts: int = 0
    #: Lease bookkeeping while ``running``: the claiming worker's name,
    #: an opaque token stale completions must match, and the heartbeat
    #: deadline the reaper enforces.
    worker: str | None = None
    lease_token: str | None = None
    lease_deadline: float | None = None
    #: Earliest wall-clock time a ``retrying`` job may be claimed again.
    not_before: float | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.state in ("done", "dead")

    def to_dict(self) -> dict:
        """JSON-ready status payload (also the persistence record)."""
        return {
            "id": self.id,
            "request": self.request.canonical(),
            "priority": self.priority,
            "seq": self.seq,
            "state": self.state,
            "trace_id": self.trace_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hit": self.cache_hit,
            "result_key": self.result_key,
            "rung": self.rung,
            "error": self.error,
            "queue_wait_seconds": self.queue_wait_seconds,
            "wall_seconds": self.wall_seconds,
            "attempts": self.attempts,
            "worker": self.worker,
            "lease_token": self.lease_token,
            "lease_deadline": self.lease_deadline,
            "not_before": self.not_before,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        """Inverse of :meth:`to_dict`; legacy terminal ``failed``
        restores as ``dead``.  Leases load as written -- which stale
        ones to revoke is the queue's rule (see :mod:`repro.serve.queue`).
        """
        state = payload["state"]
        if state == "failed":
            state = "dead"
        return cls(
            id=payload["id"],
            request=JobRequest(**payload["request"]),
            priority=payload["priority"],
            seq=payload["seq"],
            state=state,
            trace_id=payload.get("trace_id", ""),
            submitted_at=payload["submitted_at"],
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            cache_hit=payload.get("cache_hit", False),
            result_key=payload.get("result_key"),
            rung=payload.get("rung"),
            error=payload.get("error"),
            queue_wait_seconds=payload.get("queue_wait_seconds"),
            wall_seconds=payload.get("wall_seconds"),
            attempts=payload.get("attempts", 0),
            worker=payload.get("worker"),
            lease_token=payload.get("lease_token"),
            lease_deadline=payload.get("lease_deadline"),
            not_before=payload.get("not_before"),
            metadata=payload.get("metadata", {}),
        )
