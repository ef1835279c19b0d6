"""Structured record of what went wrong and what was done about it.

A 490-frame run that silently "completed" is worthless if nobody can
tell which pairs were estimated by the full SMA and which limped home
on temporal interpolation.  :class:`RunReport` records every fault
(:class:`FaultEvent`) and the method that produced every pair
(:class:`PairOutcome`), survives checkpoints as JSON, and renders the
operational summary the paper's forecaster-facing pipeline would have
shown.
"""

from __future__ import annotations

import bisect
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

#: Keys dropped by ``to_json(include_timing=False)`` -- the default --
#: so existing report consumers (and byte-equality resume tests) see
#: exactly the pre-timing schema.
_TIMING_KEYS = ("timestamp", "wall_seconds")

#: Degradation-ladder rung names, by rung index.
RUNG_NAMES = ("sma", "sma-replanned", "horn-schunck", "interpolated")


@dataclass
class FaultEvent:
    """One detected fault and the recovery action taken.

    ``pair`` is the frame-pair index being processed (-1 during
    staging); ``frame`` the affected frame index when applicable.
    ``kind`` is a stable tag (``disk-read-error``, ``disk-write-error``,
    ``corrupt-frame``, ``pe-memory``, ``dead-pe-rows``); ``action``
    what the runner did (``retried``, ``recovered``, ``replanned``,
    ``degraded``, ``interpolated``, ``remapped``, ``skipped``).
    """

    pair: int
    kind: str
    detail: str
    action: str
    frame: int | None = None
    #: Monotonic host clock at recording time (None on legacy payloads).
    timestamp: float | None = None


@dataclass
class PairOutcome:
    """How one frame pair's motion field was produced."""

    pair: int
    method: str
    rung: int
    segment_rows: int | None = None
    seconds: float = 0.0
    #: Monotonic host clock at recording time (None on legacy payloads).
    timestamp: float | None = None
    #: Measured host wall-clock seconds spent producing the pair, when
    #: the driver timed it (modeled MasPar time lives in ``seconds``).
    wall_seconds: float | None = None


@dataclass
class RunReport:
    """Everything a streaming run has to confess."""

    events: list[FaultEvent] = field(default_factory=list)
    outcomes: list[PairOutcome] = field(default_factory=list)

    # -- recording ------------------------------------------------------------------

    def record_event(
        self, pair: int, kind: str, detail: str, action: str, frame: int | None = None
    ) -> FaultEvent:
        event = FaultEvent(
            pair=pair, kind=kind, detail=detail, action=action, frame=frame,
            timestamp=time.monotonic(),
        )
        # Events stay in pair order: a pool wave fetches every pair
        # before it merges the first, and the report must read as the
        # sequential run's.
        bisect.insort(self.events, event, key=lambda e: e.pair)
        return event

    def record_outcome(
        self,
        pair: int,
        rung: int,
        segment_rows: int | None = None,
        seconds: float = 0.0,
        wall_seconds: float | None = None,
    ) -> PairOutcome:
        outcome = PairOutcome(
            pair=pair,
            method=RUNG_NAMES[rung],
            rung=rung,
            segment_rows=segment_rows,
            seconds=seconds,
            timestamp=time.monotonic(),
            wall_seconds=wall_seconds,
        )
        self.outcomes.append(outcome)
        return outcome

    # -- queries --------------------------------------------------------------------

    @property
    def fault_counts(self) -> Counter:
        return Counter(event.kind for event in self.events)

    @property
    def method_counts(self) -> Counter:
        return Counter(outcome.method for outcome in self.outcomes)

    @property
    def degraded_pairs(self) -> list[int]:
        """Pairs not produced by the full planned SMA (rung > 0)."""
        return [o.pair for o in self.outcomes if o.rung > 0]

    def events_for_pair(self, pair: int) -> list[FaultEvent]:
        return [e for e in self.events if e.pair == pair]

    # -- serialization ---------------------------------------------------------------

    def to_json(self, include_timing: bool = False) -> str:
        """Serialize; the default drops timing keys for the stable schema.

        Timing (monotonic timestamps, measured wall seconds) is host
        state, not run state: two bit-identical runs record different
        clocks.  Checkpoints therefore persist the timing-free form, and
        consumers that want per-pair durations opt in with
        ``include_timing=True``.
        """

        def row(obj) -> dict:
            d = asdict(obj)
            if not include_timing:
                for key in _TIMING_KEYS:
                    d.pop(key, None)
            return d

        return json.dumps(
            {
                "events": [row(e) for e in self.events],
                "outcomes": [row(o) for o in self.outcomes],
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "RunReport":
        data = json.loads(payload)
        return cls(
            events=[FaultEvent(**e) for e in data.get("events", [])],
            outcomes=[PairOutcome(**o) for o in data.get("outcomes", [])],
        )

    # -- presentation ----------------------------------------------------------------

    def summary_rows(self) -> list[tuple[str, str]]:
        """(label, value) rows for :func:`repro.analysis.report.format_table`."""
        rows: list[tuple[str, str]] = [("pairs processed", str(len(self.outcomes)))]
        for method, count in sorted(self.method_counts.items()):
            rows.append((f"pairs via {method}", str(count)))
        if self.events:
            for kind, count in sorted(self.fault_counts.items()):
                rows.append((f"faults: {kind}", str(count)))
        else:
            rows.append(("faults", "none"))
        recovery = sum(o.seconds for o in self.outcomes if o.rung > 0)
        rows.append(("degraded pairs", str(len(self.degraded_pairs))))
        rows.append(("modeled seconds in degraded pairs", f"{recovery:.3f}"))
        walls = [o.wall_seconds for o in self.outcomes if o.wall_seconds is not None]
        if walls:
            rows.append(("measured wall seconds (timed pairs)", f"{sum(walls):.3f}"))
        return rows
