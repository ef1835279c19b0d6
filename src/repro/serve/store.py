"""Fleet membership: node identities and the heartbeat roster.

A serve fleet is several processes -- ``repro serve-worker`` nodes and
the async frontend, on one machine or on several sharing the state
directory over a common filesystem -- each holding a
:class:`~repro.serve.queue.JobQueue` over the same ``queue.json``.
The queue is the shared store: every process takes its ``flock``,
replays the journal records the others appended, and appends its own,
under the one replay policy and the one lease-revocation rule
described in :mod:`repro.serve.queue`.  A single server is simply a
fleet of one.

What the fleet adds on top lives here: :func:`default_node_id`, which
names a node (its workers lease as ``<node>/serve-worker-N``), and
:class:`NodeRegistry`, the advisory heartbeat roster behind the
per-node ``/healthz`` and ``serve.node.*`` breakdown.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import time

from ..ioutil import atomic_write_text


def default_node_id() -> str:
    """A node identity unique across the fleet: host + pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


class NodeRegistry:
    """Heartbeat files under ``<state_dir>/nodes/`` -- fleet membership.

    Each node (workers and frontends alike) periodically writes one
    atomic JSON heartbeat; readers get the roster with per-node ages.
    Registration is advisory observability -- job correctness never
    depends on it (leases carry that) -- so a stale file from a
    SIGKILLed node is surfaced as a large ``age_seconds``, not an
    error, until its node id is reused or an operator removes it.
    """

    def __init__(self, state_dir: str) -> None:
        self.root = os.path.join(state_dir, "nodes")
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, node: str) -> str:
        return os.path.join(self.root, f"{node}.json")

    def heartbeat(self, node: str, **payload) -> None:
        record = {"node": node, "ts": time.time(), "pid": os.getpid(), **payload}
        atomic_write_text(
            self.path_for(node), json.dumps(record, sort_keys=True)
        )

    def nodes(self, now: float | None = None) -> dict[str, dict]:
        """node id -> last heartbeat payload + ``age_seconds``."""
        now = time.time() if now is None else now
        roster: dict[str, dict] = {}
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return roster
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name), encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # mid-write or vanished; next scrape sees it
            node = str(payload.get("node", name[: -len(".json")]))
            payload["age_seconds"] = max(0.0, now - float(payload.get("ts", now)))
            roster[node] = payload
        return roster

    def remove(self, node: str) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self.path_for(node))
