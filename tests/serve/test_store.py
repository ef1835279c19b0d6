"""The durable JobQueue as a fleet store: one queue, many node processes.

Each test opens two (or more) queue instances over the same state
path -- the in-process stand-in for two ``repro serve-worker`` nodes
on a shared filesystem -- and checks the fleet contract:

* a mutation on node A is visible on node B before B acts (WAL
  replication via byte cursors under the flock),
* dedup fingerprints and job ids are authoritative fleet-wide,
* compaction on one node does not lose records for the others
  (generation bump forces a snapshot reload),
* ``close()`` is process-local -- a draining node never stops the
  fleet -- and a dead node's leases are reaped by a survivor,
* the one revocation rule: a loading queue revokes only its own
  node's stale leases.
"""

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.serve.jobs import JobRequest
from repro.serve.queue import JobQueue, QueueFullError
from repro.serve.store import NodeRegistry, default_node_id


def _request(seed: int = 0, **kwargs) -> JobRequest:
    return JobRequest(dataset="florida", size=48, seed=seed, **kwargs)


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path / "state")


def _store(state_dir, node, **kwargs):
    kwargs.setdefault("max_depth", 16)
    kwargs.setdefault("poll_seconds", 0.01)
    return JobQueue(state_path=os.path.join(state_dir, "queue.json"), node=node, **kwargs)


def _wait_until_blocked(queue):
    """Spin until a thread waits on the queue's condition variable."""
    deadline = time.monotonic() + 5.0
    while not queue._cond._waiters:
        assert time.monotonic() < deadline, "nobody blocked on the queue"
        time.sleep(0)


class TestCrossProcessVisibility:
    def test_submit_on_a_visible_on_b(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, created = a.submit(_request(seed=1))
        assert created
        seen = b.get(job.id)
        assert seen is not None and seen.state == "pending"
        assert b.depth() == 1

    def test_claim_on_b_visible_on_a(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = b.claim(timeout=1.0, worker="b/serve-worker-0")
        assert claimed is not None and claimed.id == job.id
        mirrored = a.get(job.id)
        assert mirrored.state == "running"
        assert mirrored.worker == "b/serve-worker-0"
        assert a.running_by_node() == {"b": 1}

    def test_completion_on_b_terminal_on_a(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = b.claim(timeout=1.0, worker="b/w")
        b.complete(job.id, lease_token=claimed.lease_token, result_key="abc")
        assert a.get(job.id).state == "done"
        assert a.counts()["done"] == 1

    def test_terminal_callback_fires_for_remote_transitions(self, state_dir):
        terminal = []
        a = _store(state_dir, "a")
        a.on_terminal = lambda job: terminal.append(job.id)
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = b.claim(timeout=1.0, worker="b/w")
        b.complete(job.id, lease_token=claimed.lease_token, result_key="k")
        a.get(job.id)  # any synced read folds in the remote record
        assert terminal == [job.id]


class TestFleetDedupAndIds:
    def test_duplicate_across_nodes_dedupes(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        first, created_a = a.submit(_request(seed=7))
        dup, created_b = b.submit(_request(seed=7))
        assert created_a and not created_b
        assert dup.id == first.id
        assert a.depth() == b.depth() == 1

    def test_job_ids_unique_across_interleaved_submits(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        ids = []
        for seed in range(8):
            node = a if seed % 2 == 0 else b
            job, created = node.submit(_request(seed=seed))
            assert created
            ids.append(job.id)
        assert len(set(ids)) == 8

    def test_priority_order_holds_across_nodes(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        low, _ = a.submit(_request(seed=1), priority=0)
        high, _ = b.submit(_request(seed=2), priority=9)
        mid, _ = a.submit(_request(seed=3), priority=4)
        order = [b.claim(timeout=1.0, worker="b/w").id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_backpressure_counts_fleet_wide_depth(self, state_dir):
        a = _store(state_dir, "a", max_depth=2)
        b = _store(state_dir, "b", max_depth=2)
        a.submit(_request(seed=1))
        b.submit(_request(seed=2))
        with pytest.raises(QueueFullError):
            a.submit(_request(seed=3))


class TestCompactionGenerations:
    def test_compaction_on_a_does_not_lose_records_for_b(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        jobs = [a.submit(_request(seed=s))[0] for s in range(4)]
        b.depth()  # B's cursor now points into the pre-compaction WAL
        a.save()  # compacts: truncates the WAL, bumps queue.gen
        # B must detect the generation bump and reload the snapshot --
        # and then still see a post-compaction submit from A.
        late, _ = a.submit(_request(seed=99))
        assert b.depth() == 5
        for job in [*jobs, late]:
            assert b.get(job.id) is not None

    def test_append_after_another_nodes_compaction_keeps_its_records(self, state_dir):
        """A compacting node must not keep writing at its own file
        position: that would overwrite what other nodes appended since."""
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        a.submit(_request(seed=1))
        a.save()  # truncates the journal
        from_b, _ = b.submit(_request(seed=2))
        from_a, _ = a.submit(_request(seed=3))
        c = _store(state_dir, "c")
        assert c.get(from_b.id) is not None
        assert c.get(from_a.id) is not None
        assert c.depth() == 3

    def test_generation_file_written_on_compaction(self, state_dir):
        a = _store(state_dir, "a")
        a.submit(_request(seed=1))
        a.save()
        gen = (tmp := os.path.join(state_dir, "queue.gen"))
        assert os.path.exists(gen)
        assert int(open(tmp).read()) >= 0

    def test_fresh_node_joins_after_compaction(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        a.save()
        c = _store(state_dir, "c")
        assert c.get(job.id).state == "pending"
        dup, created = c.submit(_request(seed=1))
        assert not created and dup.id == job.id


class TestTornTails:
    def test_torn_tail_is_skipped_then_terminated(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        wal = os.path.join(state_dir, "queue.json.wal")
        with open(wal, "ab") as handle:  # crashed writer: no newline
            handle.write(b'{"torn": tr')
        b = _store(state_dir, "b")
        assert b.get(job.id) is not None  # tail never corrupts replay
        # The next writer terminates the stump; its record still lands.
        late, _ = b.submit(_request(seed=2))
        assert a.get(late.id) is not None

    def test_corrupt_complete_line_is_skipped_not_fatal(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        wal = os.path.join(state_dir, "queue.json.wal")
        with open(wal, "ab") as handle:
            handle.write(b'{"crc": "0000", "r": {"rev": 1, "job": {}}}\n')
        b = _store(state_dir, "b")
        assert b.get(job.id).state == "pending"


class TestProcessLocalClose:
    def test_close_does_not_stop_the_fleet(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        a.submit(_request(seed=1))
        a.close()
        assert a.claim(timeout=0.05) is None  # this node stopped claiming
        job, created = b.submit(_request(seed=2))  # fleet still admits
        assert created
        assert b.claim(timeout=1.0, worker="b/w") is not None

    def test_dispose_releases_handles_without_touching_state(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        a.dispose()
        b = _store(state_dir, "b")
        assert b.get(job.id).state == "pending"


class TestCrossNodeReaping:
    def test_survivor_reaps_dead_nodes_lease(self, state_dir):
        a = _store(state_dir, "a", lease_seconds=0.1)
        b = _store(state_dir, "b", lease_seconds=0.1)
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=1.0, worker="a/serve-worker-0")
        assert claimed.id == job.id
        # Node A "dies" (never renews).  B's reaper requeues the job
        # once the lease expires -- lease expiry, not process liveness,
        # is the fleet-wide truth about worker death.
        reaped = b.reap(now=claimed.lease_deadline + 1.0)
        assert [j.id for j in reaped] == [job.id]
        assert b.get(job.id).state in ("pending", "retrying")
        # A's zombie completion is dropped on the stale token.
        assert a.complete(job.id, lease_token=claimed.lease_token) is None
        retaken = b.claim(timeout=2.0, worker="b/serve-worker-0")
        assert retaken.id == job.id and retaken.attempts == 2

    def test_renewal_is_visible_to_other_reapers(self, state_dir):
        """A renewed lease is journaled: another node's reaper must not
        take back a job whose worker is alive and heartbeating."""
        a = _store(state_dir, "a", lease_seconds=0.1)
        b = _store(state_dir, "b", lease_seconds=0.1)
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=1.0, worker="a/serve-worker-0")
        first_deadline = claimed.lease_deadline
        assert a.renew(job.id, claimed.lease_token, extend=60.0)
        assert b.reap(now=first_deadline + 1.0) == []
        assert b.get(job.id).lease_token == claimed.lease_token

    def test_reload_does_not_revoke_live_leases(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=1.0, worker="a/w")
        c = _store(state_dir, "c")  # a node (re)joining the fleet
        mirrored = c.get(job.id)
        assert mirrored.state == "running"
        assert mirrored.lease_token == claimed.lease_token

    def test_wait_idle_sees_fleet_wide_activity(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        assert not b.wait_idle(timeout=0.05)
        claimed = b.claim(timeout=1.0, worker="b/w")
        b.complete(job.id, lease_token=claimed.lease_token)
        assert a.wait_idle(timeout=1.0)


class TestLeaseRevocation:
    """One rule: a loading queue revokes the leases of its own node that
    it did not grant itself, keeping the attempt count."""

    def test_nodeless_restart_revokes_its_own_running_job(self, state_dir):
        q = _store(state_dir, None)
        job, _ = q.submit(_request(seed=1))
        q.claim(timeout=0, worker="serve-worker-0")
        q.dispose()
        restarted = _store(state_dir, None)
        revived = restarted.get(job.id)
        assert revived.state == "pending" and revived.attempts == 1
        assert revived.lease_token is None and revived.worker is None
        assert restarted.claim(timeout=0, worker="serve-worker-0").attempts == 2

    def test_node_restarted_under_its_own_name_revokes_its_own_lease(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        mine, _ = a.submit(_request(seed=1))
        theirs, _ = a.submit(_request(seed=2))
        a.claim(timeout=0, worker="a/serve-worker-0")
        b_lease = b.claim(timeout=0, worker="b/serve-worker-0").lease_token
        a.dispose()  # node a dies with its lease outstanding
        restarted = _store(state_dir, "a")
        assert restarted.get(mine.id).state == "pending"
        assert restarted.get(mine.id).attempts == 1
        assert restarted.get(theirs.id).state == "running"
        assert restarted.get(theirs.id).lease_token == b_lease

    def test_reload_spares_leases_this_queue_granted(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=0, worker="a/serve-worker-0")
        b.save()  # compaction: a's next operation reloads the snapshot
        assert a.get(job.id).state == "running"
        assert a.get(job.id).lease_token == claimed.lease_token
        assert a.complete(job.id, lease_token=claimed.lease_token) is not None

    def test_every_reload_revokes_a_predecessors_lease(self, state_dir):
        old = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = old.submit(_request(seed=1))
        old.claim(timeout=0, worker="a/serve-worker-0")
        old.dispose()
        new = _store(state_dir, "a")
        assert new.get(job.id).state == "pending"
        b.save()  # b's snapshot still shows the dead predecessor's lease
        assert new.get(job.id).state == "pending"
        assert new.claim(timeout=0, worker="a/serve-worker-0").id == job.id


class TestWakeups:
    """A durable queue polls for other processes, but a same-process
    submit or finish must wake its waiters at once."""

    def test_claim_wakes_on_same_process_submit(self, state_dir):
        q = _store(state_dir, "a", poll_seconds=30.0)
        claimed = []
        thread = threading.Thread(
            target=lambda: claimed.append(q.claim(timeout=60.0, worker="a/w"))
        )
        thread.start()
        _wait_until_blocked(q)
        submitted = time.monotonic()
        job, _ = q.submit(_request(seed=1))
        thread.join(timeout=5.0)
        assert time.monotonic() - submitted < 1.0
        assert claimed and claimed[0].id == job.id

    def test_wait_idle_wakes_on_same_process_complete(self, state_dir):
        q = _store(state_dir, "a", poll_seconds=30.0)
        job, _ = q.submit(_request(seed=1))
        claimed = q.claim(timeout=0, worker="a/w")
        idle = []
        thread = threading.Thread(target=lambda: idle.append(q.wait_idle(timeout=60.0)))
        thread.start()
        _wait_until_blocked(q)
        completed = time.monotonic()
        q.complete(job.id, lease_token=claimed.lease_token)
        thread.join(timeout=5.0)
        assert time.monotonic() - completed < 1.0
        assert idle == [True]


class TestAdminConsole:
    def test_offline_console_is_safe_beside_a_live_node(self, state_dir, capsys):
        """``serve-admin --state-dir`` goes through the locked store: a
        live node's lease survives it and no acknowledged job is lost."""
        a = _store(state_dir, "a", max_depth=1000)
        job, _ = a.submit(_request(seed=0))
        claimed = a.claim(timeout=0, worker="a/serve-worker-0")
        acknowledged = [job.id]
        stop = threading.Event()

        def keep_submitting():
            for seed in range(1, 500):
                if stop.is_set():
                    break
                acknowledged.append(a.submit(_request(seed=seed))[0].id)

        thread = threading.Thread(target=keep_submitting)
        thread.start()
        try:
            for _ in range(5):
                assert main(["serve-admin", "dead", "--state-dir", state_dir]) == 0
        finally:
            stop.set()
            thread.join()
        assert len(acknowledged) > 1
        live = a.get(job.id)
        assert live.state == "running" and live.lease_token == claimed.lease_token
        c = _store(state_dir, "c", max_depth=1000)
        assert {j.id for j in c.list_jobs(limit=10_000)} == set(acknowledged)
        assert c.get(job.id).lease_token == claimed.lease_token


class TestNodeRegistry:
    def test_heartbeat_roster_round_trip(self, state_dir):
        registry = NodeRegistry(state_dir)
        registry.heartbeat("node-0", workers=2, in_flight=1)
        registry.heartbeat("node-1", workers=4, in_flight=0)
        roster = registry.nodes()
        assert set(roster) == {"node-0", "node-1"}
        assert roster["node-0"]["workers"] == 2
        assert roster["node-1"]["age_seconds"] >= 0.0

    def test_remove_retires_a_node(self, state_dir):
        registry = NodeRegistry(state_dir)
        registry.heartbeat("node-0")
        registry.remove("node-0")
        assert registry.nodes() == {}
        registry.remove("node-0")  # idempotent

    def test_corrupt_heartbeat_is_skipped(self, state_dir):
        registry = NodeRegistry(state_dir)
        registry.heartbeat("good")
        with open(registry.path_for("bad"), "w") as handle:
            handle.write("{mid-write")
        assert set(registry.nodes()) == {"good"}

    def test_default_node_id_is_host_qualified(self):
        node = default_node_id()
        assert str(os.getpid()) in node


class TestSingleProcessCompatibility:
    def test_nodeless_queue_opens_a_fleet_state_dir(self, state_dir):
        """A single server opening a fleet's state dir sees every job and
        leaves the fleet nodes' leases alone."""
        a = _store(state_dir, "a")
        running, _ = a.submit(_request(seed=1))
        pending, _ = a.submit(_request(seed=2))
        claimed = a.claim(timeout=0, worker="a/serve-worker-0")
        a.save()
        a.dispose()
        plain = JobQueue(
            max_depth=16, state_path=os.path.join(state_dir, "queue.json")
        )
        assert plain.get(pending.id).state == "pending"
        assert plain.get(running.id).state == "running"
        assert plain.get(running.id).lease_token == claimed.lease_token

    def test_snapshot_is_plain_versioned_json(self, state_dir):
        a = _store(state_dir, "a")
        a.submit(_request(seed=1))
        a.save()
        payload = json.load(open(os.path.join(state_dir, "queue.json")))
        assert payload["version"] in (1, 2)
        assert len(payload["jobs"]) == 1
