"""Leases, heartbeats, the reaper, and retry/dead-letter bookkeeping.

These tests drive the queue's fault-tolerance machinery directly (no
worker threads, no sleeping on real lease clocks): ``reap(now=...)``
takes an explicit clock so lease expiry is tested deterministically.
"""

import threading
import time

from repro.reliability.retry import RetryPolicy
from repro.serve.jobs import JobRequest
from repro.serve.queue import JobQueue


def _request(seed: int = 0, **kwargs) -> JobRequest:
    return JobRequest(dataset="florida", size=48, seed=seed, **kwargs)


class TestLeaseGrant:
    def test_claim_grants_token_deadline_and_attempt(self):
        q = JobQueue(max_depth=4, lease_seconds=15.0)
        job, _ = q.submit(_request())
        claimed = q.claim(timeout=0, worker="w0")
        assert claimed.id == job.id
        assert claimed.state == "running"
        assert claimed.worker == "w0"
        assert claimed.attempts == 1
        assert claimed.lease_token is not None
        assert claimed.lease_deadline > time.time()

    def test_renew_extends_the_deadline(self):
        q = JobQueue(max_depth=4, lease_seconds=0.5)
        job, _ = q.submit(_request())
        claimed = q.claim(timeout=0)
        first_deadline = claimed.lease_deadline
        assert q.renew(job.id, claimed.lease_token, extend=60.0)
        assert q.get(job.id).lease_deadline > first_deadline

    def test_renew_refuses_stale_tokens(self):
        q = JobQueue(max_depth=4)
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        assert not q.renew(job.id, "not-the-token")
        assert not q.renew("job-999999", "whatever")


class TestReaper:
    def test_expired_lease_requeues_the_job(self):
        """The core no-stranded-jobs property: a dead worker's job goes
        back to the schedule instead of sitting in ``running`` forever."""
        q = JobQueue(max_depth=4, lease_seconds=10.0)
        job, _ = q.submit(_request())
        q.claim(timeout=0, worker="w-dead")
        assert q.reap(now=time.time() + 5.0) == []  # lease still live
        reaped = q.reap(now=time.time() + 11.0)
        assert [j.id for j in reaped] == [job.id]
        state = q.get(job.id)
        assert state.state == "retrying"
        assert state.worker is None and state.lease_token is None
        assert "lease expired" in state.error

    def test_reaped_job_is_reclaimable_after_backoff(self):
        q = JobQueue(
            max_depth=4, lease_seconds=10.0,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.01, jitter=0.0),
        )
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        q.reap(now=time.time() + 11.0)
        reclaimed = q.claim(timeout=5.0)
        assert reclaimed.id == job.id and reclaimed.attempts == 2

    def test_reap_exhausts_the_attempt_budget_to_dead(self):
        q = JobQueue(
            max_depth=4, lease_seconds=10.0,
            retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.01, jitter=0.0),
        )
        job, _ = q.submit(_request())
        for _ in range(2):
            assert q.claim(timeout=5.0).id == job.id
            q.reap(now=time.time() + 11.0)
        state = q.get(job.id)
        assert state.state == "dead" and state.attempts == 2

    def test_wall_clock_timeout_reaps_despite_renewals(self):
        """A stalled-but-alive worker heartbeats forever; the per-job
        wall-clock timeout is what finally takes the job back."""
        q = JobQueue(max_depth=4, lease_seconds=10.0, job_timeout_seconds=30.0)
        job, _ = q.submit(_request())
        claimed = q.claim(timeout=0)
        late = time.time() + 31.0
        assert q.renew(job.id, claimed.lease_token, extend=3600.0)
        reaped = q.reap(now=late)
        assert [j.id for j in reaped] == [job.id]
        assert "wall-clock timeout" in q.get(job.id).error


class TestStaleCompletions:
    def test_zombie_completion_is_dropped(self):
        """A reaped worker that wakes up later must not clobber the
        re-executed job."""
        q = JobQueue(max_depth=4, lease_seconds=10.0)
        job, _ = q.submit(_request())
        zombie = q.claim(timeout=0)
        zombie_token = zombie.lease_token
        q.reap(now=time.time() + 11.0)
        live = q.claim(timeout=5.0)  # attempt 2, fresh token
        assert live.lease_token != zombie_token
        assert q.complete(job.id, lease_token=zombie_token, result_key="stale") is None
        assert q.get(job.id).state == "running"
        assert q.get(job.id).result_key != "stale"
        done = q.complete(job.id, lease_token=live.lease_token, result_key="real")
        assert done is not None and q.get(job.id).result_key == "real"

    def test_zombie_failure_is_dropped_too(self):
        q = JobQueue(max_depth=4, lease_seconds=10.0)
        job, _ = q.submit(_request())
        # claim() hands back the live Job object, so the token must be
        # captured at claim time (exactly what real workers do).
        zombie_token = q.claim(timeout=0).lease_token
        q.reap(now=time.time() + 11.0)
        q.claim(timeout=5.0)
        assert q.fail(job.id, "zombie says boom", lease_token=zombie_token) is None
        assert q.get(job.id).state == "running"


class TestDeadLetterAdmin:
    def _dead_job(self, q):
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        q.fail(job.id, "poison", retryable=False)
        return job

    def test_list_jobs_filters_by_state(self):
        q = JobQueue(max_depth=4)
        dead = self._dead_job(q)
        alive, _ = q.submit(_request(seed=1))
        assert [j.id for j in q.list_jobs(state="dead")] == [dead.id]
        assert [j.id for j in q.list_jobs(state="pending")] == [alive.id]
        assert {j.id for j in q.list_jobs()} == {dead.id, alive.id}

    def test_requeue_revives_with_fresh_budget(self):
        q = JobQueue(max_depth=4)
        dead = self._dead_job(q)
        revived = q.requeue(dead.id)
        assert revived.state == "pending" and revived.attempts == 0
        assert revived.error is None
        reclaimed = q.claim(timeout=0)
        assert reclaimed.id == dead.id and reclaimed.attempts == 1

    def test_requeue_restores_the_dedup_fingerprint(self):
        q = JobQueue(max_depth=4)
        dead = self._dead_job(q)
        q.requeue(dead.id)
        dup, created = q.submit(_request())
        assert not created and dup.id == dead.id

    def test_requeue_refuses_non_dead_jobs(self):
        import pytest

        q = JobQueue(max_depth=4)
        job, _ = q.submit(_request())
        with pytest.raises(ValueError, match="only dead jobs"):
            q.requeue(job.id)
        with pytest.raises(KeyError):
            q.requeue("job-999999")


class TestRetryAfterHint:
    def test_cold_queue_uses_the_default_hint(self):
        q = JobQueue(max_depth=2)
        assert q.retry_after_hint() == 1.0

    def test_hint_tracks_the_measured_drain_rate(self):
        q = JobQueue(max_depth=2)
        # Finish a few jobs with pinned timestamps: one finish per 2 s.
        for seed in range(4):
            job, _ = q.submit(_request(seed=seed))
            q.claim(timeout=0)
            q.complete(job.id)
        base = 1_000_000.0
        q._finished_at.clear()
        q._finished_at.extend([base, base + 2.0, base + 4.0])
        q.submit(_request(seed=50))
        q.submit(_request(seed=51))
        # Depth == max_depth -> one drain interval until a slot frees.
        assert q.retry_after_hint() == 2.0

    def test_hint_is_clamped(self):
        q = JobQueue(max_depth=2)
        q._finished_at.extend([0.0, 1e9])  # absurdly slow drain
        assert q.retry_after_hint() == 60.0


class TestCondvarWakeups:
    def test_blocking_claim_wakes_on_submit_without_polling(self):
        """The busy-wait fix: a claimer blocked with no deadline is woken
        by the submit notify, not by a poll loop."""
        q = JobQueue(max_depth=4)
        claimed = []

        def claimer():
            claimed.append(q.claim(timeout=10.0, worker="w0"))

        thread = threading.Thread(target=claimer)
        thread.start()
        time.sleep(0.1)  # let the claimer block on the condvar
        job, _ = q.submit(_request())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert claimed and claimed[0].id == job.id

    def test_claim_without_timeout_blocks_until_submit(self):
        q = JobQueue(max_depth=4)
        claimed = []
        thread = threading.Thread(target=lambda: claimed.append(q.claim(worker="w0")))
        thread.start()
        deadline = time.monotonic() + 5.0
        while not q._cond._waiters:  # the claimer is parked on the condvar
            assert time.monotonic() < deadline
            time.sleep(0)
        job, _ = q.submit(_request())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert claimed and claimed[0].id == job.id

    def test_close_wakes_blocked_claimers(self):
        q = JobQueue(max_depth=4)
        results = []

        def claimer():
            results.append(q.claim(timeout=30.0))

        thread = threading.Thread(target=claimer)
        thread.start()
        time.sleep(0.1)
        q.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results == [None]

    def test_wait_idle_covers_retrying_jobs(self):
        """Drain must wait out a retrying job's backoff + final attempt,
        not abandon it -- ``retrying`` is still accepted work."""
        q = JobQueue(
            max_depth=4,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.05, jitter=0.0),
        )
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        q.fail(job.id, "transient")
        assert q.get(job.id).state == "retrying"
        assert not q.wait_idle(timeout=0.01)  # still active

        def finisher():
            reclaimed = q.claim(timeout=5.0)
            q.complete(reclaimed.id)

        thread = threading.Thread(target=finisher)
        thread.start()
        assert q.wait_idle(timeout=5.0)
        thread.join()
        assert q.get(job.id).state == "done"
