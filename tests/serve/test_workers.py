"""Worker pool execution: compute, cache-serve, failure isolation."""

import dataclasses
import os
import warnings

import numpy as np
import pytest

from repro.core.sma import SMAnalyzer
from repro.data.datasets import florida_thunderstorm
from repro.obs.metrics import METRICS
from repro.reliability.stream import StreamingRunner
from repro.serve import workers as workers_module
from repro.serve.http import ServeApp
from repro.serve.jobs import JobRequest


@pytest.fixture
def app(tmp_path):
    application = ServeApp(str(tmp_path / "state"), workers=0)
    yield application
    application.queue.close()


def _run_one(app, request, priority=0):
    """Submit and execute one job synchronously (no worker threads)."""
    job, _ = app.queue.submit(request, priority=priority)
    claimed = app.queue.claim(timeout=0)
    assert claimed.id == job.id
    app.pool.execute(claimed)
    return app.queue.get(job.id)


class TestPairExecution:
    def test_healthy_pair_completes_on_rung_zero(self, app):
        job = _run_one(app, JobRequest(dataset="florida", size=48))
        assert job.state == "done"
        assert job.rung == 0
        assert job.cache_hit is False
        assert app.cache.contains(job.result_key)

    def test_field_matches_track_dense_bit_identically(self, app):
        request = JobRequest(dataset="florida", size=48, search=2, template=3)
        job = _run_one(app, request)
        served = app.cache.get(job.result_key, record=False)

        ds = florida_thunderstorm(size=48, n_frames=2, seed=0)
        config = ds.config.replace(n_zs=2, n_zt=3)
        analyzer = SMAnalyzer(config, pixel_km=ds.pixel_km)
        reference = analyzer.track_pair(ds.frames[0], ds.frames[1])
        np.testing.assert_array_equal(served.u, reference.u)
        np.testing.assert_array_equal(served.v, reference.v)
        np.testing.assert_array_equal(served.error, reference.error)

    def test_ledger_records_gaussian_eliminations(self, app):
        assert app.ledger.gaussian_eliminations() == 0
        _run_one(app, JobRequest(dataset="florida", size=48))
        assert app.ledger.gaussian_eliminations() > 0


class TestPairTimestamps:
    """Pair jobs take dt through ``core.sma.pair_dt``, like SMAnalyzer."""

    def _frames(self, after_time):
        ds = florida_thunderstorm(size=32, n_frames=2, seed=0)
        before, after = ds.frames
        frames = [before, dataclasses.replace(after, time_seconds=after_time)]
        return frames, ds.config.replace(n_zs=2, n_zt=3), ds.pixel_km

    def test_equal_timestamps_warn_and_record_the_substitution(self, app):
        frames, config, pixel_km = self._frames(after_time=0.0)
        assert frames[0].time_seconds == 0.0
        with pytest.warns(RuntimeWarning, match="not increasing"):
            field, _ = app.pool._compute_pair(frames, config, pixel_km)
        assert field.dt_seconds == 1.0
        assert field.metadata["dt_substituted"] is True
        assert field.metadata["dt_rejected_seconds"] == 0.0

    def test_increasing_timestamps_add_no_key(self, app):
        frames, config, pixel_km = self._frames(after_time=90.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field, _ = app.pool._compute_pair(frames, config, pixel_km)
        assert field.dt_seconds == 90.0
        assert list(field.metadata) == ["model", "config", "rung", "search", "backend"]
        reference = SMAnalyzer(config, pixel_km=pixel_km).track_pair(*frames)
        for key in ("u", "v", "error"):
            assert getattr(field, key).tobytes() == getattr(reference, key).tobytes()


class TestCacheHit:
    def test_duplicate_serves_from_cache_without_recompute(self, app):
        request = JobRequest(dataset="florida", size=48)
        first = _run_one(app, request)
        solves_after_first = app.ledger.gaussian_eliminations()

        second = _run_one(app, request)
        assert second.id != first.id
        assert second.state == "done"
        assert second.cache_hit is True
        assert second.result_key == first.result_key
        # No second GE solve: the ledger is the proof of no recomputation.
        assert app.ledger.gaussian_eliminations() == solves_after_first

    def test_different_params_do_not_share_results(self, app):
        a = _run_one(app, JobRequest(dataset="florida", size=48, search=2))
        b = _run_one(app, JobRequest(dataset="florida", size=48, search=3))
        assert b.cache_hit is False
        assert a.result_key != b.result_key


def _count_dataset_calls(monkeypatch):
    calls = []
    real = workers_module._dataset_for

    def counting(job):
        calls.append(job.id)
        return real(job)

    monkeypatch.setattr(workers_module, "_dataset_for", counting)
    return calls


class TestHitPath:
    def test_repeat_hit_regenerates_no_frames(self, app, monkeypatch):
        calls = _count_dataset_calls(monkeypatch)
        request = JobRequest(dataset="florida", size=48)
        first = _run_one(app, request)
        assert len(calls) == 1

        second = _run_one(app, request)
        assert second.cache_hit is True
        assert second.result_key == first.result_key
        assert len(calls) == 1  # the memo answered; no frames rebuilt

    def test_hit_still_counts_one_cache_lookup(self, app):
        from repro.obs.metrics import METRICS

        request = JobRequest(dataset="florida", size=48)
        _run_one(app, request)
        hits = METRICS.counter("serve.cache.hit")
        misses = METRICS.counter("serve.cache.miss")
        _run_one(app, request)
        assert METRICS.counter("serve.cache.hit") == hits + 1
        assert METRICS.counter("serve.cache.miss") == misses

    def test_evicted_artifact_recomputes_byte_identically(self, app, monkeypatch):
        calls = _count_dataset_calls(monkeypatch)
        request = JobRequest(dataset="florida", size=48)
        first = _run_one(app, request)
        original = app.cache.get(first.result_key, record=False)
        os.remove(app.cache._artifact_path(first.result_key))

        again = _run_one(app, request)  # memo hit, cache miss
        assert again.state == "done"
        assert again.cache_hit is False
        assert again.result_key == first.result_key
        assert len(calls) == 2
        recomputed = app.cache.get(again.result_key, record=False)
        for name in ("u", "v", "error", "valid"):
            assert getattr(recomputed, name).tobytes() == getattr(original, name).tobytes()

    def test_memo_never_exceeds_its_bound(self, app, monkeypatch):
        monkeypatch.setattr(app.pool, "_key_memo", workers_module._KeyMemo(2))
        keys = {}
        for seed in range(4):
            request = JobRequest(dataset="florida", size=32, seed=seed)
            keys[seed] = _run_one(app, request).result_key
            assert len(app.pool._key_memo) <= 2
        assert len(app.pool._key_memo) == 2
        # The oldest request fell out; its repeat recomputes the same key.
        calls = _count_dataset_calls(monkeypatch)
        repeat = _run_one(
            app, JobRequest(dataset="florida", size=32, seed=0)
        )
        assert len(calls) == 1
        assert repeat.cache_hit is True
        assert repeat.result_key == keys[0]

    def test_different_requests_never_share_a_key(self, app):
        requests = [
            JobRequest(dataset="florida", size=48),
            JobRequest(dataset="florida", size=48, seed=1),
            JobRequest(dataset="florida", size=48, search_mode="pruned"),
            JobRequest(dataset="luis", size=48),
        ]
        keys = [_run_one(app, request).result_key for request in requests]
        assert len(set(keys)) == len(requests)
        again = [_run_one(app, request) for request in requests]
        assert [job.result_key for job in again] == keys
        assert all(job.cache_hit for job in again)


class TestSequenceExecution:
    def test_sequence_job_averages_all_pairs(self, app):
        request = JobRequest(dataset="florida", size=48, frames=3, kind="sequence")
        job = _run_one(app, request)
        assert job.state == "done"
        served = app.cache.get(job.result_key, record=False)
        assert served.metadata["pairs"] == 2

        ds = florida_thunderstorm(size=48, n_frames=3, seed=0)
        config = ds.config.replace(n_zs=2, n_zt=3)
        fields = SMAnalyzer(config, pixel_km=ds.pixel_km).track_sequence(ds.frames)
        expected_u = (fields[0].u + fields[1].u) / 2
        np.testing.assert_array_equal(served.u, expected_u)

    def test_sequence_job_merges_its_ledger(self, app):
        request = JobRequest(dataset="florida", size=48, frames=3, kind="sequence")
        before = app.ledger.gaussian_eliminations()
        _run_one(app, request)

        ds = florida_thunderstorm(size=48, n_frames=3, seed=0)
        config = ds.config.replace(n_zs=2, n_zt=3)
        run = StreamingRunner(config, pixel_km=ds.pixel_km).run(ds.frames)
        assert run.ledger.gaussian_eliminations() > 0
        assert app.ledger.gaussian_eliminations() - before == (
            run.ledger.gaussian_eliminations()
        )

    def test_degraded_pair_counts_as_degraded_job(self, app, monkeypatch):
        """A pair whose machine has no PE memory to spare falls to
        Horn-Schunck (rung 2); the job reports that worst rung and counts
        once in serve.jobs.degraded."""
        real = StreamingRunner._machine_for_pair

        def starve_pair_one(self, pair, shape, machine, report):
            machine = real(self, pair, shape, machine, report)
            if pair == 1:
                machine = dataclasses.replace(machine, pe_memory_bytes=1)
            return machine

        monkeypatch.setattr(StreamingRunner, "_machine_for_pair", starve_pair_one)
        degraded_before = METRICS.counter("serve.jobs.degraded")
        job = _run_one(
            app, JobRequest(dataset="florida", size=48, frames=4, kind="sequence")
        )
        assert job.state == "done"
        assert job.rung == 2
        served = app.cache.get(job.result_key, record=False)
        assert served.metadata["degraded_pairs"] == 1
        assert METRICS.counter("serve.jobs.degraded") - degraded_before == 1


class TestFailureIsolation:
    def test_poisoned_job_dead_letters_but_pool_survives(self, app, monkeypatch):
        """A job that blows up on every attempt burns its retry budget
        and quarantines dead; the worker thread moves on and completes
        the next job."""
        real = workers_module._dataset_for
        poisoned_ids = set()

        def sometimes_poisoned(job):
            if job.id in poisoned_ids:
                raise RuntimeError("synthetic poison")
            return real(job)

        monkeypatch.setattr(workers_module, "_dataset_for", sometimes_poisoned)
        app.pool.workers = 1
        app.pool.start()
        try:
            bad, _ = app.queue.submit(JobRequest(dataset="florida", size=48, seed=1))
            poisoned_ids.add(bad.id)
            good, _ = app.queue.submit(JobRequest(dataset="florida", size=48, seed=2))
            assert app.queue.wait_idle(timeout=60.0)
        finally:
            app.pool.stop()
        assert app.queue.get(bad.id).state == "dead"
        assert app.queue.get(bad.id).attempts == app.queue.retry_policy.max_attempts
        assert "synthetic poison" in app.queue.get(bad.id).error
        assert app.queue.get(good.id).state == "done"
