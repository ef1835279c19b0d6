"""LoadShedPolicy: priority-aware admission above a depth watermark.

The policy's contract: below ``watermark * max_depth`` everything is
admitted; past it the admission threshold walks the sorted queued
priorities with fullness, so the lowest-priority traffic is shed first
and top-priority traffic is only ever refused by the hard capacity
limit.  ``LoadShedError`` stays a :class:`QueueFullError` so the HTTP
layer's existing 429 path carries it with no new failure mode.
"""

import pytest

from repro.serve.queue import LoadShedError, LoadShedPolicy, QueueFullError


class TestThreshold:
    def test_below_watermark_admits_everything(self):
        policy = LoadShedPolicy(watermark=0.5)
        assert policy.threshold(3, 10, [0, 0, 9]) is None

    def test_empty_queue_never_sheds(self):
        policy = LoadShedPolicy(watermark=0.5)
        assert policy.threshold(0, 10, []) is None

    def test_threshold_rises_with_fullness(self):
        policy = LoadShedPolicy(watermark=0.5)
        queued = [0, 2, 5, 9]
        just_past = policy.threshold(5, 10, queued)
        near_full = policy.threshold(9, 10, queued)
        at_full = policy.threshold(10, 10, queued)
        assert just_past is not None
        assert just_past <= near_full <= at_full
        assert at_full == max(queued)

    def test_at_capacity_only_top_priority_admitted(self):
        policy = LoadShedPolicy(watermark=0.5)
        assert policy.threshold(10, 10, [0, 1, 2, 7]) == 7

    def test_degenerate_watermark_at_capacity(self):
        # watermark=1.0: the threshold only ever applies at max_depth.
        policy = LoadShedPolicy(watermark=1.0)
        assert policy.threshold(9, 10, [0, 5]) is None
        assert policy.threshold(10, 10, [0, 5]) == 5

    def test_invalid_watermark_rejected(self):
        with pytest.raises(ValueError):
            LoadShedPolicy(watermark=0.0)
        with pytest.raises(ValueError):
            LoadShedPolicy(watermark=1.5)

    def test_describe_reports_watermark(self):
        assert LoadShedPolicy(watermark=0.8).describe() == {"watermark": 0.8}


class TestLoadShedError:
    def test_is_a_queue_full_error_with_shed_fields(self):
        err = LoadShedError(12, 1.5, priority=0, threshold=4)
        assert isinstance(err, QueueFullError)
        assert err.retry_after_seconds == 1.5
        assert err.priority == 0 and err.threshold == 4
        assert "higher priority" in str(err)


class TestAppIntegration:
    """Shedding wired through ServeApp.submit_payload (no workers)."""

    @pytest.fixture
    def app(self, tmp_path):
        from repro.serve.http import ServeApp

        app = ServeApp(
            str(tmp_path / "state"),
            workers=0,
            queue_depth=4,
            shed_watermark=0.5,
        )
        yield app
        # No workers: the queued jobs can never finish, so do not wait.
        assert app.drain(timeout=0) is False

    def test_low_priority_shed_past_watermark(self, app):
        from repro.obs.metrics import METRICS

        shed_before = METRICS.counter("serve.shed.total")
        # Fill past the watermark (2 of 4) with mid-priority work.
        for seed in range(3):
            app.submit_payload(
                {"dataset": "florida", "size": 48, "seed": seed, "priority": 5}
            )
        with pytest.raises(LoadShedError) as exc:
            app.submit_payload(
                {"dataset": "florida", "size": 48, "seed": 99, "priority": 0}
            )
        assert exc.value.threshold == 5
        assert METRICS.counter("serve.shed.total") == shed_before + 1
        assert METRICS.counter("serve.shed.priority.0") >= 1

    def test_high_priority_admitted_past_watermark(self, app):
        for seed in range(3):
            app.submit_payload(
                {"dataset": "florida", "size": 48, "seed": seed, "priority": 1}
            )
        job, created = app.submit_payload(
            {"dataset": "florida", "size": 48, "seed": 99, "priority": 8}
        )
        assert created and job.state == "pending"

    def test_no_policy_means_no_shedding(self, tmp_path):
        from repro.serve.http import ServeApp

        app = ServeApp(str(tmp_path / "s2"), workers=0, queue_depth=4)
        try:
            for seed in range(4):  # fill to capacity, no shed in between
                app.submit_payload(
                    {"dataset": "florida", "size": 48, "seed": seed, "priority": 0}
                )
            with pytest.raises(QueueFullError) as exc:
                app.submit_payload({"dataset": "florida", "size": 48, "seed": 9})
            assert not isinstance(exc.value, LoadShedError)
        finally:
            drained = app.drain(timeout=0)
        assert drained is False
