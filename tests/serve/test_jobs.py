"""Job request validation and fingerprinting."""

import json

import pytest

from repro.serve.jobs import Job, JobRequest, JobValidationError, ServeLimits
from repro.serve.queue import JobQueue


class TestValidation:
    def test_minimal_payload(self):
        request = JobRequest.from_payload({"dataset": "florida"})
        assert request.dataset == "florida"
        assert request.kind == "pair"

    def test_unknown_dataset(self):
        with pytest.raises(JobValidationError, match="unknown dataset"):
            JobRequest.from_payload({"dataset": "katrina"})

    def test_unknown_field_refused(self):
        with pytest.raises(JobValidationError, match="unknown request field"):
            JobRequest.from_payload({"dataset": "florida", "sise": 64})

    def test_fault_injection_refused_loudly(self):
        with pytest.raises(JobValidationError, match="refused in serve mode"):
            JobRequest.from_payload({"dataset": "florida", "inject_faults": "read:2"})

    def test_priority_is_not_a_request_field(self):
        a = JobRequest.from_payload({"dataset": "florida", "priority": 5})
        b = JobRequest.from_payload({"dataset": "florida"})
        assert a.fingerprint() == b.fingerprint()

    def test_admission_limits(self):
        limits = ServeLimits(max_size=64, max_frames=4)
        with pytest.raises(JobValidationError, match="admission limit"):
            JobRequest.from_payload({"dataset": "florida", "size": 128}, limits)
        with pytest.raises(JobValidationError, match="admission limit"):
            JobRequest.from_payload({"dataset": "florida", "frames": 8}, limits)

    def test_pair_must_exist(self):
        with pytest.raises(JobValidationError, match="pair must be"):
            JobRequest.from_payload({"dataset": "florida", "frames": 2, "pair": 1})

    def test_non_integer_rejected(self):
        with pytest.raises(JobValidationError, match="must be an integer"):
            JobRequest.from_payload({"dataset": "florida", "size": "64"})


class TestFingerprint:
    def test_deterministic(self):
        a = JobRequest(dataset="luis", size=64, seed=3)
        b = JobRequest(dataset="luis", size=64, seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_any_field_changes_it(self):
        base = JobRequest(dataset="luis", size=64)
        assert base.fingerprint() != JobRequest(dataset="luis", size=48).fingerprint()
        assert base.fingerprint() != JobRequest(dataset="luis", seed=1).fingerprint()
        assert (
            base.fingerprint()
            != JobRequest(dataset="luis", frames=3, kind="sequence").fingerprint()
        )


class TestJobRoundTrip:
    def test_dict_round_trip(self):
        job = Job(id="job-000001", request=JobRequest(dataset="florida"), priority=2, seq=1)
        assert Job.from_dict(job.to_dict()).to_dict() == job.to_dict()

    def test_running_restores_as_pending(self, tmp_path):
        """A job persisted mid-run by a nodeless server comes back
        pending when that server restarts (the queue's revocation rule;
        ``from_dict`` itself keeps the lease as written)."""
        job = Job(id="job-000002", request=JobRequest(dataset="luis"), seq=2)
        job.state = "running"
        job.started_at = 123.0
        job.worker = "serve-worker-0"
        job.lease_token = "t"
        job.attempts = 1
        assert Job.from_dict(job.to_dict()).to_dict() == job.to_dict()
        path = tmp_path / "queue.json"
        path.write_text(json.dumps({"version": 2, "seq": 2, "jobs": [job.to_dict()]}))
        restored = JobQueue(state_path=str(path)).get(job.id)
        assert restored.state == "pending"
        assert restored.started_at is None
        assert restored.attempts == 1
