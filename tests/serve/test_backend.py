"""Served kernel backends: validation, cache-key provenance, bit-identity."""

import numpy as np
import pytest

from repro.core.sma import Frame
from repro.kernels import KERNEL_BACKENDS
from repro.params import GOES9_CONFIG
from repro.serve.cache import result_key
from repro.serve.http import ServeApp
from repro.serve.jobs import JobRequest, JobValidationError


@pytest.fixture
def app(tmp_path):
    application = ServeApp(str(tmp_path / "state"), workers=0)
    yield application
    application.queue.close()


def _run_one(app, request, priority=0):
    job, _ = app.queue.submit(request, priority=priority)
    claimed = app.queue.claim(timeout=0)
    assert claimed.id == job.id
    app.pool.execute(claimed)
    return app.queue.get(job.id)


class TestRequestValidation:
    def test_backend_accepted(self):
        for backend in KERNEL_BACKENDS:
            request = JobRequest(dataset="florida", backend=backend)
            assert request.backend == backend
            assert request.canonical()["backend"] == backend

    def test_unknown_backend_refused_by_constructor(self):
        with pytest.raises(JobValidationError, match="unknown backend 'cuda'"):
            JobRequest(dataset="florida", backend="cuda")

    def test_unknown_backend_refused(self):
        with pytest.raises(JobValidationError, match="backend"):
            JobRequest.from_payload({"dataset": "florida", "backend": "gpu"})

    def test_fingerprints_differ_by_backend(self):
        auto = JobRequest(dataset="florida")
        pinned = JobRequest(dataset="florida", backend="numpy")
        assert auto.fingerprint() != pinned.fingerprint()


class TestResultKey:
    def test_key_includes_backend(self):
        frames = [Frame(np.ones((20, 20)) * k, time_seconds=60.0 * k) for k in range(2)]
        auto = result_key(frames, GOES9_CONFIG, 1.0)
        pinned = result_key(frames, GOES9_CONFIG, 1.0, backend="numpy")
        assert auto != pinned
        # and the default token matches an explicit request for it
        assert auto == result_key(frames, GOES9_CONFIG, 1.0, backend="auto")


class TestServerDefault:
    def test_app_rejects_unknown_default(self, tmp_path):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            ServeApp(str(tmp_path / "bad"), workers=0, backend="gpu")

    def test_submit_injects_server_default(self, tmp_path):
        app = ServeApp(str(tmp_path / "state"), workers=0, backend="numpy")
        try:
            job, _ = app.submit_payload({"dataset": "florida", "size": 48})
            assert job.request.backend == "numpy"
            explicit, _ = app.submit_payload(
                {"dataset": "florida", "size": 48, "backend": "auto"}
            )
            assert explicit.request.backend == "auto"
        finally:
            app.queue.close()

    def test_numpy_product_bit_identical_and_separately_cached(self, app):
        base = _run_one(app, JobRequest(dataset="florida", size=48))
        pinned = _run_one(
            app, JobRequest(dataset="florida", size=48, backend="numpy")
        )
        assert base.state == pinned.state == "done"
        # different cache entries (provenance) holding bit-identical fields
        assert base.result_key != pinned.result_key
        assert pinned.cache_hit is False
        field_base = app.cache.get(base.result_key, record=False)
        field_pinned = app.cache.get(pinned.result_key, record=False)
        np.testing.assert_array_equal(field_base.u, field_pinned.u)
        np.testing.assert_array_equal(field_base.v, field_pinned.v)
        np.testing.assert_array_equal(field_base.error, field_pinned.error)
        assert field_pinned.metadata["backend"] == "numpy"
