"""Backend resolution and the device execution path.

Two contracts under test:

* The bitwise family -- ``auto``, ``numpy``, ``native`` -- must produce
  byte-identical dense products (``backend="auto"`` with no device
  library resolves to the existing paths, enforced here by digest).
* The opt-in ``device`` path may deviate, but only within the
  documented tolerance of :mod:`repro.kernels.digest`, and it must be
  observable (chunk counters, transfer/compute spans).

No GPU library ships in this environment, so the device backend runs on
its NumPy array-API fallback -- which exercises the full chunked device
orchestration (staging, device box sums, device solves, D2H readback)
while remaining runnable everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching import track_dense
from repro.kernels import (
    BITWISE_BACKENDS,
    KERNEL_BACKENDS,
    ResolvedBackend,
    compare_results,
    resolve_backend,
    result_digest,
)
from repro.kernels.device import available_library, reset_device_backend
from repro.native import native_available
from repro.obs.metrics import METRICS
from repro.obs.tracing import TRACER


@pytest.fixture(autouse=True)
def _numpy_device(monkeypatch):
    """Pin the device library to the NumPy fallback and reset its cache."""
    monkeypatch.setenv("REPRO_DEVICE_LIB", "numpy")
    reset_device_backend()
    yield
    reset_device_backend()


class TestResolveBackend:
    def test_backend_sets_are_consistent(self):
        assert set(BITWISE_BACKENDS) | {"device"} == set(KERNEL_BACKENDS)

    def test_auto_matches_historical_dispatch(self):
        resolved = resolve_backend("auto")
        assert isinstance(resolved, ResolvedBackend)
        assert resolved.requested == "auto"
        assert resolved.prefer_native is True
        assert resolved.resolved == ("native" if native_available() else "numpy")
        assert not resolved.is_device

    def test_numpy_pins_the_reference(self):
        resolved = resolve_backend("numpy")
        assert resolved.resolved == "numpy"
        assert resolved.prefer_native is False

    def test_native_requires_the_kernel(self):
        if native_available():
            assert resolve_backend("native").prefer_native is True
        else:
            with pytest.raises(RuntimeError, match="native"):
                resolve_backend("native")

    def test_device_resolution(self):
        resolved = resolve_backend("device")
        assert resolved.is_device
        assert resolved.resolved == "device"
        assert available_library() == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("gpu")

    def test_resolution_is_counted(self):
        METRICS.reset()
        resolved = resolve_backend("numpy")
        counters = METRICS.snapshot()["counters"]
        assert counters[f"kernel.backend.{resolved.resolved}"] == 1


class TestBitwiseFamily:
    """auto / numpy / native are one product, three spellings."""

    @pytest.mark.skipif(not native_available(), reason="native kernel unavailable")
    def test_native_bit_identical(self, prepared_continuous):
        assert result_digest(
            track_dense(prepared_continuous, backend="native")
        ) == result_digest(track_dense(prepared_continuous, backend="numpy"))

    def test_semifluid_bit_identical(self, prepared_semifluid):
        assert result_digest(
            track_dense(prepared_semifluid, backend="numpy")
        ) == result_digest(track_dense(prepared_semifluid, backend="auto"))

    def test_unknown_backend_rejected(self, prepared_continuous):
        with pytest.raises(ValueError, match="backend"):
            track_dense(prepared_continuous, backend="cuda")


class TestDevicePath:
    def test_continuous_within_tolerance(self, prepared_continuous):
        reference = track_dense(prepared_continuous, backend="numpy")
        device = track_dense(prepared_continuous, backend="device")
        report = compare_results(reference, device)
        assert report["within_tolerance"], report

    def test_pruned_within_tolerance(self, prepared_continuous):
        reference = track_dense(prepared_continuous, search="pruned", backend="numpy")
        device = track_dense(prepared_continuous, search="pruned", backend="device")
        report = compare_results(reference, device)
        assert report["within_tolerance"], report

    def test_semifluid_within_tolerance(self, prepared_semifluid):
        reference = track_dense(prepared_semifluid, backend="numpy")
        device = track_dense(prepared_semifluid, backend="device")
        report = compare_results(reference, device)
        assert report["within_tolerance"], report

    def test_pyramid_combination_refused(self, prepared_continuous):
        with pytest.raises(ValueError, match="pyramid"):
            track_dense(prepared_continuous, search="pyramid", backend="device")

    def test_device_run_is_observable(self, prepared_continuous):
        METRICS.reset()
        TRACER.reset()
        TRACER.enable(True)
        try:
            track_dense(prepared_continuous, backend="device")
            names = {event["name"] for event in TRACER.events()}
        finally:
            TRACER.enable(False)
            TRACER.reset()
        snapshot = METRICS.snapshot()
        assert snapshot["counters"]["kernel.device.chunks"] >= 1
        assert {"device_h2d", "device_compute", "device_d2h"} <= names
