"""Backend resolution and the bitwise backend family.

``auto``, ``numpy`` and ``native`` must produce byte-identical dense
products, enforced here by digest.  The oracle in
``tests/core/test_search_oracle.py`` covers the semi-fluid model and
every search schedule.
"""

from __future__ import annotations

import pytest

from repro.core.matching import track_dense
from repro.kernels import (
    KERNEL_BACKENDS,
    ResolvedBackend,
    resolve_backend,
    result_digest,
)
from repro.native import native_available
from repro.obs.metrics import METRICS


class TestResolveBackend:
    def test_backend_sets_are_consistent(self):
        assert KERNEL_BACKENDS == ("auto", "numpy", "native")

    def test_auto_matches_historical_dispatch(self):
        resolved = resolve_backend("auto")
        assert isinstance(resolved, ResolvedBackend)
        assert resolved.requested == "auto"
        assert resolved.prefer_native is True
        assert resolved.resolved == ("native" if native_available() else "numpy")

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

    def test_unknown_backend_rejected(self, prepared_continuous):
        with pytest.raises(ValueError, match="backend"):
            track_dense(prepared_continuous, backend="cuda")
