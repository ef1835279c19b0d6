"""Tests for template-mapping segmentation."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.matching import hypothesis_order
from repro.maspar.memory import PEMemoryError, PEMemoryTracker
from repro.params import NeighborhoodConfig
from repro.parallel.segmentation import SegmentedSearch, iter_segments


@pytest.fixture()
def config():
    return NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)


class SurfaceEvaluator:
    """A fake driver evaluator: ``stage``/``solve`` over a synthetic
    error surface ``surface(dy, dx)``; hypothesis (dy, dx) solves to
    params that are all ``dy * 10 + dx``."""

    def __init__(self, config, shape, surface):
        self.prepared = SimpleNamespace(geo_before=np.empty(shape), config=config)
        self.shape = shape
        self.surface = surface

    def stage(self, chunk):
        return chunk, None, None

    def solve(self, chunk, pixels=None):  # without a certificate grid pixels is None
        error = np.stack([np.broadcast_to(self.surface(*hyp), self.shape) for hyp in chunk])
        params = np.stack([np.full(self.shape + (6,), dy * 10.0 + dx) for dy, dx in chunk])
        return error, params


def quadratic_evaluator(config, shape):
    """Deterministic per-hypothesis error surface with a known argmin.

    error(dy, dx) at pixel (y, x) = (dy - ty)^2 + (dx - tx)^2 where the
    per-pixel targets (ty, tx) vary over the image.
    """
    yy, xx = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    ty = (yy % 5) - 2
    tx = (xx % 5) - 2
    surface = lambda dy, dx: (dy - ty) ** 2.0 + (dx - tx) ** 2.0  # noqa: E731
    return SurfaceEvaluator(config, shape, surface), ty, tx


class TestIterSegments:
    def test_unsegmented_single_chunk(self, config):
        chunks = list(iter_segments(config, config.search_window))
        assert len(chunks) == 1
        assert len(chunks[0]) == 25

    def test_two_row_segments(self, config):
        chunks = list(iter_segments(config, 2))
        assert len(chunks) == 3  # rows: 2 + 2 + 1
        assert [len(c) for c in chunks] == [10, 10, 5]

    def test_covers_search_area_exactly_once(self, config):
        seen = [hyp for chunk in iter_segments(config, 2) for hyp in chunk]
        assert len(seen) == 25
        assert set(seen) == {(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)}

    def test_validation(self, config):
        with pytest.raises(ValueError):
            list(iter_segments(config, 0))
        with pytest.raises(ValueError):
            list(iter_segments(config, 6))


class TestSegmentedSearch:
    def test_finds_per_pixel_argmin(self, config):
        shape = (10, 10)
        evaluator, ty, tx = quadratic_evaluator(config, shape)
        state = SegmentedSearch(config).run(evaluator, segment_rows=config.search_window)
        np.testing.assert_array_equal(state.v, ty.astype(float))
        np.testing.assert_array_equal(state.u, tx.astype(float))
        np.testing.assert_array_equal(state.error, 0.0)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_chunking_invariant(self, config, rows):
        """The result must not depend on the segment size."""
        shape = (8, 8)
        evaluator, _, _ = quadratic_evaluator(config, shape)
        ref = SegmentedSearch(config).run(evaluator, config.search_window)
        out = SegmentedSearch(config).run(evaluator, rows)
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)
        np.testing.assert_array_equal(out.params, ref.params)
        np.testing.assert_array_equal(out.error, ref.error)

    def test_tie_break_smallest_chebyshev(self, config):
        """With a constant error surface the (0, 0) hypothesis wins."""
        shape = (4, 4)
        evaluator = SurfaceEvaluator(config, shape, lambda dy, dx: np.ones(shape))
        state = SegmentedSearch(config).run(evaluator, 2)
        np.testing.assert_array_equal(state.u, 0.0)
        np.testing.assert_array_equal(state.v, 0.0)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_ties_resolve_in_hypothesis_order(self, config, rows):
        """Dense exact ties: the winner is the first minimum in
        hypothesis_order, whichever segment it arrives in."""
        shape = (6, 7)
        order = hypothesis_order(config.n_zs)
        rng = np.random.default_rng(rows)
        errors = {hyp: rng.integers(0, 3, size=shape).astype(float) for hyp in order}
        evaluator = SurfaceEvaluator(config, shape, lambda dy, dx: errors[(dy, dx)])

        state = SegmentedSearch(config).run(evaluator, rows)
        stack = np.stack([errors[hyp] for hyp in order])
        first = np.argmin(stack, axis=0)  # argmin keeps the first minimum
        want_v = np.array([order[k][0] for k in first.ravel()], dtype=float).reshape(shape)
        want_u = np.array([order[k][1] for k in first.ravel()], dtype=float).reshape(shape)
        np.testing.assert_array_equal(state.v, want_v)
        np.testing.assert_array_equal(state.u, want_u)
        np.testing.assert_array_equal(state.error, stack.min(axis=0))
        np.testing.assert_array_equal(state.params[..., 0], want_v * 10 + want_u)

    def test_counts(self, config):
        shape = (4, 4)
        evaluator, _, _ = quadratic_evaluator(config, shape)
        charged = []
        search = SegmentedSearch(config, charge=charged.append)
        state = search.run(evaluator, 2)
        assert search.segments_processed == 3
        assert state.hypotheses_evaluated == 25
        assert charged == [16] * 25  # one elimination per pixel and hypothesis

    def test_memory_charged_and_released(self, config):
        shape = (4, 4)
        evaluator, _, _ = quadratic_evaluator(config, shape)
        memory = PEMemoryTracker(10_000)
        SegmentedSearch(config, memory=memory, layers=4).run(evaluator, 2)
        assert memory.used_bytes == 0  # all segments freed
        assert memory.peak_bytes > 0

    def test_memory_exhaustion_raises(self, config):
        shape = (4, 4)
        evaluator, _, _ = quadratic_evaluator(config, shape)
        memory = PEMemoryTracker(16)  # far too small for any segment
        search = SegmentedSearch(config, memory=memory, layers=16)
        with pytest.raises(PEMemoryError):
            search.run(evaluator, config.search_window)

    def test_smaller_segments_lower_peak(self, config):
        shape = (4, 4)
        evaluator, _, _ = quadratic_evaluator(config, shape)
        peaks = {}
        for rows in (1, 5):
            memory = PEMemoryTracker(100_000)
            SegmentedSearch(config, memory=memory, layers=8).run(evaluator, rows)
            peaks[rows] = memory.peak_bytes
        assert peaks[1] < peaks[5]

    def test_layers_validated(self, config):
        with pytest.raises(ValueError):
            SegmentedSearch(config, layers=0)
