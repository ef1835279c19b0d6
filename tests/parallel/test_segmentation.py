"""Tests for template-mapping segmentation."""

import numpy as np
import pytest

from repro.maspar.memory import PEMemoryError, PEMemoryTracker
from repro.params import NeighborhoodConfig
from repro.parallel.segmentation import SegmentedSearch, iter_segments


@pytest.fixture()
def config():
    return NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)


def quadratic_evaluator(shape):
    """Deterministic per-hypothesis error surface with a known argmin.

    error(dy, dx) at pixel (y, x) = (dy - ty)^2 + (dx - tx)^2 where the
    per-pixel targets (ty, tx) vary over the image.
    """
    yy, xx = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    ty = (yy % 5) - 2
    tx = (xx % 5) - 2

    def evaluate(dy, dx):
        error = (dy - ty) ** 2.0 + (dx - tx) ** 2.0
        params = np.full(shape + (6,), float(dy * 10 + dx))
        return error, params, np.full(shape, float(dx)), np.full(shape, float(dy))

    return evaluate, ty, tx


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
        evaluate, ty, tx = quadratic_evaluator(shape)
        search = SegmentedSearch(config, evaluate)
        state = search.run(shape, segment_rows=config.search_window)
        np.testing.assert_array_equal(state.v, ty.astype(float))
        np.testing.assert_array_equal(state.u, tx.astype(float))
        np.testing.assert_array_equal(state.error, 0.0)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_chunking_invariant(self, config, rows):
        """The result must not depend on the segment size."""
        shape = (8, 8)
        evaluate, _, _ = quadratic_evaluator(shape)
        ref = SegmentedSearch(config, evaluate).run(shape, config.search_window)
        out = SegmentedSearch(config, evaluate).run(shape, rows)
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)
        np.testing.assert_array_equal(out.params, ref.params)
        np.testing.assert_array_equal(out.error, ref.error)

    def test_tie_break_smallest_chebyshev(self, config):
        """With a constant error surface the (0, 0) hypothesis wins."""
        shape = (4, 4)

        def constant(dy, dx):
            return (
                np.ones(shape),
                np.zeros(shape + (6,)),
                np.full(shape, float(dx)),
                np.full(shape, float(dy)),
            )

        state = SegmentedSearch(config, constant).run(shape, 2)
        np.testing.assert_array_equal(state.u, 0.0)
        np.testing.assert_array_equal(state.v, 0.0)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_ties_resolve_in_hypothesis_order(self, config, rows):
        """Dense exact ties: the winner is the first minimum in
        hypothesis_order, whichever segment it arrives in."""
        from repro.core.matching import hypothesis_order

        shape = (6, 7)
        order = hypothesis_order(config.n_zs)
        rng = np.random.default_rng(rows)
        errors = {hyp: rng.integers(0, 3, size=shape).astype(float) for hyp in order}

        def evaluate(dy, dx):
            params = np.full(shape + (6,), float(dy * 10 + dx))
            return errors[(dy, dx)], params, float(dx), float(dy)

        state = SegmentedSearch(config, evaluate).run(shape, rows)
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
        evaluate, _, _ = quadratic_evaluator(shape)
        state = SegmentedSearch(config, evaluate).run(shape, 2)
        assert state.segments_processed == 3
        assert state.mappings_computed == 25

    def test_memory_charged_and_released(self, config):
        shape = (4, 4)
        evaluate, _, _ = quadratic_evaluator(shape)
        memory = PEMemoryTracker(10_000)
        search = SegmentedSearch(config, evaluate, memory=memory, layers=4)
        search.run(shape, 2)
        assert memory.used_bytes == 0  # all segments freed
        assert memory.peak_bytes > 0

    def test_memory_exhaustion_raises(self, config):
        shape = (4, 4)
        evaluate, _, _ = quadratic_evaluator(shape)
        memory = PEMemoryTracker(16)  # far too small for any segment
        search = SegmentedSearch(config, evaluate, memory=memory, layers=16)
        with pytest.raises(PEMemoryError):
            search.run(shape, config.search_window)

    def test_smaller_segments_lower_peak(self, config):
        shape = (4, 4)
        evaluate, _, _ = quadratic_evaluator(shape)
        peaks = {}
        for rows in (1, 5):
            memory = PEMemoryTracker(100_000)
            SegmentedSearch(config, evaluate, memory=memory, layers=8).run(shape, rows)
            peaks[rows] = memory.peak_bytes
        assert peaks[1] < peaks[5]

    def test_layers_validated(self, config):
        with pytest.raises(ValueError):
            SegmentedSearch(config, lambda dy, dx: None, layers=0)
