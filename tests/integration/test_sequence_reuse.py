"""Sequence-level reuse and sharding never change results.

The tentpole invariant of the preparation cache, the batched solver and
the worker pool: every execution strategy is an *implementation detail*
-- ``u``, ``v``, ``params``, ``error`` (and for streaming runs the
ledger and report) are bit-identical across all of them, including
across a checkpoint/resume boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FramePreparationCache, Frame, SMAnalyzer
from repro.params import NeighborhoodConfig
from repro.reliability.stream import StreamingRunner

from ..conftest import translated_pair


def _sequence(n: int = 4, size: int = 24, seed: int = 13) -> list[Frame]:
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(size, size))
    frames = []
    for t in range(n):
        img = np.roll(base, t, axis=1) + 0.02 * rng.normal(size=(size, size))
        frames.append(Frame(img, time_seconds=90.0 * t))
    return frames


@pytest.fixture(scope="module")
def small_config() -> NeighborhoodConfig:
    return NeighborhoodConfig(n_w=1, n_zs=1, n_zt=1, n_ss=1, n_st=1, name="seq-test")


def _field_bytes(field) -> tuple:
    return (
        field.u.tobytes(),
        field.v.tobytes(),
        field.error.tobytes(),
        None if field.params is None else field.params.tobytes(),
    )


class TestTrackSequence:
    def test_cache_is_bit_identical(self, small_config):
        frames = _sequence()
        analyzer = SMAnalyzer(small_config)
        with_cache = analyzer.track_sequence(frames)
        without = analyzer.track_sequence(frames, reuse_preparations=False)
        assert len(with_cache) == len(without) == 3
        for a, b in zip(with_cache, without):
            assert _field_bytes(a) == _field_bytes(b)

    def test_explicit_cache_matches_cacheless_pair(self, small_config):
        f0, f1 = translated_pair(size=24, dx=1, dy=0, seed=2)
        analyzer = SMAnalyzer(small_config)
        cache = FramePreparationCache()
        a = analyzer.track_pair(f0, f1, dt_seconds=1.0, cache=cache)
        b = analyzer.track_pair(f0, f1, dt_seconds=1.0)
        assert _field_bytes(a) == _field_bytes(b)
        assert cache.stats.misses == 2


class TestStreamingReuse:
    def _snap(self, result) -> tuple:
        return (
            _field_bytes(result.field),
            result.ledger.snapshot(),
            result.pairs_done,
            len(result.report.events),
        )

    def test_workers_bit_identical_to_sequential(self, small_config):
        frames = _sequence(n=5)
        sequential = StreamingRunner(small_config).run(frames)
        pooled = StreamingRunner(small_config, workers=2).run(frames)
        assert self._snap(sequential) == self._snap(pooled)

    def test_workers_resume_bit_identical(self, small_config, tmp_path):
        frames = _sequence(n=5)
        uninterrupted = StreamingRunner(small_config).run(frames)

        ck = str(tmp_path / "pool-ck")
        StreamingRunner(small_config, checkpoint_path=ck, workers=2).run(
            frames, stop_after=2
        )
        resumed = StreamingRunner(small_config, checkpoint_path=ck, workers=2).run(
            frames, resume=True
        )
        assert resumed.resumed and resumed.completed
        assert self._snap(uninterrupted) == self._snap(resumed)

    def test_sequential_resume_of_pooled_checkpoint(self, small_config, tmp_path):
        """Execution strategy may change across the resume boundary."""
        frames = _sequence(n=5)
        uninterrupted = StreamingRunner(small_config).run(frames)

        ck = str(tmp_path / "mixed-ck")
        StreamingRunner(small_config, checkpoint_path=ck, workers=2).run(
            frames, stop_after=2
        )
        resumed = StreamingRunner(small_config, checkpoint_path=ck).run(
            frames, resume=True
        )
        assert self._snap(uninterrupted) == self._snap(resumed)

    def test_unusable_pair_interpolates_the_same_when_pooled(self, small_config):
        """A pair whose frame fails validation on every read persists the
        last good field in a pool wave, exactly as the sequential run does."""
        frames = _sequence(n=6)
        bad = frames[3].surface.copy()
        bad[5, 5] = 1e13  # beyond the plausible dynamic range
        frames[3] = Frame(bad, time_seconds=frames[3].time_seconds)
        sequential = StreamingRunner(small_config).run(frames)
        pooled = StreamingRunner(small_config, workers=2).run(frames)
        assert [o.rung for o in sequential.report.outcomes] == [0, 0, 3, 3, 0]
        assert self._snap(sequential) == self._snap(pooled)
        assert sequential.report.to_json() == pooled.report.to_json()

    def test_workers_one_is_sequential(self, small_config):
        frames = _sequence(n=3)
        assert self._snap(StreamingRunner(small_config, workers=1).run(frames)) == (
            self._snap(StreamingRunner(small_config).run(frames))
        )

    def test_workers_validated(self, small_config):
        with pytest.raises(ValueError, match="workers"):
            StreamingRunner(small_config, workers=0)

    def test_workers_incompatible_with_faults(self, small_config):
        from repro.reliability.faults import FaultPlan

        with pytest.raises(ValueError, match="fault"):
            StreamingRunner(small_config, fault_plan=FaultPlan(seed=1), workers=2)

    def test_ledger_reflects_prep_reuse(self, small_config):
        """Pairs after the first charge surface fits for one frame only."""
        single = StreamingRunner(small_config).run(_sequence(n=2))
        full = StreamingRunner(small_config).run(_sequence(n=3))
        key = "Surface fit"
        per_pair_0 = single.ledger.snapshot()[key]["gaussian_eliminations"]
        two_pairs = full.ledger.snapshot()[key]["gaussian_eliminations"]
        # pair 1 re-fits only the newly arrived frame: half the pair-0 price
        assert two_pairs == per_pair_0 + per_pair_0 // 2
