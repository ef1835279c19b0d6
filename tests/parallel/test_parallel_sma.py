"""Tests for the parallel SMA driver (the paper's core validation)."""

import json

import numpy as np
import pytest

from repro import Frame, SMAnalyzer
from repro.analysis.metrics import fields_identical
from repro.core.matching import track_dense
from repro.maspar.machine import scaled_machine
from repro.params import NeighborhoodConfig
from repro.parallel.parallel_sma import (
    PHASE_GEOMETRY,
    PHASE_MATCHING,
    PHASE_SEMIFLUID,
    PHASE_SURFACE_FIT,
    ParallelSMA,
    machine_for_image,
)


@pytest.fixture(scope="module")
def machine():
    return scaled_machine(8, 8)


@pytest.fixture(scope="module")
def parallel_result(translation_frames, small_semifluid_config, machine):
    f0, f1 = translation_frames
    driver = ParallelSMA(small_semifluid_config, machine=machine)
    return driver.track_pair(f0, f1)


class TestMachineForImage:
    def test_divisible_grid(self):
        m = machine_for_image((96, 96))
        assert 96 % m.nyproc == 0 and 96 % m.nxproc == 0

    def test_power_of_two_image_uses_big_grid(self):
        m = machine_for_image((512, 512))
        assert (m.nyproc, m.nxproc) == (128, 128)

    def test_prime_image_gets_unit_grid(self):
        m = machine_for_image((97, 97))
        assert (m.nyproc, m.nxproc) == (1, 1)


class TestParallelEqualsSequential:
    """'The parallel algorithm obtained the same result as the
    sequential implementation' -- the paper's own validation."""

    def test_semifluid_model(self, parallel_result, prepared_semifluid):
        seq = track_dense(prepared_semifluid)
        par = parallel_result.field
        assert fields_identical(seq.u, seq.v, par.u, par.v)
        np.testing.assert_array_equal(seq.params, par.params)
        np.testing.assert_array_equal(seq.error, par.error)

    def test_continuous_model(self, translation_frames, small_continuous_config, machine):
        f0, f1 = translation_frames
        seq = SMAnalyzer(small_continuous_config).track_pair(f0, f1)
        par = ParallelSMA(small_continuous_config, machine=machine).track_pair(f0, f1)
        assert fields_identical(seq.u, seq.v, par.field.u, par.field.v)

    def test_segmented_equals_unsegmented(
        self, translation_frames, small_semifluid_config, machine, parallel_result
    ):
        f0, f1 = translation_frames
        segmented = ParallelSMA(
            small_semifluid_config, machine=machine, segment_rows=1
        ).track_pair(f0, f1)
        assert segmented.segments_processed == small_semifluid_config.search_window
        assert fields_identical(
            parallel_result.field.u,
            parallel_result.field.v,
            segmented.field.u,
            segmented.field.v,
        )


    @pytest.mark.parametrize("search", ["exhaustive", "pruned"])
    def test_segment_size_changes_no_byte(
        self, translation_frames, small_semifluid_config, machine, search
    ):
        """Segments change the memory footprint only: the field and every
        ledger charge are byte-identical for any segment size."""
        f0, f1 = translation_frames
        runs = [
            ParallelSMA(
                small_semifluid_config, machine=machine, segment_rows=rows, search=search
            ).track_pair(f0, f1, dt_seconds=60.0)
            for rows in (None, 1, 2)
        ]
        assert [run.segments_processed for run in runs] == [1, 5, 3]
        ref = runs[0]
        for run in runs[1:]:
            for name in ("u", "v", "error", "params"):
                assert getattr(run.field, name).tobytes() == getattr(ref.field, name).tobytes()
            assert json.dumps(run.ledger.snapshot()) == json.dumps(ref.ledger.snapshot())


class TestPhaseBreakdown:
    def test_table2_phases_present(self, parallel_result):
        names = [name for name, _ in parallel_result.breakdown()]
        assert names == [
            PHASE_SURFACE_FIT,
            PHASE_GEOMETRY,
            PHASE_SEMIFLUID,
            PHASE_MATCHING,
        ]

    def test_hypothesis_matching_dominates(self, parallel_result):
        """Table 2's defining property: matching >> everything else."""
        seconds = dict(parallel_result.breakdown())
        others = sum(v for k, v in seconds.items() if k != PHASE_MATCHING)
        assert seconds[PHASE_MATCHING] > 10 * others

    def test_continuous_model_has_no_semifluid_phase(
        self, translation_frames, small_continuous_config, machine
    ):
        f0, f1 = translation_frames
        result = ParallelSMA(small_continuous_config, machine=machine).track_pair(f0, f1)
        assert PHASE_SEMIFLUID not in [name for name, _ in result.breakdown()]

    def test_total_positive(self, parallel_result):
        assert parallel_result.total_seconds > 0


class TestMachineConstraints:
    def test_non_divisible_image_rejected(self, small_continuous_config):
        driver = ParallelSMA(small_continuous_config, machine=scaled_machine(8, 8))
        bad = np.zeros((60, 60))
        with pytest.raises(ValueError, match="fold"):
            driver.track_pair(bad, bad)

    def test_memory_pressure_forces_segmentation(self, translation_frames):
        """Shrink PE memory until the unsegmented store cannot fit; the
        driver must pick a smaller feasible Z automatically."""
        f0, f1 = translation_frames
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        # 64x64 on 4x4 PEs -> 256 layers; the unsegmented store is
        # 5*5*2*4*256 = 51200 B; add base data and squeeze below it.
        tight = scaled_machine(4, 4, pe_memory_bytes=40_000)
        result = ParallelSMA(cfg, machine=tight).track_pair(f0, f1)
        assert result.segment_rows < cfg.search_window
        assert result.segments_processed > 1

    def test_impossible_memory_raises(self, translation_frames):
        f0, f1 = translation_frames
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        hopeless = scaled_machine(4, 4, pe_memory_bytes=15_000)
        with pytest.raises(MemoryError):
            ParallelSMA(cfg, machine=hopeless).track_pair(f0, f1)

    def test_peak_memory_within_capacity(self, parallel_result, machine):
        assert parallel_result.peak_memory_bytes <= machine.pe_memory_bytes

    def test_metadata(self, parallel_result):
        meta = parallel_result.field.metadata
        assert meta["model"] == "semi-fluid"
        assert meta["machine"] == "8x8"
        assert meta["segment_rows"] == parallel_result.segment_rows


class TestFrameHandling:
    def test_accepts_frames_with_timestamps(
        self, translation_frames, small_continuous_config, machine
    ):
        f0, f1 = translation_frames
        driver = ParallelSMA(small_continuous_config, machine=machine)
        result = driver.track_pair(
            Frame(f0, time_seconds=0.0), Frame(f1, time_seconds=90.0)
        )
        assert result.field.dt_seconds == 90.0

    def test_shape_mismatch(self, small_continuous_config, machine):
        driver = ParallelSMA(small_continuous_config, machine=machine)
        with pytest.raises(ValueError):
            driver.track_pair(np.zeros((64, 64)), np.zeros((32, 32)))
