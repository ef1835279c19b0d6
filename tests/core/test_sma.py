"""Tests for the SMAnalyzer public pipeline."""

import numpy as np
import pytest

from repro import Frame, SMAnalyzer
from repro.params import FREDERIC_CONFIG
from repro.parallel.parallel_sma import ParallelSMA
from tests.conftest import translated_pair


class TestFrame:
    def test_rejects_non_2d_surface(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4, 2)))

    def test_rejects_mismatched_intensity(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 4)), intensity=np.zeros((5, 5)))

    def test_shape(self):
        assert Frame(np.zeros((6, 8))).shape == (6, 8)

    def test_canonicalizes_to_float64(self):
        """Inputs are converted exactly once, at construction."""
        frame = Frame(np.arange(16, dtype=np.int32).reshape(4, 4))
        assert isinstance(frame.surface, np.ndarray)
        assert frame.surface.dtype == np.float64

    def test_canonicalizes_intensity(self):
        frame = Frame(
            np.zeros((4, 4), dtype=np.float32),
            intensity=np.ones((4, 4), dtype=np.int16),
        )
        assert frame.surface.dtype == np.float64
        assert frame.intensity.dtype == np.float64

    def test_rejects_nested_list_of_wrong_rank(self):
        with pytest.raises(ValueError):
            Frame(np.asarray([1.0, 2.0, 3.0]))

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real-numeric"):
            Frame(np.zeros((4, 4), dtype=np.complex128))

    def test_rejects_non_finite_at_construction(self):
        bad = np.zeros((4, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Frame(bad)


class TestSMAnalyzer:
    def test_rejects_bad_pixel_km(self, small_continuous_config):
        with pytest.raises(ValueError):
            SMAnalyzer(small_continuous_config, pixel_km=0.0)

    def test_track_pair_accepts_arrays(self, small_continuous_config, translation_frames):
        f0, f1 = translation_frames
        field = SMAnalyzer(small_continuous_config).track_pair(f0, f1)
        assert field.mean_displacement() == (2.0, -1.0)

    def test_track_pair_uses_timestamps(self, small_continuous_config, translation_frames):
        f0, f1 = translation_frames
        analyzer = SMAnalyzer(small_continuous_config)
        field = analyzer.track_pair(
            Frame(f0, time_seconds=0.0), Frame(f1, time_seconds=450.0)
        )
        assert field.dt_seconds == 450.0

    def test_explicit_dt_wins(self, small_continuous_config, translation_frames):
        f0, f1 = translation_frames
        field = SMAnalyzer(small_continuous_config).track_pair(f0, f1, dt_seconds=60.0)
        assert field.dt_seconds == 60.0

    def test_metadata_records_model(self, small_semifluid_config, translation_frames):
        f0, f1 = translation_frames
        field = SMAnalyzer(small_semifluid_config).track_pair(f0, f1)
        assert field.metadata["model"] == "semi-fluid"
        assert field.metadata["hypotheses"] == 25

    def test_rejects_too_small_image(self, small_continuous_config):
        tiny = np.zeros((8, 8))
        with pytest.raises(ValueError, match="too small"):
            SMAnalyzer(small_continuous_config).track_pair(tiny, tiny)

    def test_rejects_shape_mismatch(self, small_continuous_config):
        with pytest.raises(ValueError):
            SMAnalyzer(small_continuous_config).track_pair(np.zeros((40, 40)), np.zeros((42, 42)))

    def test_track_sequence(self, small_continuous_config):
        f0, f1 = translated_pair(size=48, dx=1, dy=0, seed=3)
        f2, _ = translated_pair(size=48, dx=1, dy=0, seed=3)
        fields = SMAnalyzer(small_continuous_config).track_sequence([f0, f1, f1])
        assert len(fields) == 2
        assert fields[0].mean_displacement() == (1.0, 0.0)
        assert fields[1].mean_displacement() == (0.0, 0.0)

    def test_track_sequence_needs_two(self, small_continuous_config):
        with pytest.raises(ValueError):
            SMAnalyzer(small_continuous_config).track_sequence([np.zeros((40, 40))])

    def test_valid_region(self, small_continuous_config):
        analyzer = SMAnalyzer(small_continuous_config)
        mask = analyzer.valid_region((64, 64))
        margin = small_continuous_config.margin()
        assert mask[margin, margin] and not mask[0, 0]


class TestDtSubstitution:
    @staticmethod
    def track(config, *args, **kwargs):
        return SMAnalyzer(config).track_pair(*args, **kwargs)

    def test_non_increasing_timestamps_warn_and_record(
        self, small_continuous_config, translation_frames
    ):
        f0, f1 = translation_frames
        with pytest.warns(RuntimeWarning, match="not increasing") as record:
            field = self.track(
                small_continuous_config,
                Frame(f0, time_seconds=100.0), Frame(f1, time_seconds=40.0),
            )
        assert record[0].filename == __file__  # names the caller's line
        assert field.dt_seconds == 1.0
        assert field.metadata["dt_substituted"] is True
        assert field.metadata["dt_rejected_seconds"] == -60.0

    def test_equal_timestamps_warn(self, small_continuous_config, translation_frames):
        f0, f1 = translation_frames
        with pytest.warns(RuntimeWarning):
            field = self.track(small_continuous_config, f0, f1)
        assert field.metadata["dt_rejected_seconds"] == 0.0

    def test_good_timestamps_stay_silent(self, small_continuous_config, translation_frames):
        f0, f1 = translation_frames
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            field = self.track(
                small_continuous_config,
                Frame(f0, time_seconds=0.0), Frame(f1, time_seconds=90.0),
            )
        assert "dt_substituted" not in field.metadata

    def test_explicit_dt_never_warns(self, small_continuous_config, translation_frames):
        f0, f1 = translation_frames
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            field = self.track(small_continuous_config, f0, f1, dt_seconds=7.5)
        assert field.dt_seconds == 7.5


class TestParallelDtSubstitution(TestDtSubstitution):
    """The same contract on the simulated machine."""

    @staticmethod
    def track(config, *args, **kwargs):
        return ParallelSMA(config).track_pair(*args, **kwargs).field


class TestOperationCounts:
    def test_paper_scale_frederic(self):
        """Reproduce the Section 3 arithmetic exactly."""
        analyzer = SMAnalyzer(FREDERIC_CONFIG)
        counts = analyzer.operation_counts((512, 512))
        assert counts["pixels_tracked"] == 262144
        assert counts["hypotheses_per_pixel"] == 169
        assert counts["motion_gaussian_eliminations"] == 169 * 262144
        assert counts["template_error_terms"] == 169 * 14641 * 262144
        assert counts["surface_fit_gaussian_eliminations"] == 1048576
        assert counts["semifluid_error_terms_per_mapping"] == 9

    def test_continuous_has_no_semifluid_counts(self, small_continuous_config):
        counts = SMAnalyzer(small_continuous_config).operation_counts((64, 64))
        assert "semifluid_patch_comparisons" not in counts


class TestInputValidation:
    def test_non_finite_surface_rejected(self, small_continuous_config):
        bad = np.zeros((48, 48))
        bad[10, 10] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SMAnalyzer(small_continuous_config).track_pair(bad, np.zeros((48, 48)))

    def test_non_finite_intensity_rejected(self, small_semifluid_config, translation_frames):
        f0, f1 = translation_frames
        bad_intensity = f0.copy()
        bad_intensity[5, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SMAnalyzer(small_semifluid_config).track_pair(
                Frame(f0, intensity=bad_intensity), Frame(f1, intensity=f1)
            )
