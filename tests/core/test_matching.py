"""Tests for hypothesis matching: dense path vs per-pixel reference."""

import numpy as np
import pytest

from repro.core.matching import (
    hypothesis_order,
    prepare_frames,
    track_dense,
    track_pixel,
    valid_mask,
)
from repro.core.semifluid import discriminant_field
from repro.data.advect import advect
from repro.data.flow import AffineFlow
from repro.data.noise import smooth_random_field
from repro.params import NeighborhoodConfig


class TestHypothesisOrder:
    def test_count(self):
        assert len(hypothesis_order(2)) == 25
        assert len(hypothesis_order(0)) == 1

    def test_center_first(self):
        assert hypothesis_order(3)[0] == (0, 0)

    def test_sorted_by_chebyshev(self):
        order = hypothesis_order(3)
        mags = [max(abs(dy), abs(dx)) for dy, dx in order]
        assert mags == sorted(mags)

    def test_covers_window_exactly(self):
        order = hypothesis_order(2)
        assert set(order) == {(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)}


class TestValidMask:
    def test_interior_only(self, small_continuous_config):
        mask = valid_mask((40, 40), small_continuous_config)
        margin = small_continuous_config.margin()
        assert not mask[: margin].any()
        assert not mask[:, -margin:].any()
        assert mask[margin, margin]

    def test_too_small_image_all_invalid(self, small_continuous_config):
        mask = valid_mask((8, 8), small_continuous_config)
        assert not mask.any()


class TestContinuousTracking:
    def test_exact_translation(self, prepared_continuous):
        result = track_dense(prepared_continuous)
        assert (result.u[result.valid] == 2.0).all()
        assert (result.v[result.valid] == -1.0).all()
        np.testing.assert_allclose(result.error[result.valid], 0.0, atol=1e-10)

    def test_zero_motion(self, small_continuous_config):
        frame = smooth_random_field(48, seed=9)
        prep = prepare_frames(frame, frame, small_continuous_config)
        result = track_dense(prep)
        assert (result.u[result.valid] == 0.0).all()
        assert (result.v[result.valid] == 0.0).all()

    def test_hypotheses_counted(self, prepared_continuous):
        result = track_dense(prepared_continuous)
        assert result.hypotheses_evaluated == 25

    def test_dense_matches_reference(self, prepared_continuous):
        result = track_dense(prepared_continuous)
        for (x, y) in [(20, 20), (30, 25), (25, 35)]:
            u, v, params, err = track_pixel(prepared_continuous, x, y)
            assert (u, v) == (result.u[y, x], result.v[y, x])
            np.testing.assert_allclose(params, result.params[y, x], atol=1e-9)
            assert err == pytest.approx(result.error[y, x], abs=1e-9)

    def test_affine_motion_recovers_parameters(self, small_continuous_config):
        """A genuinely affine deformation should be tracked with low error
        and nonzero in-plane parameters of the right sign."""
        size = 64
        frame0 = smooth_random_field(size, seed=12, smoothing=2.0)
        center = (size - 1) / 2.0
        flow = AffineFlow(a_i=0.02, b_j=0.02, u0=1.0, v0=0.0, center=(center, center))
        frame1 = advect(frame0, flow)
        prep = prepare_frames(frame0, frame1, small_continuous_config)
        result = track_dense(prep)
        # at the image center the displacement is ~ (1, 0)
        c = int(center)
        assert result.u[c, c] == pytest.approx(1.0, abs=1.0)
        assert abs(result.v[c, c]) <= 1.0

    def test_displacement_magnitude(self, prepared_continuous):
        result = track_dense(prepared_continuous)
        mags = result.displacement_magnitude()
        np.testing.assert_allclose(mags[result.valid], np.sqrt(5.0))


class TestSemifluidTracking:
    def test_exact_translation(self, prepared_semifluid):
        result = track_dense(prepared_semifluid)
        assert (result.u[result.valid] == 2.0).all()
        assert (result.v[result.valid] == -1.0).all()

    def test_dense_matches_reference(self, prepared_semifluid, translation_frames):
        f0, f1 = translation_frames
        cfg = prepared_semifluid.config
        d0 = discriminant_field(f0, cfg.n_w)
        d1 = discriminant_field(f1, cfg.n_w)
        result = track_dense(prepared_semifluid)
        for (x, y) in [(22, 22), (30, 26)]:
            u, v, params, err = track_pixel(prepared_semifluid, x, y, d0, d1)
            assert (u, v) == (result.u[y, x], result.v[y, x])
            np.testing.assert_allclose(params, result.params[y, x], atol=1e-9)
            assert err == pytest.approx(result.error[y, x], abs=1e-9)

    def test_semifluid_reference_requires_discriminants(self, prepared_semifluid):
        with pytest.raises(ValueError):
            track_pixel(prepared_semifluid, 20, 20)

    def test_semifluid_equals_continuous_when_nss_zero(self, translation_frames, monkeypatch):
        """Section 2.3: 'When N_ss = 0 then F_semi reduces to F_cont'."""
        from repro.core import matching
        from repro.kernels import box_sum_planes

        f0, f1 = translation_frames
        cfg_cont = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        # n_ss=0 but keep the semi-fluid machinery on by supplying
        # intensity images: prepare_frames only builds a volume when
        # is_semifluid, so emulate by comparing both public configs.
        cfg_sf0 = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2)
        prep = prepare_frames(f0, f1, cfg_sf0)
        # degenerate window: force the F_semi gather to the hypothesis
        forced = (np.full(f0.shape, -1, dtype=np.int64), np.full(f0.shape, 2, dtype=np.int64))
        monkeypatch.setattr(matching, "semifluid_displacements", lambda *args: forced)
        pw_sf, _, _ = matching._HostEvaluator(prep, ridge=1e-9).stage([(-1, 2)])
        fields_sf = box_sum_planes(pw_sf, cfg_sf0.n_zt)
        prep_c = prepare_frames(f0, f1, cfg_cont)
        pw_c, _, _ = matching._HostEvaluator(prep_c, ridge=1e-9).stage([(-1, 2)])
        fields_c = box_sum_planes(pw_c, cfg_cont.n_zt)
        np.testing.assert_allclose(fields_sf, fields_c, atol=1e-12)

    def test_separate_intensity_channel(self, translation_frames):
        """Stereo mode: surface and intensity are different images."""
        f0, f1 = translation_frames
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2)
        intensity0 = f0 * 2.0 + 5.0
        intensity1 = f1 * 2.0 + 5.0
        prep = prepare_frames(f0, f1, cfg, intensity0, intensity1)
        result = track_dense(prep)
        assert (result.u[result.valid] == 2.0).all()
        assert (result.v[result.valid] == -1.0).all()

    def test_intensity_shape_mismatch_rejected(self, translation_frames):
        f0, f1 = translation_frames
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2)
        with pytest.raises(ValueError):
            prepare_frames(f0, f1, cfg, np.zeros((4, 4)), np.zeros((4, 4)))


class TestPrepareFrames:
    def test_shape_mismatch(self, small_continuous_config):
        with pytest.raises(ValueError):
            prepare_frames(np.zeros((10, 10)), np.zeros((12, 12)), small_continuous_config)

    def test_after_intensity_shape_mismatch_rejected(self, translation_frames):
        """Regression: a mismatched AFTER intensity must be caught too.

        The guard once compared the wrong pair of shapes, so a bad
        ``intensity_after`` sailed into the discriminant computation and
        failed later with an inscrutable broadcast error.
        """
        f0, f1 = translation_frames
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2)
        with pytest.raises(ValueError, match="intensity shapes"):
            prepare_frames(f0, f1, cfg, intensity_before=f0, intensity_after=f1[:-2, :-2])

    def test_before_intensity_shape_mismatch_rejected(self, translation_frames):
        f0, f1 = translation_frames
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2)
        with pytest.raises(ValueError, match="intensity shapes"):
            prepare_frames(f0, f1, cfg, intensity_before=f0[2:, 2:], intensity_after=f1)


class TestEngines:
    @pytest.mark.parametrize("fixture", ["prepared_continuous", "prepared_semifluid"])
    def test_serial_and_batched_bit_identical(self, fixture, request):
        """The one-hypothesis-at-a-time schedule (``batch_bytes=1``) and the
        default stacked batch give the same field, bit for bit."""
        prepared = request.getfixturevalue(fixture)
        serial = track_dense(prepared, batch_bytes=1)
        batched = track_dense(prepared)
        np.testing.assert_array_equal(serial.u, batched.u)
        np.testing.assert_array_equal(serial.v, batched.v)
        np.testing.assert_array_equal(serial.error, batched.error)
        np.testing.assert_array_equal(serial.params, batched.params)
        assert serial.hypotheses_evaluated == batched.hypotheses_evaluated

    def test_chunking_never_changes_results(self, prepared_continuous):
        """Any batch_bytes cap yields the same field (only speed changes)."""
        reference = track_dense(prepared_continuous)
        for cap in (1, 10_000, 2**22):
            chunked = track_dense(prepared_continuous, batch_bytes=cap)
            for name in ("u", "v", "params", "error"):
                np.testing.assert_array_equal(
                    getattr(reference, name), getattr(chunked, name),
                    err_msg=f"{name} differs at batch_bytes={cap}",
                )
            assert chunked.hypotheses_evaluated == reference.hypotheses_evaluated

    def test_no_volume_for_continuous(self, prepared_continuous):
        assert prepared_continuous.volume is None

    def test_volume_for_semifluid(self, prepared_semifluid):
        assert prepared_semifluid.volume is not None
