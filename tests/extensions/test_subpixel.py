"""Tests for sub-pixel motion refinement."""

import numpy as np
import pytest
from scipy import ndimage

from repro.core.matching import _HostEvaluator, hypothesis_order, prepare_frames, track_dense
from repro.data.noise import smooth_random_field
from repro.extensions.subpixel import (
    parabolic_offset,
    refine,
    refine_continuous,
    refine_semifluid,
    track_dense_with_volume,
)
from repro.params import NeighborhoodConfig
from tests.conftest import translated_pair


def fractional_pair(size=64, dx=1.5, dy=0.0, seed=42):
    """Sub-pixel-translated frame pair with fractional truth (dx, dy)."""
    base = smooth_random_field(size, seed=seed, smoothing=2.0)
    yy, xx = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float), indexing="ij")
    shifted = ndimage.map_coordinates(
        base, np.stack([yy - dy, xx - dx]), order=3, mode="grid-wrap"
    )
    return base, shifted


class TestParabolicOffset:
    def test_symmetric_stencil_zero_offset(self):
        assert parabolic_offset(1.0, 0.0, 1.0) == 0.0

    def test_known_vertex(self):
        # parabola (x - 0.25)^2 sampled at -1, 0, 1
        def e(x):
            return (x - 0.25) ** 2

        off = parabolic_offset(e(-1), e(0), e(1))
        assert off == pytest.approx(0.25)

    def test_clamped_to_half(self):
        off = parabolic_offset(0.100000001, 0.1, 0.1)
        assert abs(off) <= 0.5

    def test_non_minimum_center_rejected(self):
        assert parabolic_offset(0.0, 1.0, 2.0) == 0.0

    def test_flat_stencil_zero(self):
        assert parabolic_offset(1.0, 1.0, 1.0) == 0.0

    def test_array_inputs(self):
        out = parabolic_offset(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.0
        assert out[1] != 0.0


class TestTrackDenseWithVolume:
    def test_matches_track_dense(self, prepared_continuous):
        plain = track_dense(prepared_continuous)
        with_vol, volume = track_dense_with_volume(prepared_continuous)
        np.testing.assert_array_equal(plain.u, with_vol.u)
        np.testing.assert_array_equal(plain.v, with_vol.v)
        np.testing.assert_array_equal(plain.error, with_vol.error)
        n = prepared_continuous.config.n_zs
        assert volume.shape == (2 * n + 1, 2 * n + 1) + plain.u.shape

    def test_volume_minimum_is_result_error(self, prepared_continuous):
        result, volume = track_dense_with_volume(prepared_continuous)
        np.testing.assert_allclose(volume.min(axis=(0, 1)), result.error, atol=1e-12)

    @pytest.mark.parametrize("model", ["continuous", "semifluid"])
    def test_bit_identical_to_track_dense_with_solve_count(
        self, model, prepared_continuous, prepared_semifluid
    ):
        """Same winners, bytes and solve accounting as the exhaustive search."""
        prepared = prepared_continuous if model == "continuous" else prepared_semifluid
        plain = track_dense(prepared)
        with_vol, _ = track_dense_with_volume(prepared)
        for name in ("u", "v", "params", "error"):
            assert getattr(with_vol, name).tobytes() == getattr(plain, name).tobytes(), name
        assert with_vol.ge_solves == plain.ge_solves == plain.error.size * 25

    @pytest.mark.parametrize("model", ["continuous", "semifluid"])
    def test_volume_planes_are_the_numpy_solves(
        self, model, prepared_continuous, prepared_semifluid
    ):
        """Each plane holds its hypothesis's template errors, bit for bit
        as the NumPy evaluator solves that hypothesis alone."""
        prepared = prepared_continuous if model == "continuous" else prepared_semifluid
        _, volume = track_dense_with_volume(prepared)
        reference = _HostEvaluator(prepared, 1e-9, prefer_native=False)
        n = prepared.config.n_zs
        for dy, dx in hypothesis_order(n):
            error, _ = reference.solve(reference.stage([(dy, dx)])[0])
            assert volume[dy + n, dx + n].tobytes() == error[0].tobytes(), (dy, dx)


class TestRefineKeepsAccounting:
    """Refinement moves u/v only; the search's solve accounting survives."""

    def test_continuous_keeps_pruned_counts(self, prepared_continuous):
        pruned = track_dense(prepared_continuous, search="pruned")
        assert pruned.hypotheses_pruned > 0
        _, volume = track_dense_with_volume(prepared_continuous)
        refined = refine_continuous(pruned, volume, prepared_continuous.config.n_zs)
        assert refined.ge_solves == pruned.ge_solves
        assert refined.hypotheses_pruned == pruned.hypotheses_pruned
        assert refined.hypotheses_evaluated == pruned.hypotheses_evaluated

    def test_semifluid_keeps_pruned_counts(self, prepared_semifluid):
        pruned = track_dense(prepared_semifluid, search="pruned")
        assert pruned.hypotheses_pruned > 0
        refined = refine_semifluid(prepared_semifluid, pruned)
        assert refined.ge_solves == pruned.ge_solves
        assert refined.hypotheses_pruned == pruned.hypotheses_pruned

    def test_refine_reports_the_volume_solves(self, prepared_continuous):
        refined = refine(prepared_continuous, track_dense(prepared_continuous))
        assert refined.ge_solves == refined.error.size * 25


class TestRefineContinuous:
    def test_integer_translation_unchanged(self, prepared_continuous):
        """On exact integer motion the error at the winner is ~0 with a
        convex neighborhood; the offset must stay within rounding."""
        result, volume = track_dense_with_volume(prepared_continuous)
        refined = refine_continuous(result, volume, prepared_continuous.config.n_zs)
        assert np.abs(refined.u - result.u).max() <= 0.5
        assert np.abs(refined.v - result.v).max() <= 0.5

    def test_fractional_translation_improves(self):
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        f0, f1 = fractional_pair(dx=1.4, dy=-0.3)
        prep = prepare_frames(f0, f1, cfg)
        result, volume = track_dense_with_volume(prep)
        refined = refine_continuous(result, volume, cfg.n_zs)
        truth_u = np.full(f0.shape, 1.4)
        truth_v = np.full(f0.shape, -0.3)
        err_int = np.hypot(result.u - truth_u, result.v - truth_v)[result.valid]
        err_sub = np.hypot(refined.u - truth_u, refined.v - truth_v)[result.valid]
        assert np.sqrt((err_sub**2).mean()) < np.sqrt((err_int**2).mean())

    def test_boundary_winner_not_refined(self):
        """Displacement at the search boundary stays integer."""
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=0)
        f0, f1 = translated_pair(size=48, dx=2, dy=0, seed=7)
        prep = prepare_frames(f0, f1, cfg)
        result, volume = track_dense_with_volume(prep)
        refined = refine_continuous(result, volume, cfg.n_zs)
        at_boundary = result.u == 2.0
        np.testing.assert_array_equal(refined.u[at_boundary], 2.0)

    def test_volume_shape_validated(self, prepared_continuous):
        result, volume = track_dense_with_volume(prepared_continuous)
        with pytest.raises(ValueError):
            refine_continuous(result, volume[:3], prepared_continuous.config.n_zs)


class TestRefineSemifluid:
    def test_requires_volume(self, prepared_continuous):
        result = track_dense(prepared_continuous)
        with pytest.raises(ValueError):
            refine_semifluid(prepared_continuous, result)

    def test_offsets_bounded(self, prepared_semifluid):
        result = track_dense(prepared_semifluid)
        refined = refine_semifluid(prepared_semifluid, result)
        assert np.abs(refined.u - result.u).max() <= 0.5
        assert np.abs(refined.v - result.v).max() <= 0.5

    def test_fractional_improves(self):
        cfg = NeighborhoodConfig(n_w=2, n_zs=2, n_zt=3, n_ss=1, n_st=2)
        f0, f1 = fractional_pair(dx=0.6, dy=1.4, seed=13)
        prep = prepare_frames(f0, f1, cfg)
        result = track_dense(prep)
        refined = refine_semifluid(prep, result)
        truth_u = np.full(f0.shape, 0.6)
        truth_v = np.full(f0.shape, 1.4)
        err_int = np.hypot(result.u - truth_u, result.v - truth_v)[result.valid]
        err_sub = np.hypot(refined.u - truth_u, refined.v - truth_v)[result.valid]
        assert np.sqrt((err_sub**2).mean()) < np.sqrt((err_int**2).mean())


class TestRefineDispatch:
    def test_continuous_path(self, prepared_continuous):
        result = track_dense(prepared_continuous)
        refined = refine(prepared_continuous, result)
        assert refined.u.shape == result.u.shape

    def test_semifluid_path(self, prepared_semifluid):
        result = track_dense(prepared_semifluid)
        refined = refine(prepared_semifluid, result)
        assert refined.u.shape == result.u.shape
        # integer part preserved
        np.testing.assert_array_equal(np.round(refined.u), result.u)
