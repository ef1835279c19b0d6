"""Tests for rectangular and adaptive template windows."""

import numpy as np
import pytest
from scipy import ndimage

from repro.core.continuous import N_FIELDS, pointwise_fields, solve_accumulated
from repro.core.matching import hypothesis_order, prepare_frames, track_dense
from repro.core.semifluid import shift2d
from repro.data.noise import smooth_random_field
from repro.extensions.adaptive import (
    box_sum_rect,
    select_window_sizes,
    texture_energy,
    track_dense_adaptive,
    track_dense_rect,
)
from repro.params import NeighborhoodConfig
from tests.conftest import translated_pair


def rect_oracle(prepared, half_y, half_x, ridge=1e-9):
    """``(u, v, params, error)`` of the rectangular-template search, one
    hypothesis and one packed field at a time on NumPy: ``shift2d``
    copies, a SciPy box sum per field, the NumPy solve and a strict-less
    merge in hypothesis order."""
    geo_b, geo_a = prepared.geo_before, prepared.geo_after
    shape = geo_b.shape
    side_y, side_x = 2 * half_y + 1, 2 * half_x + 1
    best_error = np.full(shape, np.inf)
    best_u = np.zeros(shape)
    best_v = np.zeros(shape)
    best_params = np.zeros(shape + (6,))
    for hyp_dy, hyp_dx in hypothesis_order(prepared.config.n_zs):
        fields = pointwise_fields(
            geo_b.p, geo_b.q, shift2d(geo_a.p, hyp_dy, hyp_dx), shift2d(geo_a.q, hyp_dy, hyp_dx),
            geo_b.e, geo_b.g,
        )
        acc = np.empty_like(fields)
        for k in range(N_FIELDS):
            acc[..., k] = ndimage.uniform_filter(
                fields[..., k], size=(side_y, side_x), mode="constant", cval=0.0
            ) * float(side_y * side_x)
        sol = solve_accumulated(acc, ridge=ridge)
        better = sol.error < best_error
        best_error = np.where(better, sol.error, best_error)
        best_u = np.where(better, float(hyp_dx), best_u)
        best_v = np.where(better, float(hyp_dy), best_v)
        best_params = np.where(better[..., None], sol.params, best_params)
    return best_u, best_v, best_params, best_error


@pytest.fixture(scope="module")
def prepared_bands():
    """Horizontal bands moving 1 and 2 px in x (72 px)."""
    f0 = smooth_random_field(72, seed=9, smoothing=1.2)
    block = (np.arange(72)[:, None] // 10) % 2 + np.zeros((1, 72), dtype=int)
    f1 = np.where(block == 0, np.roll(f0, 1, 1), np.roll(f0, 2, 1))
    return prepare_frames(f0, f1, NeighborhoodConfig(n_w=2, n_zs=2, n_zt=4, n_ss=0))


@pytest.fixture(scope="module")
def prepared_32():
    """A 32 px continuous pair whose config keeps the default n_st = 2."""
    return prepare_frames(*translated_pair(size=32, dx=1, dy=-1, seed=91),
                          NeighborhoodConfig(n_w=2, n_zs=1, n_zt=2, n_ss=0))


def template_mask(result, config, half):
    """The square search's valid mask with ``n_zt = half``, built by hand."""
    margin = half + config.n_zs + max(config.n_w, config.n_st)
    mask = np.zeros(result.shape, dtype=bool)
    mask[margin:-margin, margin:-margin] = True
    return mask


class TestBoxSumRect:
    def test_matches_manual(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 14))
        got = box_sum_rect(a, 1, 2)
        assert got[6, 7] == pytest.approx(a[5:8, 5:10].sum())

    def test_square_case_matches_box_sum(self):
        from repro.core.semifluid import box_sum
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 10))
        np.testing.assert_allclose(box_sum_rect(a, 2, 2), box_sum(a, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            box_sum_rect(np.zeros((4, 4)), -1, 0)


class TestTrackDenseRect:
    def test_square_rect_equals_standard(self, prepared_continuous):
        std = track_dense(prepared_continuous)
        cfg = prepared_continuous.config
        rect = track_dense_rect(prepared_continuous, cfg.n_zt, cfg.n_zt)
        for name in ("u", "v", "params", "error", "valid"):
            assert getattr(rect, name).tobytes() == getattr(std, name).tobytes(), name
        assert rect.ge_solves == std.ge_solves

    @pytest.mark.parametrize("half_y,half_x", [(4, 4), (1, 8), (8, 1), (0, 3), (2, 0)])
    def test_bit_identical_to_the_numpy_oracle(self, prepared_bands, half_y, half_x):
        rect = track_dense_rect(prepared_bands, half_y, half_x)
        expected = rect_oracle(prepared_bands, half_y, half_x)
        for name, want in zip(("u", "v", "params", "error"), expected):
            assert getattr(rect, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("half_y,half_x", [(0, 0), (1, 1), (0, 3), (2, 1)])
    def test_valid_mask_keeps_the_longer_side_margin(self, prepared_32, half_y, half_x):
        """Templates narrower than the semi-fluid one (n_st = 2) as well."""
        rect = track_dense_rect(prepared_32, half_y, half_x)
        expected = template_mask(rect, prepared_32.config, max(half_y, half_x))
        assert rect.valid.tobytes() == expected.tobytes()

    def test_reports_its_solves(self, prepared_bands):
        rect = track_dense_rect(prepared_bands, 1, 8)
        assert rect.hypotheses_evaluated == 25
        assert rect.ge_solves == 72 * 72 * 25

    def test_anisotropic_window_tracks_translation(self, prepared_continuous):
        rect = track_dense_rect(prepared_continuous, 2, 5)
        assert (rect.u[rect.valid] == 2.0).all()
        assert (rect.v[rect.valid] == -1.0).all()

    def test_rejects_semifluid(self, prepared_semifluid):
        with pytest.raises(ValueError):
            track_dense_rect(prepared_semifluid, 2, 2)

    @pytest.mark.parametrize("half_y,half_x", [(-1, 2), (2, -1)])
    def test_rejects_negative_half_widths(self, prepared_continuous, half_y, half_x):
        with pytest.raises(ValueError, match="half-widths"):
            track_dense_rect(prepared_continuous, half_y, half_x)


class TestTextureEnergy:
    def test_flat_is_zero(self):
        energy = texture_energy(np.full((16, 16), 3.0), 2)
        np.testing.assert_allclose(energy, 0.0, atol=1e-20)

    def test_textured_region_higher(self):
        img = np.zeros((32, 32))
        rng = np.random.default_rng(2)
        img[8:24, 8:24] = rng.normal(size=(16, 16))
        energy = texture_energy(img, 2)
        assert energy[16, 16] > energy[2, 2] + 1.0


class TestSelectWindowSizes:
    def test_textured_pixels_get_small_windows(self):
        img = np.zeros((32, 32))
        rng = np.random.default_rng(3)
        img[8:24, 8:24] = rng.normal(size=(16, 16)) * 3.0
        sizes = select_window_sizes(img, (2, 5), energy_threshold=1.0)
        assert sizes[16, 16] == 2
        assert sizes[2, 2] == 5  # bland corner falls back to the largest

    def test_candidates_must_be_sorted(self):
        with pytest.raises(ValueError):
            select_window_sizes(np.zeros((8, 8)), (5, 2), 1.0)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            select_window_sizes(np.zeros((8, 8)), (), 1.0)


class TestTrackDenseAdaptive:
    def test_translation_recovered(self, prepared_continuous):
        result, sizes = track_dense_adaptive(
            prepared_continuous, (2, 3), energy_threshold=0.01
        )
        assert (result.u[result.valid] == 2.0).all()
        assert (result.v[result.valid] == -1.0).all()
        assert set(np.unique(sizes)).issubset({2, 3})

    def test_rejects_semifluid(self, prepared_semifluid):
        with pytest.raises(ValueError):
            track_dense_adaptive(prepared_semifluid)

    def test_candidates_narrower_than_n_st(self, prepared_32):
        result, _ = track_dense_adaptive(prepared_32, (1, 2), 0.01)
        assert result.valid.tobytes() == template_mask(result, prepared_32.config, 2).tobytes()

    def test_hypothesis_count_scales(self, prepared_continuous):
        result, _ = track_dense_adaptive(prepared_continuous, (2, 3), 0.01)
        assert result.hypotheses_evaluated == 2 * 25

    def test_reports_the_solves_of_every_candidate(self, prepared_continuous):
        result, sizes = track_dense_adaptive(prepared_continuous, (2, 3), 0.01)
        assert result.ge_solves == 2 * sizes.size * 25
