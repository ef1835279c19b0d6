"""The consolidated reference kernels: one implementation, pinned callers.

These tests are the regression net for the kernels-module extraction:
every wrapper that used to carry its own copy of an operation (semifluid
``box_sum``, the adaptive extension's ``box_sum_rect``, linalg's batched
eliminate, the certificate grid's window sums) must now produce output
identical to the single :mod:`repro.kernels.reference` implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.continuous import pointwise_fields as continuous_pointwise_fields
from repro.core.linalg import gaussian_eliminate
from repro.core.semifluid import box_sum as semifluid_box_sum
from repro.extensions.adaptive import box_sum_rect as adaptive_box_sum_rect
from repro.kernels.reference import (
    A1_ZERO_COLUMNS,
    A2_ZERO_COLUMNS,
    INVARIANT_FIELDS,
    N_FIELDS,
    N_PARAMS,
    VARYING_FIELDS,
    SplitSums,
    box_sum,
    box_sum_planes,
    box_sum_rect,
    eliminate,
    invariant_planes,
    pointwise_fields,
    residual_rows,
    strided_window_sums,
    varying_planes,
)


def _brute_box_sum_rect(field: np.ndarray, half_y: int, half_x: int) -> np.ndarray:
    h, w = field.shape
    out = np.zeros_like(field)
    for y in range(h):
        for x in range(w):
            y0, y1 = max(0, y - half_y), min(h, y + half_y + 1)
            x0, x1 = max(0, x - half_x), min(w, x + half_x + 1)
            out[y, x] = field[y0:y1, x0:x1].sum()
    return out


class TestBoxSumConsolidation:
    """Satellite: one box-sum implementation, every caller pinned to it."""

    def test_semifluid_box_sum_is_the_kernel(self):
        rng = np.random.default_rng(8)
        field = rng.normal(size=(24, 31))
        for hw in (0, 1, 3):
            np.testing.assert_array_equal(
                semifluid_box_sum(field, hw), box_sum(field, hw)
            )

    def test_adaptive_box_sum_rect_is_the_kernel(self):
        assert adaptive_box_sum_rect is box_sum_rect

    def test_square_window_matches_rect(self):
        rng = np.random.default_rng(9)
        field = rng.normal(size=(20, 20))
        np.testing.assert_array_equal(box_sum(field, 2), box_sum_rect(field, 2, 2))

    @pytest.mark.parametrize("half_y,half_x", [(0, 0), (1, 2), (3, 1)])
    def test_matches_brute_force(self, half_y, half_x):
        rng = np.random.default_rng(half_y * 10 + half_x)
        field = rng.normal(size=(17, 19))
        np.testing.assert_allclose(
            box_sum_rect(field, half_y, half_x),
            _brute_box_sum_rect(field, half_y, half_x),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            box_sum_rect(np.zeros((4, 4)), -1, 0)

    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(10)
        planes = rng.normal(size=(3, 5, 16, 18))
        for half_width in (0, 2):
            stacked = box_sum_planes(planes, half_width)
            for n in range(3):
                for k in range(5):
                    assert stacked[n, k].tobytes() == box_sum(planes[n, k], half_width).tobytes()


class TestStridedWindowSums:
    def test_matches_direct_window_sums(self):
        rng = np.random.default_rng(11)
        arr = rng.normal(size=(6, 40, 3))
        stride, half_width = 3, 4
        side = 2 * half_width + 1
        grid_size = (arr.shape[1] - side) // stride + 1
        got = strided_window_sums(arr, 1, grid_size, stride, half_width)
        assert got.shape == (6, grid_size, 3)
        for g in range(grid_size):
            start = g * stride
            np.testing.assert_allclose(
                got[:, g, :],
                arr[:, start : start + side, :].sum(axis=1),
                rtol=1e-12,
                atol=1e-12,
            )


class TestEliminateDelegation:
    def test_gaussian_eliminate_numpy_path_is_the_reference(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(64, 6, 6))
        b = rng.normal(size=(64, 6))
        x_ref, s_ref = eliminate(a, b)
        x_lin, s_lin = gaussian_eliminate(a, b, prefer_native=False)
        assert x_ref.tobytes() == x_lin.tobytes()
        np.testing.assert_array_equal(s_ref, s_lin)

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(8, 4, 4))
        b = rng.normal(size=(8, 4))
        a0, b0 = a.copy(), b.copy()
        eliminate(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


class TestStructuralZeroColumns:
    """Satellite: derive the skip sets from residual_rows output itself."""

    def test_zero_columns_derived_from_residual_rows(self):
        rng = np.random.default_rng(14)
        p, q, p_after, q_after = rng.normal(size=(4, 257))
        a1, _, a2, _ = residual_rows(p, q, p_after, q_after)
        derived_a1 = tuple(
            k for k in range(N_PARAMS) if np.all(a1[..., k] == 0.0)
        )
        derived_a2 = tuple(
            k for k in range(N_PARAMS) if np.all(a2[..., k] == 0.0)
        )
        # Random inputs make an accidental all-zero column (probability
        # ~0) impossible, so these are the *structural* zeros -- and they
        # must be exactly the sets pointwise_fields skips.
        assert derived_a1 == A1_ZERO_COLUMNS
        assert derived_a2 == A2_ZERO_COLUMNS

    def test_skip_logic_matches_dense_products(self):
        """The skipping accumulation equals the naive full expansion."""
        rng = np.random.default_rng(15)
        p, q, p_after, q_after = rng.normal(size=(4, 9, 11))
        e = 1.0 + rng.random(size=(9, 11))
        g = 1.0 + rng.random(size=(9, 11))
        a1, r1, a2, r2 = residual_rows(p, q, p_after, q_after)
        w1 = (1.0 / (e * e))[..., None, None]
        w2 = (1.0 / (g * g))[..., None, None]
        h_full = w1 * a1[..., :, None] * a1[..., None, :] + (
            w2 * a2[..., :, None] * a2[..., None, :]
        )
        fields = pointwise_fields(p, q, p_after, q_after, e, g)
        from repro.kernels.reference import TRIU_INDICES

        for idx, (i, j) in enumerate(TRIU_INDICES):
            np.testing.assert_allclose(
                fields[..., idx], h_full[..., i, j], rtol=1e-12, atol=1e-12
            )

    def test_core_reexport_is_the_kernel(self):
        assert continuous_pointwise_fields is pointwise_fields


class TestInvariantFields:
    """Satellite: derive the per-pair / per-hypothesis split from
    pointwise_fields output, so a residual_rows layout change cannot
    silently corrupt the fields the search sums once per frame pair."""

    def test_split_derived_from_pointwise_fields(self):
        rng = np.random.default_rng(16)
        p, q = rng.normal(size=(2, 13, 17))
        e, g = 1.0 + p * p, 1.0 + q * q
        # Several random after-surfaces against the one before-surface.
        p_after, q_after = rng.normal(size=(2, 5, 13, 17))
        fields = pointwise_fields(p, q, p_after, q_after, e, g)
        invariant = tuple(
            k for k in range(N_FIELDS) if (fields[..., k] == fields[:1, ..., k]).all()
        )
        varying = tuple(k for k in range(N_FIELDS) if k not in invariant)
        assert invariant == INVARIANT_FIELDS
        assert varying == VARYING_FIELDS
        assert len(invariant) == 10 and len(varying) == 18
        # Four of the invariant fields are the structural zeros.
        zeros = tuple(k for k in range(N_FIELDS) if not fields[..., k].any())
        assert zeros == (7, 9, 14, 19) and set(zeros) <= set(INVARIANT_FIELDS)

    def test_split_planes_are_the_packed_fields(self):
        rng = np.random.default_rng(17)
        # 40 rows: invariant_planes builds in row bands, one of them short.
        p, q = rng.normal(size=(2, 40, 9))
        e, g = 1.0 + p * p, 1.0 + q * q
        # Specials in the before planes and weights: the invariant
        # fields must replay pointwise_fields' products bit for bit.
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324]
        for plane in (p, q, e, g):
            plane.flat[rng.choice(plane.size, len(specials), replace=False)] = specials
        p_after, q_after = rng.normal(size=(2, 3, 40, 9))
        fields = pointwise_fields(p, q, p_after, q_after, e, g)
        varying = varying_planes(p, q, e, g, p_after, q_after)
        invariant = invariant_planes(p, q, e, g)
        assert varying.shape == (3, 18, 40, 9) and varying.flags.c_contiguous
        assert invariant.shape == (10, 40, 9) and invariant.flags.c_contiguous
        assert SplitSums(varying, invariant).packed().tobytes() == fields.tobytes()
        # One hypothesis's window sums pair with the invariant ones too.
        assert SplitSums(varying[0], invariant).packed().tobytes() == fields[0].tobytes()
