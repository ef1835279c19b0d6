"""Native kernels: strict bit-identity with NumPy and SciPy.

The native path is an *optimization*, never a semantic change: every
test here demands bit-pattern equality (including negative zeros, NaN
placement and singular flags) between the C kernels -- the Gaussian
elimination, the fused template solve, the pointwise field build and
the box sum -- and the NumPy/SciPy reference each one shadows.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.continuous import (
    N_FIELDS,
    solve_accumulated,
    stack_box_sum,
    stack_varying_fields,
)
from repro.core.linalg import gaussian_eliminate
from repro.core.matching import _HostEvaluator, hypothesis_order, track_dense
from repro.kernels.reference import (
    INVARIANT_FIELDS,
    VARYING_FIELDS,
    SplitSums,
    box_sum_planes,
    invariant_planes,
    pointwise_fields,
    varying_planes,
)
from repro.native import (
    adversarial_box_stack,
    adversarial_packed,
    adversarial_pixels,
    adversarial_planes,
    adversarial_split,
    native_available,
    native_box_sum_available,
    native_box_sum_planes,
    native_gauss_eliminate,
    native_pointwise_planes,
    native_solve_packed,
    native_status,
    same_bits,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason=f"native kernel unavailable: {native_status()}"
)


def _adversarial_batch(m: int = 256, n: int = 6, seed: int = 3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n, n)) * np.exp(rng.normal(scale=5.0, size=(m, 1, 1)))
    b = rng.normal(size=(m, n))
    a[0] = 0.0
    a[1, 2] = a[1, 3]  # rank deficient
    a[2, 1, 1] = np.nan
    a[3, 0, 0] = np.inf
    a[4, :, 0] = 0.0  # pivot failure in the first column
    a[5] *= 1e-300  # near-denormal pivots
    a[6] *= 1e300  # huge dynamic range
    return a, b


@needs_native
class TestBitIdentity:
    def test_random_batch(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(512, 6, 6))
        b = rng.normal(size=(512, 6))
        x_np, s_np = gaussian_eliminate(a, b, prefer_native=False)
        x_c, s_c = native_gauss_eliminate(a, b)
        assert x_np.tobytes() == x_c.tobytes()  # bit-pattern, signs of zero included
        np.testing.assert_array_equal(s_np, s_c)

    def test_adversarial_batch(self):
        a, b = _adversarial_batch()
        with np.errstate(all="ignore"):
            x_np, s_np = gaussian_eliminate(a, b, prefer_native=False)
            x_c, s_c = native_gauss_eliminate(a, b)
        assert x_np.tobytes() == x_c.tobytes()
        np.testing.assert_array_equal(s_np, s_c)

    def test_various_orders(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 5, 6, 9, 12, 20, 33):
            a = rng.normal(size=(32, n, n))
            b = rng.normal(size=(32, n))
            x_np, _ = gaussian_eliminate(a, b, prefer_native=False)
            x_c, _ = native_gauss_eliminate(a, b)
            assert x_np.tobytes() == x_c.tobytes(), f"order {n} mismatch"

    def test_empty_batch(self):
        x, s = native_gauss_eliminate(
            np.zeros((0, 6, 6)), np.zeros((0, 6))
        )
        assert x.shape == (0, 6) and s.shape == (0,)

    def test_dispatch_uses_native_by_default(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 6, 6))
        b = rng.normal(size=(8, 6))
        via_dispatch = gaussian_eliminate(a, b)
        direct = native_gauss_eliminate(a, b)
        assert via_dispatch[0].tobytes() == direct[0].tobytes()


def _assert_fused_matches(fields, ridge):
    with np.errstate(all="ignore"):
        ref = solve_accumulated(fields, ridge=ridge, prefer_native=False)
        params, error, singular = native_solve_packed(fields, ridge)
    assert same_bits(ref.params, params)
    assert same_bits(ref.error, error)
    assert ref.singular.dtype == singular.dtype == bool
    np.testing.assert_array_equal(ref.singular, singular)
    return ref


def _adversarial_rows() -> np.ndarray:
    """Hand-made packed rows, one fused-solve branch each."""
    rng = np.random.default_rng(41)
    base = adversarial_packed(16, seed=9)[12:16]
    rows = [np.zeros(N_FIELDS), np.full(N_FIELDS, -0.0)]
    rank_deficient = np.zeros(N_FIELDS)
    rank_deficient[0] = rank_deficient[21] = 1.0  # H = e0 e0^T
    rows.append(rank_deficient)
    for value in (np.nan, np.inf, -np.inf):
        for index in (0, 5, 23, 27):
            row = base[len(rows) % 4].copy()
            row[index] = value
            rows.append(row)
    for c in (-1.0, -0.0, 5e-324, -5e-324, 1e-310):
        row = base[len(rows) % 4].copy()
        row[27] = c
        rows.append(row)
        zero_grad = row.copy()
        zero_grad[21:27] = 0.0
        rows.append(zero_grad)
        neg_zero_grad = row.copy()
        neg_zero_grad[21:27] = -0.0
        rows.append(neg_zero_grad)
    signed = base[0].copy()
    signed[rng.random(N_FIELDS) < 0.5] = -0.0
    rows.append(signed)
    return np.array(rows)


@needs_native
class TestFusedTemplateSolve:
    """``solve_packed`` against the NumPy ``solve_accumulated``, bit for bit."""

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_random_batch(self, ridge):
        rng = np.random.default_rng(17)
        fields = rng.normal(size=(512, N_FIELDS)) * np.exp(rng.normal(scale=3.0, size=(512, 1)))
        _assert_fused_matches(fields, ridge)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_accumulated_template_batch(self, ridge):
        ref = _assert_fused_matches(adversarial_packed(256, seed=4), ridge)
        assert not ref.singular.all()
        # The ridge lifts an all-zero H to 1e-9 I, pivots above the tolerance.
        assert ref.singular.any() == (ridge == 0.0)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_adversarial_rows(self, ridge):
        ref = _assert_fused_matches(_adversarial_rows(), ridge)
        assert np.isnan(ref.error).any()
        assert ref.singular.any() == (ridge == 0.0)

    def test_negative_zero_system(self):
        """All -0.0 and singular: theta is +0.0 and c + theta.g is +0.0."""
        ref = _assert_fused_matches(np.full((3, N_FIELDS), -0.0), 0.0)
        assert ref.singular.all()
        assert not np.signbit(ref.error).any() and not np.signbit(ref.params).any()

    def test_negative_error_clamps_to_positive_zero(self):
        fields = adversarial_packed(32, seed=3)[12:]  # the well-posed rows
        fields[:, 27] = -1e6  # c far below -theta.grad: a negative minimum
        ref = _assert_fused_matches(fields, 1e-9)
        assert (ref.error == 0.0).all() and not np.signbit(ref.error).any()

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_channels_last_view_of_channels_first(self, ridge):
        rng = np.random.default_rng(8)
        first = rng.normal(size=(3, N_FIELDS, 12, 10))
        first[1, :, 4, 4] = 0.0
        first[2, 7, 2, 3] = np.nan
        view = np.moveaxis(first, 1, 3)
        assert not view.flags.c_contiguous
        _assert_fused_matches(view, ridge)
        _assert_fused_matches(view[:1], ridge)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_survivor_subset(self, ridge):
        rng = np.random.default_rng(12)
        view = np.moveaxis(rng.normal(size=(1, N_FIELDS, 16, 16)), 1, 3)
        survivors = np.flatnonzero(rng.random(256) < 0.3)
        _assert_fused_matches(view.reshape(-1, N_FIELDS)[survivors], ridge)

    def test_strided_and_single_systems(self):
        fields = adversarial_packed(64, seed=2)
        _assert_fused_matches(fields[::3], 1e-9)
        _assert_fused_matches(fields[::-1], 1e-9)
        single = _assert_fused_matches(fields[20], 1e-9)
        assert np.ndim(single.error) == 0

    def test_empty_batch(self):
        params, error, singular = native_solve_packed(np.zeros((0, 5, N_FIELDS)), 1e-9)
        assert params.shape == (0, 5, 6) and error.shape == singular.shape == (0, 5)

    def test_dispatch_uses_fused_kernel_by_default(self, monkeypatch):
        from repro import native

        calls = []

        def spy(fields, ridge, pixels=None):
            calls.append((fields.shape, None if pixels is None else list(pixels)))
            return native_solve_packed(fields, ridge, pixels)

        monkeypatch.setattr(native, "native_solve_packed", spy)
        fields = adversarial_packed(32, seed=6)
        via_dispatch = solve_accumulated(fields)
        assert calls == [(fields.shape, None)]
        direct = native_solve_packed(fields, 1e-9)
        assert via_dispatch.params.tobytes() == direct[0].tobytes()
        assert via_dispatch.error.tobytes() == direct[1].tobytes()
        at = solve_accumulated(fields, pixels=np.array([5, 1]))
        assert calls[1] == (fields.shape, [5, 1]), "pixels must reach the kernel ungathered"
        assert at.error.tobytes() == direct[1][[5, 1]].tobytes()
        with np.errstate(all="ignore"):
            solve_accumulated(fields, prefer_native=False)
            solve_accumulated(fields, prefer_native=False, pixels=np.array([5, 1]))
        assert len(calls) == 2, "prefer_native=False must stay on the NumPy path"

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="28 packed fields"):
            solve_accumulated(np.zeros((4, 27)))


def _lane_widths() -> tuple[int, ...]:
    from repro import native

    return native._lane_widths(native._load()[0])


def _solve_at(fields, ridge, pixels=None, lanes=0):
    """The fused solve pinned to one kernel width (0: the dispatched one)."""
    from repro import native

    return native._call_solve_packed(native._load()[0], fields, ridge, pixels, lanes)


def _assert_lanes_match(fields, ridge, pixels=None):
    """Every width the CPU runs, scalar and the dispatched one included,
    against the NumPy reference, bit for bit."""
    with np.errstate(all="ignore"):
        ref = solve_accumulated(fields, ridge=ridge, prefer_native=False, pixels=pixels)
        for lanes in (0,) + _lane_widths():
            params, error, singular = _solve_at(fields, ridge, pixels, lanes)
            assert same_bits(ref.params, params), f"params at {lanes} lanes"
            assert same_bits(ref.error, error), f"error at {lanes} lanes"
            assert singular.dtype == bool
            np.testing.assert_array_equal(ref.singular, singular, err_msg=f"{lanes} lanes")
    return ref


def _special_tiles(width: int = 8) -> np.ndarray:
    """One tile of ``width`` well-posed systems per (special row, lane
    position), the special row at that position."""
    specials = _adversarial_rows()
    fill = adversarial_packed(64, seed=5)[12:]
    tiles = []
    for k, row in enumerate(specials):
        for lane in range(width):
            tile = np.roll(fill, -(k * width + lane), axis=0)[:width].copy()
            tile[lane] = row
            tiles.append(tile)
    return np.concatenate(tiles)


@needs_native
class TestLaneSolve:
    """The lane-parallel bodies against the NumPy reference at every width
    the CPU runs, plus forced scalar: tails, lane positions, index lists
    and layouts."""

    def test_widths(self):
        from repro import native

        widths = _lane_widths()
        assert widths[0] == 1 and set(widths) <= {1, 4, 8}
        assert native.native_solve_lanes() == widths[-1]
        with pytest.raises(ValueError, match="cannot run 2 lanes"):
            _solve_at(adversarial_packed(16), 1e-9, lanes=2)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    @pytest.mark.parametrize("m", range(1, 18))
    def test_every_tail(self, m, ridge):
        # Well-posed rows first, the special rows in the short last group.
        fields = np.roll(adversarial_packed(40, seed=m), m // 2, axis=0)[:m]
        _assert_lanes_match(fields, ridge)
        _assert_lanes_match(fields[::-1], ridge)  # negative pixel stride
        view = np.moveaxis(np.ascontiguousarray(fields.T), 0, -1)
        _assert_lanes_match(view, ridge)

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_special_system_in_every_lane(self, ridge):
        """NaN, +-inf, singular, signed-zero and negative-c systems in each
        lane position next to well-posed ones: no pivot or bad-pivot
        blend may leak into a neighbouring lane."""
        tiles = _special_tiles()
        ref = _assert_lanes_match(tiles, ridge)
        assert np.isnan(ref.error).any() and not np.isnan(ref.error).all()
        assert ref.singular.any() == (ridge == 0.0)
        view = np.moveaxis(np.ascontiguousarray(tiles.T), 0, -1)
        _assert_lanes_match(view, ridge)
        _assert_lanes_match(tiles[1:], ridge)  # every tile straddles two groups

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_index_lists(self, ridge):
        rng = np.random.default_rng(31)
        first = rng.normal(size=(1, N_FIELDS, 9, 11))
        first[0, :, 2, 3] = 0.0
        first[0, 4, 5, 5] = np.nan
        first[0, 27, 8, 10] = -first[0, 27, 8, 10] - 1e6
        view = np.moveaxis(first, 1, 3)
        last = view[0].size // N_FIELDS - 1
        for pixels in (
            np.array([], dtype=np.intp),
            np.array([last]),
            np.array([2 * 11 + 3]),
            rng.permutation(last + 1)[:37],
            np.array([60, 5, 60, 60, 7, 5, 93, last, 0, 93]),
            np.arange(last + 1),
            np.array([-1, -last - 1]),
        ):
            _assert_lanes_match(view, ridge, pixels)
        params, error, singular = native_solve_packed(view, ridge, np.array([], dtype=np.intp))
        assert params.shape == (0, 6) and error.shape == singular.shape == (0,)
        with pytest.raises(IndexError):
            native_solve_packed(view, ridge, np.array([last + 1]))

    def test_index_list_of_special_tiles(self):
        from repro.native import adversarial_pixels

        packed = adversarial_packed()
        view = np.moveaxis(np.ascontiguousarray(packed.T), 0, -1)
        pixels = adversarial_pixels()
        for ridge in (1e-9, 0.0):
            _assert_lanes_match(view, ridge, pixels)
            _assert_lanes_match(packed, ridge, pixels[::-1])

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_multi_hypothesis_chunk(self, ridge):
        """``outer > 1``: a (n, H, W, 28) exhaustive chunk whose rows are
        no multiple of any width, so lane groups span two hypotheses."""
        rng = np.random.default_rng(32)
        first = rng.normal(size=(3, N_FIELDS, 5, 7)) * np.exp(rng.normal(size=(3, 1, 5, 7)))
        first[1, :, 4, 6] = 0.0
        first[2, 0, 0, 0] = np.inf
        view = np.moveaxis(first, 1, 3)
        _assert_lanes_match(view, ridge)
        _assert_lanes_match(view, ridge, np.array([104, 0, 35, 34, 70, 69, 36, 104]))
        _assert_lanes_match(np.ascontiguousarray(view), ridge)

    def test_strided_inputs(self):
        fields = _special_tiles(4)
        for ridge in (1e-9, 0.0):
            _assert_lanes_match(fields[::3], ridge)
            _assert_lanes_match(fields[:, None, :][::2], ridge)
            _assert_lanes_match(fields[::2], ridge, np.arange(0, 60, 7))

    def test_luis_box_sums(self, prepared_continuous):
        """Box sums of one real hypothesis, in full and at survivors: the
        varying sums next to the pair's invariant ones, and packed."""
        evaluator = _HostEvaluator(prepared_continuous, 1e-9)
        pw, _, _ = evaluator.stage([hypothesis_order(prepared_continuous.config.n_zs)[3]])
        evaluator.solve(pw)
        split = SplitSums(evaluator._last_acc, evaluator._invariant_acc)
        packed = split.packed()
        survivors = np.flatnonzero(np.random.default_rng(33).random(packed[..., 0].size) < 0.3)
        for ridge in (1e-9, 0.0):
            for fields in (split, packed):
                _assert_lanes_match(fields, ridge)
                _assert_lanes_match(fields, ridge, survivors)


@needs_native
class TestTwoBaseSolve:
    """``solve_packed`` through its per-field table: a varying stack and
    invariant sums at outer stride 0, against the NumPy reference on the
    packed array they stand for, at every lane width."""

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_adversarial_split(self, ridge):
        from repro import native

        split = adversarial_split()
        _, outer_strides, outer, inner, pixel_stride = native._solve_table(
            *native._packed_bases(split)
        )
        assert (outer, inner, pixel_stride) == (2, 64, 1)
        assert [outer_strides[k] for k in INVARIANT_FIELDS] == [0] * len(INVARIANT_FIELDS)
        assert {outer_strides[k] for k in VARYING_FIELDS} == {len(VARYING_FIELDS) * 64}
        ref = _assert_lanes_match(split, ridge)
        # The first outer level is the adversarial rows themselves.
        packed = _assert_lanes_match(adversarial_packed(), ridge)
        assert same_bits(ref.error[0], packed.error[:64])
        assert same_bits(ref.params[0], packed.params[:64])

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_specials_in_every_lane(self, ridge):
        """Index lists that put every special row in every lane position,
        with groups inside one outer level and across both."""
        split = adversarial_split()
        pixels = adversarial_pixels()
        _assert_lanes_match(split, ridge, pixels)
        _assert_lanes_match(split, ridge, pixels[::-1])
        _assert_lanes_match(split, ridge, np.array([-1, 0, 127, 64, 63, 5, 5, -128]))

    @pytest.mark.parametrize("outer,inner", [(1, 1), (1, 13), (3, 1), (3, 7), (4, 32)])
    def test_shapes_and_tails(self, outer, inner):
        split = adversarial_split(outer * inner, outer, seed=outer * 100 + inner)
        for ridge in (1e-9, 0.0):
            _assert_lanes_match(split, ridge)
            _assert_lanes_match(split, ridge, np.arange(outer * inner)[::-1])

    def test_strided_varying_base(self):
        """A varying base read through a pixel stride other than 1, and
        planes that share no pixel walk (copied, same bits)."""
        rng = np.random.default_rng(34)
        varying = rng.normal(size=(2, len(VARYING_FIELDS), 6, 10))
        invariant = rng.normal(size=(len(INVARIANT_FIELDS), 6, 10)) ** 2
        for ridge in (1e-9, 0.0):
            _assert_lanes_match(SplitSums(varying[..., ::2], invariant[..., ::2]), ridge)
            _assert_lanes_match(SplitSums(varying[..., ::2], invariant[..., :5]), ridge)
            _assert_lanes_match(
                SplitSums(varying[..., 1:, :], invariant[:, 1:]), ridge, np.arange(0, 100, 3)
            )

    def test_base_shapes_checked(self):
        varying, invariant = adversarial_split()
        for bad in (
            SplitSums(varying[:, 1:], invariant),
            SplitSums(varying, invariant[1:]),
            SplitSums(varying, invariant[:, 1:]),
            SplitSums(varying[0, 0], invariant),
        ):
            with pytest.raises(ValueError, match="varying and"):
                native_solve_packed(bad, 1e-9)


def _random_planes(n: int, h: int, w: int, seed: int):
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, h, w))
    p_after, q_after = rng.normal(size=(2, n, h, w))
    return p, q, 1.0 + p * p, 1.0 + q * q, p_after, q_after


def _assert_pointwise_matches(p, q, e, g, p_after, q_after):
    with np.errstate(all="ignore"):
        ref = pointwise_fields(p[None], q[None], p_after, q_after, e[None], g[None])
        planes = native_pointwise_planes(p, q, e, g, p_after, q_after)
    assert planes.shape == (p_after.shape[0], len(VARYING_FIELDS)) + p.shape
    assert same_bits(ref[..., VARYING_FIELDS], np.moveaxis(planes, 1, 3))


@needs_native
class TestPointwisePlanes:
    """``pointwise_planes`` against NumPy ``pointwise_fields``, bit for bit."""

    @pytest.mark.parametrize(
        "n,h,w", [(1, 96, 96), (3, 17, 23), (2, 1, 9), (2, 7, 1), (4, 5, 130)]
    )
    def test_random_planes(self, n, h, w):
        _assert_pointwise_matches(*_random_planes(n, h, w, seed=n * 1000 + h + w))

    def test_adversarial_planes(self):
        planes = adversarial_planes()
        assert planes[4].shape[0] > 1
        _assert_pointwise_matches(*planes)

    @pytest.mark.parametrize("n,h,w", [(2, 9, 300), (1, 33, 5)])
    def test_adversarial_planes_across_tiles(self, n, h, w):
        """Shapes whose pixel count spans several 128-pixel tiles."""
        _assert_pointwise_matches(*adversarial_planes(n, h, w, seed=h * w))

    def test_semifluid_gathered_after_planes(self, prepared_semifluid):
        chunk = hypothesis_order(prepared_semifluid.config.n_zs)[:3]
        native = _HostEvaluator(prepared_semifluid, 1e-9)
        numpy = _HostEvaluator(prepared_semifluid, 1e-9, False)
        native_pw, dy, _ = native.stage(chunk)
        numpy_pw, dy_np, _ = numpy.stage(chunk)
        assert dy is not None and np.array_equal(dy, dy_np)
        shape = (3, len(VARYING_FIELDS)) + prepared_semifluid.geo_before.shape
        assert native_pw.shape == numpy_pw.shape == shape
        assert native_pw.flags.c_contiguous and numpy_pw.flags.c_contiguous
        assert same_bits(native_pw, numpy_pw)
        assert same_bits(native._invariant_acc, numpy._invariant_acc)

    def test_dispatch_shapes(self):
        """Only float64 (H, W) before and (n, H, W) after planes go native;
        every other input takes the NumPy path, with the same bits."""
        p, q, e, g, p_after, q_after = _random_planes(2, 6, 8, seed=1)
        calls = []
        from repro import native

        real = native.native_pointwise_planes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "native_pointwise_planes", lambda *a: calls.append(1) or real(*a))
            stacked = stack_varying_fields(p, q, e, g, p_after, q_after)
            assert calls == [1]
            lists = stack_varying_fields(p, q, e, g, p_after.tolist(), q_after)
            numpy = stack_varying_fields(p, q, e, g, p_after, q_after, prefer_native=False)
            assert calls == [1]
        for planes in (stacked, lists, numpy):
            assert planes.flags.c_contiguous and planes.shape == (2, len(VARYING_FIELDS), 6, 8)
            assert same_bits(planes, varying_planes(p, q, e, g, p_after, q_after))


def _assert_box_sum_matches(planes, half_width):
    side = 2 * half_width + 1
    with np.errstate(all="ignore"):
        ref = box_sum_planes(planes, half_width)
        got = native_box_sum_planes(planes, side, side)
    assert same_bits(ref, got)


@needs_native
@pytest.mark.skipif(not native_box_sum_available(), reason=native_status())
class TestBoxSumPlanes:
    """``box_sum_planes`` against SciPy's ``uniform_filter``, bit for bit."""

    @pytest.mark.parametrize("half_width", range(1, 7))
    @pytest.mark.parametrize(
        "n,h,w", [(1, 64, 64), (2, 17, 23), (1, 47, 70), (2, 3, 40), (1, 40, 3)]
    )
    def test_random_planes(self, n, h, w, half_width):
        rng = np.random.default_rng(h * 100 + w + half_width)
        size = (n, N_FIELDS, h, w)
        planes = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 6, size=size)
        _assert_box_sum_matches(planes, half_width)

    @pytest.mark.parametrize("half_width", range(1, 7))
    def test_adversarial_stack(self, half_width):
        _assert_box_sum_matches(adversarial_box_stack(), half_width)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 9), (9, 1), (2, 5), (5, 2)])
    @pytest.mark.parametrize("half_width", [1, 4, 6])
    def test_lines_shorter_than_the_window(self, h, w, half_width):
        _assert_box_sum_matches(adversarial_box_stack(2, h, w, seed=h * 10 + w), half_width)

    def test_pointwise_output(self):
        """The layout the evaluator hands over: fields of three hypotheses."""
        planes = native_pointwise_planes(*_random_planes(3, 31, 45, seed=5))
        for half_width in (1, 3, 6):
            _assert_box_sum_matches(planes, half_width)

    @pytest.mark.parametrize("side_y,side_x", [(1, 5), (7, 1), (3, 9), (1, 1)])
    def test_rectangular_and_unit_sides(self, side_y, side_x):
        from scipy import ndimage

        planes = adversarial_box_stack(1, 11, 13, seed=side_y * side_x)
        with np.errstate(all="ignore"):
            ref = ndimage.uniform_filter(
                planes, size=(1, 1, side_y, side_x), mode="constant", cval=0.0
            ) * float(side_y * side_x)
            got = native_box_sum_planes(planes, side_y, side_x)
        assert same_bits(ref, got)

    def test_dispatch_reads_channels_first_in_place(self):
        planes = native_pointwise_planes(*_random_planes(2, 12, 14, seed=6))
        via_dispatch = stack_box_sum(planes, 2)
        assert via_dispatch.flags.c_contiguous and via_dispatch.shape == planes.shape
        assert same_bits(via_dispatch, box_sum_planes(planes, 2))
        # A strided stack takes the SciPy path, with the same bits.
        assert same_bits(stack_box_sum(planes[:, ::2], 2), via_dispatch[:, ::2])
        # The evaluator's invariant planes: one (10, H, W) stack per pair.
        p, q, e, g, _, _ = _random_planes(1, 12, 14, seed=7)
        invariant = invariant_planes(p, q, e, g)
        assert same_bits(stack_box_sum(invariant, 3), box_sum_planes(invariant, 3))


@needs_native
def test_numpy_backend_never_reaches_the_hypothesis_kernels(monkeypatch, prepared_semifluid):
    """``backend="numpy"`` stays pure NumPy/SciPy; ``"auto"`` calls both kernels."""
    from repro import native

    calls = []
    for name in ("native_pointwise_planes", "native_box_sum_planes"):
        real = getattr(native, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(native, name, spy)
    reference = track_dense(prepared_semifluid, backend="numpy")
    assert calls == []
    auto = track_dense(prepared_semifluid, backend="auto")
    assert "native_pointwise_planes" in calls
    assert ("native_box_sum_planes" in calls) == native_box_sum_available()
    assert auto.error.tobytes() == reference.error.tobytes()


class TestBuildCacheKey:
    """The build cache must key on compiler identity + flags, not just source."""

    def test_cc_change_invalidates_build_cache(self, tmp_path, monkeypatch):
        """Changing CC must rebuild, not silently reuse another compiler's .so."""
        from repro import native

        marker = tmp_path / "fake-cc-ran"
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text(f'#!/bin/sh\ntouch "{marker}"\nexec cc "$@"\n')
        fake_cc.chmod(0o755)

        monkeypatch.delenv("CC", raising=False)
        baseline = native._compile()
        assert baseline.exists()

        monkeypatch.setenv("CC", str(fake_cc))
        rebuilt = native._compile()
        assert rebuilt != baseline, (
            "same cache entry served for a different compiler -- stale .so reuse"
        )
        assert marker.exists(), "the new CC was never invoked"

        # Same compiler again: the cache must hit (no recompile).
        marker.unlink()
        assert native._compile() == rebuilt
        assert not marker.exists()

    def test_cflags_participate_in_cache_key(self, monkeypatch):
        from repro import native

        monkeypatch.delenv("CC", raising=False)
        baseline = native._compile()
        monkeypatch.setattr(native, "_CFLAGS", [*native._CFLAGS, "-DSOME_FLAG"])
        assert native._compile() != baseline


class TestLoadRetry:
    """Transient build failures must not disable the kernel forever."""

    @pytest.fixture(autouse=True)
    def _fresh_loader_state(self, monkeypatch):
        from repro import native

        # These tests drive the loader itself, so the opt-out must not
        # short-circuit it when the suite runs under REPRO_NATIVE=0.
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        native.reset()
        yield
        native.reset()

    def test_transient_failure_is_retried(self, monkeypatch):
        from repro import native

        real_compile = native._compile
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("no space left on device")
            return real_compile()

        monkeypatch.setattr(native, "_compile", flaky)
        assert not native.native_available()
        assert "no space left" in native._state[1]
        # The next probe retries instead of serving the memoized failure.
        assert native.native_available()
        assert calls["n"] == 2

    def test_transient_retries_are_bounded(self, monkeypatch):
        from repro import native

        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("no space left on device")

        monkeypatch.setattr(native, "_compile", always_fails)
        for _ in range(10):
            assert not native.native_available()
        assert calls["n"] == native._TRANSIENT_ATTEMPT_LIMIT
        assert "giving up" in native.native_status()

    def test_self_check_failure_is_permanent(self, monkeypatch):
        from repro import native

        calls = {"n": 0}

        def broken_check(lib):
            calls["n"] += 1
            raise AssertionError("kernel disagrees with reference")

        monkeypatch.setattr(native, "_self_check", broken_check)
        assert not native.native_available()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_fused_self_check_failure_is_permanent(self, monkeypatch):
        """A template solve that disagrees with NumPy untrusts the library."""
        from repro import native

        calls = {"n": 0}
        real = native._call_solve_packed

        def off_by_one_ulp(lib, fields, ridge):
            calls["n"] += 1
            params, error, singular = real(lib, fields, ridge)
            return params, np.nextafter(error, np.inf), singular

        monkeypatch.setattr(native, "_call_solve_packed", off_by_one_ulp)
        assert not native.native_available()
        assert "template solve" in native.native_status()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_lane_self_check_failure_is_permanent(self, monkeypatch):
        """A template solve that disagrees at one lane width only -- the
        widest, read through an index list -- untrusts the whole library."""
        from repro import native

        calls = {"n": 0}
        real = native._call_solve_packed

        def wrong_at_widest(lib, fields, ridge, pixels=None, lanes=0):
            calls["n"] += 1
            params, error, singular = real(lib, fields, ridge, pixels, lanes)
            if pixels is not None and lanes == native._lane_widths(lib)[-1]:
                error = np.nextafter(error, np.inf)
            return params, error, singular

        monkeypatch.setattr(native, "_call_solve_packed", wrong_at_widest)
        assert not native.native_available()
        status = native.native_status()
        assert "template solve" in status and "lanes" in status
        assert native.native_solve_lanes() == 1
        probes = calls["n"]
        assert not native.native_available()
        assert calls["n"] == probes, "a wrong kernel must not be re-probed"

    def test_status_reads_exactly_available_when_trusted(self):
        from repro import native

        if not native.native_available():
            pytest.skip(f"native kernel unavailable: {native.native_status()}")
        assert native.native_status() == "available"
        assert native.native_solve_lanes() in (1, 4, 8)

    def test_pointwise_self_check_failure_is_permanent(self, monkeypatch):
        """A field build that disagrees with NumPy untrusts the whole library."""
        from repro import native

        calls = {"n": 0}
        real = native._call_pointwise_planes

        def flipped_sign(lib, *planes):
            calls["n"] += 1
            out = real(lib, *planes)
            out[0, 17] = np.negative(out[0, 17])
            return out

        monkeypatch.setattr(native, "_call_pointwise_planes", flipped_sign)
        assert not native.native_available()
        assert "pointwise" in native.native_status()
        assert not native.native_box_sum_available()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_box_sum_self_check_failure_disables_only_the_box_sum(self, monkeypatch):
        """A SciPy whose uniform_filter rounds differently must not take
        the fused solve down with the box sum."""
        from repro import native

        real = native._call_box_sum_planes

        def off_by_one_ulp(lib, planes, side_y, side_x):
            return np.nextafter(real(lib, planes, side_y, side_x), np.inf)

        monkeypatch.setattr(native, "_call_box_sum_planes", off_by_one_ulp)
        assert native.native_available()
        assert not native.native_box_sum_available()
        status = native.native_status()
        assert status.startswith("available; ") and "box_sum_planes" in status
        with pytest.raises(RuntimeError, match="box sum unavailable"):
            native.native_box_sum_planes(np.zeros((1, 3, 3)), 3, 3)

        solves = []
        real_solve = native.native_solve_packed

        def spy(fields, ridge, pixels=None):
            solves.append(len(fields))
            return real_solve(fields, ridge, pixels)

        monkeypatch.setattr(native, "native_solve_packed", spy)
        p, q, e, g, p_after, q_after = _random_planes(1, 10, 12, seed=3)
        planes = native.native_pointwise_planes(p, q, e, g, p_after, q_after)
        summed = stack_box_sum(planes, 2)  # the SciPy path, same bits
        assert same_bits(summed, box_sum_planes(planes, 2))
        invariant = stack_box_sum(invariant_planes(p, q, e, g), 2)
        solve_accumulated(SplitSums(summed, invariant))
        assert len(solves) == 1

    def test_native_solve_with_scipy_box_sum_keeps_reference_bits(
        self, monkeypatch, prepared_continuous, prepared_semifluid
    ):
        """The mixed fallback: field build and two-base solve native, box
        sum SciPy -- exhaustive and pruned, both models, reference bits."""
        from repro import native

        real = native._call_box_sum_planes

        def off_by_one_ulp(lib, planes, side_y, side_x):
            return np.nextafter(real(lib, planes, side_y, side_x), np.inf)

        monkeypatch.setattr(native, "_call_box_sum_planes", off_by_one_ulp)
        assert native.native_available() and not native.native_box_sum_available()
        for prepared in (prepared_continuous, prepared_semifluid):
            for search in ("exhaustive", "pruned"):
                mixed = track_dense(prepared, search=search, backend="auto")
                reference = track_dense(prepared, search=search, backend="numpy")
                for name in ("u", "v", "params", "error"):
                    assert same_bits(getattr(mixed, name), getattr(reference, name)), name
                assert mixed.ge_solves == reference.ge_solves

    def test_reset_clears_the_outcome(self, monkeypatch):
        from repro import native

        def always_fails():
            raise AssertionError("pretend the self-check failed")

        monkeypatch.setattr(native, "_compile", always_fails)
        assert not native.native_available()
        monkeypatch.undo()
        monkeypatch.delenv("REPRO_NATIVE", raising=False)  # undo() restored it
        # Permanent failure stays memoized until reset() is called.
        assert not native.native_available()
        native.reset()
        assert native.native_available()


def test_env_opt_out_falls_back_to_numpy():
    """REPRO_NATIVE=0 must disable the kernel without changing results."""
    code = (
        "import numpy as np\n"
        "from repro.native import native_available, native_status\n"
        "from repro.core.linalg import gaussian_eliminate\n"
        "assert not native_available(), native_status()\n"
        "assert 'REPRO_NATIVE' in native_status()\n"
        "rng = np.random.default_rng(2)\n"
        "x, s = gaussian_eliminate(rng.normal(size=(4, 6, 6)), rng.normal(size=(4, 6)))\n"
        "print(x.sum())\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
