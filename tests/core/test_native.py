"""Native kernels: strict bit-identity with NumPy and SciPy.

The native path is an *optimization*, never a semantic change: every
test here demands bit-pattern equality (including negative zeros, NaN
placement and singular flags) between the C kernels -- the fused
template solve, the pointwise field build, the box sum and the merge --
and the NumPy/SciPy reference each one shadows.
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
from repro.core.matching import _HostEvaluator, hypothesis_order, prepare_frames, track_dense
from repro.core.semifluid import shift2d
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
    BoundSums,
    PairKernels,
    adversarial_box_stack,
    adversarial_packed,
    adversarial_pixels,
    adversarial_planes,
    adversarial_split,
    native_available,
    native_box_sum_available,
    native_status,
    same_bits,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason=f"native kernel unavailable: {native_status()}"
)


def _bind(fields, count: int = 0) -> BoundSums:
    """Packed sums bound for the fused solve: an ``(..., 28)`` array as
    a capacity-1 :class:`BoundSums` -- varying ``(1, 18, m)``, invariant
    ``(10, m)`` -- and a :class:`SplitSums` as its own two bases; the
    capacity grows to give ``count`` pixel indices their outputs."""
    if not isinstance(fields, SplitSums):
        rows = np.asarray(fields, dtype=np.float64).reshape(-1, N_FIELDS)
        fields = SplitSums(rows[:, VARYING_FIELDS].T[None], rows[:, INVARIANT_FIELDS].T)
    invariant = fields.invariant
    varying = np.ascontiguousarray(fields.varying).reshape(
        (-1, len(VARYING_FIELDS)) + invariant.shape[1:]
    )
    capacity = max(varying.shape[0], -(-count // max(invariant[0].size, 1)))
    buffer = np.empty((capacity,) + varying.shape[1:])
    return BoundSums(buffer, invariant).assign(varying)


def _solve_at(fields, ridge, pixels=None, lanes=0):
    """The bound solve of ``fields`` (:func:`_bind`) pinned to one kernel
    width (0: the dispatched one), at flat ``pixels`` as NumPy indexes
    them (negative ones count from the end)."""
    if pixels is None:
        return _bind(fields).solve(ridge, None, lanes)
    bound = _bind(fields, pixels.size)
    m = bound.n * bound.systems
    pixels = np.ascontiguousarray(np.where(pixels < 0, pixels + m, pixels), dtype=np.intp)
    return bound.solve(ridge, pixels, lanes)


def _assert_solved_alike(ref, params, error, singular, what=""):
    """The NumPy solve ``ref`` and the bound one, flat, bit for bit."""
    assert same_bits(ref.params.reshape(-1, 6), params.reshape(-1, 6)), f"params{what}"
    assert same_bits(ref.error.reshape(-1), error.reshape(-1)), f"error{what}"
    assert ref.singular.dtype == singular.dtype == bool
    np.testing.assert_array_equal(ref.singular.reshape(-1), singular.reshape(-1), err_msg=what)


def _assert_fused_matches(fields, ridge):
    with np.errstate(all="ignore"):
        ref = solve_accumulated(fields, ridge=ridge)
        _assert_solved_alike(ref, *_solve_at(fields, ridge))
    return ref


def _adversarial_rows() -> np.ndarray:
    """Hand-made packed rows, one fused-solve branch each."""
    rng = np.random.default_rng(41)
    base = adversarial_packed(17, seed=9)[13:17]
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
        fields = adversarial_packed(32, seed=3)[13:]  # the well-posed rows
        fields[:, 27] = -1e6  # c far below -theta.grad: a negative minimum
        ref = _assert_fused_matches(fields, 1e-9)
        assert (ref.error == 0.0).all() and not np.signbit(ref.error).any()

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_survivor_subset(self, ridge):
        rng = np.random.default_rng(12)
        fields = rng.normal(size=(256, N_FIELDS))
        survivors = np.flatnonzero(rng.random(256) < 0.3)
        with np.errstate(all="ignore"):
            ref = solve_accumulated(fields, ridge=ridge, pixels=survivors)
            _assert_solved_alike(ref, *_solve_at(fields, ridge, survivors))

    def test_strided_and_single_systems(self):
        """Every third row, the rows reversed (special rows last), and one
        system alone: a binding of a single pixel."""
        fields = adversarial_packed(64, seed=2)
        _assert_fused_matches(fields[::3], 1e-9)
        _assert_fused_matches(fields[::-1], 1e-9)
        single = _assert_fused_matches(fields[20], 1e-9)
        assert np.ndim(single.error) == 0
        assert _bind(fields[20]).systems == 1

    def test_empty_batch(self):
        bound = _bind(adversarial_packed(16))
        params, error, singular = bound.solve(1e-9, np.array([], dtype=np.intp))
        assert params.shape == (0, 6) and error.shape == singular.shape == (0,)
        bound.n = 0  # no hypothesis written
        params, error, singular = bound.solve(1e-9)
        assert params.shape == (0, 16, 6) and error.shape == singular.shape == (0, 16)

    def test_dispatch_uses_fused_kernel_by_default(self, monkeypatch):
        """``solve_accumulated`` hands a ``BoundSums`` to its fused solve,
        survivors ungathered, and solves arrays and ``SplitSums`` on NumPy."""
        calls = []
        real = BoundSums.solve

        def spy(self, ridge, pixels=None, lanes=0):
            calls.append(None if pixels is None else list(pixels))
            return real(self, ridge, pixels, lanes)

        monkeypatch.setattr(BoundSums, "solve", spy)
        fields = adversarial_packed(32, seed=6)
        bound = _bind(fields)
        with np.errstate(all="ignore"):
            reference = solve_accumulated(fields)
            solve_accumulated(fields, pixels=np.array([5, 1]))
            solve_accumulated(adversarial_split())
            assert calls == [], "arrays and SplitSums must stay on the NumPy path"
            via_dispatch = solve_accumulated(bound)
            assert calls == [None]
            assert same_bits(via_dispatch.params[0], reference.params)
            assert same_bits(via_dispatch.error[0], reference.error)
            at = solve_accumulated(bound, pixels=np.array([5, 1], dtype=np.intp))
        assert calls[1] == [5, 1], "pixels must reach the kernel ungathered"
        assert same_bits(at.error, reference.error[[5, 1]])

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="28 packed fields"):
            solve_accumulated(np.zeros((4, 27)))


def _lane_widths() -> tuple[int, ...]:
    from repro import native

    return native._lane_widths(native._load()[0])


def _assert_lanes_match(fields, ridge, pixels=None):
    """Every width the CPU runs, scalar and the dispatched one included,
    against the NumPy reference, bit for bit."""
    with np.errstate(all="ignore"):
        ref = solve_accumulated(fields, ridge=ridge, pixels=pixels)
        for lanes in (0,) + _lane_widths():
            solved = _solve_at(fields, ridge, pixels, lanes)
            _assert_solved_alike(ref, *solved, f" at {lanes} lanes")
    return ref


def _special_tiles(width: int = 8) -> np.ndarray:
    """One tile of ``width`` well-posed systems per (special row, lane
    position), the special row at that position."""
    specials = _adversarial_rows()
    fill = adversarial_packed(64, seed=5)[13:]
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
    and multi-hypothesis chunks."""

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
        _assert_lanes_match(fields[::-1], ridge)  # special rows first

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_special_system_in_every_lane(self, ridge):
        """NaN, +-inf, singular, signed-zero and negative-c systems in each
        lane position next to well-posed ones: no pivot or bad-pivot
        blend may leak into a neighbouring lane."""
        tiles = _special_tiles()
        ref = _assert_lanes_match(tiles, ridge)
        assert np.isnan(ref.error).any() and not np.isnan(ref.error).all()
        assert ref.singular.any() == (ridge == 0.0)
        _assert_lanes_match(tiles[1:], ridge)  # every tile straddles two groups

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_index_lists(self, ridge):
        rng = np.random.default_rng(31)
        first = rng.normal(size=(1, N_FIELDS, 9, 11))
        first[0, :, 2, 3] = 0.0
        first[0, 4, 5, 5] = np.nan
        first[0, 27, 8, 10] = -first[0, 27, 8, 10] - 1e6
        fields = np.moveaxis(first, 1, 3).reshape(-1, N_FIELDS)
        last = fields.shape[0] - 1
        for pixels in (
            np.array([], dtype=np.intp),
            np.array([last]),
            np.array([2 * 11 + 3]),
            rng.permutation(last + 1)[:37],
            np.array([60, 5, 60, 60, 7, 5, 93, last, 0, 93]),
            np.arange(last + 1),
            np.array([-1, -last - 1]),
        ):
            _assert_lanes_match(fields, ridge, pixels)
        bound = _bind(fields)
        params, error, singular = bound.solve(ridge, np.array([], dtype=np.intp))
        assert params.shape == (0, 6) and error.shape == singular.shape == (0,)
        with pytest.raises(IndexError):
            bound.solve(ridge, np.array([last + 1], dtype=np.intp))

    def test_index_list_of_special_tiles(self):
        from repro.native import adversarial_pixels

        packed = adversarial_packed()
        pixels = adversarial_pixels()
        for ridge in (1e-9, 0.0):
            _assert_lanes_match(packed, ridge, pixels)
            _assert_lanes_match(packed, ridge, pixels[::-1])

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_multi_hypothesis_chunk(self, ridge):
        """``outer > 1``: an exhaustive chunk of three hypotheses on 5x7
        pixels, no multiple of any width, so lane groups span two
        hypotheses."""
        rng = np.random.default_rng(32)
        first = rng.normal(size=(3, N_FIELDS, 5, 7)) * np.exp(rng.normal(size=(3, 1, 5, 7)))
        first[:, :, 4, 6] = 0.0  # one all-zero system per hypothesis
        first[2, VARYING_FIELDS[0], 0, 0] = np.inf
        split = SplitSums(first[:, VARYING_FIELDS], first[0, INVARIANT_FIELDS])
        _assert_lanes_match(split, ridge)
        _assert_lanes_match(split, ridge, np.array([104, 0, 35, 34, 70, 69, 36, 104]))

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
    """``solve_packed`` through the bound per-field table: a varying
    stack and invariant sums at outer stride 0, against the NumPy
    reference on the packed array they stand for, at every lane width."""

    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_adversarial_split(self, ridge):
        split = adversarial_split()
        bound = _bind(split)
        assert (bound.n, bound.systems) == (2, 64)
        outer_strides = bound._outer_strides
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

    def test_base_shapes_checked(self):
        varying, invariant = adversarial_split()
        for bad_varying, bad_invariant in (
            (varying[:, 1:], invariant),
            (varying, invariant[1:]),
            (varying, invariant[:, 1:]),
            (varying[0, 0], invariant),
        ):
            with pytest.raises(ValueError, match="varying and"):
                BoundSums(np.ascontiguousarray(bad_varying), bad_invariant)


def _random_planes(h: int, w: int, seed: int):
    """Before planes ``p, q, e, g`` and one pair of after planes, ``(H, W)`` each."""
    rng = np.random.default_rng(seed)
    p, q, p_after, q_after = rng.normal(size=(4, h, w))
    return p, q, 1.0 + p * p, 1.0 + q * q, p_after, q_after


#: Hypothesis offsets: zero, negative, and past a whole period.
OFFSETS = [(0, 0), (1, -2), (-3, 5), (7, -11)]


def _assert_pointwise_matches(p, q, e, g, p_after, q_after, n: int = 3):
    """The bound build of ``n`` hypotheses against the full 28-field
    NumPy ``pointwise_fields`` of ``shift2d`` copies, at its varying fields."""
    offsets = OFFSETS[:n]
    shifted = [np.stack([shift2d(a, dy, dx) for dy, dx in offsets]) for a in (p_after, q_after)]
    with np.errstate(all="ignore"):
        ref = pointwise_fields(p[None], q[None], *shifted, e[None], g[None])
        planes = PairKernels(p, q, e, g, p_after, q_after, 1).fields(offsets)
    assert planes.shape == (n, len(VARYING_FIELDS)) + p.shape
    assert same_bits(ref[..., VARYING_FIELDS], np.moveaxis(planes, 1, 3))


@needs_native
class TestPointwisePlanes:
    """The bound ``pointwise_planes`` against NumPy ``pointwise_fields``, bit for bit."""

    @pytest.mark.parametrize(
        "n,h,w", [(1, 96, 96), (3, 17, 23), (2, 1, 9), (2, 7, 1), (4, 5, 130)]
    )
    def test_random_planes(self, n, h, w):
        _assert_pointwise_matches(*_random_planes(h, w, seed=n * 1000 + h + w), n=n)

    def test_adversarial_planes(self):
        _assert_pointwise_matches(*adversarial_planes())

    @pytest.mark.parametrize("n,h,w", [(2, 9, 300), (1, 33, 5)])
    def test_adversarial_planes_across_tiles(self, n, h, w):
        """Shapes whose pixel count spans several 128-pixel tiles."""
        _assert_pointwise_matches(*adversarial_planes(h, w, seed=h * w), n=n)

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
        """``stack_varying_fields`` hands a bound pair to its field build
        and every plane input -- lists included -- to ``varying_planes``,
        with the same bits."""
        p, q, e, g, p_after, q_after = _random_planes(6, 8, seed=1)
        shifted = [np.stack([shift2d(a, dy, dx) for dy, dx in OFFSETS[:2]])
                   for a in (p_after, q_after)]
        reference = varying_planes(p, q, e, g, *shifted)
        kernels = PairKernels(p, q, e, g, p_after, q_after, 1)
        bound = stack_varying_fields(kernels, OFFSETS[:2])
        assert np.shares_memory(bound, kernels.planes)
        lists = stack_varying_fields(p, q, e, g, shifted[0].tolist(), shifted[1])
        for planes in (bound, lists):
            assert planes.flags.c_contiguous and planes.shape == (2, len(VARYING_FIELDS), 6, 8)
            assert same_bits(planes, reference)


def _assert_box_sum_matches(planes, half_width):
    kernels = PairKernels(*np.zeros((6,) + planes.shape[-2:]), half_width)
    with np.errstate(all="ignore"):
        ref = box_sum_planes(planes, half_width)
        got = kernels.box_sums(planes)
    assert same_bits(ref, got)


@needs_native
@pytest.mark.skipif(not native_box_sum_available(), reason=native_status())
class TestBoxSumPlanes:
    """The bound ``box_sum_planes`` against SciPy's ``uniform_filter``, bit for bit."""

    @pytest.mark.parametrize("half_width", range(1, 7))
    @pytest.mark.parametrize(
        "n,h,w", [(1, 64, 64), (2, 17, 23), (1, 47, 70), (2, 3, 40), (1, 40, 3)]
    )
    def test_random_planes(self, n, h, w, half_width):
        rng = np.random.default_rng(h * 100 + w + half_width)
        size = (n, len(VARYING_FIELDS), h, w)
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
        kernels = PairKernels(*_random_planes(31, 45, seed=5), 1)
        planes = kernels.fields(OFFSETS[:3])
        for half_width in (1, 3, 6):
            _assert_box_sum_matches(planes, half_width)

    @pytest.mark.parametrize("side_y,side_x", [(1, 5), (7, 1), (3, 9), (1, 1)])
    def test_rectangular_and_unit_sides(self, side_y, side_x):
        """A pair bound for a rectangular template sums over its
        rectangle -- one-pixel sides and the 1x1 template included -- as
        ``uniform_filter`` does."""
        from scipy import ndimage

        half_y, half_x = side_y // 2, side_x // 2
        planes = adversarial_box_stack(1, 11, 13, seed=side_y * side_x)
        kernels = PairKernels(*np.zeros((6, 11, 13)), half_y, half_x)
        assert kernels._native_box_sum == ((half_y, half_x) != (0, 0))
        with np.errstate(all="ignore"):
            ref = ndimage.uniform_filter(
                planes, size=(1, 1, side_y, side_x), mode="constant", cval=0.0
            ) * float(side_y * side_x)
            got = kernels.box_sums(planes)
        assert same_bits(ref, got)
        assert same_bits(box_sum_planes(planes, half_y, half_x), got)

    def test_negative_half_widths_are_refused(self):
        """The C box sum has no answer for a side below one."""
        planes = np.zeros((6, 5, 7))
        for half in ((-1, 2), (2, -1), (-1, None)):
            with pytest.raises(ValueError, match="half-widths"):
                PairKernels(*planes, *half)

    def test_dispatch_reads_channels_first_in_place(self):
        """``stack_box_sum(..., out=kernels)`` sums a varying stack into the
        bound sums and the pair's invariant planes into the bound invariant
        sums that every solve reads; a strided stack is refused."""
        p, q, e, g, p_after, q_after = _random_planes(12, 14, seed=6)
        kernels = PairKernels(p, q, e, g, p_after, q_after, 2)
        planes = kernels.fields(OFFSETS[:2])
        via_dispatch = stack_box_sum(planes, 2, out=kernels)
        assert np.shares_memory(via_dispatch, kernels.sums.varying)
        assert via_dispatch.flags.c_contiguous and via_dispatch.shape == planes.shape
        assert same_bits(via_dispatch, box_sum_planes(planes, 2))
        invariant = invariant_planes(p, q, e, g)
        summed = stack_box_sum(invariant, 2, out=kernels)
        assert summed is kernels.sums.invariant
        assert same_bits(summed, box_sum_planes(invariant, 2))
        with pytest.raises(ValueError, match="contiguous"):
            stack_box_sum(np.zeros((2, len(VARYING_FIELDS), 12, 28))[..., ::2], 2, out=kernels)
        # Without a binding the dispatcher is the SciPy reference.
        assert same_bits(stack_box_sum(invariant, 3), box_sum_planes(invariant, 3))


@needs_native
def test_numpy_backend_never_reaches_the_hypothesis_kernels(monkeypatch, prepared_semifluid):
    """``backend="numpy"`` stays pure NumPy/SciPy; ``"auto"`` runs every
    hypothesis kernel through the pair's binding."""
    from repro import native

    calls = []
    for owner, name in (
        (native.PairKernels, "__init__"), (native.PairKernels, "fields"),
        (native.PairKernels, "box_sums"), (native.PairKernels, "merge"),
        (native.BoundSums, "solve"),
    ):
        real = getattr(owner, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    reference = track_dense(prepared_semifluid, backend="numpy")
    assert calls == []
    auto = track_dense(prepared_semifluid, backend="auto")
    assert {"__init__", "fields", "box_sums", "merge", "solve"} <= set(calls)
    assert auto.error.tobytes() == reference.error.tobytes()


@needs_native
class TestBoundPair:
    """One frame pair's kernels are bound once: the native continuous
    search reads the after planes at each hypothesis offset -- no
    ``shift2d`` copy -- and every hypothesis writes the same buffers."""

    @staticmethod
    def _watch(monkeypatch):
        from repro.core import matching

        shifts, written = [], {"fields": [], "sums": [], "error": []}
        real_shift = matching.shift2d
        monkeypatch.setattr(matching, "shift2d", lambda *a: shifts.append(a) or real_shift(*a))
        for name, key, address in (
            ("pointwise_fields", "fields", lambda out: out.ctypes.data),
            ("_kernel_box_sum_stack", "sums", lambda out: out.ctypes.data),
            ("solve_accumulated", "error", lambda out: out.error.ctypes.data),
        ):
            def spy(*args, _real=getattr(matching, name), _key=key, _address=address, **kw):
                out = _real(*args, **kw)
                written[_key].append(_address(out))
                return out

            monkeypatch.setattr(matching, name, spy)
        return shifts, written

    @pytest.mark.parametrize("search", ["exhaustive", "pruned"])
    def test_native_search_binds_the_pair(self, monkeypatch, prepared_continuous, search):
        reference = track_dense(prepared_continuous, search=search, backend="numpy")
        shifts, written = self._watch(monkeypatch)
        # batch_bytes=1: one hypothesis per chunk, so every one is a call.
        bound = track_dense(prepared_continuous, search=search, batch_bytes=1, backend="auto")
        assert shifts == []
        assert bound.hypotheses_evaluated == prepared_continuous.config.hypotheses_per_pixel
        hypotheses = len(written["fields"])
        assert hypotheses == bound.hypotheses_evaluated
        assert len(set(written["fields"])) == 1
        # The pair's invariant sums are taken once, before any hypothesis.
        assert len(written["sums"]) == hypotheses + 1 and len(set(written["sums"][1:])) == 1
        # Template solves share one output; pruned certificates have their own.
        assert len(set(written["error"])) == (1 if search == "exhaustive" else 2)
        for name in ("u", "v", "params", "error"):
            assert same_bits(getattr(bound, name), getattr(reference, name)), name
        assert bound.ge_solves == reference.ge_solves

    def test_native_semifluid_search_binds_the_pair(self, monkeypatch, prepared_semifluid):
        """The semi-fluid search reads the after planes at each pixel's
        deltas through the binding: no shifted-plane stack, no gather."""
        reference = track_dense(prepared_semifluid, backend="numpy")
        shifts, written = self._watch(monkeypatch)
        gathers = []
        real_take = np.take_along_axis
        monkeypatch.setattr(np, "take_along_axis", lambda *a, **k: gathers.append(1)
                            or real_take(*a, **k))
        bound = track_dense(prepared_semifluid, batch_bytes=1, backend="auto")
        assert shifts == [] and gathers == []
        assert len(written["fields"]) == prepared_semifluid.config.hypotheses_per_pixel
        assert len(set(written["fields"])) == 1
        for name in ("u", "v", "params", "error"):
            assert same_bits(getattr(bound, name), getattr(reference, name)), name
        assert bound.ge_solves == reference.ge_solves

    def test_semifluid_pair_binding_memory(self, frederic_dataset):
        """Binding a semi-fluid pair and staging one hypothesis stays far
        below the shifted-plane stack a pair once built (34.3 MiB on this
        Frederic 96 px pair)."""
        import tracemalloc

        config = frederic_dataset.config.replace(n_zt=5)
        before, after = frederic_dataset.frames[:2]
        prepared = prepare_frames(before.surface, after.surface, config,
                                  before.intensity, after.intensity)
        tracemalloc.start()
        try:
            _HostEvaluator(prepared, 1e-9).stage(hypothesis_order(config.n_zs)[:1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34.3 * 2**20 / 4

    def test_out_of_range_pixels_are_refused(self, prepared_continuous):
        """The bound solve and merge skip per-call argument checks, so
        the kernels themselves refuse an index outside the image, and
        the bound solve refuses more indices than its outputs hold."""
        evaluator = _HostEvaluator(prepared_continuous, 1e-9)
        kernels = evaluator.kernels
        size = kernels.shape[0] * kernels.shape[1]
        best = (np.full(size, np.inf), np.full(size, -1, dtype=np.intp),
                np.zeros((size, 6)), np.zeros(size), np.zeros(size))
        kernels.bind_best(best)
        evaluator.solve(evaluator.stage([(0, 1)])[0])
        for bad in ([0, size], [-1]):
            pixels = np.array(bad, dtype=np.intp)
            with pytest.raises(IndexError):
                solve_accumulated(kernels.sums, pixels=pixels)
            with pytest.raises(IndexError):
                kernels.merge(0, [(0, 1)], pixels)
        with pytest.raises(ValueError, match="overflow"):
            solve_accumulated(kernels.sums, pixels=np.zeros(size + 1, dtype=np.intp))
        assert np.isinf(best[0]).all() and (best[1] == -1).all()  # nothing merged

    def test_numpy_backend_takes_the_reference_path(self, monkeypatch, prepared_continuous):
        shifts, _ = self._watch(monkeypatch)
        evaluator = _HostEvaluator(prepared_continuous, 1e-9, prefer_native=False)
        assert evaluator.kernels is None
        track_dense(prepared_continuous, batch_bytes=1, backend="numpy")
        # Two shifted copies (p' and q') per hypothesis.
        assert len(shifts) == 2 * prepared_continuous.config.hypotheses_per_pixel


class TestBuildCacheKey:
    """The build cache must key on compiler identity + flags, not just source.

    Each test builds into its own directory: a library built by a fake
    compiler or with foreign flags never lands in the source tree's
    cache, and one cached by an earlier run cannot satisfy these builds.
    """

    @pytest.fixture(autouse=True)
    def _own_build_dir(self, tmp_path, monkeypatch):
        from repro import native

        monkeypatch.setattr(native, "_BUILD_DIR", tmp_path / "_build")

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
        real = native.BoundSums.solve

        def off_by_one_ulp(self, ridge, pixels=None, lanes=0):
            calls["n"] += 1
            params, error, singular = real(self, ridge, pixels, lanes)
            return params, np.nextafter(error, np.inf), singular

        monkeypatch.setattr(native.BoundSums, "solve", off_by_one_ulp)
        assert not native.native_available()
        assert "template solve" in native.native_status()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_lane_self_check_failure_is_permanent(self, monkeypatch):
        """A template solve that disagrees at one lane width only -- the
        widest, read through an index list -- untrusts the whole library."""
        from repro import native

        calls = {"n": 0}
        widest = native.native_solve_lanes()  # one unpatched load, forgotten below
        native.reset()
        real = native.BoundSums.solve

        def wrong_at_widest(self, ridge, pixels=None, lanes=0):
            calls["n"] += 1
            params, error, singular = real(self, ridge, pixels, lanes)
            if pixels is not None and lanes == widest:
                error = np.nextafter(error, np.inf)
            return params, error, singular

        monkeypatch.setattr(native.BoundSums, "solve", wrong_at_widest)
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
        real = native.PairKernels.fields

        def flipped_sign(self, *args):
            calls["n"] += 1
            out = real(self, *args)
            out[0, 17] = np.negative(out[0, 17])
            return out

        monkeypatch.setattr(native.PairKernels, "fields", flipped_sign)
        assert not native.native_available()
        assert "pointwise" in native.native_status()
        assert not native.native_box_sum_available()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_offset_field_build_self_check_failure_is_permanent(self, monkeypatch):
        """A field build that is right at per-pixel deltas but wrong at
        toroidal offsets untrusts the whole library, and says so."""
        from repro import native

        real = native.PairKernels.fields

        def wrong_at_offsets(self, hypotheses, delta_y=None, delta_x=None):
            out = real(self, hypotheses, delta_y, delta_x)
            if delta_y is None:
                out[-1, 0] = np.nextafter(out[-1, 0], np.inf)
            return out

        monkeypatch.setattr(native.PairKernels, "fields", wrong_at_offsets)
        assert not native.native_available()
        assert "toroidal offsets" in native.native_status()

    def test_delta_field_build_self_check_failure_is_permanent(self, monkeypatch):
        """A field build that is right at offsets but wrong at per-pixel
        semi-fluid deltas untrusts the whole library, and says so."""
        from repro import native

        calls = {"n": 0}
        real = native.PairKernels.fields

        def wrong_at_deltas(self, hypotheses, delta_y=None, delta_x=None):
            out = real(self, hypotheses, delta_y, delta_x)
            if delta_y is not None:
                calls["n"] += 1
                out[0, 0, -1, -1] = np.nextafter(out[0, 0, -1, -1], -np.inf)
            return out

        monkeypatch.setattr(native.PairKernels, "fields", wrong_at_deltas)
        assert not native.native_available()
        assert "per-pixel deltas" in native.native_status()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    def test_merge_self_check_failure_is_permanent(self, monkeypatch):
        """A merge that records the wrong winning ranks untrusts the
        whole library, and the status names the merge."""
        from repro import native

        calls = {"n": 0}
        real = native.PairKernels.merge

        def wrong_ranks(self, rank, *args):
            calls["n"] += 1
            real(self, rank, *args)
            (error, ranks, *_), _ = self._best
            ranks[np.isfinite(error)] = rank  # the chunk's first rank everywhere

        monkeypatch.setattr(native.PairKernels, "merge", wrong_ranks)
        assert not native.native_available()
        assert "merge_best" in native.native_status()
        assert not native.native_available()
        assert calls["n"] == 1, "a wrong kernel must not be re-probed"

    @staticmethod
    def _nudge_native_box_sums(monkeypatch):
        """Make the native box sum (only) one ulp off SciPy."""
        from repro import native

        real = native.PairKernels.box_sums

        def off_by_one_ulp(self, planes):
            out = real(self, planes)
            if self._native_box_sum:
                out[...] = np.nextafter(out, np.inf)
            return out

        monkeypatch.setattr(native.PairKernels, "box_sums", off_by_one_ulp)

    def test_box_sum_self_check_failure_disables_only_the_box_sum(self, monkeypatch):
        """A SciPy whose uniform_filter rounds differently must not take
        the fused solve down with the box sum: bound pairs sum with SciPy."""
        from repro import native

        self._nudge_native_box_sums(monkeypatch)
        assert native.native_available()
        assert not native.native_box_sum_available()
        status = native.native_status()
        assert status.startswith("available; ") and "box_sum_planes" in status

        p, q, e, g, p_after, q_after = _random_planes(10, 12, seed=3)
        kernels = native.PairKernels(p, q, e, g, p_after, q_after, 2)
        assert not kernels._native_box_sum
        planes = kernels.fields([(0, 1)])
        assert same_bits(kernels.box_sums(planes), box_sum_planes(planes, 2))
        invariant = invariant_planes(p, q, e, g)
        assert same_bits(kernels.box_sums(invariant), box_sum_planes(invariant, 2))
        bound = solve_accumulated(kernels.sums)
        split = SplitSums(box_sum_planes(planes, 2), box_sum_planes(invariant, 2))
        reference = solve_accumulated(split)
        assert same_bits(bound.error, reference.error)
        assert same_bits(bound.params, reference.params)

    def test_rectangular_box_sum_self_check_failure_disables_only_the_box_sum(
        self, monkeypatch
    ):
        """A box sum that is right on square windows but wrong on a
        rectangular one disables the native box sum alone, and the status
        names the window."""
        from repro import native

        real = native.PairKernels.box_sums

        def off_on_rectangles(self, planes):
            out = real(self, planes)
            half_y, half_x = self.template
            if self._native_box_sum and half_y != half_x:
                out[...] = np.nextafter(out, np.inf)
            return out

        monkeypatch.setattr(native.PairKernels, "box_sums", off_on_rectangles)
        assert native.native_available()
        assert not native.native_box_sum_available()
        status = native.native_status()
        assert status.startswith("available; ") and "half-widths (1, 2)" in status

    def test_native_solve_with_scipy_box_sum_keeps_reference_bits(
        self, monkeypatch, prepared_continuous, prepared_semifluid
    ):
        """The mixed fallback: field build and two-base solve native, box
        sum SciPy -- exhaustive and pruned, both models, reference bits."""
        from repro import native

        self._nudge_native_box_sums(monkeypatch)
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


#: A tiny continuous-model ``track_dense`` run that leaves the hex digest
#: of its ``(u, v, params, error)`` in ``digest``.
_TINY_TRACK = (
    "import hashlib\n"
    "import numpy as np\n"
    "from repro.core.matching import prepare_frames, track_dense\n"
    "from repro.data.noise import smooth_random_field\n"
    "from repro.params import NeighborhoodConfig\n"
    "f0 = smooth_random_field(24, seed=3)\n"
    "f1 = np.roll(f0, (1, -1), axis=(0, 1))\n"
    "r = track_dense(prepare_frames(f0, f1, NeighborhoodConfig(n_w=2, n_zs=1, n_zt=2, n_ss=0)))\n"
    "digest = hashlib.sha256(b''.join(a.tobytes() for a in (r.u, r.v, r.params, r.error)))"
    ".hexdigest()\n"
)


def test_env_opt_out_falls_back_to_numpy():
    """REPRO_NATIVE=0 must disable the kernels without changing results."""
    code = (
        "from repro.native import native_available, native_status\n"
        "assert not native_available(), native_status()\n"
        "assert 'REPRO_NATIVE' in native_status()\n"
        + _TINY_TRACK + "print(digest)\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    here: dict = {}
    exec(_TINY_TRACK, here)  # this process's kernels, native when loaded
    assert proc.stdout.strip() == here["digest"]
