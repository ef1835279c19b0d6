"""Differential fuzzing of the native kernels against the NumPy reference.

Hypothesis draws shapes (1x1, 1xN, Nx1 and pixel counts with odd tails
past the field build's 128-pixel tile), non-contiguous views, negative
and duplicate index lists, NaN / +-inf / signed-zero / denormal inputs
and every lane width the CPU runs; each native result must carry the
reference's bits (:func:`repro.native.same_bits`).  The kernels are
fuzzed through the frame pair's binding (:class:`repro.native.PairKernels`),
the one call path the hypothesis search takes: the 18-plane field build
reading the after planes at toroidal offsets (against ``varying_planes``
over ``shift2d`` copies) and at per-pixel semi-fluid deltas (against
``varying_planes`` over NumPy-gathered planes), the box sum of the
varying stack over square and rectangular templates, the two-base
solve (bound as the search binds it, and the same sums packed into
one array bound as one hypothesis) and the (error, rank) merge (against
:func:`repro.kernels.reference.merge_best`).  The two-base solve is the
library's only Gaussian elimination.  Derandomized with a bounded
example count, so the suite is repeatable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.continuous import (
    N_FIELDS,
    solve_accumulated,
    stack_box_sum,
    stack_varying_fields,
)
from repro.core.semifluid import shift2d
from repro.kernels.reference import (
    INVARIANT_FIELDS,
    VARYING_FIELDS,
    SplitSums,
    box_sum_planes,
    invariant_planes,
    merge_best,
    varying_planes,
)
from repro.native import same_bits

pytestmark = pytest.mark.skipif(
    not native.native_available(), reason=f"native kernel unavailable: {native.native_status()}"
)

FUZZ = settings(
    derandomize=True, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300)

heights = st.sampled_from([1, 2, 3, 5, 8, 13])
widths = st.sampled_from([1, 2, 7, 9, 17, 31, 40])


@st.composite
def planted(draw, shape, scale: float = 2.0):
    """A float64 array of ``shape``: normals spread over ``10**+-scale``,
    with specials planted at drawn positions, as a contiguous array or
    as a strided view of a wider one."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    values = rng.normal(size=size) * 10.0 ** rng.uniform(-scale, scale, size=size)
    if size:
        for at, value in draw(
            st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(SPECIALS)),
                     max_size=4)
        ):
            values[at] = value
    values = values.reshape(shape)
    if draw(st.booleans()):  # a non-contiguous view of the same values
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = values
        values = wide[..., ::2]
    return values


@st.composite
def surfaces(draw):
    """Before planes and one pair of after planes of a drawn ``(H, W)``,
    and ``n`` hypothesis offsets within one pixel."""
    shape = (draw(heights), draw(widths))
    offsets = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                            min_size=1, max_size=3))
    return draw(after_surfaces(shape)), offsets


class TestFieldBuild:
    @FUZZ
    @given(surfaces())
    def test_varying_planes(self, drawn):
        """The dispatcher over drawn shapes: plane inputs take
        ``varying_planes``, a bound pair its field build, same bits."""
        planes, offsets = drawn
        p, q, e, g, p_after, q_after = planes
        shifted = [np.stack([shift2d(a, dy, dx) for dy, dx in offsets]) for a in (p_after, q_after)]
        with np.errstate(all="ignore"):
            ref = varying_planes(p, q, e, g, *shifted)
            dispatched = stack_varying_fields(p, q, e, g, *shifted)
            bound = stack_varying_fields(native.PairKernels(*planes, 1), offsets)
        assert ref.shape == (len(offsets), 18) + p.shape
        assert same_bits(ref, dispatched)
        assert same_bits(ref, bound)


@st.composite
def after_surfaces(draw, shape):
    """Before planes and one ``(H, W)`` after plane each of ``p'`` and ``q'``."""
    p, q, e, g = (draw(planted(shape)) for _ in range(4))
    with np.errstate(over="ignore"):  # E, G >= 1 on a real surface; the fuzz feeds specials
        e, g = 1.0 + e**2, 1.0 + g**2
    return p, q, e, g, draw(planted(shape)), draw(planted(shape))


@st.composite
def shifted_surfaces(draw, shape):
    """:func:`after_surfaces` and ``(n, 2)`` hypothesis offsets ``(dy,
    dx)``: negative, zero and beyond +-H / +-W."""
    h, w = shape
    offset = st.tuples(st.integers(-3 * h - 1, 3 * h + 1), st.integers(-3 * w - 1, 3 * w + 1))
    return draw(after_surfaces(shape)), draw(st.lists(offset, min_size=1, max_size=3))


class TestOffsetFieldBuild:
    #: 1x1, 1xN, a pixel count with an odd tail past the 128-pixel tile,
    #: and a small rectangle.
    @pytest.mark.parametrize("shape", [(1, 1), (1, 31), (13, 17), (5, 7)])
    @settings(FUZZ, max_examples=20)
    @given(data=st.data())
    def test_offsets_match_shifted_copies(self, shape, data):
        planes, offsets = data.draw(shifted_surfaces(shape))
        p, q, e, g, p_after, q_after = planes
        shifted = [np.stack([shift2d(a, dy, dx) for dy, dx in offsets]) for a in (p_after, q_after)]
        kernels = native.PairKernels(*planes, 1)
        with np.errstate(all="ignore"):
            ref = varying_planes(p, q, e, g, *shifted)
            bound = stack_varying_fields(kernels, offsets)
        assert ref.shape == (len(offsets), 18) + shape
        assert same_bits(ref, bound)


@st.composite
def displaced_surfaces(draw, shape):
    """:func:`after_surfaces` and ``(n, H, W)`` int64 per-pixel deltas
    ``(delta_y, delta_x)`` up to +-3H / +-3W, negative ones included."""
    h, w = shape
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta_y = rng.integers(-3 * h, 3 * h + 1, size=(n, h, w))
    delta_x = rng.integers(-3 * w, 3 * w + 1, size=(n, h, w))
    if draw(st.booleans()):  # small drifts around one hypothesis, as the search draws
        delta_y = rng.integers(-2, 3) + rng.integers(-1, 2, size=(n, h, w))
        delta_x = rng.integers(-2, 3) + rng.integers(-1, 2, size=(n, h, w))
    planes = list(draw(after_surfaces(shape)))
    for k, value in draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(SPECIALS)),
                                  max_size=2)):
        planes[k] = np.full(shape, value)  # a whole plane of NaN, +-inf, a signed zero...
    return tuple(planes), (delta_y, delta_x)


class TestDeltaFieldBuild:
    #: 1x1, 1xN, and rows that cross the 128-pixel tile mid-row.
    @pytest.mark.parametrize("shape", [(1, 1), (1, 31), (13, 17), (3, 50)])
    @settings(FUZZ, max_examples=20)
    @given(data=st.data())
    def test_deltas_match_gathered_planes(self, shape, data):
        planes, (delta_y, delta_x) = data.draw(displaced_surfaces(shape))
        p, q, e, g, p_after, q_after = planes
        h, w = shape
        rows = (np.arange(h)[:, None] + delta_y) % h
        cols = (np.arange(w) + delta_x) % w
        kernels = native.PairKernels(*planes, 1)
        hypotheses = [(0, 0)] * delta_y.shape[0]
        with np.errstate(all="ignore"):
            ref = varying_planes(p, q, e, g, p_after[rows, cols], q_after[rows, cols])
            bound = stack_varying_fields(kernels, hypotheses, delta_y=delta_y, delta_x=delta_x)
        assert ref.shape == (delta_y.shape[0], 18) + shape
        assert same_bits(ref, bound)


#: Errors and bests drawn from few values, so equal errors -- at lower
#: and higher ranks, inside one chunk, +0.0 against -0.0 -- are common.
MERGE_VALUES = st.sampled_from([np.inf, np.nan, 0.0, -0.0, 1.0, 2.5, 5e-324])


@st.composite
def merges(draw):
    """A chunk's solve output, its ranks and hypotheses, the running
    best (+inf at rank -1 where unsolved), and optionally distinct
    pixels and semi-fluid deltas."""
    n, size = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    best_error = np.array(draw(st.lists(MERGE_VALUES, min_size=size, max_size=size)))
    best_rank = np.array(draw(st.lists(st.integers(-1, 8), min_size=size, max_size=size)),
                         dtype=np.intp)
    best_rank[np.isinf(best_error) & (rng.random(size) < 0.7)] = -1
    best = (best_error, best_rank, rng.normal(size=(size, 6)), rng.normal(size=size),
            rng.normal(size=size))
    pixels = None
    if draw(st.booleans()):
        pixels = rng.permutation(size)[: draw(st.integers(0, size))].astype(np.intp)
    count = size if pixels is None else pixels.size
    error = np.array(draw(st.lists(MERGE_VALUES, min_size=n * count, max_size=n * count)))
    error = error.reshape(n, count)
    hypotheses = [tuple(h) for h in rng.integers(-4, 5, size=(n, 2))]
    deltas = (None, None)
    if draw(st.booleans()):
        deltas = tuple(rng.integers(-6, 7, size=(2, n, size)))
    rank = draw(st.integers(0, 8))
    return error, rng.normal(size=(n, count, 6)), rank, hypotheses, best, pixels, deltas


class TestMerge:
    @settings(FUZZ, max_examples=150)
    @given(merges())
    def test_merge_best(self, case):
        error, params, rank, hypotheses, best, pixels, deltas = case
        ref = tuple(a.copy() for a in best)
        got = tuple(a.copy() for a in best)
        merge_best(error, params, rank, hypotheses, ref, pixels, *deltas)
        kernels = native.PairKernels(*np.zeros((6, 1, best[0].size)), 0)
        native.merge_solved(kernels, error, params, rank, hypotheses, got, pixels, *deltas)
        for expected, actual in zip(ref, got):
            assert same_bits(expected, actual)


@pytest.mark.skipif(not native.native_box_sum_available(), reason=native.native_status())
class TestVaryingBoxSum:
    @FUZZ
    @given(
        st.integers(1, 2), heights, widths, st.integers(0, 6), st.integers(0, 6), st.data(),
    )
    def test_box_sum_planes(self, n, h, w, half_y, half_x, data):
        planes = data.draw(planted((n, len(VARYING_FIELDS), h, w), scale=8.0))
        kernels = native.PairKernels(*np.zeros((6, h, w)), half_y, half_x)
        with np.errstate(all="ignore"):
            ref = box_sum_planes(planes, half_y, half_x)
            bound = stack_box_sum(np.ascontiguousarray(planes), half_y, half_x, out=kernels)
        assert same_bits(ref, bound)


@st.composite
def split_sums(draw):
    """Template sums as the search hands them over: a varying stack
    ``(outer, 18, H, W)`` and invariant sums ``(10, H, W)``."""
    outer, h, w = draw(st.integers(1, 3)), draw(heights), draw(widths)
    if draw(st.booleans()):  # box sums of a real field build
        p, q, e, g, p_after, q_after = (
            np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(6, outer, h, w))
        )
        e, g = 1.0 + e[0] ** 2, 1.0 + g[0] ** 2
        with np.errstate(all="ignore"):
            full = varying_planes(p[0], q[0], e, g, p_after, q_after)
            varying = box_sum_planes(full, 1)
            invariant = box_sum_planes(invariant_planes(p[0], q[0], e, g), 1)
        for at, value in draw(
            st.lists(st.tuples(st.integers(0, varying.size - 1), st.sampled_from(SPECIALS)),
                     max_size=3)
        ):
            varying.reshape(-1)[at] = value
    else:
        varying = draw(planted((outer, len(VARYING_FIELDS), h, w)))
        invariant = draw(planted((len(INVARIANT_FIELDS), h, w)))
    return SplitSums(varying, invariant)


@st.composite
def index_lists(draw, m: int):
    """None (every system) or flat indices in ``[-m, m)``, duplicates allowed."""
    if draw(st.booleans()):
        return None
    return np.array(draw(st.lists(st.integers(-m, m - 1), max_size=40)), dtype=np.intp)


class TestTwoBaseSolve:
    @pytest.mark.parametrize("lanes", [0, 1, 4, 8])  # 0: the dispatched width
    @FUZZ
    @given(split=split_sums(), ridge=st.sampled_from([1e-9, 0.0]), data=st.data())
    def test_solve_packed(self, lanes, split, ridge, data):
        lib = native._load()[0]
        if lanes and lanes not in native._lane_widths(lib):
            pytest.skip(f"this CPU does not run {lanes} lanes")
        rows = split.packed().reshape(-1, N_FIELDS)
        m = rows.shape[0]
        pixels = data.draw(index_lists(m))
        # The bound solve takes non-negative indices, as many as its outputs hold.
        flat = None if pixels is None else np.where(pixels < 0, pixels + m, pixels)
        count = 0 if flat is None else flat.size

        def bind(varying, invariant):
            capacity = max(varying.shape[0], -(-count // invariant[0].size))
            buffer = np.empty((capacity,) + varying.shape[1:])
            return native.BoundSums(buffer, invariant).assign(varying)

        # The search's two bases, and the packed rows as one hypothesis.
        bound = bind(split.varying, split.invariant)
        one_base = bind(rows[:, VARYING_FIELDS].T[None], rows[:, INVARIANT_FIELDS].T)
        with np.errstate(all="ignore"):
            ref = solve_accumulated(split, ridge=ridge, pixels=pixels)
            for solved in (bound.solve(ridge, flat, lanes), one_base.solve(ridge, flat, lanes)):
                params, error, singular = solved
                assert same_bits(ref.params.reshape(-1, 6), params.reshape(-1, 6))
                assert same_bits(ref.error.reshape(-1), error.reshape(-1))
                assert np.array_equal(ref.singular.reshape(-1), singular.reshape(-1))
