"""Differential fuzzing of the native kernels against the NumPy reference.

Hypothesis draws shapes (1x1, 1xN, Nx1 and pixel counts with odd tails
past the field build's 128-pixel tile), non-contiguous views, negative
and duplicate index lists, NaN / +-inf / signed-zero / denormal inputs
and every lane width the CPU runs; each native result must carry the
reference's bits (:func:`repro.native.same_bits`).  The entry points are
the ones the hypothesis search calls per hypothesis: the 18-plane field
build, the box sum over the varying stack and the two-base solve.
Derandomized with a bounded example count, so the suite is repeatable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.continuous import solve_accumulated, stack_box_sum, stack_varying_fields
from repro.kernels.reference import (
    INVARIANT_FIELDS,
    VARYING_FIELDS,
    SplitSums,
    box_sum_planes,
    invariant_planes,
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
    for at, value in draw(
        st.lists(st.tuples(st.integers(0, max(size - 1, 0)), st.sampled_from(SPECIALS)),
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
    """Before planes ``(H, W)`` and ``n`` after planes ``(n, H, W)``."""
    n, h, w = draw(st.integers(1, 3)), draw(heights), draw(widths)
    p, q = draw(planted((h, w))), draw(planted((h, w)))
    # E, G >= 1 on a real surface; the fuzz also feeds the specials.
    e, g = 1.0 + draw(planted((h, w))) ** 2, 1.0 + draw(planted((h, w))) ** 2
    return p, q, e, g, draw(planted((n, h, w))), draw(planted((n, h, w)))


class TestFieldBuild:
    @FUZZ
    @given(surfaces())
    def test_varying_planes(self, planes):
        with np.errstate(all="ignore"):
            ref = varying_planes(*planes)
            got = native.native_pointwise_planes(*planes)
            dispatched = stack_varying_fields(*planes)
        assert got.shape == ref.shape == (planes[4].shape[0], 18) + planes[0].shape
        assert same_bits(ref, got)
        assert same_bits(ref, dispatched)


@pytest.mark.skipif(not native.native_box_sum_available(), reason=native.native_status())
class TestVaryingBoxSum:
    @FUZZ
    @given(
        st.integers(1, 2), heights, widths, st.integers(1, 6), st.data(),
    )
    def test_box_sum_planes(self, n, h, w, half_width, data):
        planes = data.draw(planted((n, len(VARYING_FIELDS), h, w), scale=8.0))
        side = 2 * half_width + 1
        with np.errstate(all="ignore"):
            ref = box_sum_planes(planes, half_width)
            got = native.native_box_sum_planes(planes, side, side)
            dispatched = stack_box_sum(np.ascontiguousarray(planes), half_width)
        assert same_bits(ref, got)
        assert same_bits(ref, dispatched)


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
        packed = split.packed()
        pixels = data.draw(index_lists(packed[..., 0].size))
        with np.errstate(all="ignore"):
            ref = solve_accumulated(split, ridge=ridge, prefer_native=False, pixels=pixels)
            params, error, singular = native._call_solve_packed(lib, split, ridge, pixels, lanes)
            one_base = native._call_solve_packed(lib, packed, ridge, pixels, lanes)
        assert same_bits(ref.params, params) and same_bits(ref.error, error)
        assert np.array_equal(ref.singular, singular)
        assert same_bits(one_base[0], params) and same_bits(one_base[1], error)
