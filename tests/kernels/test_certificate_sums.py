"""Certificate window sums: the slice-add form against the reshape-sum form.

:func:`repro.kernels.reference.strided_window_sums` pre-sums its
stride bins with sequential slice adds, so a channels-last view of a
channels-first buffer needs no reshape copy.  The form it replaced, a
reshape-sum over the bin axis, is embedded below as the oracle: the two
must agree byte for byte (signed zeros included) on either layout,
because the pruned schedule's bounds -- and so its solve count -- are
built from these sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching import CERT_STRIDE, prepare_frames, track_dense
from repro.data import hurricane_luis
from repro.kernels.reference import N_FIELDS, strided_window_sums


def reshape_sum_window_sums(
    arr: np.ndarray, axis: int, grid_size: int, stride: int, half_width: int
) -> np.ndarray:
    """The reshape-sum form of ``strided_window_sums``, kept as the oracle."""
    side = 2 * half_width + 1
    whole, rest = divmod(side, stride)
    n_bins = grid_size - 1 + whole

    index: list = [slice(None)] * arr.ndim
    index[axis] = slice(0, stride * n_bins)
    shape = list(arr.shape)
    shape[axis : axis + 1] = [n_bins, stride]
    bins = arr[tuple(index)].reshape(shape).sum(axis=axis + 1)

    def bin_run(start: int) -> np.ndarray:
        ix: list = [slice(None)] * bins.ndim
        ix[axis] = slice(start, start + grid_size)
        return bins[tuple(ix)]

    out = bin_run(0).copy()
    for j in range(1, whole):
        out += bin_run(j)
    for k in range(rest):
        ix = [slice(None)] * arr.ndim
        first = stride * whole + k
        ix[axis] = slice(first, first + stride * (grid_size - 1) + 1, stride)
        out += arr[tuple(ix)]
    return out


def _grid_sums(window_sums, fields: np.ndarray, stride: int, half_width: int) -> np.ndarray:
    """Both certificate passes over ``(H, W, 28)`` fields, columns first."""
    h, w = fields.shape[:2]
    gy = len(range(half_width, h - half_width, stride))
    gx = len(range(half_width, w - half_width, stride))
    cols = window_sums(fields, 1, gx, stride, half_width)
    return window_sums(cols, 0, gy, stride, half_width)


def _channels_first(h: int, w: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(N_FIELDS, h, w)) * 10.0 ** rng.uniform(-6, 6, size=(N_FIELDS, h, w))
    planes[0] = -0.0  # all-negative-zero windows: the sum's +0.0 start shows
    planes[1, ::2] = -0.0
    planes[2, 3, 4] = np.nan
    planes[3, 5, 5] = np.inf
    return planes


@pytest.mark.parametrize("half_width", [2, 3, 4, 5])
@pytest.mark.parametrize("stride", [2, 3, 4])
class TestSliceAddMatchesReshapeSum:
    def test_contiguous_channels_last(self, stride, half_width):
        fields = np.ascontiguousarray(np.moveaxis(_channels_first(47, 70, stride), 0, 2))
        want = _grid_sums(reshape_sum_window_sums, fields, stride, half_width)
        got = _grid_sums(strided_window_sums, fields, stride, half_width)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_channels_last_view_of_channels_first(self, stride, half_width):
        planes = _channels_first(46, 61, 10 + stride)
        view = np.moveaxis(planes, 0, 2)
        assert not view.flags.c_contiguous
        want = _grid_sums(reshape_sum_window_sums, np.ascontiguousarray(view), stride, half_width)
        got = _grid_sums(strided_window_sums, view, stride, half_width)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        # The evaluator's form: sum the (28, H, W) planes along their
        # image axes and read the sums channels-last.
        gy, gx = want.shape[:2]
        cols = strided_window_sums(planes, 2, gx, stride, half_width)
        first = strided_window_sums(cols, 1, gy, stride, half_width)
        assert np.ascontiguousarray(np.moveaxis(first, 0, -1)).tobytes() == want.tobytes()


def test_pruned_solve_count_of_a_luis_pair_is_pinned():
    """The certificate bounds decide which solves run: a 64 px Luis pair
    keeps its solve count and its exhaustive-NumPy bytes."""
    ds = hurricane_luis(size=64, n_frames=2, seed=0)
    prepared = prepare_frames(
        np.asarray(ds.frames[0].surface, dtype=np.float64),
        np.asarray(ds.frames[1].surface, dtype=np.float64),
        ds.config,
    )
    assert CERT_STRIDE == 3
    pruned = track_dense(prepared, search="pruned")
    assert pruned.ge_solves == 133_173
    reference = track_dense(prepared, search="exhaustive", backend="numpy")
    for name in ("u", "v", "params", "error"):
        assert getattr(pruned, name).tobytes() == getattr(reference, name).tobytes()
