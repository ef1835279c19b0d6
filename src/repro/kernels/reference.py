"""The bit-identity NumPy reference kernels of the hypothesis chain.

Every backend of :mod:`repro.kernels` answers to the functions in this
module.  They are the exact arithmetic the rest of the codebase has
always run -- moved here verbatim from :mod:`repro.core.continuous`
(residual rows, packed normal-equation fields), :mod:`repro.core.semifluid`
(template box sums), :mod:`repro.core.linalg` (the batched Gaussian
elimination) and :mod:`repro.core.matching` (the stacked box sum, the
certificate-grid window sums of the pruned schedule and the search's
(error, rank) merge) -- so "reference"
means *the* bits, not merely close ones:

* the native C kernels (:mod:`repro.native`) replay these IEEE-754
  operations element for element -- and SciPy's ``uniform_filter``
  running sums for the box sum -- and are bitwise cross-checked on load;
* the pruned search schedule uses :func:`strided_window_sums` only to
  form *bounds*, never field values, so its different summation order is
  covered by an explicit slack.

The public wrappers in ``repro.core`` re-export these names, so existing
import sites keep working; new code should import from
:mod:`repro.kernels`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import ndimage

#: Parameter order used throughout: theta = (a_i, b_i, a_j, b_j, a_k, b_k).
PARAM_NAMES: tuple[str, ...] = ("a_i", "b_i", "a_j", "b_j", "a_k", "b_k")

N_PARAMS = 6

#: Upper-triangle index pairs of the symmetric 6x6 normal matrix, in the
#: packed order used by the dense field representation (21 entries).
TRIU_INDICES: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(N_PARAMS) for j in range(i, N_PARAMS)
)

N_TRIU = len(TRIU_INDICES)  # 21

#: Packed field layout: 21 H entries + 6 gradient entries + 1 constant.
N_FIELDS = N_TRIU + N_PARAMS + 1  # 28

#: Structurally-zero design columns implied by :func:`residual_rows`:
#: ``a1`` never touches (b_i, b_k) and ``a2`` never touches (a_j, a_k).
#: :func:`pointwise_fields` skips the vanished products; the derivation
#: is pinned by a test that recovers these sets from ``residual_rows``
#: output, so a row-layout change cannot silently corrupt the skip
#: logic.
A1_ZERO_COLUMNS: tuple[int, ...] = (1, 5)
A2_ZERO_COLUMNS: tuple[int, ...] = (2, 4)

#: Packed fields that do not depend on the after-motion surface.  Only
#: columns 0 and 3 of either design row read ``p'`` or ``q'``, so the H
#: entries among columns (1, 2, 4, 5) depend on the before frame alone:
#: four structural zeros -- H(1,2), H(1,4), H(2,5), H(4,5) -- and
#: H(1,1) = w2 p^2, H(1,5) = -w2 p, H(2,2) = w1 q^2, H(2,4) = -w1 q,
#: H(4,4) = w1, H(5,5) = w2.  The hypothesis search sums these once per
#: frame pair; a test re-derives both sets from pointwise_fields output.
INVARIANT_FIELDS: tuple[int, ...] = (6, 7, 9, 10, 11, 13, 14, 18, 19, 20)
#: The other 18 packed fields, in packed order: summed per hypothesis.
VARYING_FIELDS: tuple[int, ...] = tuple(
    k for k in range(N_FIELDS) if k not in INVARIANT_FIELDS
)

#: Pivot magnitudes below this are treated as singular.
SINGULAR_TOLERANCE = 1e-12


def residual_rows(p, q, p_after, q_after):
    """Design rows and constants of eps_1, eps_2 (unweighted).

    Given before-motion gradients ``(p, q)`` and observed after-motion
    gradients ``(p_after, q_after)`` -- any broadcastable shapes --
    returns ``(a1, r1, a2, r2)`` where ``a1``/``a2`` have a trailing
    axis of length 6 such that ``eps_m = a_m . theta + r_m``.
    """
    p, q, p_after, q_after = np.broadcast_arrays(
        np.asarray(p, dtype=np.float64),
        np.asarray(q, dtype=np.float64),
        np.asarray(p_after, dtype=np.float64),
        np.asarray(q_after, dtype=np.float64),
    )
    zero = np.zeros_like(p)
    minus_one = -np.ones_like(p)
    dp = p_after - p
    dq = q_after - q
    a1 = np.stack([p_after, zero, q, dp, minus_one, zero], axis=-1)
    a2 = np.stack([dq, p, zero, q_after, zero, minus_one], axis=-1)
    return a1, dp, a2, dq


def pointwise_fields(p, q, p_after, q_after, e, g) -> np.ndarray:
    """Per-sample normal-equation contributions, packed into 28 fields.

    For each sample the weighted error contribution is
    ``w1 (a1.theta + r1)^2 + w2 (a2.theta + r2)^2`` with quadratic
    weights ``w1 = 1/E^2`` and ``w2 = 1/G^2`` (the residuals carry 1/E,
    1/G).  Expanding gives a 6x6 matrix ``H`` (21 packed upper-triangle
    entries), a gradient vector ``grad`` (6) and a constant ``c`` (1):

        E(theta) = c + 2 theta . grad + theta^T H theta

    Summing the packed fields over a template window and solving
    ``H theta = -grad`` minimizes eq. (3) over that window.  Output
    shape is ``broadcast_shape + (28,)``.
    """
    a1, r1, a2, r2 = residual_rows(p, q, p_after, q_after)
    e = np.asarray(e, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    w1 = 1.0 / (e * e)
    w2 = 1.0 / (g * g)
    out_shape = a1.shape[:-1]
    # Hoist the weight products out of the 28-field loop.  Python's *
    # is left-associative, so ``w1 * a1_i * a1_j == (w1 * a1_i) * a1_j``
    # exactly: precomputing ``w1 * a1`` (and ``w1 * r1``) reuses the
    # identical first product and keeps every output bit unchanged.
    wa1 = w1[..., None] * a1
    wa2 = w2[..., None] * a2
    w1r1 = w1 * r1
    w2r2 = w2 * r2
    fields = np.empty(out_shape + (N_FIELDS,), dtype=np.float64)
    # Structural zeros: a1 columns 1 and 5 and a2 columns 2 and 4 are
    # identically zero (residual_rows), and the weights are finite and
    # strictly positive (E, G >= 1), so each vanished product is an
    # exact IEEE zero.  Skipping those products leaves every template
    # accumulation and solver input bit-for-bit unchanged (a +-0 term
    # never moves a running sum); only the sign of a structurally-zero
    # raw entry can differ, which no consumer observes.  Two reusable
    # scratch buffers replace the three fresh temporaries per field.
    a1_zero = A1_ZERO_COLUMNS
    a2_zero = A2_ZERO_COLUMNS
    buf_a = np.empty(out_shape, dtype=np.float64)
    buf_b = np.empty(out_shape, dtype=np.float64)
    for idx, (i, j) in enumerate(TRIU_INDICES):
        keep1 = i not in a1_zero and j not in a1_zero
        keep2 = i not in a2_zero and j not in a2_zero
        if keep1 and keep2:
            np.multiply(wa1[..., i], a1[..., j], out=buf_a)
            np.multiply(wa2[..., i], a2[..., j], out=buf_b)
            np.add(buf_a, buf_b, out=buf_a)
            fields[..., idx] = buf_a
        elif keep1:
            np.multiply(wa1[..., i], a1[..., j], out=buf_a)
            fields[..., idx] = buf_a
        elif keep2:
            np.multiply(wa2[..., i], a2[..., j], out=buf_a)
            fields[..., idx] = buf_a
        else:
            fields[..., idx] = 0.0
    for k in range(N_PARAMS):
        if k not in a1_zero and k not in a2_zero:
            np.multiply(w1r1, a1[..., k], out=buf_a)
            np.multiply(w2r2, a2[..., k], out=buf_b)
            np.add(buf_a, buf_b, out=buf_a)
            fields[..., N_TRIU + k] = buf_a
        elif k not in a1_zero:
            np.multiply(w1r1, a1[..., k], out=buf_a)
            fields[..., N_TRIU + k] = buf_a
        else:
            np.multiply(w2r2, a2[..., k], out=buf_a)
            fields[..., N_TRIU + k] = buf_a
    fields[..., N_TRIU + N_PARAMS] = w1r1 * r1 + w2r2 * r2
    return fields


def varying_planes(p, q, e, g, p_after, q_after) -> np.ndarray:
    """The :data:`VARYING_FIELDS` of :func:`pointwise_fields`, channels-first.

    ``(H, W)`` before planes against ``(n, H, W)`` after planes give a
    contiguous ``(n, 18, H, W)`` stack, plane ``j`` holding field
    ``VARYING_FIELDS[j]``.
    """
    fields = pointwise_fields(p, q, p_after, q_after, e, g)
    return np.ascontiguousarray(np.moveaxis(fields[..., VARYING_FIELDS], -1, -3))


def invariant_planes(p, q, e, g) -> np.ndarray:
    """The :data:`INVARIANT_FIELDS` of :func:`pointwise_fields` of an
    ``(H, W)`` before frame, as a contiguous ``(10, H, W)`` stack.

    No after plane reaches them, so the before planes stand in for it.
    Each field is :func:`pointwise_fields`' own product, computed alone:
    every invariant H entry keeps one design row or none.  Built a band
    of image rows at a time, so the design-row temporaries stay small;
    each pixel's fields do not depend on its neighbours.
    """
    p, q, e, g = (np.asarray(a, dtype=np.float64) for a in (p, q, e, g))
    out = np.empty((len(INVARIANT_FIELDS),) + p.shape)
    rows = 16
    for y in range(0, p.shape[0], rows):
        band = slice(y, y + rows)
        a1, _, a2, _ = residual_rows(p[band], q[band], p[band], q[band])
        wa1 = (1.0 / (e[band] * e[band]))[..., None] * a1
        wa2 = (1.0 / (g[band] * g[band]))[..., None] * a2
        for plane, k in zip(out[:, band], INVARIANT_FIELDS):
            i, j = TRIU_INDICES[k]
            if i not in A1_ZERO_COLUMNS and j not in A1_ZERO_COLUMNS:
                np.multiply(wa1[..., i], a1[..., j], out=plane)
            elif i not in A2_ZERO_COLUMNS and j not in A2_ZERO_COLUMNS:
                np.multiply(wa2[..., i], a2[..., j], out=plane)
            else:
                plane[...] = 0.0
    return out


class SplitSums(NamedTuple):
    """Packed template sums held as two bases, the hypothesis search's layout.

    ``varying`` is ``(..., 18, *S)`` -- a hypothesis stack of sums, or
    one hypothesis's -- plane ``j`` holding field ``VARYING_FIELDS[j]``;
    ``invariant`` is ``(10, *S)``, shared by every hypothesis of the
    frame pair, plane ``j`` holding field ``INVARIANT_FIELDS[j]``.  The
    systems are the varying stack's leading shape plus ``S``.
    """

    varying: np.ndarray
    invariant: np.ndarray

    def packed(self) -> np.ndarray:
        """The ``(..., *S, 28)`` packed array the two bases stand for."""
        varying = np.moveaxis(self.varying, self.varying.ndim - self.invariant.ndim, -1)
        packed = np.empty(varying.shape[:-1] + (N_FIELDS,), dtype=np.float64)
        packed[..., VARYING_FIELDS] = varying
        packed[..., INVARIANT_FIELDS] = np.moveaxis(self.invariant, 0, -1)
        return packed


def box_sum_rect(field: np.ndarray, half_y: int, half_x: int) -> np.ndarray:
    """Box sum over a rectangular ``(2half_y+1) x (2half_x+1)`` window.

    Out-of-bounds contributions are zero (``mode='constant'``), which
    only affects the masked border margin.  One field's
    :func:`box_sum_planes`; :func:`box_sum` (square windows) and the
    adaptive extension's texture energy call it.
    """
    return box_sum_planes(field, half_y, half_x)


def box_sum(field: np.ndarray, half_width: int) -> np.ndarray:
    """Sum of ``field`` over the ``(2N+1)^2`` window centered per pixel."""
    return box_sum_rect(field, half_width, half_width)


def box_sum_planes(planes: np.ndarray, half_y: int, half_x: int | None = None) -> np.ndarray:
    """Box sum of every ``(H, W)`` plane of a ``(..., H, W)`` stack.

    The window is ``(2half_y+1) x (2half_x+1)`` (square when ``half_x``
    is None); negative half-widths are refused.  One separable
    uniform-filter sweep over the last two axes (a cumulative sliding
    sum per axis in the scipy implementation, rows then columns, an
    axis with a one-pixel side skipped) shared by every hypothesis and
    every field; each plane's arithmetic is that of :func:`box_sum_rect`
    on it alone, whatever else is stacked with it, so summing a stack
    is bit-identical to summing its planes one at a time.  This is THE
    box sum of the codebase: every other one delegates here.
    """
    half_x = half_y if half_x is None else half_x
    if half_y < 0 or half_x < 0:
        raise ValueError("half-widths must be >= 0")
    planes = np.asarray(planes, dtype=np.float64)
    if half_y == 0 and half_x == 0:
        return planes.copy()
    side_y, side_x = 2 * half_y + 1, 2 * half_x + 1
    summed = ndimage.uniform_filter(
        planes, size=(1,) * (planes.ndim - 2) + (side_y, side_x), mode="constant", cval=0.0
    )
    summed *= float(side_y * side_x)
    return summed


def strided_window_sums(
    arr: np.ndarray, axis: int, grid_size: int, stride: int, half_width: int
) -> np.ndarray:
    """Sum ``arr`` over every certificate window along ``axis``.

    Windows are ``2 * half_width + 1`` wide and start every ``stride``
    elements, so whole stride-width bins are pre-summed once by
    ``stride`` sequential slice adds, ``bins = 0.0 + a[0::s] + a[1::s]
    + ...`` -- the order and the +0.0 start of ``np.sum`` over each bin,
    with no reshape copy when ``arr`` is a strided view.  Each window is
    then ``side // stride`` bin adds plus at most ``stride - 1`` strided
    adds for the leftover columns, instead of ``side`` strided adds.  The
    grouping changes the floating-point summation order, which only
    perturbs the pruned schedule's *bound* within the certificate
    slack -- the field itself never flows through this path.
    """
    side = 2 * half_width + 1
    whole, rest = divmod(side, stride)
    n_bins = grid_size - 1 + whole

    def every_stride(first: int, count: int) -> np.ndarray:
        ix: list = [slice(None)] * arr.ndim
        ix[axis] = slice(first, first + stride * (count - 1) + 1, stride)
        return arr[tuple(ix)]

    bins = every_stride(0, n_bins) + 0.0  # an all -0.0 bin sums to +0.0
    for k in range(1, stride):
        bins += every_stride(k, n_bins)

    def bin_run(start: int) -> np.ndarray:
        ix: list = [slice(None)] * bins.ndim
        ix[axis] = slice(start, start + grid_size)
        return bins[tuple(ix)]

    out = bin_run(0).copy()
    for j in range(1, whole):
        out += bin_run(j)
    for k in range(rest):
        out += every_stride(stride * whole + k, grid_size)
    return out


def merge_best(error, params, rank: int, hypotheses, best, pixels=None, delta_y=None, delta_x=None):
    """The hypothesis search's (error, rank) merge of one chunk, in place.

    ``error`` ``(n, ...)`` and ``params`` ``(n, ..., 6)`` are the chunk's
    solve output for its ``n`` ``hypotheses`` ``(dy, dx)``, of ranks
    ``rank, rank + 1, ...`` in :func:`repro.core.matching.hypothesis_order`,
    over every pixel, or over the distinct flat ``pixels`` they were
    solved at.  ``best`` is the search's flat ``(error, rank, params, u,
    v)``.  Hypothesis by hypothesis, a pixel takes the solution when its
    error is strictly lower, or equal at a lower rank: a NaN error never
    wins, and an unsolved pixel (+inf at rank -1) is never tied.  The
    winner's ``(u, v)`` is the hypothesis ``(dx, dy)``, or with the
    ``(n, H, W)`` semi-fluid deltas the pixel's own drift (eq. 8).
    """
    flat_error, flat_rank, flat_params, flat_u, flat_v = best
    for k, (hyp_dy, hyp_dx) in enumerate(hypotheses):
        error_k = error[k].reshape(-1)
        best_k = flat_error if pixels is None else flat_error[pixels]
        rank_k = flat_rank if pixels is None else flat_rank[pixels]
        better = (error_k < best_k) | ((error_k == best_k) & (rank + k < rank_k))
        winners = np.flatnonzero(better) if pixels is None else pixels[better]
        flat_error[winners] = error_k[better]
        flat_rank[winners] = rank + k
        flat_params[winners] = params[k].reshape(-1, 6)[better]
        if delta_y is None:
            flat_u[winners] = float(hyp_dx)
            flat_v[winners] = float(hyp_dy)
        else:
            flat_u[winners] = delta_x[k].reshape(-1)[winners]
            flat_v[winners] = delta_y[k].reshape(-1)[winners]


def eliminate(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched partial-pivot Gaussian elimination, NumPy reference path.

    Solves ``A x = b`` for ``(..., n, n)`` matrices and ``(..., n)``
    right-hand sides; the SIMD-lockstep rendering of the paper's per-PE
    6x6 elimination.  At step ``k`` every system selects its own pivot
    row, as a per-PE elimination does on a SIMD array (the *schedule* is
    shared, the *data* is not).  Inputs are copied and validated here.
    Every batched solve outside the hypothesis search runs this function,
    as :func:`repro.core.linalg.gaussian_eliminate`; the native template
    solve (:class:`repro.native.BoundSums`) replays its arithmetic.

    Returns ``(solutions, singular)``: ``(..., n)`` solutions, zero in
    rows flagged singular (a pivot below :data:`SINGULAR_TOLERANCE`),
    and the ``(...,)`` flags.
    """
    a = np.array(matrices, dtype=np.float64, copy=True)
    b = np.array(rhs, dtype=np.float64, copy=True)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrices must be (..., n, n), got {a.shape}")
    n = a.shape[-1]
    if b.shape != a.shape[:-1]:
        raise ValueError(f"rhs shape {b.shape} does not match matrices {a.shape}")

    batch_shape = a.shape[:-2]
    a = a.reshape((-1, n, n))
    b = b.reshape((-1, n))
    m = a.shape[0]
    singular = np.zeros(m, dtype=bool)
    rows = np.arange(m)

    # Forward elimination with per-system partial pivoting.
    for k in range(n):
        pivot_rel = np.argmax(np.abs(a[:, k:, k]), axis=1)
        pivot = k + pivot_rel
        swap = pivot != k
        if swap.any():
            idx = rows[swap]
            a[idx, k, :], a[idx, pivot[swap], :] = (
                a[idx, pivot[swap], :].copy(),
                a[idx, k, :].copy(),
            )
            b[idx, k], b[idx, pivot[swap]] = b[idx, pivot[swap]].copy(), b[idx, k].copy()
        pivots = a[:, k, k]
        bad = np.abs(pivots) < SINGULAR_TOLERANCE
        singular |= bad
        safe = np.where(bad, 1.0, pivots)
        if k + 1 < n:
            factors = a[:, k + 1 :, k] / safe[:, None]
            factors[bad] = 0.0
            a[:, k + 1 :, :] -= factors[:, :, None] * a[:, k, None, :]
            b[:, k + 1 :] -= factors * b[:, k, None]

    # Back substitution.
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        acc = b[:, k] - np.einsum("ij,ij->i", a[:, k, k + 1 :], x[:, k + 1 :])
        pivots = a[:, k, k]
        safe = np.where(np.abs(pivots) < SINGULAR_TOLERANCE, 1.0, pivots)
        x[:, k] = acc / safe
    x[singular] = 0.0

    return x.reshape(batch_shape + (n,)), singular.reshape(batch_shape)
